"""Output checks computed apart from the program.

Everything here uses plain Python integers and dicts; nothing imports
``torus_super``.  A program result is read only through its plain data:
``result.terms.terms`` (a dict from ``(a, q, t)`` exponents to coefficients),
``result.gcd`` and, for the classical reductions, the ``terms`` dict of the
one-variable polynomial ``specialize`` returns.

Every checker returns a list of error strings; an empty list means the output
passed.
"""

from __future__ import annotations

import json
from math import comb, gcd

# -- univariate integer polynomials as {exponent: coefficient} -------------------


def _clean(p: dict[int, int]) -> dict[int, int]:
    return {e: c for e, c in p.items() if c}


def poly_mul(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return _clean(out)


def poly_divexact(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    """Quotient ``f / g`` of polynomials with nonnegative exponents.

    Raises ``ArithmeticError`` unless the quotient has integer coefficients and
    the remainder is zero.
    """
    rem = _clean(dict(f))
    g = _clean(g)
    top = max(g)
    lead = g[top]
    quotient: dict[int, int] = {}
    while rem and max(rem) >= top:
        e = max(rem)
        c, r = divmod(rem[e], lead)
        if r:
            raise ArithmeticError("quotient is not integral")
        quotient[e - top] = c
        for ge, gc in g.items():
            k = e - top + ge
            rem[k] = rem.get(k, 0) - c * gc
            if not rem[k]:
                del rem[k]
    if rem:
        raise ArithmeticError("nonzero remainder")
    return quotient


def minus_one(power: int) -> dict[int, int]:
    """``x^power - 1`` for ``power >= 1``."""
    return {power: 1, 0: -1}


def shift_normal(p: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """Shift to lowest degree 0 and flip the sign so the lowest coefficient is
    positive; the form two presentations of one polynomial share."""
    p = _clean(p)
    if not p:
        return ()
    low = min(p)
    sign = 1 if p[low] > 0 else -1
    return tuple(sorted((e - low, sign * c) for e, c in p.items()))


def at_q_squared(p: dict[int, int]) -> dict[int, int]:
    return {2 * e: c for e, c in p.items()}


# -- closed forms for torus knots T(n, m) -----------------------------------------


def alexander_closed(n: int, m: int) -> dict[int, int]:
    """``Δ(x) = (x^{nm} - 1)(x - 1) / ((x^n - 1)(x^m - 1))``."""
    num = poly_mul(minus_one(n * m), minus_one(1))
    return poly_divexact(num, poly_mul(minus_one(n), minus_one(m)))


def jones_closed(n: int, m: int) -> dict[int, int]:
    """``V(x) = x^{(n-1)(m-1)/2} (1 - x^{n+1} - x^{m+1} + x^{n+m}) / (1 - x^2)``."""
    num: dict[int, int] = {}
    for e, c in ((0, 1), (n + 1, -1), (m + 1, -1), (n + m, 1)):
        num[e] = num.get(e, 0) + c
    quotient = poly_divexact(_clean(num), {0: 1, 2: -1})
    shift = (n - 1) * (m - 1) // 2
    return {e + shift: c for e, c in quotient.items()}


def rational_catalan(n: int, m: int) -> int:
    """``C(n + m, n) / (n + m)``, an integer for coprime ``(n, m)``."""
    whole, rem = divmod(comb(n + m, n), n + m)
    if rem:
        raise ArithmeticError(f"rational Catalan number of ({n},{m}) is not integral")
    return whole


def in_closed_form_scope(n: int, m: int) -> bool:
    """Coprime pairs with ``m ≡ ±1 (mod n)``, where ``t = -1`` gives HOMFLY."""
    return gcd(n, m) == 1 and m % n in (1, n - 1)


# -- checkers ------------------------------------------------------------------


def check_properties(n: int, m: int, terms: dict) -> list[str]:
    """Positivity, integrality, normalization and a-degree shape of P(n, m).

    The a-exponents are even and span ``0 .. 2(b - 1)`` where
    ``b = min(n, m)`` is the braid index; for ``n < m`` that is ``2(n - 1)``.
    """
    tag = f"({n},{m})"
    if not terms:
        return [f"{tag}: no terms"]
    errors = []
    bad = [c for c in terms.values() if type(c) is not int or c <= 0]
    if bad:
        errors.append(f"{tag}: {len(bad)} coefficients are not positive integers, e.g. {bad[0]!r}")
    if terms.get((0, 0, 0)) != 1:
        errors.append(f"{tag}: constant term is {terms.get((0, 0, 0), 0)!r}, not 1")
    lowest = tuple(min(col) for col in zip(*terms))
    if lowest != (0, 0, 0):
        errors.append(f"{tag}: lowest exponents are {lowest}, not (0, 0, 0)")
    a_exps = {e[0] for e in terms}
    if any(a % 2 for a in a_exps):
        errors.append(f"{tag}: odd a-exponent")
    span = (min(a_exps), max(a_exps))
    want = (0, 2 * (min(n, m) - 1))
    if span != want:
        errors.append(f"{tag}: a-exponents span {span}, expected {want}")
    return errors


def check_closed_forms(
    n: int, m: int, terms: dict, alexander: dict, jones: dict
) -> list[str]:
    """Compare the reductions of P(n, m) with the torus-knot closed forms.

    ``alexander`` and ``jones`` are the ``terms`` dicts, keyed by 1-tuples, of
    the program's ``a -> 1`` and ``a -> q^2`` reductions at ``t = -1``.
    """
    tag = f"({n},{m})"
    errors = []
    got_alex = shift_normal({e[0]: c for e, c in alexander.items()})
    if got_alex != shift_normal(at_q_squared(alexander_closed(n, m))):
        errors.append(f"{tag}: Alexander reduction differs from Δ(q^2)")
    got_jones = shift_normal({e[0]: c for e, c in jones.items()})
    if got_jones != shift_normal(at_q_squared(jones_closed(n, m))):
        errors.append(f"{tag}: Jones reduction differs from V(q^2)")
    count = sum(c for e, c in terms.items() if e[0] == 0)
    if count != rational_catalan(n, m):
        errors.append(
            f"{tag}: a^0 part at q = t = 1 is {count}, rational Catalan is {rational_catalan(n, m)}"
        )
    return errors


def check_polynomial(n: int, m: int, terms: dict, reduce) -> list[str]:
    """Properties of a polynomial P(n, m), and the closed forms when in scope.

    ``reduce(target)`` returns the terms dict of the program's ``target``
    reduction (``"alexander"`` or ``"jones"``) of the same polynomial.
    """
    errors = check_properties(n, m, terms)
    if in_closed_form_scope(n, m):
        errors += check_closed_forms(n, m, terms, reduce("alexander"), reduce("jones"))
    return errors


def check_knot(n: int, m: int, result, specialize) -> list[str]:
    """All checks that apply to one ``compute(n, m)`` outcome.

    Non-coprime pairs must come back non-polynomial carrying their gcd;
    coprime pairs go through :func:`check_polynomial`.  ``specialize`` is the
    program's reduction function.
    """
    tag = f"({n},{m})"
    g = gcd(n, m)
    is_poly = hasattr(result, "terms")
    if g > 1:
        if is_poly:
            return [f"{tag}: gcd {g} but a polynomial came back"]
        if getattr(result, "gcd", None) != g:
            return [f"{tag}: non-polynomial result carries gcd {getattr(result, 'gcd', None)}, not {g}"]
        return []
    if not is_poly:
        return [f"{tag}: coprime pair came back non-polynomial"]
    return check_polynomial(
        n, m, result.terms.terms, lambda target: specialize(result, target).terms
    )


# -- the stored tables -----------------------------------------------------------


def _terms_list(terms: dict) -> list:
    return [[e[0], e[1], e[2], str(c)] for e, c in sorted(terms.items())]


def knot_json(n: int, m: int, terms: dict) -> str:
    """The corpus fixture format: one line, terms ascending over (a, q, t)."""
    payload = {"n": n, "m": m, "normalized": True, "terms": _terms_list(terms)}
    return json.dumps(payload, separators=(",", ":"))


def genfun_json(n: int, r: int, numerator, poles) -> str:
    """The generating-function fixture format; ``numerator`` is a sequence of
    ``(z power, terms dict)``."""
    payload = {
        "n": n,
        "r": r,
        "numerator": [[j, _terms_list(terms)] for j, terms in numerator],
        "denominator": [list(p) for p in poles],
    }
    return json.dumps(payload, separators=(",", ":"))


def check_fixture(tag: str, stored: str, rendered: str) -> list[str]:
    if stored.strip() == rendered:
        return []
    return [f"{tag}: output differs from the stored table"]

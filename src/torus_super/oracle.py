"""Brute-force symmetric-function oracle for the closed-form ingredients.

Everything here is deliberately independent of the factored closed forms it
validates: Macdonald polynomials are built from scratch by Gram-Schmidt
orthogonalization of the monomial basis (ordered by dominance) with respect
to the (q, t) power-sum inner product

    <p_lam, p_mu> = delta * z_lam * prod_i (1 - q^lam_i) / (1 - t^lam_i),

with basis conversions through explicit polynomial expansions and an exact
rational linear solve.  Desk scale only: degrees up to 5.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, isqrt, lcm
from typing import Iterator, Sequence

from .algebra import (
    MACD,
    Alphabet,
    Coeff,
    FactoredRational,
    LaurentPolynomial,
    Monomial,
    SubstitutionMap,
    as_coeff,
    monomial_div,
    monomial_mul,
    unit_monomial,
)
from .macdonald import cauchy_norm, macdonald_dimension, power_sum_coefficient
from .partitions import (
    Partition,
    check_partition,
    dominance_leq,
    enumerate_partitions,
    size,
)

QT: Alphabet = ("q", "t")

MAX_DEGREE = 5


# -- bivariate gcd (used only to keep oracle fractions reduced) -----------------
#
# The heuristic gcd GCDHEU of Char, Geddes & Gonnet (J. Symbolic Comput. 7,
# 1989; evaluated by Liao & Fateman, ISSAC 1995) on Python ints, over dicts
# {exponents: int} with exponents >= 0.  The last variable is set to an
# integer point, the images' gcd is taken one variable down, and candidates
# are read back from symmetric digits and certified by exact division.

_MAX_POINTS = 16

ZPoly = dict[tuple[int, ...], int]


def _points(norm: int, nvars: int) -> Iterator[int]:
    """Evaluation points for two polynomials in ``nvars`` variables whose
    smaller max-norm is ``norm``; ``ArithmeticError`` after ``_MAX_POINTS``.

    Each point is at least ``2 * norm + 2``, as :func:`_gcd_terms`'s proof
    needs.  The growth ``x * x^(1/4) * 73794 // 27011`` and the start
    ``2 * norm + 29`` are sympy's (``dup_zz_heu_gcd``), the start shifted by
    ``nvars - 1``: equal starts set q and t to one value whenever the norms
    agree at both levels, as for inputs free of t, and every ``q^a t^b - 1``
    to ``x^(a + b) - 1``, whose shared divisors fake a gcd.  In
    ``verify oracle --max-size 4`` that made 828 of 4 722 points retries,
    against 54 of 3 944.  sympy's other start term never exceeds
    ``2 * norm + 29``, and its cap ``99 * sqrt(B)`` can fall below the bound.
    """
    x = 2 * norm + 28 + nvars
    for _ in range(_MAX_POINTS):
        yield x
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    raise ArithmeticError(f"heuristic gcd: no certified gcd within {_MAX_POINTS} evaluation points")


def _read(p: ZPoly, x: int) -> ZPoly:
    """The polynomial, one variable up, whose image at ``x`` is ``p``: each
    coefficient becomes its symmetric base-``x`` digits, all in [-x/2, x/2]."""
    out = {}
    for e, n in p.items():
        j = 0
        while n:
            d = n % x
            if d > x // 2:
                d -= x
            if d:
                out[e + (j,)] = d
            n, j = (n - d) // x, j + 1
    return out


def _quo(f: ZPoly, d: ZPoly) -> ZPoly | None:
    """``f / d`` over Z, or None unless ``d`` divides ``f`` exactly.

    Lex reduction: each step divides the remainder's leading term by ``d``'s
    and subtracts that term times ``d``.  An exact division leaves ``d``
    times the rest of the quotient, so a negative exponent or a coefficient
    that does not divide proves ``d`` no divisor; ``u`` comes back only when
    ``f == d * u``.  It ends, as each step trades the leading term for lower
    ones of exponents >= 0, where lex order has no infinite descending chain.
    """
    rem, u, lead = dict(f), {}, max(d)
    while rem:
        e = max(rem)
        qe = monomial_div(e, lead)
        if rem[e] % d[lead] or min(qe) < 0:
            return None
        qc = u[qe] = rem[e] // d[lead]
        for de, dc in d.items():  # clears e, the leading term
            ne = monomial_mul(qe, de)
            rem[ne] = rem.get(ne, 0) - qc * dc
            if not rem[ne]:  # deleted at once: max(rem) must not pick a cancelled term
                del rem[ne]
    return u


def _heu_gcd(f: ZPoly, g: ZPoly) -> tuple[ZPoly, ZPoly, ZPoly]:
    """``(h, f / h, g / h)`` for ``h = gcd(f, g)`` up to sign, by GCDHEU
    (:func:`_gcd_terms`), with the integer contents taken apart exactly."""
    cf, cg = gcd(*f.values()), gcd(*g.values())
    k = gcd(cf, cg)
    if () in f:  # integers
        return {(): k}, {(): f[()] // k}, {(): g[()] // k}
    f, g = {e: c // cf for e, c in f.items()}, {e: c // cg for e, c in g.items()}
    zero = (0,) * len(next(iter(f)))
    for x in _points(min(max(map(abs, f.values())), max(map(abs, g.values()))), len(zero)):
        images = [{}, {}]
        for p, image in zip((f, g), images):
            for e, c in p.items():
                image[e[:-1]] = image.get(e[:-1], 0) + c * x ** e[-1]
        if not all(any(image.values()) for image in images):
            continue
        n, a, b = _heu_gcd(*({e: c for e, c in image.items() if c} for image in images))
        h = _read(n, x)
        if list(h) == [zero]:  # a constant: the primitive parts are coprime
            h, u, v = {zero: 1}, f, g
        else:
            content = gcd(*h.values())
            h = {e: c // content for e, c in h.items()}
            u = _quo(f, h)
            v = None if u is None else _quo(g, h)
            if v is None:  # f's cofactor
                u = _read(a, x)
                h = _quo(f, u)
                v = None if h is None else _quo(g, h)
            if v is None:  # g's cofactor
                v = _read(b, x)
                h = _quo(g, v)
                u = None if h is None else _quo(f, h)
            if u is None:
                continue
        return ({e: c * k for e, c in h.items()}, {e: c * (cf // k) for e, c in u.items()},
                {e: c * (cg // k) for e, c in v.items()})
    # not reached: _points raises once it runs out


def _cleared(p: LaurentPolynomial) -> tuple[Coeff, Monomial, ZPoly]:
    """``(unit, (a, b), P)`` with ``p = unit * q^a * t^b * P``: ``P`` has
    coprime integer coefficients and no monomial content."""
    a, b = p.content()
    scale = lcm(*(c.denominator for c in p.terms.values()))
    ints = {(i - a, j - b): c.numerator * (scale // c.denominator) for (i, j), c in p.terms.items()}
    common = gcd(*ints.values())
    unit = Fraction(common, scale) if scale > 1 else common
    return unit, (a, b), {e: c // common for e, c in ints.items()}


def _lifted(p: ZPoly, unit: Coeff = 1, shift: Monomial = (0, 0)) -> LaurentPolynomial:
    """``unit * q^a * t^b * p`` for ``shift = (a, b)``, the inverse of :func:`_cleared`."""
    terms = {(i + shift[0], j + shift[1]): as_coeff(c * unit) for (i, j), c in p.items()}
    return LaurentPolynomial._of(QT, terms)


def _gcd_terms(
    f: LaurentPolynomial, g: LaurentPolynomial
) -> tuple[LaurentPolynomial, LaurentPolynomial, LaurentPolynomial]:
    """Gcd of two nonzero (q, t) Laurent polynomials, and the cofactors.

    Returns ``(c, f / c, g / c)`` with exact quotients: ``(f, 1, 1)`` if
    ``f == g`` and ``(1, f, g)`` if either is a monomial, a unit; otherwise
    ``c`` is an integer primitive polynomial equal to the gcd up to a
    rational scalar and a monomial, with the quotients of its certificate.

    Algorithm (:func:`_heu_gcd`).  ``f`` and ``g`` are cleared of monomial
    content, denominators and integer content to F and G in Z[q, t]
    (:func:`_cleared`).  At each point xi of :func:`_points`, at least
    ``2 * min(|F|, |G|) + 2`` for the max-norm ``|.|``, t is set to xi, and
    the same steps one variable down give the gcd H of F(q, xi) and
    G(q, xi) in Z[q], with both cofactors; a point where an image is 0 is
    skipped.  Three candidates come from the symmetric xi-adic digits
    (:func:`_read`): the primitive part h of H's reading, and h = F / C or
    G / C for the reading C of F's or G's cofactor.  The first h that
    divides both F and G (:func:`_quo`) is the gcd.  A constant reading of
    H gives h = 1, which needs no certificate.

    Proof that a certified h is the gcd Gamma.  As h divides F and G,
    ``Gamma = h * w`` for some w in Z[q, t], and Gamma(q, xi) divides H.
    If h comes from H's reading, with content kappa, then
    ``H = kappa * h(q, xi)``, so w(q, xi) divides kappa, and
    ``|kappa| <= xi / 2`` as kappa divides a digit.  If ``F = h * C``, write
    ``F = Gamma * phi`` and ``H = Gamma(q, xi) * m``: then ``C = w * phi``
    and ``C(q, xi) = F(q, xi) / H = phi(q, xi) / m``, so w(q, xi) divides 1
    (G's cofactor alike).  Either way w(q, xi) is a constant.  By Cauchy's
    bound every root of lc_q(w), which divides lc_q(F) and lc_q(G), is below
    ``1 + min(|F|, |G|) <= xi / 2``, so ``deg_q w = deg_q w(q, xi) = 0``.
    The roots of w(t) are roots of every q-coefficient of F and G, so a w(t)
    of positive degree has ``|w(xi)| > (xi / 2)^deg >= xi / 2`` and cannot
    divide kappa or 1.  So w is a constant.  The step one variable down
    repeats this proof, so H is exact, as the proof needs.
    """
    if f == g:
        return f, LaurentPolynomial.one(QT), LaurentPolynomial.one(QT)
    if f.term_count > 1 and g.term_count > 1:  # a monomial is a unit
        (unit_f, shift_f, fp), (unit_g, shift_g, gp) = (_cleared(p) for p in (f, g))
        h, u, v = _heu_gcd(fp, gp)
        if len(h) > 1:
            return _lifted(h), _lifted(u, unit_f, shift_f), _lifted(v, unit_g, shift_g)
    return LaurentPolynomial.one(QT), f, g


def _canonical(
    num: LaurentPolynomial, den: LaurentPolynomial, coprime: bool = False
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Canonical ``(num, den)`` of a (q, t) fraction, put in lowest terms
    unless ``coprime`` says it is.

    One clearing (:func:`_cleared`) gives ``num = u * x^s * N`` and
    ``den = v * x^r * D``, N and D primitive with no monomial content;
    unless ``coprime``, their gcd's cofactors (:func:`_heu_gcd`) replace
    them.  The result is ``a * x^(s - r) * N / (b * D)`` for
    ``a / b = +-u / v`` in lowest terms, signed so that ``b * D`` leads
    positive in lex order.  The form is unique: lowest terms fix a fraction
    up to a scalar and a monomial, and the joint integer content is
    ``gcd(a, b) = 1`` because N and D are primitive.  ``coprime`` input
    already canonical is returned as is.
    """
    if num.is_zero():
        return num, LaurentPolynomial.one(QT)
    if coprime and den.terms[max(den.terms)] > 0 and not any(den.content()):
        coeffs = (*num.terms.values(), *den.terms.values())
        if lcm(*(c.denominator for c in coeffs)) == 1 == gcd(*(c.numerator for c in coeffs)):
            return num, den
    (u, s, n), (v, r, d) = _cleared(num), _cleared(den)
    if not coprime and len(n) > 1 and len(d) > 1:
        _, n, d = _heu_gcd(n, d)
    a, b = (Fraction(u) / v).as_integer_ratio()
    if d[max(d)] < 0:
        a, b = -a, -b
    return _lifted(n, a, monomial_div(s, r)), _lifted(d, b)


_SCALARS = (int, Fraction)


class RationalFunction:
    """Quotient of two exact Laurent polynomials in (q, t), in lowest terms.

    Canonical form (:func:`_canonical`): ``num`` and ``den`` have integer
    coefficients with no common integer factor, ``den`` has no monomial
    content and a positive lex-leading coefficient.  The constructor also
    cancels the certified bivariate gcd, so equal values have identical
    ``num`` and ``den``.  Any alphabet other than (q, t) is a ``ValueError``.

    Addition and multiplication follow Henrici (Knuth, TAOCP vol. 2,
    4.5.1), valid because the units of Q[q^-1, q, t^-1, t] are scalars times
    monomials.  For reduced ``n1/d1`` and ``n2/d2`` with ``g = gcd(d1, d2)``
    and ``d_i = g * d_i'``, ``s = n1 * d2' + n2 * d1'`` is prime to ``d1'``
    and ``d2'``, so the sum ``s / (g * d1' * d2')`` needs only ``gcd(s, g)``
    (none when ``g`` is a unit).  A product needs only the cross gcds ``gcd(n1, d2)`` and
    ``gcd(n2, d1)``: the product of the cofactors is in lowest terms.  The
    gcds keep the Gram-Schmidt sizes tame: without them,
    ``torus-super verify oracle --max-size 4`` ran for over two minutes on a
    2-core machine.  Its 42 checks take about 0.20 s of CPU time there
    against 0.30 s with a gcd of every whole sum and product (medians of 8
    interleaved runs, Python 3.11.7; ``BENCH_20.json`` has the benchmark).
    Equality compares the parts: sound, as equal parts are one value, and
    complete, as the form is unique (else a check fails, never passes
    falsely).  ``int`` and ``Fraction`` operands act as constants.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPolynomial, den: LaurentPolynomial | None = None):
        if den is None:
            den = LaurentPolynomial.one(num.alphabet)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.alphabet != QT or den.alphabet != QT:
            raise ValueError(f"fractions are over {QT}, got {num.alphabet} / {den.alphabet}")
        self.num, self.den = _canonical(num, den)

    # -- constructors --------------------------------------------------------

    @classmethod
    def const(cls, value: Coeff) -> "RationalFunction":
        return cls(LaurentPolynomial.constant(QT, value))

    @classmethod
    def _coprime(cls, num: LaurentPolynomial, den: LaurentPolynomial) -> "RationalFunction":
        """``num / den`` with no gcd taken, known to be in lowest terms."""
        out = cls.__new__(cls)
        out.num, out.den = _canonical(num, den, coprime=True)
        return out

    def _lift(self, other: object) -> "RationalFunction":
        if isinstance(other, _SCALARS):
            return RationalFunction.const(other)
        return other if isinstance(other, RationalFunction) else NotImplemented

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other: object) -> bool:
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None  # type: ignore[assignment]

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "RationalFunction | Coeff") -> "RationalFunction":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        g, d1, d2 = _gcd_terms(d1, d2)
        top = n1 * d2 + n2 * d1
        if g.term_count > 1 and not top.is_zero():
            _, top, g = _gcd_terms(top, g)
        return RationalFunction._coprime(top, g * d1 * d2)

    __radd__ = __add__

    def __sub__(self, other: "RationalFunction | Coeff") -> "RationalFunction":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._coprime(-self.num, self.den)

    def __mul__(self, other: "RationalFunction | Coeff") -> "RationalFunction":
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RF_ZERO
        _, n1, d2 = _gcd_terms(self.num, other.den)
        _, n2, d1 = _gcd_terms(other.num, self.den)
        return RationalFunction._coprime(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalFunction | Coeff") -> "RationalFunction":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * RationalFunction._coprime(other.den, other.num)

    def scale(self, value: Coeff) -> "RationalFunction":
        return RationalFunction._coprime(self.num * value, self.den)

    def substitute(self, sub: SubstitutionMap) -> "RationalFunction":
        return RationalFunction(self.num.substitute(sub), self.den.substitute(sub))

    def __repr__(self) -> str:
        return f"({self.num}) / ({self.den})"


RF_ZERO = RationalFunction.const(0)
RF_ONE = RationalFunction.const(1)


def rational_of_factored(fr: FactoredRational, a_image: Monomial | None = None) -> RationalFunction:
    """Expand a factored (q, t, A) rational into a RationalFunction.

    With ``a_image = (i, j)``, A becomes ``q^i t^j``; without it, a
    rational that involves A is a ``ValueError``.
    """
    num, den = fr.expand()
    if a_image is None and any(e[2] for p in (num, den) for e in p.terms):
        raise ValueError("polynomial genuinely involves A")
    to_qt = SubstitutionMap(
        MACD, QT, {"q": (1, (1, 0)), "t": (1, (0, 1)), "A": (1, a_image or (0, 0))}
    )
    return RationalFunction(num.substitute(to_qt), den.substitute(to_qt))


# -- concrete symmetric polynomials over x variables ---------------------------


def x_alphabet(count: int, prefix: str = "x") -> Alphabet:
    return tuple(f"{prefix}{i}" for i in range(1, count + 1))


def monomial_symmetric(alphabet: Alphabet, mu: Partition) -> LaurentPolynomial:
    """m_mu: sum of all distinct permutations of the padded exponent vector."""
    n = len(alphabet)
    if len(mu) > n:
        return LaurentPolynomial.zero(alphabet)
    padded = tuple(mu) + (0,) * (n - len(mu))
    terms = {perm: 1 for perm in set(itertools.permutations(padded))}
    return LaurentPolynomial(alphabet, terms)


def power_sum(alphabet: Alphabet, k: int) -> LaurentPolynomial:
    terms = {}
    for i in range(len(alphabet)):
        e = [0] * len(alphabet)
        e[i] = k
        terms[tuple(e)] = 1
    return LaurentPolynomial(alphabet, terms)


def power_sum_product(alphabet: Alphabet, lam: Partition) -> LaurentPolynomial:
    out = LaurentPolynomial.one(alphabet)
    for part in lam:
        out = out * power_sum(alphabet, part)
    return out


def complete_homogeneous(alphabet: Alphabet, k: int) -> LaurentPolynomial:
    terms: dict[Monomial, int] = {}
    for combo in itertools.combinations_with_replacement(range(len(alphabet)), k):
        e = [0] * len(alphabet)
        for i in combo:
            e[i] += 1
        key = tuple(e)
        terms[key] = terms.get(key, 0) + 1
    return LaurentPolynomial(alphabet, terms)


def coefficient_of_msym(p: LaurentPolynomial, mu: Partition) -> Coeff:
    """Coefficient of m_mu inside a symmetric polynomial (its sorted exponent)."""
    n = len(p.alphabet)
    exps = tuple(mu) + (0,) * (n - len(mu))
    return p.coefficient(exps)


# -- exact linear algebra -------------------------------------------------------


def invert_fraction_matrix(rows: Sequence[Sequence[Coeff]]) -> list[list[Fraction]]:
    n = len(rows)
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@lru_cache(maxsize=None)
def _power_to_monomial_matrix(n: int) -> tuple[tuple[Partition, ...], tuple[tuple[int, ...], ...]]:
    """Rows lam, columns mu: coefficient of m_mu in p_lam, at n variables."""
    plist = tuple(enumerate_partitions(n))
    alphabet = x_alphabet(n)
    matrix = []
    for lam in plist:
        concrete = power_sum_product(alphabet, lam)
        matrix.append(tuple(int(coefficient_of_msym(concrete, mu)) for mu in plist))
    return plist, tuple(matrix)


@lru_cache(maxsize=None)
def _monomial_to_power_inverse(n: int) -> tuple[tuple[Fraction, ...], ...]:
    plist, pm = _power_to_monomial_matrix(n)
    transposed = [[pm[j][i] for j in range(len(plist))] for i in range(len(plist))]
    inv = invert_fraction_matrix(transposed)
    return tuple(tuple(row) for row in inv)


def m_vector_to_p_vector(n: int, coeffs: Sequence[RationalFunction]) -> list[RationalFunction]:
    inv = _monomial_to_power_inverse(n)
    out = []
    for row in inv:
        total = RF_ZERO
        for scalar, rf in zip(row, coeffs):
            if scalar and not rf.is_zero():
                total = total + rf.scale(scalar)
        out.append(total)
    return out


def z_factor(lam: Partition) -> int:
    z = 1
    for part in set(lam):
        mult = lam.count(part)
        z *= part**mult * factorial(mult)
    return z


@lru_cache(maxsize=None)
def _power_sum_weight(lam: Partition) -> RationalFunction:
    """z_lam * prod (1 - q^lam_i) / (1 - t^lam_i)."""
    num = LaurentPolynomial.constant(QT, z_factor(lam))
    den = LaurentPolynomial.one(QT)
    for part in lam:
        num = num * LaurentPolynomial(QT, {(0, 0): 1, (part, 0): -1})
        den = den * LaurentPolynomial(QT, {(0, 0): 1, (0, part): -1})
    return RationalFunction(num, den)


def _pairing(
    weighted: Sequence[RationalFunction], vec: Sequence[RationalFunction | Coeff]
) -> RationalFunction:
    """``<f, g>`` from ``weighted = [w_lam * f[lam]]`` and ``vec = [g[lam]]``,
    both over the p-basis; ``vec`` may hold constants."""
    total = RF_ZERO
    for a, b in zip(weighted, vec):
        if a and b:
            total = total + a * b
    return total


# -- Macdonald polynomials by Gram-Schmidt ---------------------------------------


@lru_cache(maxsize=None)
def _macdonald_family(n: int):
    """All P_y of degree n: m-basis dicts, p-basis vectors, weighted p-basis
    vectors ``[w_lam * P_y[lam]]`` and norms.

    Partitions are processed along a linear extension of dominance from the
    bottom; triangularity and monicity of the outcome are asserted rather
    than assumed.

    Classical Gram-Schmidt: ``P_y = m_y - sum_prev <m_y, P_prev> /
    <P_prev, P_prev> * P_prev`` over the P already built.  Modified
    Gram-Schmidt projects the running remainder instead of ``m_y``; in
    exact arithmetic both give the same coefficients, because each
    ``P_prev`` is orthogonal to every earlier P, so subtracting multiples
    of those leaves the pairing with ``P_prev`` unchanged.  (Modified
    Gram-Schmidt only helps against rounding.)  ``m_y`` in the p-basis is a
    column of the constant inverse matrix, so against the weighted vector
    kept for each finished P a projection is a sum of constant multiples,
    with no (q, t) product; so is the norm ``<P_y, P_y> = <m_y, P_y>``.
    ``P_y``'s p-basis vector comes from its m-basis coefficients through
    the same matrix.
    """
    if n > MAX_DEGREE:
        raise ValueError(f"oracle capped at degree {MAX_DEGREE}")
    plist, _ = _power_to_monomial_matrix(n)
    inv = _monomial_to_power_inverse(n)
    weights = [_power_sum_weight(lam) for lam in plist]

    built_m: dict[Partition, dict[Partition, RationalFunction]] = {}
    built_p: dict[Partition, list[RationalFunction]] = {}
    weighted: dict[Partition, list[RationalFunction]] = {}
    norms: dict[Partition, RationalFunction] = {}

    for i, y in reversed(list(enumerate(plist))):
        my = [row[i] for row in inv]  # m_y in the p-basis
        mdict: dict[Partition, RationalFunction] = {y: RF_ONE}
        for prev in built_m:
            coeff = _pairing(weighted[prev], my) / norms[prev]
            if coeff.is_zero():
                continue
            for mu, c in built_m[prev].items():
                mdict[mu] = mdict.get(mu, RF_ZERO) - coeff * c
        mdict = {mu: c for mu, c in mdict.items() if not c.is_zero()}
        if mdict.get(y) != RF_ONE:
            raise AssertionError(f"P_{y} failed monicity")
        for mu in mdict:
            if not dominance_leq(mu, y):
                raise AssertionError(f"P_{y} has a coefficient above dominance at {mu}")
        built_m[y] = mdict
        built_p[y] = m_vector_to_p_vector(n, [mdict.get(mu, RF_ZERO) for mu in plist])
        weighted[y] = [w * a for w, a in zip(weights, built_p[y])]
        norms[y] = _pairing(weighted[y], my)
        if norms[y].is_zero():
            raise AssertionError(f"P_{y} has vanishing norm")
    return plist, built_m, built_p, weighted, norms


def macdonald_P_mbasis(y: Partition) -> dict[Partition, RationalFunction]:
    """P_y as monomial-basis coefficients over Q(q, t); monic at m_y."""
    y = check_partition(y)
    _, built_m, _, _, _ = _macdonald_family(size(y))
    return built_m[y]


# -- verification routines ---------------------------------------------------------


def principal_value(y: Partition, num_vars: int) -> RationalFunction:
    """P_y at x_i = t^(i-1) for i = 1 .. num_vars, computed from the m-basis."""
    y = check_partition(y)
    total = RF_ZERO
    for mu, c in macdonald_P_mbasis(y).items():
        if len(mu) > num_vars:
            continue
        padded = tuple(mu) + (0,) * (num_vars - len(mu))
        spec: dict[Monomial, int] = {}
        for perm in set(itertools.permutations(padded)):
            e = sum((i - 1) * p for i, p in enumerate(perm, start=1))
            spec[(0, e)] = spec.get((0, e), 0) + 1
        total = total + c * RationalFunction(LaurentPolynomial(QT, spec))
    return total


def verify_dimension(y: Partition, num_vars: int) -> bool:
    """Brute-force principal specialization against the hook-style closed form."""
    closed = rational_of_factored(macdonald_dimension(y), a_image=(0, num_vars))
    return principal_value(y, num_vars) == closed


def verify_orthogonality(n: int) -> bool:
    """All distinct pairs at degree n pair to zero under the inner product."""
    plist, _, built_p, weighted, _ = _macdonald_family(n)
    for i, a in enumerate(plist):
        for b in plist[i + 1:]:
            if not _pairing(weighted[a], built_p[b]).is_zero():
                return False
    return True


def verify_power_sum_expansion(n: int) -> bool:
    """Solve p_n = sum_y c_y P_y triangularly; compare with the closed form."""
    plist, built_m, _, _, _ = _macdonald_family(n)
    alphabet = x_alphabet(n)
    concrete = power_sum(alphabet, n)
    residual: dict[Partition, RationalFunction] = {}
    for mu in plist:
        c = coefficient_of_msym(concrete, mu)
        if c:
            residual[mu] = RationalFunction.const(c)
    solved: dict[Partition, RationalFunction] = {}
    for y in plist:  # dominance-descending linear extension
        c = residual.get(y, RF_ZERO)
        solved[y] = c
        if c.is_zero():
            continue
        for mu, pc in built_m[y].items():
            residual[mu] = residual.get(mu, RF_ZERO) - c * pc
    if any(not v.is_zero() for v in residual.values()):
        return False
    for y in plist:
        closed = rational_of_factored(power_sum_coefficient(y))
        if solved[y] != closed:
            return False
    return True


def _joint(f: LaurentPolynomial, g: LaurentPolynomial) -> LaurentPolynomial:
    """``f(x) * g(y)`` over the alphabet ``x + y`` of two disjoint alphabets."""
    return LaurentPolynomial(
        f.alphabet + g.alphabet,
        {ex + ey: cx * cy for ex, cx in f.terms.items() for ey, cy in g.terms.items()},
    )


def _exp_series_coefficients(
    order: int, factors: dict[int, RationalFunction], tensor: dict[int, LaurentPolynomial],
    alphabet: Alphabet,
) -> list[dict[Monomial, RationalFunction]]:
    """Coefficients of Lambda^0..Lambda^order in exp(sum_k a_k Lambda^k) where
    a_k = factors[k] * tensor[k]; grouped by partition instead of expanding exp.

    At Lambda^j a monomial's coefficient is ``sum_lam scalar_lam * c_lam``
    over the partitions lam of j, for ``scalar_lam = prod_i factors[lam_i] /
    z_lam`` and the integer ``c_lam`` of the monomial in ``prod_i
    tensor[lam_i]``.  Each distinct vector ``((lam, c_lam), ...)`` is summed
    once.
    """
    out = []
    for j in range(order + 1):
        scalars: dict[Partition, RationalFunction] = {}
        vectors: dict[Monomial, list[tuple[Partition, int]]] = {}
        for lam in enumerate_partitions(j):
            scalar = RationalFunction.const(Fraction(1, z_factor(lam)))
            poly = LaurentPolynomial.one(alphabet)
            for part in lam:
                scalar = scalar * factors[part]
                poly = poly * tensor[part]
            scalars[lam] = scalar
            for exps, c in poly.terms.items():
                vectors.setdefault(exps, []).append((lam, c))
        keys = {exps: tuple(vec) for exps, vec in vectors.items()}
        sums = {
            vec: sum((scalars[lam].scale(c) for lam, c in vec), RF_ZERO)
            for vec in set(keys.values())
        }
        out.append({exps: sums[vec] for exps, vec in keys.items() if sums[vec]})
    return out


def verify_cauchy(order: int, nx: int, ny: int, principal_l: int | None = None) -> bool:
    """Kernel identity to order Lambda^order, expanded over explicit variables.

    With ``principal_l`` set, the y side is specialized to (1, t, ..,
    t^(L-1)), replaying the finite-L step of the expansion-coefficient
    derivation before its limit; ``ny`` is then unused.

    The left side's coefficient of a monomial depends only on its pair of
    m-basis orbits (mu, nu), one in x and one in y: it is computed once per
    pair, as ``sum_Y b_Y * [m_mu]P_Y * [m_nu]P_Y``, with ``P_Y(1, .., t^(L-1))``
    in place of ``[m_nu]P_Y`` under ``principal_l``.  The two sides are then
    compared monomial by monomial.
    """
    if order > 3:
        raise ValueError("kernel check capped at order 3")
    xs = x_alphabet(nx)
    ys = x_alphabet(ny, prefix="y") if principal_l is None else ()
    joint = xs + ys

    # Left side: sum over |Y| <= order of b_Y * P_Y(x) * P_Y(y).
    lhs: list[dict[Monomial, RationalFunction]] = [{unit_monomial(joint): RF_ONE}]
    for j in range(1, order + 1):
        sums: dict[tuple[Partition, Partition], RationalFunction] = {}
        for y in enumerate_partitions(j):
            b = rational_of_factored(cauchy_norm(y))
            in_x = macdonald_P_mbasis(y)
            in_y = in_x if principal_l is None else {(): principal_value(y, principal_l)}
            for mu, cx in in_x.items():
                bx = b * cx
                for nu, cy in in_y.items():
                    sums[mu, nu] = sums.get((mu, nu), RF_ZERO) + bx * cy
        lhs.append({
            exps: s
            for (mu, nu), s in sums.items() if s
            for exps in _joint(monomial_symmetric(xs, mu), monomial_symmetric(ys, nu)).terms
        })

    # Right side: exp(sum_k Lambda^k / k * (1-t^k)/(1-q^k) * p_k(x) p_k(y)),
    # with p_k(1, .., t^(L-1)) = (1-t^(kL))/(1-t^k) under principal_l.
    span = 1 if principal_l is None else principal_l
    factors: dict[int, RationalFunction] = {}
    tensor: dict[int, LaurentPolynomial] = {}
    for k in range(1, order + 1):
        factors[k] = RationalFunction(
            LaurentPolynomial(QT, {(0, 0): 1, (0, k * span): -1}),
            LaurentPolynomial(QT, {(0, 0): 1, (k, 0): -1}),
        )
        py = power_sum(ys, k) if principal_l is None else LaurentPolynomial.one(ys)
        tensor[k] = _joint(power_sum(xs, k), py)
    rhs = _exp_series_coefficients(order, factors, tensor, joint)

    for j in range(order + 1):
        for key in set(lhs[j]) | set(rhs[j]):
            if lhs[j].get(key, RF_ZERO) != rhs[j].get(key, RF_ZERO):
                return False
    return True


def verify_expansion_limit(y: Partition) -> bool:
    """The A -> 1 limit identity: C_y = (1 - q^n) m_y [dim_y / (1 - A)] at A = 1."""
    y = check_partition(y)
    n = size(y)
    dim = macdonald_dimension(y)
    corner = (0, 0, 1)  # the (1,1) cell contributes exactly 1 - A
    if dim.factors.get(corner, 0) < 1:
        raise AssertionError("dimension lost its corner factor")
    trimmed = dim * FactoredRational(MACD, factors={corner: -1})
    limit = rational_of_factored(trimmed, a_image=(0, 0))  # A -> 1

    one_minus_qn = RationalFunction(LaurentPolynomial(QT, {(0, 0): 1, (n, 0): -1}))
    lhs = rational_of_factored(power_sum_coefficient(y))
    rhs = one_minus_qn * rational_of_factored(cauchy_norm(y)) * limit
    return lhs == rhs


# -- Schur degeneration --------------------------------------------------------


def schur_mbasis(y: Partition) -> dict[Partition, Fraction]:
    """Schur s_y in the m-basis via the Jacobi-Trudi determinant."""
    y = check_partition(y)
    n = size(y)
    alphabet = x_alphabet(n)
    rows = len(y)
    h_cache: dict[int, LaurentPolynomial] = {}

    def h(k: int) -> LaurentPolynomial:
        if k < 0:
            return LaurentPolynomial.zero(alphabet)
        if k not in h_cache:
            h_cache[k] = complete_homogeneous(alphabet, k)
        return h_cache[k]

    det = LaurentPolynomial.zero(alphabet)
    for perm in itertools.permutations(range(rows)):
        sign = 1
        seen = list(perm)
        for i in range(rows):
            for j in range(i + 1, rows):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = LaurentPolynomial.one(alphabet)
        for i, pj in enumerate(perm):
            prod = prod * h(y[i] - (i + 1) + (pj + 1))
        det = det + (prod * sign if sign < 0 else prod)
    out: dict[Partition, Fraction] = {}
    for mu in enumerate_partitions(n):
        c = coefficient_of_msym(det, mu)
        if c:
            out[mu] = Fraction(c)
    return out


def verify_schur_degeneration(y: Partition) -> bool:
    """P_y at q = t equals the Schur polynomial (Jacobi-Trudi, independent)."""
    y = check_partition(y)
    merge = SubstitutionMap(QT, QT, {"q": (1, (0, 1)), "t": (1, (0, 1))})
    schur = schur_mbasis(y)
    pm = macdonald_P_mbasis(y)
    for mu in set(schur) | set(pm):
        val = pm.get(mu, RF_ZERO).substitute(merge)
        want = schur.get(mu, Fraction(0))
        if val != RationalFunction.const(want):
            return False
    return True

"""End-to-end invariants: exact values, flags, specializations, families."""

import ast
import json
import math
import pickle
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from torus_super import cli, invariant
from torus_super.algebra import KNOT, MACD, LaurentPolynomial, expand_binomial_product
from torus_super.invariant import (
    _checked_sum,
    _cone_step,
    _digit_bias,
    _digit_bytes,
    _family_core,
    _normalized,
    _numerators,
    _series_bound,
    _slice_check,
    CalibrationError,
    GeneratingFunction,
    IntegrityError,
    MACD_TO_KNOT,
    NonPolynomial,
    PropertyFlags,
    Superpolynomial,
    compute,
    generating_function,
    generating_function_from_json,
    generating_function_to_json,
    scan,
    specialize,
    superpolynomial_from_json,
    superpolynomial_to_json,
    verify_properties,
)
from torus_super.macdonald import cell_elementary

FIXTURES = Path(__file__).parent.parent / "src" / "torus_super" / "fixtures"


def knot(terms):
    return LaurentPolynomial(KNOT, terms)


def test_compute_rejects_a_pair_that_is_not_two_positive_integers():
    with pytest.raises(ValueError, match=re.escape("n and m must be positive, got (0, 3)")):
        compute(0, 3)
    with pytest.raises(ValueError, match=re.escape("n and m must be positive, got (2, -1)")):
        compute(2, -1)
    with pytest.raises(TypeError, match=re.escape("n and m must be integers, got (2.0, 3)")):
        compute(2.0, 3)


@pytest.mark.parametrize("warm_first", [False, True])
def test_compute_rejects_bool_indices(warm_first):
    # True == 1 and hash(True) == hash(1): a memoized compute(1, m) must not
    # answer compute(True, m).  Each case has an m no other test computes, so
    # the cold one stays cold in any order without clearing the memo.
    m = 103 if warm_first else 101
    if warm_first:
        compute(1, m)
    with pytest.raises(TypeError):
        compute(True, m)
    with pytest.raises(TypeError):
        compute(3, False)
    assert type(compute(1, m).n) is int


def test_trefoil():
    result = compute(2, 3)
    assert isinstance(result, Superpolynomial)
    assert result.terms == knot({(0, 0, 0): 1, (0, 4, 2): 1, (2, 2, 3): 1})
    assert result.flags.all_true


def test_two_five():
    result = compute(2, 5)
    assert result.terms == knot(
        {(0, 0, 0): 1, (0, 4, 2): 1, (0, 8, 4): 1, (2, 2, 3): 1, (2, 6, 5): 1}
    )


def test_even_pair_is_not_polynomial():
    result = compute(2, 4)
    assert isinstance(result, NonPolynomial)
    assert result.gcd == 2
    # The reason names the lowest term of T*D - N, which disproves polynomiality.
    assert "T*D - N has lowest term -1 at (a, q, t) = (0, 6, -10)" in result.reason


def test_multiple_of_strands_is_not_polynomial():
    result = compute(3, 6)
    assert isinstance(result, NonPolynomial)
    assert result.gcd == 3


def test_unknots_are_trivial():
    for m in range(1, 7):
        result = compute(1, m)
        assert result.terms == LaurentPolynomial.one(KNOT)
        assert result.flags.all_true


def test_four_seven_top_block():
    result = compute(4, 7)
    top = {
        (eq, et): c for (ea, eq, et), c in result.terms.terms.items() if ea == 6
    }
    assert top == {(12, 15): 1, (16, 17): 1, (18, 19): 1, (20, 19): 1, (24, 21): 1}


def test_flags_and_normalization_shape():
    for n, m in [(2, 7), (3, 5), (4, 5)]:
        result = compute(n, m)
        assert result.flags.all_true
        assert result.terms.constant_term == 1
        assert result.terms.min_exponents() == (0, 0, 0)
        a_max = result.terms.max_exponents()[0]
        assert a_max == 2 * (n - 1)
        a_powers = {ea for (ea, _, _) in result.terms.terms}
        assert all(ea % 2 == 0 for ea in a_powers)
        # one (q + t) parity class per a-slice
        for ea in a_powers:
            parities = {(eq + et) % 2 for (sa, eq, et) in result.terms.terms if sa == ea}
            assert len(parities) == 1


def _binomial_power(alphabet, b, mult):
    """(1 - x^b)^mult by generic products."""
    one = LaurentPolynomial.one(alphabet)
    factor = LaurentPolynomial(alphabet, {(0,) * len(alphabet): 1, tuple(b): -1})
    out = one
    for _ in range(mult):
        out = out * factor
    return out


def _up_to(poly, q_max):
    """poly without its terms above q^q_max (all of it when q_max is None)."""
    if q_max is None:
        return poly
    return LaurentPolynomial(KNOT, {e: c for e, c in poly.terms.items() if e[1] <= q_max})


def _bold_step(step):
    """The bold image (0, 2(x + y), 2x) of the Macdonald step (x, y) of
    1 - q^x t^y, under q -> q^2 t^2 and t -> q^2."""
    x, y = step
    return 0, 2 * (x + y), 2 * x


def _times_binomials(poly, steps, q_max):
    """poly * prod (1 - x^c)^mult over the bold images c of the Macdonald
    steps, by generic products, kept up to q^q_max.  Every step raises q,
    so the terms kept are exact."""
    for step, mult in steps:
        factor = _binomial_power(KNOT, _bold_step(step), 1)
        for _ in range(mult):
            poly = _up_to(poly * factor, q_max)
    return poly


def _slices(poly):
    """A polynomial over MACD as the code's slices z -> {(x, y): coefficient}."""
    out = {}
    for (x, y, z), c in poly.terms.items():
        out.setdefault(z, {})[x, y] = c
    return out


def _bold(slices):
    """Slices over MACD substituted into (a, q, t) by the generic map."""
    poly = LaurentPolynomial(
        MACD, {(x, y, z): c for z, terms in slices.items() for (x, y), c in terms.items()}
    )
    return poly.substitute(MACD_TO_KNOT)


def _generic_sides(n, m, q_max=None):
    """([n_Y], N) from the family's factored data by generic products only:
    n_Y over MACD, and N = sum_Y n_Y * (D / D_Y) in (a, q, t), with D the
    lcm of the denominators.  Each n_Y * (D / D_Y), and so N, is kept up to
    q^q_max."""
    core = _family_core(n)
    k, r = m // n, m % n
    e = r * n + r * (r - 1) // 2 - n * (n - 1) // 2
    lcm = Counter(dict(core.lcm_steps))
    numerators, total = [], LaurentPolynomial.zero(KNOT)
    for part in core.parts:
        t_q, t_t, _ = part.framing
        shift = tuple(x + y for x, y in zip(part.prefactor, (e + k * t_q, m + k * t_t, 0)))
        num = LaurentPolynomial(MACD, {shift: part.coeff}) * cell_elementary(part.partition, r)
        for b, mult in part.numerator:
            num = num * _binomial_power(MACD, b, mult)
        numerators.append(num)
        missing = (lcm - Counter(dict(part.denominator))).items()
        bold = _up_to(num.substitute(MACD_TO_KNOT), q_max)
        total = total + _times_binomials(bold, missing, q_max)
    return numerators, total


def _times_denominator(poly, n, q_max=None):
    return _times_binomials(_up_to(poly, q_max), _family_core(n).lcm_steps, q_max)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_defining_identity(n):
    # P * D = N exactly, expanded by generic products: no series, no packing.
    for m in range(1, 13):
        if math.gcd(n, m) != 1:
            continue
        result = compute(n, m)
        numerators, total = _generic_sides(n, m)
        assert _numerators(n, m) == [_slices(num) for num in numerators], (n, m)
        raw = result.terms.shifted(result.content)
        assert _times_denominator(raw, n) == total, (n, m)


def _lowest_term(poly):
    """Lowest term in (q, t, a) order, the packing's significance order."""
    e = min(poly.terms, key=lambda x: (x[1], x[2], x[0]))
    return e, poly.terms[e]


def _witness(failure):
    """(exps, diff) named by _checked_sum's failure text."""
    found = re.fullmatch(r"T\*D - N has lowest term (-?\d+) at \(a, q, t\) = (\(.*\))", failure)
    return ast.literal_eval(found[2]), int(found[1])


def test_nonpolynomial_witness_is_lowest_term_of_the_difference():
    # The witness is recomputed with plain products, apart from the packed check.
    # Up to n = 4 the whole difference is formed.  For the larger pairs only
    # its terms up to the witness's q are: every binomial raises q, so those
    # are exact, and a lower term would show among them.
    pairs = [(n, m) for n in range(2, 5) for m in range(1, 13) if math.gcd(n, m) > 1]
    for n, m in pairs + [(5, 10), (6, 8), (6, 9), (6, 10)]:
        result = compute(n, m)
        assert isinstance(result, NonPolynomial), (n, m)
        core = _family_core(n)
        numerators = _numerators(n, m)
        series, failure = _checked_sum(core, numerators)
        witness = _witness(failure)
        q_max = None if n < 5 else witness[0][1]
        _, total = _generic_sides(n, m, q_max)
        exps, diff = _lowest_term(_times_denominator(_bold(series), n, q_max) - total)
        assert f"lowest term {diff} at (a, q, t) = {exps}" in result.reason, (n, m)
        assert witness == (exps, diff), (n, m)


@pytest.mark.parametrize(
    "n,m,witness",
    [
        (4, 2, "lowest term -1 at (a, q, t) = (0, 8, 0)"),
        (4, 6, "lowest term -1 at (a, q, t) = (4, 14, -8)"),
    ],
)
def test_nonpolynomial_witness_texts(n, m, witness):
    # The witness depends on where the series is truncated, so these texts
    # pin the truncation region as well as the order the witness is read in.
    result = compute(n, m)
    assert isinstance(result, NonPolynomial)
    assert f"T*D - N has {witness}" in result.reason


def _corrupted(series, changes):
    """A copy of the series slices with changes {(x, y, z): delta} added."""
    out = {z: dict(terms) for z, terms in series.items()}
    for (x, y, z), delta in changes.items():
        terms = out.setdefault(z, {})
        c = terms.get((x, y), 0) + delta
        if c:
            terms[x, y] = c
        else:
            del terms[x, y]
    return out


def _failure_of(monkeypatch, core, numerators, series):
    """_checked_sum's failure text when its slices of T are those of series:
    _slice_series serves them in the ascending z order it is called in."""
    zs = iter(sorted(set().union(*numerators)))
    with monkeypatch.context() as patch:
        patch.setattr(invariant, "_slice_series", lambda *_: series.get(next(zs), {}))
        return _checked_sum(core, numerators)[1]


@pytest.mark.parametrize("n,m", [(2, 5), (3, 7), (4, 5), (5, 6)])
def test_multiply_back_rejects_corrupted_series(monkeypatch, n, m):
    core = _family_core(n)
    numerators = _numerators(n, m)
    top_d, _ = _series_bound(core, numerators)
    series, failure = _checked_sum(core, numerators)
    assert failure is None
    assert _failure_of(monkeypatch, core, numerators, series) is None
    # Corrupt the series at the Macdonald exponents of chosen bold terms.
    where = {
        MACD_TO_KNOT.image((x, y, z))[1]: (x, y, z)
        for z, terms in series.items() for x, y in terms
    }
    bold = _bold(series)
    terms = bold.sorted_terms()
    for e, _ in (terms[0], terms[len(terms) // 2], terms[-1]):
        x, y, z = where[e]
        for delta in (1, -1):
            bumped = _corrupted(series, {where[e]: delta})
            assert _failure_of(monkeypatch, core, numerators, bumped) is not None, (e, delta)
        dropped = _corrupted(series, {where[e]: -series[z][x, y]})
        assert _bold(dropped) == LaurentPolynomial(KNOT, {u: v for u, v in terms if u != e})
        assert _failure_of(monkeypatch, core, numerators, dropped) is not None, e
    # top_d is tight here, so truncating one step below it loses terms.
    assert bold.max_exponents()[1] == 2 * top_d
    short = {z: {(x, y): c for (x, y), c in terms.items() if x + y < top_d}
             for z, terms in series.items()}
    assert _failure_of(monkeypatch, core, numerators, short) is not None


def _lattice_point(e):
    """Macdonald (x, y) of a bold exponent (a, q, t): t = 2x + a/2, q = 2(x + y)."""
    a, q, t = e
    x = (t - a // 2) // 2
    return x, q // 2 - x


def test_witness_is_lowest_in_q_t_a_order_not_in_packing_order(monkeypatch):
    # T is corrupted by 3 at (x, y, z) = (0, 5, 0), bold (0, 10, 0), and by
    # -2 at (1, 0, 0), bold (0, 2, 2), both in the z = 0 slice, so
    # T*D - N = (3 x^(0,10,0) - 2 x^(0,2,2)) * D.  D starts with 1 and every
    # step raises both q and (x, y), so the first corrupted term is lowest in
    # (x, y) packing order and the second in (q, t, a).
    n, m = 3, 4
    core = _family_core(n)
    numerators = _numerators(n, m)
    series, failure = _checked_sum(core, numerators)
    assert failure is None
    corrupted = _corrupted(series, {(0, 5, 0): 3, (1, 0, 0): -2})
    assert _bold(corrupted) == _bold(series) + knot({(0, 10, 0): 3, (0, 2, 2): -2})
    _, total = _generic_sides(n, m)
    diff = _times_denominator(_bold(corrupted), n) - total
    packing_first = min((e for e in diff.terms if e[0] == 0), key=_lattice_point)
    assert (packing_first, diff.terms[packing_first]) == ((0, 10, 0), 3)
    assert _lowest_term(diff) == ((0, 2, 2), -2)
    failure = _failure_of(monkeypatch, core, numerators, corrupted)
    assert _witness(failure) == ((0, 2, 2), -2)
    # The slice reports the lowest digit of each x-row, both terms among them.
    digits = _slice_check(core, [corrupted[0]] + [num.get(0, {}) for num in numerators])
    assert (digits[0, 5], digits[1, 0]) == (3, -2)


def test_denominators_lie_on_series_cone():
    for n in range(1, 9):
        core = _family_core(n)
        steps = [step for step, _ in core.lcm_steps]
        steps += [step for part in core.parts for step, _ in part.denominator]
        assert set(steps) <= {step for step, _ in core.lcm_steps}
        for x, y in steps:
            assert x >= 0 and y >= 0 and x + y > 0, (n, (x, y))
            a, q, t = _bold_step((x, y))
            assert a == 0 and q > 0 and t >= 0, (n, (a, q, t))
    assert _cone_step((0, 1, 0)) == (0, 1)  # 1 - t
    # 1 - A has an A, so its bold image has an a; 1 - t/q and 1 - t^2/q
    # have x < 0, so theirs lower t; 1 - q/t^2 has y < 0, so its lowers q.
    for b in [(0, 0, 1), (-1, 1, 0), (-1, 2, 0), (1, -2, 0)]:
        with pytest.raises(IntegrityError, match=re.escape(f"1 - x^{b} is off the series cone")):
            _cone_step(b)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_digit_bytes_and_bias_read_signed_digits_back(k):
    # The width rule: |digit| <= bound needs bound < 2^(w - 1), w = 8 * bytes.
    assert _digit_bytes((1 << (8 * k - 1)) - 1) == k
    assert _digit_bytes(1 << (8 * k - 1)) == k + 1
    w, half = 8 * k, 1 << (8 * k - 1)
    rng = random.Random(k)
    digits = [rng.choice((half - 1, 1 - half, 0, rng.randrange(1 - half, half))) for _ in range(40)]
    digits += [half - 1, 1 - half]  # the top digit is negative
    count = len(digits)
    packed = sum(c << (w * i) for i, c in enumerate(digits))
    # Read: the biased bytes hold each digit plus 2^(w - 1).
    data = (packed + _digit_bias(count, k)).to_bytes(count * k, "little")
    assert [int.from_bytes(data[i * k:(i + 1) * k], "little") - half for i in range(count)] == digits
    # Write: each digit as c + 2^(w - 1), then the bias comes off.
    written = b"".join((c + half).to_bytes(k, "little") for c in digits)
    assert int.from_bytes(written, "little") - _digit_bias(count, k) == packed


@pytest.mark.parametrize("n", range(1, 9))
def test_lcm_peak_matches_the_expansion(n):
    core = _family_core(n)
    bold = [(_bold_step(step), mult) for step, mult in core.lcm_steps]
    expanded = expand_binomial_product(LaurentPolynomial.one(KNOT), bold)
    assert core.lcm_peak == max(abs(c) for c in expanded.terms.values())


def test_verify_properties_identity():
    flags = verify_properties(LaurentPolynomial.one(KNOT))
    assert flags.all_true


def test_verify_properties_names_a_nonpolynomial():
    result = compute(2, 4)
    with pytest.raises(TypeError) as exc:
        verify_properties(result)
    assert str(exc.value) == f"(2,4) has no polynomial to verify: {result.reason}"


def test_matches_stored_fixture():
    for n, m in [(3, 7), (5, 6)]:
        want = (FIXTURES / f"{n}_{m}.json").read_text().strip()
        assert superpolynomial_to_json(compute(n, m)) == want


def test_json_round_trip():
    sp = compute(3, 4)
    back = superpolynomial_from_json(superpolynomial_to_json(sp))
    assert back.terms == sp.terms
    assert (back.n, back.m) == (sp.n, sp.m)
    payload = json.loads(superpolynomial_to_json(sp))
    assert payload["normalized"] is True
    assert payload["terms"] == sorted(payload["terms"])


def test_trefoil_specializations():
    trefoil = compute(2, 3)
    homfly = specialize(trefoil, "homfly")
    assert homfly == LaurentPolynomial(("a", "q"), {(0, 0): 1, (0, 4): 1, (2, 2): -1})
    jones = specialize(trefoil, "jones")
    assert jones == LaurentPolynomial(("q",), {(0,): 1, (4,): 1, (6,): -1})
    alexander = specialize(trefoil, "alexander")
    assert alexander == LaurentPolynomial(("q",), {(0,): 1, (2,): -1, (4,): 1})
    with pytest.raises(ValueError):
        specialize(trefoil, "kauffman")


def test_specialize_names_a_nonpolynomial():
    result = compute(2, 4)
    assert isinstance(result, NonPolynomial)
    with pytest.raises(TypeError) as exc:
        specialize(result, "jones")
    assert "(2,4)" in str(exc.value)
    assert result.reason in str(exc.value)


def _times(f, g):
    """Product of integer polynomials given as coefficient lists, lowest first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _over(f, g):
    """Exact quotient of integer coefficient lists by a monic g."""
    f = list(f)
    quotient = [0] * (len(f) - len(g) + 1)
    for i in reversed(range(len(quotient))):
        quotient[i] = f[i + len(g) - 1]
        for j, b in enumerate(g):
            f[i + j] -= quotient[i] * b
    assert not any(f)
    return quotient


def _binomial(power):
    """x^power - 1, as a coefficient list."""
    return [-1] + [0] * (power - 1) + [1]


def _shape(terms):
    """{exponent: coeff} shifted to lowest exponent 0, lowest coefficient > 0."""
    low = min(terms)
    sign = 1 if terms[low] > 0 else -1
    return {e - low: sign * c for e, c in terms.items() if c}


def _in_q_squared(coeffs):
    return _shape({2 * i: c for i, c in enumerate(coeffs)})


def _reduction(n, m, target):
    return _shape({e: c for (e,), c in specialize(compute(n, m), target).terms.items()})


def _closed_alexander(n, m):
    # (x^nm - 1)(x - 1) / ((x^n - 1)(x^m - 1)) at x = q^2
    top = _times(_binomial(n * m), _binomial(1))
    return _in_q_squared(_over(top, _times(_binomial(n), _binomial(m))))


def _closed_jones(n, m):
    # x^((n-1)(m-1)/2) (1 - x^(n+1) - x^(m+1) + x^(n+m)) / (1 - x^2) at x = q^2;
    # the monomial prefactor drops out of the shape.
    top = [0] * (n + m + 1)
    top[0] += 1
    top[n + 1] -= 1
    top[m + 1] -= 1
    top[n + m] += 1
    return _in_q_squared(_over(top, _binomial(2)))


def test_closed_forms_in_scope():
    # Computed in plain integers, apart from torus_super.algebra.
    assert _closed_alexander(2, 3) == {0: 1, 2: -1, 4: 1}
    assert _closed_jones(2, 3) == {0: 1, 4: 1, 6: -1}
    in_scope = [
        (n, m)
        for n in range(2, 7)
        for m in range(n + 1, 21)
        if math.gcd(n, m) == 1 and m % n in (1, n - 1)
    ]
    assert len(in_scope) == 40  # of the 46 coprime pairs
    for n, m in in_scope:
        assert _reduction(n, m, "alexander") == _closed_alexander(n, m), (n, m)
        assert _reduction(n, m, "jones") == _closed_jones(n, m), (n, m)
    # Outside m = +-1 (mod n) the t = -1 reduction is not the knot's.
    for n, m in [(5, 7), (5, 8)]:
        assert _reduction(n, m, "alexander") != _closed_alexander(n, m)
        assert _reduction(n, m, "jones") != _closed_jones(n, m)


def test_generating_function_two_strand_family():
    gf = generating_function(2, 1)
    assert set(gf.poles) == {(0, 0, 0), (0, 4, 2)}
    numerator = dict(gf.numerator)
    assert numerator[0] == LaurentPolynomial.one(KNOT)
    assert numerator[1] == knot({(2, 2, 3): 1})
    series = gf.series(3)
    for k in range(4):
        assert series[k] == compute(2, 2 * k + 1).terms


def test_generating_function_three_strand_poles():
    gf = generating_function(3, 1)
    assert set(gf.poles) == {(0, 0, 0), (0, 6, 4), (0, 12, 6)}
    assert set(generating_function(3, 2).poles) == {(0, 0, 0), (0, 6, 4), (0, 12, 6)}


@pytest.mark.parametrize("n,r", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 1), (5, 2), (5, 3), (5, 4), (6, 1)])
def test_generating_function_series_matches_direct(n, r):
    # The certified numerator makes the series exact for every k, but
    # generating_function checks the content ratio only over the knots it
    # builds from and compares the series with compute only for k <= 3;
    # past that, normalization must not drift.
    series = generating_function(n, r).series(8)
    for k in range(9):
        assert series[k] == compute(n, n * k + r).terms


def _with_changed_order(monkeypatch, n, r, order, change):
    """Make the certified slices of P(n, n*order + r) reach _normalized as
    change(slices), and undo any earlier change."""
    monkeypatch.undo()
    real = invariant._normalized

    def changed(n_, m, total):
        return real(n_, m, change(total) if (n_, m) == (n, n * order + r) else total)

    monkeypatch.setattr(invariant, "_normalized", changed)


def _bump_one_coefficient(total):
    """T with the coefficient of q^x t^(y+1) A^z raised from 0 to 1, (x, y)
    the last key of T's lowest A-slice: its content and lowest term stay."""
    z = min(total)
    x, y = max(total[z])
    changed = {z_: dict(terms) for z_, terms in total.items()}
    changed[z][x, y + 1] = 1
    return changed


@pytest.mark.parametrize("n,r", [(2, 1), (4, 1), (5, 1)])
def test_fit_certificate_names_the_first_disagreeing_order(monkeypatch, n, r):
    # series(3) must reproduce compute(n, nk + r) for k <= 3.  A changed
    # T_k with k >= 1 is the first order that does not; a changed T_0 is
    # numerator order 0 itself, so the series keeps it and z^1 disagrees.
    for order, named in ((0, 1), (1, 1), (2, 2), (3, 3)):
        _with_changed_order(monkeypatch, n, r, order, _bump_one_coefficient)
        message = f"series order z^{named} disagrees with compute({n},{n * named + r})"
        with pytest.raises(CalibrationError, match=re.escape(message)):
            generating_function(n, r)


def _bump_knot(monkeypatch, n, m):
    """Bump the series sum of P(n, m), found by its numerators, as
    _bump_one_coefficient does, in the first z-slice that has terms, before
    the multiply-back check sees it.  The witness is then the bumped term
    times the constant term 1 of D: the returned list receives its bold image."""
    monkeypatch.undo()
    real_sum, real_series = invariant._checked_sum, invariant._slice_series
    target, witness, zs = invariant._numerators(n, m), [], []

    def checked(core, numerators):
        zs[:] = [iter(sorted(set().union(*numerators)))] if numerators == target else []
        return real_sum(core, numerators)

    def bumped(core, sides, top_d, top_x):
        terms = real_series(core, sides, top_d, top_x)
        if not zs:
            return terms
        z = next(zs[0])
        if witness or not terms:
            return terms
        x, y = max(terms)
        witness.append(f"lowest term {(-1) ** z} at (a, q, t) = {(2 * z, 2 * (x + y + 1), 2 * x + z)}")
        return _bump_one_coefficient({z: terms})[z]

    monkeypatch.setattr(invariant, "_checked_sum", checked)
    monkeypatch.setattr(invariant, "_slice_series", bumped)
    return witness


@pytest.mark.parametrize("n,r", [(2, 1), (5, 1)])
def test_numerator_orders_face_the_multiply_back_check(monkeypatch, capsys, n, r):
    # The orders are built from the knots T_0..T_3 and, for n = 5 (p = 7
    # poles), the mirror knots T_-1..T_-3 too, m = r - 5i < 0.  Each must
    # pass the check: a bumped series sum of any of them is the witness.
    knots = range(-3, 4) if n == 5 else range(4)
    for k in knots:
        m = n * k + r
        witness = _bump_knot(monkeypatch, n, m)
        with pytest.raises(CalibrationError) as err:
            generating_function(n, r)
        assert str(err.value) == f"({n},{m}) is not polynomial: T*D - N has {witness[0]}"
    for k in (1, -1) if n == 5 else (1,):
        m = n * k + r
        witness = _bump_knot(monkeypatch, n, m)
        assert cli.main(["genfun", str(n), str(r)]) == cli.EXIT_CALIBRATION == 4
        message = f"calibration failed: ({n},{m}) is not polynomial: T*D - N has {witness[0]}"
        assert capsys.readouterr().err == message + "\n"


def test_wound_numerators_match_direct():
    # Shifting each summand of P(n, r) by k * f_Y gives P(n, nk + r), also for k < 0.
    for n in range(2, 6):
        for r in range(1, n):
            first = invariant._numerators(n, r)
            for k in range(-3, 4):
                assert invariant._wound(n, first, k) == invariant._numerators(n, n * k + r), (n, r, k)


@pytest.mark.parametrize("n,r,k,named", [(2, 1, 2, 2), (2, 1, 3, 3), (3, 1, 2, 3), (3, 1, 3, 3)])
def test_a_surplus_order_must_vanish(monkeypatch, n, r, k, named):
    # p = n poles here, fewer than the 4 calibration knots, so orders p..3
    # must cancel.  A certified T_k that is wrong by one term leaves that
    # term in order k, or times -e_1(framings) in order k + 1.
    real = invariant._checked_sum
    target = invariant._numerators(n, n * k + r)

    def changed(core, numerators):
        total, failure = real(core, numerators)
        return (_bump_one_coefficient(total), None) if numerators == target else (total, failure)

    monkeypatch.setattr(invariant, "_checked_sum", changed)
    message = f"numerator order z^{named} does not vanish, but the family has {n} poles"
    with pytest.raises(CalibrationError, match=re.escape(message)):
        generating_function(n, r)


@pytest.mark.parametrize("n,r", [(4, 1), (5, 1)])
def test_fit_rejects_a_changed_content_or_a_nonpolynomial_order(monkeypatch, n, r):
    def moved(total):  # times q: the content rises by (0, 2, 2)
        return {z: {(x + 1, y): c for (x, y), c in terms.items()} for z, terms in total.items()}

    _with_changed_order(monkeypatch, n, r, 2, moved)
    with pytest.raises(CalibrationError, match="content ratio not constant"):
        generating_function(n, r)

    _bump_knot(monkeypatch, n, n + r)
    with pytest.raises(CalibrationError, match=re.escape(f"({n},{n + r}) is not polynomial")):
        generating_function(n, r)


def test_content_ratio_holds_past_the_calibration_knots(monkeypatch):
    # (6,1) has 9 poles and builds its low orders from T_0..T_4: a moved
    # content at k = 4 is caught, though series(3) never sees T_4.
    real = invariant._checked_sum
    target = invariant._numerators(6, 25)

    def moved(core, numerators):
        total, failure = real(core, numerators)
        if numerators == target:
            total = {z: {(x + 1, y): c for (x, y), c in terms.items()} for z, terms in total.items()}
        return total, failure

    monkeypatch.setattr(invariant, "_checked_sum", moved)
    with pytest.raises(CalibrationError, match=re.escape("content ratio not constant over k = 0..4")):
        generating_function(6, 1)


def test_normalized_reads_the_lowest_term_as_its_constant_term():
    # q^x t^y A^z is bold (2z, 2(x + y), 2x + z) with sign (-1)^z.
    first = _normalized(2, 3, {0: {(0, 0): 1, (1, 1): 1}, 1: {(0, 1): -1}})
    assert first.content == (0, 0, 0)
    assert first.terms == knot({(0, 0, 0): 1, (0, 4, 2): 1, (2, 2, 1): 1})
    second = _normalized(2, 3, {1: {(0, 0): -1}, 3: {(2, 0): -5}})
    assert second.content == (2, 0, 1)
    assert second.terms == knot({(0, 0, 0): 1, (4, 4, 6): 5})
    assert first.flags.all_true and second.flags.all_true
    cases = [
        ({0: {(0, 0): 2}}, "lowest term is 2"),
        ({1: {(0, 0): 1}}, "lowest term is -1"),
        # The lowest t, 1, is odd at z = 0: no term of T maps to the content.
        ({0: {(1, 0): 1}, 1: {(0, 5): -1}}, "lowest term is 0, expected +1; content (0, 2, 1)"),
        ({}, "invariant vanished identically"),
    ]
    for total, message in cases:
        with pytest.raises(IntegrityError, match=re.escape(f"(2,3): {message}")):
            _normalized(2, 3, total)


def _scaled(factor):
    def scale(total):
        return {z: {e: factor * c for e, c in terms.items()} for z, terms in total.items()}

    return scale


@pytest.mark.parametrize("change,message", [
    (_scaled(2), "lowest term is 2, expected +1"),
    (_scaled(-1), "lowest term is -1, expected +1"),
    (lambda total: {}, "invariant vanished identically"),
], ids=["doubled", "negated", "vanished"])
def test_integrity_checks_reach_compute_and_generating_function(monkeypatch, change, message):
    real = invariant._checked_sum

    def changed(core, numerators):
        total, failure = real(core, numerators)
        return change(total), failure

    monkeypatch.setattr(invariant, "_checked_sum", changed)
    with pytest.raises(IntegrityError, match=re.escape(f"(3,4): {message}")):
        compute.__wrapped__(3, 4)  # past the memo
    with pytest.raises(IntegrityError, match=re.escape(f"(3,1): {message}")):
        generating_function(3, 1)


@pytest.mark.parametrize("n,r", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 1), (5, 4)])
def test_generating_function_json_matches_fixture_bytes(n, r):
    stored = (FIXTURES / f"f_{n}_{r}.json").read_bytes()
    assert (generating_function_to_json(generating_function(n, r)) + "\n").encode() == stored


def _naive_series(gf, k_max):
    """numerator * prod (1 - z*pole)^-1 mod z^(k_max + 1) by plain products."""
    zero = LaurentPolynomial.zero(KNOT)
    series = [zero] * (k_max + 1)
    for j, coeff in gf.numerator:
        if j <= k_max:
            series[j] = coeff
    for pole in gf.poles:
        geometric = [knot({tuple(k * x for x in pole): 1}) for k in range(k_max + 1)]
        series = [
            sum((series[i] * geometric[k - i] for i in range(k + 1)), zero)
            for k in range(k_max + 1)
        ]
    return series


def _same_series(got, want):
    assert got == want
    for g, w in zip(got, want):  # ints stay ints, and Fractions stay exact
        assert all(type(c) is type(w.terms[e]) for e, c in g.terms.items())


HAND_BUILT = {
    "negative pole exponents": GeneratingFunction(
        n=3, r=1,
        numerator=((0, knot({(0, 0, 0): 1, (2, 1, -3): -2})), (1, knot({(0, -1, 4): 5}))),
        poles=((0, -2, 1), (2, 3, -4), (0, 0, 0)),
    ),
    "fraction coefficients": GeneratingFunction(
        n=2, r=1,
        # The first pole sums 1/2 + 1/2 to 1 at (0, 0, 0); the second
        # cancels 5/3 - 5/3 at (0, 8, 4).
        numerator=(
            (0, knot({(0, 0, 0): Fraction(1, 2), (0, 4, 2): Fraction(-5, 3)})),
            (1, knot({(0, 0, 0): Fraction(1, 2), (0, 8, 4): Fraction(5, 3), (2, 2, 3): 7})),
        ),
        poles=((0, 0, 0), (0, 4, 2)),
    ),
    "numerator above k_max": GeneratingFunction(
        n=2, r=1,
        numerator=((1, knot({(0, 1, 0): 1})), (9, knot({(0, 0, 0): 4})), (40, knot({(1, 1, 1): 1}))),
        poles=((0, 1, 1), (0, -1, 0)),
    ),
    "empty numerator": GeneratingFunction(n=2, r=1, numerator=(), poles=((0, 4, 2),)),
    "numerator only above k_max": GeneratingFunction(
        n=2, r=1, numerator=((12, knot({(0, 0, 0): 1})),), poles=((0, 4, 2),)
    ),
    "no poles": GeneratingFunction(
        n=2, r=1, numerator=((0, knot({(0, 0, 0): 1})), (2, knot({(0, 3, -1): -1}))), poles=()
    ),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_series_matches_naive_products(name):
    gf = HAND_BUILT[name]
    for k_max in (0, 1, 6):
        _same_series(gf.series(k_max), _naive_series(gf, k_max))


def test_series_after_json_round_trip():
    gf = generating_function(5, 4)
    back = generating_function_from_json(generating_function_to_json(gf))
    series = back.series(8)
    assert series == gf.series(8)
    _same_series(series, _naive_series(back, 8))


def _assert_one_tuple_per_point(gf, k_max):
    """The rows of gf.series(k_max) hold one key object per distinct point,
    and at a numerator point it is the numerator's, from its lowest order."""
    rows = [row.terms for row in gf.series(k_max)]
    keys = [e for row in rows for e in row]
    assert len({id(e) for e in keys}) == len(set(keys))
    first = {}
    for j, coeff in gf.numerator:
        if j <= k_max:
            for e in coeff.terms:
                first.setdefault(e, e)
    assert all(e is first[e] for e in keys if e in first)
    return keys


def test_series_rows_hold_one_tuple_per_point():
    gf = generating_function(5, 4)
    keys = _assert_one_tuple_per_point(gf, 8)
    assert len(keys) > 3 * len(set(keys))  # 31 584 terms on 9 403 points
    row_zero = gf.numerator[0][1].terms
    assert {id(e) for e in row_zero} <= {id(e) for e in keys}
    # The numerator orders share their points too: 1 336 terms on 1 011.
    numerator_keys = [e for _, coeff in gf.numerator for e in coeff.terms]
    assert len({id(e) for e in numerator_keys}) == len(set(numerator_keys)) < len(numerator_keys)


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_series_rows_hold_one_tuple_per_point(name):
    _assert_one_tuple_per_point(HAND_BUILT[name], 6)


def test_generating_function_json_rejects_a_malformed_pole():
    data = json.loads(generating_function_to_json(generating_function(2, 1)))
    last = len(data["denominator"])
    for pole, error, message in (
        ([0, 4], ValueError, f"pole {last} has 2 exponents, expected 3 (a, q, t)"),
        (4, TypeError, f"pole {last} must be a list, got 4"),
    ):
        with pytest.raises(error, match=re.escape(message)):
            generating_function_from_json(json.dumps({**data, "denominator": data["denominator"] + [pole]}))


def test_generating_function_json_rejects_a_malformed_term_row():
    data = json.loads(generating_function_to_json(generating_function(3, 1)))
    j, rows = data["numerator"][-1]
    for row, error, message in (
        (rows[1][:3], ValueError, f"numerator order z^{j}: term row 1 has 3 fields, expected 4 [a, q, t, c]"),
        (7, TypeError, f"numerator order z^{j}: term row 1 must be a list, got 7"),
    ):
        rows[1] = row
        with pytest.raises(error, match=re.escape(message)):
            generating_function_from_json(json.dumps(data))


def test_generating_function_json_rejects_a_negative_or_repeated_order():
    # Before the check, z^-1 wrote P_0's term into the last series row and a
    # repeated order silently replaced the first copy.
    data = json.loads(generating_function_to_json(generating_function(2, 1)))
    rows = data["numerator"][0][1]
    for numerator, message in (
        ([[-1, rows]], "numerator order z^-1 is negative"),
        ([[0, rows], [0, rows]], "numerator order z^0 appears more than once"),
        ([[0, rows, 1]], "numerator entry 0 has 3 items, expected 2 [order, rows]"),
    ):
        data["numerator"] = numerator
        with pytest.raises(ValueError, match=re.escape(message)):
            generating_function_from_json(json.dumps(data))


def _json_changed(text, path, value):
    """The JSON text with the value at the key path replaced."""
    data = json.loads(text)
    *head, last = path
    inner = data
    for key in head:
        inner = inner[key]
    inner[last] = value
    return json.dumps(data)


# At (2,1) the numerator is [[0, [[0, 0, 0, "1"]]], [1, [[2, 2, 3, "1"]]]]
# and the poles are [0, 0, 0] and [0, 4, 2].
@pytest.mark.parametrize("path,value,message", [
    (("numerator", 0, 0), 0.7, "numerator entry 0 order must be an integer, got 0.7"),
    (("numerator", 1, 0), True, "numerator entry 1 order must be an integer, got True"),
    (("numerator", 0, 1, 0, 0), 0.5,
     "numerator order z^0: term row 0 exponents must be integers, got (0.5, 0, 0)"),
    (("denominator", 1, 1), 2.9, "pole 1 exponents must be integers, got (0, 2.9, 2)"),
    (("numerator", 1, 1, 0, 3), 0.1,
     "numerator order z^1: term row 0 coefficient must be a string or an integer, got 0.1"),
    (("r",), True, "n and r must be integers, got (2, True)"),
    (("numerator", 1, 1, 0, 3), "abc",
     "numerator order z^1: term row 0 coefficient is not a number, got 'abc'"),
], ids=["order", "bool-order", "exponent", "pole", "coefficient", "r", "coefficient-string"])
def test_generating_function_json_rejects_a_non_integer(path, value, message):
    # Before the check, int() truncated each value (true read as order 1, which
    # (2,1) already has) and Fraction() took a float; a string that is not a
    # number raised Fraction's own error, which named no row.
    text = generating_function_to_json(generating_function(2, 1))
    error = ValueError if isinstance(value, str) else TypeError
    with pytest.raises(error, match=re.escape(message)):
        generating_function_from_json(_json_changed(text, path, value))


@pytest.mark.parametrize("path,value,message", [
    (("n",), 2.5, "n and m must be integers, got (2.5, 3)"),
    (("m",), True, "n and m must be integers, got (2, True)"),
    (("terms", 0, 3), 0.1, "term row 0 coefficient must be a string or an integer, got 0.1"),
    (("terms", 2, 3), "abc", "term row 2 coefficient is not a number, got 'abc'"),
    (("terms", 1, 3), "1/0", "term row 1 coefficient is not a number, got '1/0'"),
], ids=["n", "m", "coefficient", "coefficient-string", "coefficient-zero-denominator"])
def test_superpolynomial_json_rejects_a_non_integer(path, value, message):
    text = superpolynomial_to_json(compute(2, 3))
    error = ValueError if isinstance(value, str) else TypeError
    with pytest.raises(error, match=re.escape(message)):
        superpolynomial_from_json(_json_changed(text, path, value))


# Before the checks, (-2, 0) and the family (2, 5) were read back, a missing
# field was a bare KeyError, and the other cases raised Python's own errors
# ("list indices must be integers", "object of type 'int' has no len()").
@pytest.mark.parametrize("read,text,error,message", [
    (superpolynomial_from_json, '{"n":-2,"m":0,"normalized":true,"terms":[[0,0,0,"1"]]}',
     ValueError, "n and m must be positive, got (-2, 0)"),
    (generating_function_from_json, '{"n":2,"r":5,"numerator":[],"denominator":[]}',
     ValueError, "need 1 <= r < n, got (n, r) = (2, 5)"),
    (superpolynomial_from_json, '{"n":2,"m":3,"normalized":true}',
     ValueError, "JSON object has no 'terms' field"),
    (generating_function_from_json, '{"n":2,"r":1,"numerator":[]}',
     ValueError, "JSON object has no 'denominator' field"),
    (superpolynomial_from_json, "[2, 3]", TypeError, "JSON text must be an object, got a list"),
    (generating_function_from_json, "[]", TypeError, "JSON text must be an object, got a list"),
    (superpolynomial_from_json, '{"n":2,"m":3,"normalized":true,"terms":5}',
     TypeError, "term rows must be a list, got 5"),
    (generating_function_from_json, '{"n":2,"r":1,"numerator":[7],"denominator":[]}',
     TypeError, "numerator entry 0 must be a list, got 7"),
    # Before the check, a zero coefficient row was dropped without a word.
    (superpolynomial_from_json, '{"n":2,"m":3,"normalized":true,"terms":[[0,0,0,"1"],[0,1,0,"0"]]}',
     ValueError, "term row 1 coefficient must be nonzero, got '0'"),
    # Before the spelling check, int() and Fraction() read each of these as
    # a number that _to_rows writes otherwise: 11, 1, 1, 1/2, 3, 2 and 7.
    *((superpolynomial_from_json,
       '{"n":2,"m":3,"normalized":true,"terms":[[0,0,0,"1"],[0,1,0,%s]]}' % json.dumps(c),
       ValueError, f"term row 1 coefficient must be written {want!r}, got {c!r}")
      for c, want in [("1_1", "11"), (" +1", "1"), ("1e0", "1"), ("0.5", "1/2"), ("\u0663", "3"),
                      ("2/1", "2"), ("007", "7")]),
    (generating_function_from_json, '{"n":2,"r":1,"numerator":[[0,[[0,0,0,"-01"]]]],"denominator":[]}',
     ValueError, "numerator order z^0: term row 0 coefficient must be written '-1', got '-01'"),
    # Before the type check, any truthy value passed as normalized.
    *((superpolynomial_from_json, '{"n":2,"m":3,"normalized":%s,"terms":[[0,0,0,"1"]]}' % flag,
       TypeError, f"normalized must be true or false, got {shown}")
      for flag, shown in [('"false"', "'false'"), ("1", "1"), ("[0]", "[0]"), ("null", "None")]),
    (superpolynomial_from_json, '{"n":2,"m":3,"normalized":false,"terms":[[0,0,0,"1"]]}',
     ValueError, "only normalized invariants are serialized"),
    (superpolynomial_from_json, '{"n":2,"m":3,"terms":[[0,0,0,"1"]]}',
     ValueError, "only normalized invariants are serialized"),
], ids=["knot-range", "family-range", "no-terms", "no-denominator", "knot-list", "family-list",
        "terms-number", "entry-number", "zero-row", "underscore", "plus-space", "exponent", "decimal",
        "arabic-indic", "unit-denominator", "leading-zeros", "family-leading-zero",
        "normalized-string", "normalized-int", "normalized-list", "normalized-null", "normalized-false",
        "normalized-missing"])
def test_json_readers_reject_a_malformed_object(read, text, error, message):
    with pytest.raises(error, match=re.escape(message)):
        read(text)


def test_superpolynomial_json_rejects_a_repeated_term_row():
    # Before the check, the repeated row's coefficient was added to the first.
    data = json.loads(superpolynomial_to_json(compute(2, 3)))
    data["terms"].insert(1, data["terms"][0])
    with pytest.raises(ValueError, match=re.escape("term row 1 repeats the exponents (0, 0, 0)")):
        superpolynomial_from_json(json.dumps(data))


def test_records_are_immutable_tuples_that_pickle():
    # The records are NamedTuples: fields in order, a repr naming them, value
    # equality with a plain tuple, and pickling for worker processes.
    core = _family_core(4)
    assert pickle.loads(pickle.dumps(core)) == core
    sp = compute(3, 4)
    back = pickle.loads(pickle.dumps(sp))
    assert back == sp and type(back) is Superpolynomial and type(back.flags) is PropertyFlags
    assert Superpolynomial._fields == ("n", "m", "terms", "content", "flags")
    for record, name in ((core, "lcm_peak"), (sp, "content"), (core.parts[0], "coeff")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


def test_generating_function_rejects_bad_families():
    with pytest.raises(ValueError):
        generating_function(4, 2)
    with pytest.raises(ValueError, match=re.escape("n and r must be positive, got (3, 0)")):
        generating_function(3, 0)
    with pytest.raises(ValueError, match=re.escape("need 1 <= r < n, got (n, r) = (3, 3)")):
        generating_function(3, 3)
    with pytest.raises(TypeError, match=re.escape("n and r must be integers, got (3, True)")):
        generating_function(3, True)


def test_series_rejects_bad_orders():
    gf = generating_function(2, 1)
    for order in (True, False, 2.0, "3", None):
        with pytest.raises(TypeError, match="series order must be an integer"):
            gf.series(order)
    for order in (-1, -3):
        with pytest.raises(ValueError, match="non-negative"):
            gf.series(order)
    assert gf.series(0) == [LaurentPolynomial.one(KNOT)]


def test_generating_function_json_round_trip():
    gf = generating_function(2, 1)
    back = generating_function_from_json(generating_function_to_json(gf))
    assert isinstance(back, GeneratingFunction)
    assert back.poles == gf.poles
    assert back.numerator == gf.numerator
    assert (back.n, back.r) == (2, 1)


def test_scan_rejects_bad_bounds():
    for bounds in ((True, 20), (6, 20.0), ("6", 20), (6, None)):
        with pytest.raises(TypeError, match="scan bounds must be integers"):
            scan(*bounds)
    for bounds in ((1, 20), (6, 2), (-3, -3)):
        with pytest.raises(ValueError, match="to scan"):
            scan(*bounds)
    assert [(row.n, row.m) for row in scan(2, 3).rows] == [(2, 3)]


def test_scan_statuses():
    report = scan(3, 7)
    rows = {(row.n, row.m): row for row in report.rows}
    assert rows[(2, 4)].status == "nonpolynomial"
    assert rows[(2, 4)].gcd == 2
    assert rows[(2, 4)].term_count is None
    assert rows[(3, 7)].status == "ok"
    assert rows[(3, 7)].term_count == 30
    assert rows[(3, 7)].a_max == 4
    assert report.all_expected
    header = report.to_csv().splitlines()[0]
    assert header == "n,m,gcd,status,a_max,q_max,t_max,term_count,millis"


def test_scan_csv_rows_are_whole():
    # Every field in ScanRow order, None as an empty field; millis masked.
    lines = scan(3, 5).to_csv().splitlines()
    assert [line.rsplit(",", 1)[0] for line in lines] == [
        "n,m,gcd,status,a_max,q_max,t_max,term_count",
        "2,3,1,ok,2,4,3,3",
        "2,4,2,nonpolynomial,,,,",
        "2,5,1,ok,2,8,5,5",
        "3,4,1,ok,4,12,8,11",
        "3,5,1,ok,4,16,10,16",
    ]
    assert all(line.rsplit(",", 1)[1].isdigit() for line in lines[1:])

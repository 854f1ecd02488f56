"""Brute-force symmetric-function checks of the closed-form ingredients."""

import math
import operator
import random
from fractions import Fraction

import pytest

from torus_super import oracle
from torus_super.algebra import FactoredRational, LaurentPolynomial, exact_divide
from torus_super.macdonald import macdonald_dimension
from torus_super.oracle import (
    QT,
    RationalFunction,
    _gcd_terms,
    macdonald_P_mbasis,
    monomial_symmetric,
    power_sum,
    principal_value,
    rational_of_factored,
    verify_cauchy,
    verify_dimension,
    verify_expansion_limit,
    verify_orthogonality,
    verify_power_sum_expansion,
    verify_schur_degeneration,
    x_alphabet,
    z_factor,
)
from torus_super.partitions import enumerate_partitions


def qt(terms):
    return LaurentPolynomial(QT, terms)


RF_ONE = RationalFunction.const(1)


def test_z_factor_values():
    assert z_factor((1,)) == 1
    assert z_factor((2,)) == 2
    assert z_factor((1, 1)) == 2
    assert z_factor((2, 1)) == 2
    assert z_factor((3,)) == 3
    assert z_factor((1, 1, 1)) == 6


def test_power_sum_is_single_row_monomial_basis():
    xs = x_alphabet(3)
    assert power_sum(xs, 2) == monomial_symmetric(xs, (2,))
    assert monomial_symmetric(xs, (1, 1)).term_count == 3


def test_single_box_is_monomial_basis_element():
    assert macdonald_P_mbasis((1,)) == {(1,): RF_ONE}


def test_column_of_two_has_no_lower_terms():
    assert macdonald_P_mbasis((1, 1)) == {(1, 1): RF_ONE}


def test_row_of_two_mixing_coefficient():
    expansion = macdonald_P_mbasis((2,))
    assert set(expansion) == {(2,), (1, 1)}
    assert expansion[(2,)] == RF_ONE
    # (1 + q)(1 - t) / (1 - qt)
    expected = RationalFunction(
        qt({(0, 0): 1, (1, 0): 1, (0, 1): -1, (1, 1): -1}),
        qt({(0, 0): 1, (1, 1): -1}),
    )
    assert expansion[(1, 1)] == expected


def test_canonical_parts_are_pinned():
    # The stored num and den themselves, not just the value: any gcd must
    # leave exactly these canonical parts.
    c = macdonald_P_mbasis((2, 1))[(1, 1, 1)]
    assert c.num == qt({(0, 0): -2, (0, 1): 1, (0, 2): 1, (1, 0): -1, (1, 1): -1, (1, 2): 2})
    assert c.den == qt({(0, 0): -1, (1, 2): 1})


def test_degree_four_parts_are_pinned():
    # A projection coefficient and a norm of the degree-4 family: a wrong
    # Gram-Schmidt step fails here at a named value.
    c = macdonald_P_mbasis((3, 1))[(2, 1, 1)]
    assert c.num == qt({(0, 0): 2, (0, 1): -2, (1, 0): 2, (1, 1): -3, (1, 3): 1,
                        (2, 0): 1, (2, 2): -3, (2, 3): 2, (3, 2): -2, (3, 3): 2})
    assert c.den == qt({(0, 0): 1, (1, 1): -1, (2, 2): -1, (3, 3): 1})
    norm = oracle._macdonald_family(4)[-1][(2, 2)]
    assert norm.num == qt({(0, 0): -1, (1, 0): 1, (2, 0): 1, (2, 1): 1,
                           (3, 0): -1, (3, 1): -1, (4, 1): -1, (5, 1): 1})
    assert norm.den == qt({(0, 0): -1, (0, 1): 1, (0, 2): 1, (0, 3): -1,
                           (1, 2): 1, (1, 3): -1, (1, 4): -1, (1, 5): 1})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orthogonality(n):
    assert verify_orthogonality(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_power_sum_expansion_matches_closed_form(n):
    assert verify_power_sum_expansion(n)


def test_principal_value_single_box():
    # m_[1](1, t, t^2) = 1 + t + t^2
    assert principal_value((1,), 3) == RationalFunction(qt({(0, 0): 1, (0, 1): 1, (0, 2): 1}))


@pytest.mark.parametrize("num_vars", [3, 4, 5])
def test_dimension_closed_form(num_vars):
    for n in range(1, 5):
        for y in enumerate_partitions(n):
            assert verify_dimension(y, num_vars)


def test_expansion_limit_identity():
    for n in range(1, 5):
        for y in enumerate_partitions(n):
            assert verify_expansion_limit(y)


def test_schur_degeneration():
    for n in range(1, 4):
        for y in enumerate_partitions(n):
            assert verify_schur_degeneration(y)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_cauchy_kernel(order):
    assert verify_cauchy(order, order, order)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_cauchy_kernel_principal_specialization(order):
    assert verify_cauchy(order, order, 0, principal_l=5)


def test_cauchy_kernel_at_order_zero():
    # Both sides are 1, keyed by the unit monomial of the joint alphabet.
    assert verify_cauchy(0, 2, 2)
    assert verify_cauchy(0, 2, 0, principal_l=3)


def _doubled_at(fn, target):
    """``fn`` with its value at the partition ``target`` doubled."""
    def perturbed(y):
        out = fn(y)
        return out * FactoredRational(out.alphabet, coeff=2) if tuple(y) == target else out
    return perturbed


def test_cauchy_kernel_fails_on_a_wrong_norm(monkeypatch):
    monkeypatch.setattr(oracle, "cauchy_norm", _doubled_at(oracle.cauchy_norm, (2, 1)))
    assert not verify_cauchy(3, 3, 3)
    assert not verify_cauchy(3, 3, 0, principal_l=5)
    assert verify_cauchy(2, 2, 2)  # (2, 1) enters only at order 3


def test_power_sum_expansion_fails_on_a_wrong_coefficient(monkeypatch):
    monkeypatch.setattr(
        oracle, "power_sum_coefficient", _doubled_at(oracle.power_sum_coefficient, (2, 2))
    )
    assert not verify_power_sum_expansion(4)
    assert verify_power_sum_expansion(3)


def test_cauchy_kernel_capped():
    with pytest.raises(ValueError):
        verify_cauchy(4, 4, 4)


# -- the heuristic bivariate gcd ----------------------------------------------

ONE = LaurentPolynomial.one(QT)


def _random_qt(rng, max_terms, fractions):
    """Ordinary (q, t) polynomial with a nonzero constant term."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        c = rng.choice([-9, -5, -2, -1, 1, 3, 4, 8])
        if fractions:
            c = Fraction(c, rng.randint(1, 7))
        terms[(rng.randint(0, 3), rng.randint(0, 3))] = c
    terms[(0, 0)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return qt(terms)


def _same_up_to_unit(a, b):
    """a and b divide each other: equal up to a scalar and a monomial."""
    return exact_divide(a, b).term_count == 1 and exact_divide(b, a).term_count == 1


# Coprime, but their images at the first evaluation point t = 32 agree.
UNLUCKY = (qt({(1, 0): 1, (0, 1): -1}), qt({(1, 0): 1, (0, 0): -32}))


def _seeded_triples(seed, count):
    """(g, a, b) with a and b coprime: b = a*u + c for a nonzero constant c."""
    rng = random.Random(seed)
    for k in range(count):
        fractions = k % 2 == 1
        g = _random_qt(rng, 4, fractions)
        a = _random_qt(rng, 4, fractions)
        u = _random_qt(rng, 3, fractions)
        b = a * u + qt({(0, 0): Fraction(rng.randint(1, 9), rng.randint(1, 3))})
        yield g, a, b


def test_gcd_of_seeded_multiples():
    for g, a, b in _seeded_triples(20261018, 40):
        f, h = g * a, g * b
        c, qf, qh = _gcd_terms(f, h)
        assert all(isinstance(v, int) for v in c.terms.values())
        if g.term_count > 1:
            assert _same_up_to_unit(c, g)
        else:
            assert c == ONE
        assert qf * c == f and qh * c == h


def test_gcd_of_coprime_and_constant_inputs_is_one():
    cases = [
        (qt({(0, 0): 1, (1, 0): 1}), qt({(0, 0): 1, (0, 1): 1})),
        (qt({(0, 0): 3}), qt({(0, 0): Fraction(5, 2)})),
        (qt({(0, 0): 7}), qt({(0, 0): 1, (2, 1): -4, (1, 3): 2})),
        (qt({(0, 0): 1, (2, 1): -4}), qt({(-1, 2): Fraction(1, 3)})),
        (qt({(0, 0): 1, (1, 1): -1}), qt({(0, 0): 1, (1, 1): 1})),
    ]
    for f, h in cases:
        assert _gcd_terms(f, h) == (ONE, f, h)


def test_gcd_past_an_unlucky_evaluation_point(monkeypatch):
    # For q - t against q - 32 the first point is t = 32, where both images
    # are q - 32: their gcd reads back as q - t, which does not divide q - 32,
    # and no cofactor candidate certifies, so only the next point proves 1.
    f, h = UNLUCKY
    assert next(oracle._points(1, 2)) == 32
    assert _gcd_terms(f, h) == (ONE, f, h)
    # (q - 1)(t + 1)/2 and q t - 1 are coprime, and the constant reading of
    # their first images proves it before any candidate reaches the certificate.
    f = qt({(1, 1): Fraction(1, 2), (1, 0): Fraction(1, 2),
            (0, 1): Fraction(-1, 2), (0, 0): Fraction(-1, 2)})
    h = qt({(1, 1): 1, (0, 0): -1})
    certified = []
    monkeypatch.setattr(oracle, "_quo", lambda *args: certified.append(args))
    assert _gcd_terms(f, h)[0] == ONE
    assert not certified


def test_gcd_of_a_common_factor_in_t_only():
    g = qt({(0, 0): 1, (0, 2): -1})
    a = qt({(0, 0): 1, (1, 0): 1, (2, 3): -2})
    b = qt({(0, 0): 3, (1, 1): -1, (0, 1): 1})
    c, qa, qb = _gcd_terms(g * a, g * b)
    assert c == g or c == -g
    assert qa * c == g * a and qb * c == g * b


def test_gcd_certified_only_by_a_cofactor_candidate(monkeypatch):
    # f = (1 - q^2)(1 + q t)^2 and g = (1 + q)(1 + q t)^2 = gcd(f, g).  At
    # the first q point the gcd image of f(q, xi) and g(q, xi) reads back
    # as a non-divisor, and f's cofactor, 1 - q, is what certifies; with one
    # point allowed, dropping the cofactor candidates would raise.
    g = qt({(0, 0): 1, (1, 0): 1}) * qt({(0, 0): 1, (1, 1): 1}) * qt({(0, 0): 1, (1, 1): 1})
    f = qt({(0, 0): 1, (1, 0): -1}) * g
    monkeypatch.setattr(oracle, "_MAX_POINTS", 1)
    c, qf, qg = _gcd_terms(f, g)
    assert c == g or c == -g
    assert qf * c == f and qg * c == g


def test_gcd_evaluation_point_must_exceed_the_bound(monkeypatch):
    # q - 3 divides q^2 - 2q - 3 = (q - 3)(q + 1).  At q = 4, below the
    # bound 2 * 3 + 2, the images are 1 and 5, whose gcd reads back as 1.
    f = qt({(1, 0): 1, (0, 0): -3})
    g = qt({(2, 0): 1, (1, 0): -2, (0, 0): -3})
    assert _gcd_terms(f, g)[0] in (f, -f)
    monkeypatch.setattr(oracle, "_points", lambda norm, nvars: iter([4]))
    assert _gcd_terms(f, g)[0] == ONE


# A primitive gcd with coefficients beyond 2**61 - 1, and two cofactors.
BIG_G = qt({(2, 1): 3**45, (1, 0): -(2**64 + 13), (0, 2): 5**30, (0, 0): 1})
BIG_A = qt({(1, 1): 1, (0, 0): 2})
BIG_B = qt({(0, 2): 1, (1, 0): -3, (0, 0): 1})


def test_gcd_with_coefficients_beyond_one_prime():
    g, a, b = BIG_G, BIG_A, BIG_B
    assert max(abs(v) for v in g.terms.values()) > 2**61 - 1
    c, qa, qb = _gcd_terms(g * a, g * b)
    assert c == g or c == -g  # g is primitive, so c is g up to sign
    assert qa * c == g * a and qb * c == g * b


def test_gcd_point_cap_names_its_cause(monkeypatch):
    f, h = UNLUCKY  # needs a second point
    monkeypatch.setattr(oracle, "_MAX_POINTS", 1)
    with pytest.raises(ArithmeticError, match="no certified gcd within 1 evaluation points"):
        _gcd_terms(f, h)


def _zmul(a, b):
    """The product of two {exponents: int} polynomials, term by term."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(operator.add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _random_z(rng, nvars, max_terms, big=False):
    """An {exponents: int} polynomial of at least 2 terms, one of them constant."""
    top, size = 10**30 if big else 9, rng.randint(2, max_terms)
    terms = {(0,) * nvars: rng.choice([-1, 1]) * rng.randint(1, top)}
    while len(terms) < size:
        terms[tuple(rng.randint(0, 5) for _ in range(nvars))] = rng.choice([-1, 1]) * rng.randint(1, top)
    return terms


def test_quo_gives_the_exact_quotient_of_seeded_products():
    rng = random.Random(20261030)
    cases = [({e: int(c) for e, c in BIG_G.terms.items()}, {e: int(c) for e, c in BIG_A.terms.items()})]
    for k in range(60):
        nvars = 1 + k % 2
        cases.append((_random_z(rng, nvars, 5, big=k % 3 == 0), _random_z(rng, nvars, 4)))
    for d, u in cases:
        f = _zmul(d, u)
        assert oracle._quo(f, d) == u
        assert oracle._quo(f, u) == d
        # d is not a constant, so it divides no f + c for a constant c != 0.
        zero = (0,) * len(next(iter(d)))
        assert oracle._quo({**f, zero: 2 * abs(f[zero]) + 1}, d) is None


def test_quo_rejects_a_non_divisor():
    # (q + 1) / (2q + 1): the leading coefficient 2 does not divide 1.
    assert oracle._quo({(1, 0): 1, (0, 0): 1}, {(1, 0): 2, (0, 0): 1}) is None
    # (1 + q) / (q + q^2): the quotient would need q^-1.
    assert oracle._quo({(0, 0): 1, (1, 0): 1}, {(1, 0): 1, (2, 0): 1}) is None
    # (q t + 1) / (q + 1): t is left over, and q does not divide it.
    assert oracle._quo({(1, 1): 1, (0, 0): 1}, {(1, 0): 1, (0, 0): 1}) is None
    # (q^2 + 1) / (q + 1) over one variable: the remainder is 2.
    assert oracle._quo({(2,): 1, (0,): 1}, {(1,): 1, (0,): 1}) is None
    # A divisor all the same: (q^2 - 1) / (q + 1) = q - 1.
    assert oracle._quo({(2,): 1, (0,): -1}, {(1,): 1, (0,): 1}) == {(1,): 1, (0,): -1}


def test_reduce_fraction_gives_coprime_parts_of_the_same_fraction():
    for g, a, b in _seeded_triples(20261019, 30):
        shift = qt({(-2, 1): Fraction(3, 4)})
        num, den = g * a * shift, g * b
        rf = RationalFunction(num, den)
        assert rf.num * den == num * rf.den
        # a and b are coprime by construction, so lowest terms are a / b up to
        # a common scalar and monomial.
        unit = exact_divide(rf.num, a)
        assert unit.term_count == 1
        assert rf.den == exact_divide(b * unit, shift)
        _assert_canonical(rf)


def test_reduced_and_coprime_paths_agree():
    # n / d with coprime n and d, each times a unit: the constructor must
    # cancel g from n*g / d*g and land on exactly the parts that _coprime
    # gives n / d without any gcd.
    rng = random.Random(20261021)
    for g, a, b in _seeded_triples(20261022, 30):
        n, d = (p * qt({(rng.randint(-2, 2), rng.randint(-2, 2)):
                        Fraction(rng.choice([-6, -4, -3, 2, 9]), rng.randint(1, 6))})
                for p in (a, b))
        reduced, coprime = RationalFunction(n * g, d * g), RationalFunction._coprime(n, d)
        assert (reduced.num, reduced.den) == (coprime.num, coprime.den)
        _assert_canonical(reduced)


def test_rational_of_factored_maps_or_rejects_a():
    dim = macdonald_dimension((1,))  # (1 - A) / (1 - t)
    with pytest.raises(ValueError, match="involves A"):
        rational_of_factored(dim)
    # A -> t^3: (1 - t^3) / (1 - t) = 1 + t + t^2.
    assert rational_of_factored(dim, a_image=(0, 3)) == principal_value((1,), 3)


# -- RationalFunction: canonical form and lowest terms -------------------------

BINOMIALS = [qt({(0, 0): 1, (a, b): -1}) for a, b in [(1, 0), (0, 1), (1, 1), (2, 1), (0, 2)]]


def _binomial_product(rng, count):
    out = ONE
    for _ in range(count):
        out = out * rng.choice(BINOMIALS)
    return out


def _seeded_fractions(seed, count):
    """(num, den) over (q, t): denominators drawn from a few shared binomials,
    numerators partly made of the same binomials, so sums and products cancel."""
    rng = random.Random(seed)
    for k in range(count):
        unit = Fraction(rng.choice([-3, 1, 2]), rng.randint(1, 4))
        shift = qt({(rng.randint(-2, 2), rng.randint(-2, 2)): unit})
        num = _binomial_product(rng, rng.randint(0, 2)) * _random_qt(rng, 3, k % 2 == 1) * shift
        den = _binomial_product(rng, rng.randint(1, 3)) * _random_qt(rng, 2, False)
        yield num, den


def _assert_canonical(rf):
    num, den = rf.num, rf.den
    coeffs = [*num.terms.values(), *den.terms.values()]
    assert all(type(c) is int for c in coeffs)
    assert math.gcd(*coeffs) == 1
    assert den.terms[max(den.terms)] > 0
    assert den.content() == (0,) * len(den.alphabet)


def _assert_lowest_terms(rf):
    _assert_canonical(rf)
    if rf.num.is_zero():
        assert rf.den == LaurentPolynomial.one(rf.num.alphabet)
    else:
        assert _gcd_terms(rf.num, rf.den)[0].term_count == 1


def _naive(op, a, b):
    """The cross-multiplied num and den of ``a op b`` from raw parts."""
    (n1, d1), (n2, d2) = a, b
    if op == "+":
        return n1 * d2 + n2 * d1, d1 * d2
    if op == "-":
        return n1 * d2 - n2 * d1, d1 * d2
    if op == "*":
        return n1 * n2, d1 * d2
    return n1 * d2, d1 * n2


OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _fraction_pairs():
    fractions = list(_seeded_fractions(20261020, 16))
    x = (qt({(0, 0): 1, (1, 0): 1}), qt({(0, 0): 1, (0, 1): -1}))
    y = (qt({(0, 0): 2, (1, 1): Fraction(-1, 3)}), qt({(0, 0): 1, (2, 1): -1}))
    cases = [(x, y), (x, x), (x, (-x[0], x[1])), (x, (x[1], x[0])), (y, (y[1], y[0] * 3))]
    # Sums whose numerator shares a factor with the common part of the denominators:
    # 1/((1-q)(1-t)) - 1/((1-q)(1-qt)) = t/((1-t)(1-qt)), and 1/(1-q^2) + q/(1-q^2).
    one_minus_q, one_minus_t, one_minus_qt = BINOMIALS[0], BINOMIALS[1], BINOMIALS[2]
    cases.append(((ONE, one_minus_q * one_minus_t), (-ONE, one_minus_q * one_minus_qt)))
    one_minus_q2 = qt({(0, 0): 1, (2, 0): -1})
    cases.append(((ONE, one_minus_q2), (qt({(1, 0): 1}), one_minus_q2)))
    cases += list(zip(fractions[::2], fractions[1::2]))
    cases += [(fractions[0], fractions[0]), (fractions[1], (fractions[1][0] * -2, fractions[1][1]))]
    return cases


def test_rational_arithmetic_stays_in_lowest_terms():
    for a, b in _fraction_pairs():
        ra, rb = RationalFunction(*a), RationalFunction(*b)
        for rf in (ra, rb):
            _assert_lowest_terms(rf)
        for op, fn in OPS.items():
            out = fn(ra, rb)
            num, den = _naive(op, a, b)
            assert out.num * den == num * out.den, op
            _assert_lowest_terms(out)
            # The form is unique: reducing the naive parts lands on the same
            # parts, which is what equality by canonical parts relies on.
            naive = RationalFunction(num, den)
            assert (out.num, out.den) == (naive.num, naive.den), op
            assert out == naive, op
            if out:  # and no other value compares equal
                assert out != out * 2 and out != out / RationalFunction(BINOMIALS[0]), op


def test_fractions_outside_qt_rejected():
    t = ("t",)
    with pytest.raises(ValueError, match="over"):
        RationalFunction(LaurentPolynomial(t, {(0,): 1, (2,): -1}))
    with pytest.raises(ValueError, match="over"):
        RationalFunction(
            LaurentPolynomial(t, {(1,): Fraction(1, 2)}), LaurentPolynomial(t, {(0,): 1, (1,): -1})
        )


def test_scalar_operands():
    x = RationalFunction(qt({(0, 0): 1, (1, 0): 1}), qt({(0, 0): 1, (0, 1): -1}))
    one_minus_t = qt({(0, 0): 1, (0, 1): -1})
    half = Fraction(1, 2)
    cases = [
        (x + 1, qt({(0, 0): 2, (1, 0): 1, (0, 1): -1})),
        (1 + x, qt({(0, 0): 2, (1, 0): 1, (0, 1): -1})),
        (x - 1, qt({(1, 0): 1, (0, 1): 1})),
        (x * 2, qt({(0, 0): 2, (1, 0): 2})),
        (2 * x, qt({(0, 0): 2, (1, 0): 2})),
        (x / 2, qt({(0, 0): half, (1, 0): half})),
        (x + half, qt({(0, 0): Fraction(3, 2), (1, 0): 1, (0, 1): -half})),
        (half * x, qt({(0, 0): half, (1, 0): half})),
        (x / half, qt({(0, 0): 2, (1, 0): 2})),
    ]
    for out, num in cases:
        assert out == RationalFunction(num, one_minus_t)
        _assert_lowest_terms(out)
    assert x - x == 0 and x / x == 1 and x * 0 == 0
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(TypeError):
        x + True
    for bad in (1.5, "1", None):
        with pytest.raises(TypeError):
            x + bad
        with pytest.raises(TypeError):
            bad - x
        with pytest.raises(TypeError):
            x / bad
        with pytest.raises(TypeError):
            bad * x
        with pytest.raises(TypeError):
            x * bad

"""Sparse Laurent polynomial and factored rational arithmetic."""

import random
from fractions import Fraction

import pytest

from torus_super.algebra import (
    KNOT,
    MACD,
    AlphabetMismatchError,
    FactoredRational,
    LaurentPolynomial,
    NonDivisibleError,
    SubstitutionMap,
    exact_divide,
    expand_binomial_product,
)
from torus_super.invariant import MACD_TO_KNOT

QT = ("q", "t")


def poly(alphabet, terms):
    return LaurentPolynomial(alphabet, terms)


def random_poly(rng, alphabet, max_terms=12, span=8):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(-span, span) for _ in alphabet)
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        merged = terms.get(exps, 0) + coeff
        if merged:
            terms[exps] = merged
        else:
            terms.pop(exps, None)
    if not terms:
        terms[(0,) * len(alphabet)] = Fraction(1)
    return LaurentPolynomial(alphabet, terms)


def test_difference_of_squares():
    one_plus_q = poly(QT, {(0, 0): 1, (1, 0): 1})
    one_minus_q = poly(QT, {(0, 0): 1, (1, 0): -1})
    # The cross terms q and -q cancel; == would see a zero stored for them.
    assert one_plus_q * one_minus_q == poly(QT, {(0, 0): 1, (2, 0): -1})


def test_additive_identity():
    f = poly(QT, {(2, -1): 3, (0, 1): Fraction(1, 2)})
    assert f + LaurentPolynomial.zero(QT) == f
    # == compares the stored terms, so each cancelled sum must store no zero.
    assert f - f == LaurentPolynomial.zero(QT)
    assert f + (-f) == LaurentPolynomial.zero(QT)
    assert not (f - f)


def test_ring_laws_on_seeded_inputs():
    rng = random.Random(20240817)
    for _ in range(25):
        f = random_poly(rng, QT)
        g = random_poly(rng, QT)
        h = random_poly(rng, QT)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_exact_divide_examples():
    one_minus_q2 = poly(QT, {(0, 0): 1, (2, 0): -1})
    one_minus_q = poly(QT, {(0, 0): 1, (1, 0): -1})
    one_plus_q = poly(QT, {(0, 0): 1, (1, 0): 1})
    assert exact_divide(one_minus_q2, one_minus_q) == one_plus_q
    with pytest.raises(NonDivisibleError):
        exact_divide(one_plus_q, one_minus_q)
    zero = LaurentPolynomial.zero(QT)
    assert exact_divide(zero, one_minus_q) == zero


def test_exact_divide_round_trip():
    rng = random.Random(20240818)
    for _ in range(40):
        f = random_poly(rng, KNOT, max_terms=30)
        g = random_poly(rng, KNOT, max_terms=30)
        assert exact_divide(f * g, g) == f
    # Two-term divisors alpha*x^u + beta*x^v, the oracle's commonest: steps
    # v - u along a, q or t alone and mixed ones, of either sign.
    for trial in range(400):
        step = [0, 0, 0] if trial % 2 else [rng.randint(-3, 3) for _ in KNOT]
        step[trial % 3] = rng.choice([-3, -2, -1, 1, 2, 3])
        u = tuple(rng.randint(-5, 5) for _ in KNOT)
        v = tuple(x + s for x, s in zip(u, step))
        alpha = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2, 7]))
        g = poly(KNOT, {u: alpha, v: rng.choice([-4, -1, 1, 3])})
        f = random_poly(rng, KNOT)
        assert exact_divide(f * g, g) == f
        stray = poly(KNOT, {tuple(rng.randint(-12, 12) for _ in KNOT): rng.randint(1, 9)})
        with pytest.raises(NonDivisibleError):
            exact_divide(f * g + stray, g)


def test_divide_by_zero_rejected():
    f = poly(QT, {(0, 0): 1})
    with pytest.raises(ZeroDivisionError):
        exact_divide(f, LaurentPolynomial.zero(QT))


def test_alphabet_mismatch_rejected():
    f = poly(QT, {(0, 0): 1})
    g = poly(KNOT, {(0, 0, 0): 1})
    with pytest.raises(AlphabetMismatchError):
        f + g


def test_substitution_example():
    f = poly(MACD, {(0, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): -1})
    image = f.substitute(MACD_TO_KNOT)
    assert image == poly(KNOT, {(0, 0, 0): 1, (0, 4, 2): 1, (2, 2, 3): 1})
    # q -> t sends q and t to one monomial, so q - t + q*t cancels to t^2.
    q_to_t = SubstitutionMap(QT, ("t",), {"q": (1, (1,)), "t": (1, (1,))})
    assert poly(QT, {(1, 0): 1, (0, 1): -1, (1, 1): 1}).substitute(q_to_t).terms == {(2,): 1}
    assert poly(QT, {(1, 0): 1, (0, 1): -1}).substitute(q_to_t).terms == {}


def test_substitution_images():
    a_var = poly(MACD, {(0, 0, 1): 1})
    assert a_var.substitute(MACD_TO_KNOT) == poly(KNOT, {(2, 0, 1): -1})
    assert LaurentPolynomial.one(MACD).substitute(MACD_TO_KNOT) == LaurentPolynomial.one(KNOT)


def test_substitution_is_ring_homomorphism():
    rng = random.Random(20240819)
    for _ in range(20):
        f = random_poly(rng, MACD)
        g = random_poly(rng, MACD)
        assert (f * g).substitute(MACD_TO_KNOT) == f.substitute(MACD_TO_KNOT) * g.substitute(MACD_TO_KNOT)
        assert (f + g).substitute(MACD_TO_KNOT) == f.substitute(MACD_TO_KNOT) + g.substitute(MACD_TO_KNOT)


def test_substitution_requires_full_cover():
    with pytest.raises(ValueError):
        SubstitutionMap(MACD, KNOT, {"q": (1, (0, 2, 2))})


def test_content_examples():
    f = poly(KNOT, {(0, 2, 1): 1, (0, 3, 0): 1})
    assert f.content() == (0, 2, 0)
    assert poly(KNOT, {(0, 0, 0): 1, (0, 1, 0): 1}).content() == (0, 0, 0)
    g = poly(KNOT, {(0, -2, 0): 1, (0, 0, 1): 1})
    assert g.content() == (0, -2, 0)
    with pytest.raises(ValueError):
        LaurentPolynomial.zero(KNOT).content()


def test_shifted_scales_and_translates():
    f = poly(KNOT, {(0, 2, 1): 3, (1, 0, -1): Fraction(-1, 2)})
    moved = f.shifted((1, -2, 0))
    assert moved.terms == {(1, 0, 1): 3, (2, -2, -1): Fraction(-1, 2)}
    # Coefficient 1 copies the coefficients as they are.
    assert [type(c) for c in moved.terms.values()] == [int, Fraction]
    assert f.shifted((0, 0, 0), Fraction(2)).terms == {(0, 2, 1): 6, (1, 0, -1): -1}
    assert all(type(c) is int for c in f.shifted((0, 0, 0), 2).terms.values())
    assert f.shifted((5, 5, 5), 0).is_zero()


def test_factored_expand_monomial_prefactor():
    r = FactoredRational(MACD, prefactor=(0, 2, 0), factors={(1, 0, 0): -1})
    num, den = r.expand()
    assert num == poly(MACD, {(0, 2, 0): 1})
    assert den == poly(MACD, {(0, 0, 0): 1, (1, 0, 0): -1})


def test_factored_expand_single_box_dimension_shape():
    r = FactoredRational(MACD, factors=[((0, 0, 1), 1), ((0, 1, 0), -1)])
    num, den = r.expand()
    assert num == poly(MACD, {(0, 0, 0): 1, (0, 0, 1): -1})
    assert den == poly(MACD, {(0, 0, 0): 1, (0, 1, 0): -1})


def test_factored_expand_two_box_row_dimension_shape():
    r = FactoredRational(
        MACD,
        factors=[((0, 0, 1), 1), ((1, 0, 1), 1), ((0, 1, 0), -1), ((1, 1, 0), -1)],
    )
    num, den = r.expand()
    one_minus_a = poly(MACD, {(0, 0, 0): 1, (0, 0, 1): -1})
    one_minus_aq = poly(MACD, {(0, 0, 0): 1, (1, 0, 1): -1})
    one_minus_t = poly(MACD, {(0, 0, 0): 1, (0, 1, 0): -1})
    one_minus_qt = poly(MACD, {(0, 0, 0): 1, (1, 1, 0): -1})
    assert num == one_minus_a * one_minus_aq
    assert den == one_minus_t * one_minus_qt


def test_factored_binomial_canonicalization():
    # 1 - 1/t == (-1/t) * (1 - t)
    r = FactoredRational(MACD, factors={(0, -1, 0): 1})
    assert r == FactoredRational(MACD, coeff=-1, prefactor=(0, -1, 0), factors={(0, 1, 0): 1})
    num, den = r.expand()
    assert den == LaurentPolynomial.one(MACD)
    assert num == poly(MACD, {(0, 0, 0): 1, (0, -1, 0): -1})


def test_factored_multiplication_cancels():
    r = FactoredRational(
        MACD, coeff=Fraction(3, 2), prefactor=(1, -2, 0),
        factors={(1, 0, 0): 2, (0, 1, 0): -1},
    )
    # == compares the factors, so no cancelled binomial may keep a zero multiplicity.
    assert r * r.reciprocal() == FactoredRational.one(MACD)
    with pytest.raises(ZeroDivisionError):
        FactoredRational(MACD, factors={(0, 0, 0): 1})


def test_expand_over_a_common_denominator_cancels():
    # 1/(1 - q) - 1/(1 - q): over the lcm (1 - q) the numerators are 1 and -1.
    plus = FactoredRational(MACD, factors={(1, 0, 0): -1})
    minus = FactoredRational(MACD, coeff=-1, factors={(1, 0, 0): -1})
    lcm = FactoredRational(MACD, factors={(1, 0, 0): 1})
    (num_plus, den_plus), (num_minus, den_minus) = (plus * lcm).expand(), (minus * lcm).expand()
    assert num_plus == LaurentPolynomial.one(MACD)
    assert num_minus == -LaurentPolynomial.one(MACD)
    assert (num_plus + num_minus).is_zero()
    assert den_plus == den_minus == LaurentPolynomial.one(MACD)


def test_expand_over_a_common_denominator_of_distinct_binomials():
    over_q = FactoredRational(MACD, factors={(1, 0, 0): -1})
    over_t = FactoredRational(MACD, factors={(0, 1, 0): -1})
    lcm = FactoredRational(MACD, factors={(1, 0, 0): 1, (0, 1, 0): 1})
    expanded = [(r * lcm).expand() for r in (over_q, over_t)]
    nums = [num for num, _ in expanded]
    assert nums == [
        poly(MACD, {(0, 0, 0): 1, (0, 1, 0): -1}),
        poly(MACD, {(0, 0, 0): 1, (1, 0, 0): -1}),
    ]
    assert all(den == LaurentPolynomial.one(MACD) for _, den in expanded)
    assert nums[0] + nums[1] == poly(MACD, {(0, 0, 0): 2, (1, 0, 0): -1, (0, 1, 0): -1})
    assert expand_binomial_product(LaurentPolynomial.one(MACD), lcm.factors.items()) == poly(
        MACD, {(0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 0): -1, (1, 1, 0): 1}
    )


def test_expand_binomial_product_from_polynomial_start():
    rng = random.Random(20260)
    one = LaurentPolynomial.one(MACD)
    checked = 0
    while checked < 40:
        start = random_poly(rng, MACD, span=4)  # negative exponents included
        factors = [
            (tuple(rng.randint(-3, 3) for _ in MACD), rng.randint(0, 3))
            for _ in range(rng.randint(1, 4))
        ]
        if start.term_count < 2 or not all(any(b) for b, _ in factors):
            continue
        checked += 1
        assert expand_binomial_product(start, factors) == start * expand_binomial_product(
            one, factors
        )
    # (1 + q + q^2)(1 - q) = 1 - q^3: the copy's q and q^2 cancel the start's,
    # and (1 + q)(1 - q)^2 cancels q in its first copy only to regain it.
    q = (1, 0, 0)
    assert expand_binomial_product(poly(MACD, {(0, 0, 0): 1, q: 1, (2, 0, 0): 1}), [(q, 1)]).terms == {
        (0, 0, 0): 1, (3, 0, 0): -1,
    }
    assert expand_binomial_product(poly(MACD, {(0, 0, 0): 1, q: 1}), [(q, 2)]).terms == {
        (0, 0, 0): 1, q: -1, (2, 0, 0): -1, (3, 0, 0): 1,
    }
    with pytest.raises(ValueError):
        expand_binomial_product(one, [((1, 0, 0), -1)])

"""Closed-form Macdonald ingredients: framing, cell weights, dimensions, norms."""

import itertools

import pytest

from torus_super.algebra import MACD, FactoredRational, LaurentPolynomial, elementary_symmetric
from torus_super.macdonald import (
    cauchy_norm,
    cell_elementary,
    framing_factor,
    macdonald_dimension,
    power_sum_coefficient,
)
from torus_super.partitions import cells, enumerate_partitions, size, transpose


def poly(terms):
    return LaurentPolynomial(MACD, terms)


def test_framing_single_cells():
    assert framing_factor((1,)) == (-1, 1, 0)
    assert framing_factor((2,)) == (-3, 2, 0)
    assert framing_factor((1, 1)) == (-2, 3, 0)


def test_framing_cell_product_equals_closed_form():
    for n in range(1, 9):
        for y in enumerate_partitions(n):
            q_exp = -sum(j for _, j in cells(y))
            t_exp = sum(i for i, _ in cells(y))
            conj = transpose(y)
            assert 2 * t_exp == size(y) + sum(c * c for c in conj)
            assert -2 * q_exp == size(y) + sum(p * p for p in y)
            assert framing_factor(y) == (q_exp, t_exp, 0)


def test_cell_elementary_degree_zero_and_overflow():
    for y in [(1,), (3, 1), (2, 2, 1)]:
        assert cell_elementary(y, 0) == LaurentPolynomial.one(MACD)
        assert cell_elementary(y, size(y) + 1).is_zero()
    with pytest.raises(ValueError):
        cell_elementary((2,), -1)


def test_cell_elementary_linear_term():
    # weights of (2,) are t/q and t/q^2
    assert cell_elementary((2,), 1) == poly({(-1, 1, 0): 1, (-2, 1, 0): 1})


def test_cell_elementary_top_degree_is_framing():
    for n in range(1, 7):
        for y in enumerate_partitions(n):
            top = cell_elementary(y, n)
            assert top == poly({framing_factor(y): 1})


def _subset_sums(weights, r):
    expected = {}
    for combo in itertools.combinations(weights, r):
        exps = tuple(map(sum, zip((0, 0, 0), *combo))) if combo else (0, 0, 0)
        expected[exps] = expected.get(exps, 0) + 1
    return poly(expected)


def test_cell_elementary_matches_subset_sums():
    for n in range(1, 6):
        for y in enumerate_partitions(n):
            weights = [(-j, i, 0) for i, j in cells(y)]
            for r in range(n + 1):
                assert cell_elementary(y, r) == _subset_sums(weights, r)
    # cell_elementary reads one order of the Pascal pass; check them all, with
    # a repeated weight and one order above the weight count.
    weights = [(-1, 1, 0), (2, 0, 1), (-1, 1, 0), (0, 0, 0), (3, -2, 0)]
    orders = elementary_symmetric(MACD, weights, len(weights) + 1)
    assert orders[:-1] == [_subset_sums(weights, r) for r in range(len(weights) + 1)]
    assert orders[1].coefficient((-1, 1, 0)) == 2
    assert orders[-1].is_zero()


def test_cell_elementary_generating_identity():
    # sum_r e_r z^r = prod over cells (1 + z * weight), tracked in a z slot
    zqt = ("z", "q", "t")
    for n in range(1, 7):
        for y in enumerate_partitions(n):
            product = LaurentPolynomial.one(zqt)
            for i, j in cells(y):
                product = product * LaurentPolynomial(zqt, {(0, 0, 0): 1, (1, -j, i): 1})
            collected = {}
            for r in range(n + 1):
                for (eq, et, _), c in cell_elementary(y, r).terms.items():
                    collected[(r, eq, et)] = c
            assert product == LaurentPolynomial(zqt, collected)


def test_dimension_single_box():
    assert macdonald_dimension((1,)) == FactoredRational(
        MACD, factors=[((0, 0, 1), 1), ((0, 1, 0), -1)]
    )


def test_dimension_row_of_two():
    assert macdonald_dimension((2,)) == FactoredRational(
        MACD,
        factors=[((0, 0, 1), 1), ((1, 0, 1), 1), ((0, 1, 0), -1), ((1, 1, 0), -1)],
    )


def test_dimension_column_of_two():
    num, den = macdonald_dimension((1, 1)).expand()
    # (1 - A)(t - A) over (1 - t)(1 - t^2)
    assert num == poly({(0, 1, 0): 1, (0, 0, 1): -1, (0, 1, 1): -1, (0, 0, 2): 1})
    assert den == poly({(0, 0, 0): 1, (0, 1, 0): -1, (0, 2, 0): -1, (0, 3, 0): 1})


def test_cauchy_norm_single_box():
    assert cauchy_norm((1,)) == FactoredRational(
        MACD, factors=[((0, 1, 0), 1), ((1, 0, 0), -1)]
    )


def test_cauchy_norm_row_of_two():
    num, den = cauchy_norm((2,)).expand()
    one_minus_t = poly({(0, 0, 0): 1, (0, 1, 0): -1})
    one_minus_qt = poly({(0, 0, 0): 1, (1, 1, 0): -1})
    one_minus_q = poly({(0, 0, 0): 1, (1, 0, 0): -1})
    one_minus_q2 = poly({(0, 0, 0): 1, (2, 0, 0): -1})
    assert num == one_minus_t * one_minus_qt
    assert den == one_minus_q * one_minus_q2


def test_power_sum_coefficient_rows_collapse_to_one():
    for n in range(1, 7):
        assert power_sum_coefficient((n,)) == FactoredRational.one(MACD)


def test_power_sum_coefficient_column_of_two():
    num, den = power_sum_coefficient((1, 1)).expand()
    # -(1 + q)(1 - t) over (1 - qt), checked by cross multiplication
    lhs_num = poly({(0, 0, 0): -1, (1, 0, 0): -1, (0, 1, 0): 1, (1, 1, 0): 1})
    lhs_den = poly({(0, 0, 0): 1, (1, 1, 0): -1})
    assert num * lhs_den == lhs_num * den

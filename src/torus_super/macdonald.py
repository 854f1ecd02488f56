"""Closed-form Macdonald-polynomial ingredients indexed by partitions.

Everything here lives over the alphabet ``(q, t, A)`` where ``A`` stands for
``t^N`` at a generic number of variables ``N``: keeping it an independent
symbol preserves exactness and lets a later substitution decide ``N``.

Each cell ``(i, j)`` of a diagram carries the weight ``t^i / q^j``; arm and
leg are the usual hook statistics.  All four ingredient maps return either a
monomial, a Laurent polynomial, or a factored rational whose binomials merge
and cancel symbolically.
"""

from __future__ import annotations

from .algebra import MACD, FactoredRational, LaurentPolynomial, Monomial, elementary_symmetric
from .partitions import Partition, cell_data, check_partition, size, transpose

# Exponent vector layout over MACD: (q, t, A).


def _closed_framing_exponents(y: Partition) -> tuple[int, int]:
    """(q exponent, t exponent) via the row/column sum formulas."""
    conj = transpose(y)
    t_twice = size(y) + sum(c * c for c in conj)
    q_twice = size(y) + sum(p * p for p in y)
    if t_twice % 2 or q_twice % 2:
        raise AssertionError(f"framing parity violated for {y}")
    return -q_twice // 2, t_twice // 2


def framing_factor(y: Partition) -> Monomial:
    """Product of ``t^i / q^j`` over all cells, as a single monomial."""
    y = check_partition(y)
    q_exp = 0
    t_exp = 0
    for i, j, _, _ in cell_data(y):
        q_exp -= j
        t_exp += i
    closed = _closed_framing_exponents(y)
    if (q_exp, t_exp) != closed:
        raise AssertionError(f"framing closed form mismatch for {y}")
    return (q_exp, t_exp, 0)


def cell_elementary(y: Partition, r: int) -> LaurentPolynomial:
    """Elementary symmetric polynomial of degree ``r`` in the cell weights.

    Degree 0 gives 1; degree above the cell count gives 0; the top degree
    equals the framing monomial.
    """
    y = check_partition(y)
    if r < 0:
        raise ValueError("degree must be nonnegative")
    if r > size(y):
        return LaurentPolynomial.zero(MACD)
    return elementary_symmetric(MACD, [(-j, i, 0) for i, j, _, _ in cell_data(y)], r)[r]


def macdonald_dimension(y: Partition) -> FactoredRational:
    """Principal specialization ``M_y(1, t, ..., t^(N-1))`` with ``A = t^N``.

    Factored form: ``t^(sum(conj_i^2 - y_i)/2) * prod over cells of
    (1 - A t^(1-i) q^(j-1)) / (1 - t^(leg+1) q^arm)``.
    """
    y = check_partition(y)
    factors: list[tuple[Monomial, int]] = []
    for i, j, arm_len, leg_len in cell_data(y):
        factors.append(((j - 1, 1 - i, 1), 1))
        factors.append(((arm_len, leg_len + 1, 0), -1))
    return FactoredRational(
        MACD, coeff=1, prefactor=(0, _half_conj_square_defect(y), 0), factors=factors
    )


def cauchy_norm(y: Partition) -> FactoredRational:
    """Squared-norm factor from the Cauchy kernel: hook ratio over all cells."""
    y = check_partition(y)
    factors: list[tuple[Monomial, int]] = []
    for _, _, arm_len, leg_len in cell_data(y):
        factors.append(((arm_len, leg_len + 1, 0), 1))
        factors.append(((arm_len + 1, leg_len, 0), -1))
    return FactoredRational(MACD, coeff=1, factors=factors)


def power_sum_coefficient(y: Partition) -> FactoredRational:
    """Coefficient of ``M_y`` in the expansion of the power sum ``p_n``, n = |y|.

    Closed form: ``(1 - q^n) * t^(sum(conj_i^2 - y_i)/2) * prod over cells
    except the corner of (1 - t^(1-i) q^(j-1)) / prod over all cells of
    (1 - t^leg q^(arm+1))``.
    """
    y = check_partition(y)
    factors: list[tuple[Monomial, int]] = [((size(y), 0, 0), 1)]
    for i, j, arm_len, leg_len in cell_data(y):
        if (i, j) != (1, 1):
            factors.append(((j - 1, 1 - i, 0), 1))
        factors.append(((arm_len + 1, leg_len, 0), -1))
    return FactoredRational(
        MACD, coeff=1, prefactor=(0, _half_conj_square_defect(y), 0), factors=factors
    )


def _half_conj_square_defect(y: Partition) -> int:
    conj = transpose(y)
    twice = sum(c * c for c in conj) - size(y)
    if twice % 2:
        raise AssertionError(f"conjugate-square parity violated for {y}")
    return twice // 2

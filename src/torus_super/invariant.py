"""Torus-knot invariants assembled from the closed-form Macdonald data.

The (n, m) invariant is a sum over partitions Y of n.  Each summand is a
factored rational in (q, t, A) times an elementary-symmetric cofactor e_r(Y)
and a monomial that carries everything m-dependent.  compute() never forms
the common numerator, and it runs on Macdonald exponents q^x t^y A^z until
the answer is finished.  It expands only each summand's small numerator n_Y
and slices it by z once; every denominator binomial is 1 - q^x t^y with
x, y >= 0 and x + y > 0, so 1/D_Y is a power series on that cone and leaves
z alone.  The answer is therefore certified one power of A at a time.  In
each z-slice the series of the n_Y / D_Y are truncated at limits of x + y
and 2x + z that bound the sum wherever it is a polynomial, and added up into
T's slice; the multiply-back check then compares T * D with
sum_Y n_Y * (D / D_Y) exactly, D the lcm of the denominators, on
Kronecker-packed Python ints.  Equality in every slice proves T is the
invariant; a difference proves the sum is not a polynomial, and its lowest
term in bold (q, t, a) order is the witness.  Only the finished T and that
witness are substituted into (a, q, t), by
q^x t^y A^z -> (-1)^z a^(2z) q^(2(x + y)) t^(2x + z); one function,
_normalized, then divides T by its monomial content so the lowest term is +1.

A winding family P(n, nk + r) is sum_Y n_Y * f_Y^k / D_Y, f_Y the
Macdonald framing of Y, so over prod (1 - z*f), f the distinct framings, each
order of its numerator is again a sum over the same D_Y.  compute()'s series
sum and multiply-back check certify each order, and only the finished orders
are substituted into (a, q, t); the series runs on their (a, q, t) terms.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from time import perf_counter
from typing import NamedTuple, Union

from .algebra import (
    KNOT,
    MACD,
    Coeff,
    FactoredRational,
    LaurentPolynomial,
    Monomial,
    SubstitutionMap,
    as_coeff,
    elementary_symmetric,
    expand_binomial_product,
    monomial_div,
    monomial_mul,
    unit_monomial,
)
from .macdonald import (
    cell_elementary,
    framing_factor,
    macdonald_dimension,
    power_sum_coefficient,
)
from .partitions import Partition, enumerate_partitions

# Bold substitution into knot variables (a, q, t):
#   q -> q^2 t^2,  t -> q^2,  A -> -a^2 t.
MACD_TO_KNOT = SubstitutionMap(
    MACD,
    KNOT,
    {
        "q": (1, (0, 2, 2)),
        "t": (1, (0, 2, 0)),
        "A": (-1, (2, 0, 1)),
    },
)

HOMFLY_VARS = ("a", "q")
SINGLE_VAR = ("q",)

# t -> -1 keeps (a, q).
_TO_HOMFLY = SubstitutionMap(
    KNOT, HOMFLY_VARS, {"a": (1, (1, 0)), "q": (1, (0, 1)), "t": (-1, (0, 0))}
)
# a -> q^2 on top of t -> -1.
_TO_JONES = SubstitutionMap(HOMFLY_VARS, SINGLE_VAR, {"a": (1, (2,)), "q": (1, (1,))})
# a -> 1 on top of t -> -1.
_TO_ALEXANDER = SubstitutionMap(HOMFLY_VARS, SINGLE_VAR, {"a": (1, (0,)), "q": (1, (1,))})


class IntegrityError(RuntimeError):
    """An internal consistency assertion failed; carries diagnostics."""


class CalibrationError(RuntimeError):
    """A generating function could not be certified or normalized."""


def _check_ints(what: str, *values: object) -> None:
    """TypeError "{what}, got ..." unless every value is an int; a bool is not one."""
    for x in values:
        if isinstance(x, bool) or not isinstance(x, int):
            got = ", ".join(map(repr, values))
            raise TypeError(f"{what}, got {got if len(values) == 1 else f'({got})'}")


def _check_positive(names: str, n: object, m: object) -> None:
    """Reject a pair that is not two positive integers."""
    _check_ints(f"{names} must be integers", n, m)
    if n < 1 or m < 1:
        raise ValueError(f"{names} must be positive, got ({n}, {m})")


class PropertyFlags(NamedTuple):
    polynomial: bool
    integral: bool
    positive: bool
    normalized: bool

    @property
    def all_true(self) -> bool:
        return self.polynomial and self.integral and self.positive and self.normalized


class Superpolynomial(NamedTuple):
    """Normalized invariant in (a, q, t) plus the monomial content removed."""

    n: int
    m: int
    terms: LaurentPolynomial
    content: Monomial
    flags: PropertyFlags


class NonPolynomial(NamedTuple):
    """Outcome for inputs where the summed rational is not a polynomial."""

    n: int
    m: int
    gcd: int
    reason: str = "the multiply-back check failed"


# Macdonald steps (x, y) of ``prod (1 - q^x t^y)^mult``, with multiplicities.
_Steps = tuple[tuple[tuple[int, int], int], ...]


class _Summand(NamedTuple):
    """One partition's summand ``coeff * x^prefactor * prod (1 - x^b)^e / D_Y``.

    All of it is over MACD: the numerator binomials ``1 - x^b`` with their
    multiplicities, and D_Y as the steps (x, y) of ``1 - q^x t^y`` with
    theirs.
    """

    partition: Partition
    framing: Monomial
    coeff: int
    prefactor: Monomial
    numerator: tuple[tuple[Monomial, int], ...]
    denominator: _Steps


# A polynomial over MACD as slices z -> {(x, y): coefficient of q^x t^y A^z}.
_Slice = dict[tuple[int, int], int]
_Slices = dict[int, _Slice]
# The multiply-back tree over the summands: a leaf is a summand's index, a
# node (left, right, left_steps, right_steps) brings both halves to the lcm
# of their denominators by the steps each half misses.
_Node = Union[int, tuple["_Node", "_Node", _Steps, _Steps]]


class _FamilyCore(NamedTuple):
    """m-independent data shared by every invariant of strand count n."""

    parts: tuple[_Summand, ...]
    # Largest |coefficient| of D expanded, for the multiply-back digit width.
    lcm_peak: int
    # The lcm D of the summands' denominators as steps with multiplicities,
    # and the tree that sums N = sum_Y n_Y * (D / D_Y).
    lcm_steps: _Steps
    tree: _Node
    # Per summand: the copies and the reach sum(y * mult) of D / D_Y.
    missing: tuple[tuple[int, int], ...]


def _cone_step(b: Monomial) -> tuple[int, int]:
    """Step (x, y) of a denominator binomial ``1 - q^x t^y A^z``.

    Its inverse expands as ``sum_k q^(k x) t^(k y)`` on the series cone only
    if the binomial has no A, x, y >= 0 and x + y > 0; anything else is an
    IntegrityError.
    """
    x, y, z = b
    if z or x < 0 or y < 0 or x + y <= 0:
        raise IntegrityError(f"denominator binomial 1 - x^{b} is off the series cone")
    return x, y


def _digit_bytes(bound: int) -> int:
    """Bytes per digit of a packed int whose signed digits are at most bound in
    absolute value: the fewest with bound < 2^(w - 1), w = 8 * bytes."""
    return bound.bit_length() // 8 + 1


def _digit_bias(count: int, nbytes: int) -> int:
    """2^(w - 1) in each of count w-bit digits, w = 8 * nbytes: added to digits
    in (-2^(w - 1), 2^(w - 1)), it leaves byte group k holding digit k + 2^(w - 1)."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * count, "little")


def _times(v: int, steps: _Steps, width: int, w: int) -> int:
    """v times ``prod (1 - q^x t^y)^mult`` on ints packed with w-bit digits,
    rows of ``width`` digits by x: each binomial copy is one
    ``v -= v << w * (x * width + y)``."""
    for (x, y), mult in steps:
        shift = w * (x * width + y)
        for _ in range(mult):
            v -= v << shift
    return v


def _lcm_peak(steps: _Steps) -> int:
    """Largest |coefficient| of ``D = prod (1 - q^x t^y)^mult``, expanded once
    as a packed int, one digit per (x, y) of its box, x the more significant.
    |coef(D)| <= L1(D) <= 2^copies, so digits of _digit_bytes(2^copies) are exact."""
    nbytes = _digit_bytes(1 << sum(mult for _, mult in steps))
    width = 1 + sum(y * mult for (_, y), mult in steps)
    size = width * (1 + sum(x * mult for (x, _), mult in steps))
    v = _times(1, steps, width, 8 * nbytes) + _digit_bias(size, nbytes)
    data = v.to_bytes(size * nbytes, "little")
    digits = [int.from_bytes(data[i:i + nbytes], "little") for i in range(0, len(data), nbytes)]
    half = 1 << (8 * nbytes - 1)
    return max(max(digits) - half, half - min(digits))


def _merge_tree(dens: list[Counter], lo: int, hi: int) -> tuple[_Node, Counter]:
    """The balanced tree over summands lo..hi - 1 and the lcm of their D_Y."""
    if hi - lo == 1:
        return lo, dens[lo]
    mid = (lo + hi) // 2
    left, d1 = _merge_tree(dens, lo, mid)
    right, d2 = _merge_tree(dens, mid, hi)
    both = d1 | d2
    left_steps, right_steps = (tuple(sorted((both - d).items())) for d in (d1, d2))
    return (left, right, left_steps, right_steps), both


@lru_cache(maxsize=None)
def _family_core(n: int) -> _FamilyCore:
    ys = enumerate_partitions(n)
    unknot_dim_inverse = macdonald_dimension((1,)).reciprocal()
    # (1 - q) / (1 - q^n); the n = 1 case cancels to 1 on its own.
    const = FactoredRational(MACD, factors=[((1, 0, 0), 1), ((n, 0, 0), -1)])
    bases = [
        power_sum_coefficient(y) * macdonald_dimension(y) * unknot_dim_inverse * const
        for y in ys
    ]
    parts = []
    for y, base in zip(ys, bases):
        if not isinstance(base.coeff, int):
            raise IntegrityError(f"summand of {y} has coefficient {base.coeff}")
        parts.append(_Summand(
            partition=y,
            framing=framing_factor(y),
            coeff=base.coeff,
            prefactor=base.prefactor,
            numerator=tuple(sorted((b, e) for b, e in base.factors.items() if e > 0)),
            denominator=tuple(sorted(
                (_cone_step(b), -e) for b, e in base.factors.items() if e < 0
            )),
        ))
    dens = [Counter(dict(part.denominator)) for part in parts]
    # The root's lcm divides by each step as often as any summand does.
    tree, lcm = _merge_tree(dens, 0, len(dens))
    missing = []
    for den in dens:
        rest = (lcm - den).items()
        missing.append((sum(mult for _, mult in rest), sum(y * mult for (_, y), mult in rest)))
    lcm_steps = tuple(sorted(lcm.items()))
    return _FamilyCore(
        parts=tuple(parts),
        lcm_peak=_lcm_peak(lcm_steps),
        lcm_steps=lcm_steps,
        tree=tree,
        missing=tuple(missing),
    )


def _numerators(n: int, m: int) -> list[_Slices]:
    """Each summand's numerator n_Y as slices by the power of A: the cofactor
    e_r(Y) times the summand's monomial, its m-dependent shift and its
    numerator binomials."""
    k, r = divmod(m, n)
    e = r * n + r * (r - 1) // 2 - n * (n - 1) // 2
    out = []
    for part in _family_core(n).parts:
        t_q, t_t, _ = part.framing
        shift = monomial_mul(part.prefactor, (e + k * t_q, m + k * t_t, 0))
        start = cell_elementary(part.partition, r).shifted(shift, part.coeff)
        slices: _Slices = {}
        for (x, y, z), c in expand_binomial_product(start, part.numerator).terms.items():
            slices.setdefault(z, {})[x, y] = c
        out.append(slices)
    return out


def _substitute(slices: _Slices, content: Monomial = (0, 0, 0)) -> LaurentPolynomial:
    """The bold image in (a, q, t) divided by x^content, term by term:
    q^x t^y A^z -> (-1)^z a^(2z) q^(2(x + y)) t^(2x + z)."""
    c_a, c_q, c_t = content
    return LaurentPolynomial._of(KNOT, {
        (2 * z - c_a, 2 * (x + y) - c_q, 2 * x + z - c_t): -c if z % 2 else c
        for z, terms in slices.items()
        for (x, y), c in terms.items()
    })


def _series_bound(core: _FamilyCore, numerators: list[_Slices]) -> tuple[int, int]:
    """(top_d, top_t) = max_Y (top(n_Y) - deg D_Y) in the linear gradings x + y
    and 2x + z of q^x t^y A^z, which a step (x, y) raises by x + y and 2x.
    If the sum S of the summands is a polynomial, S * D = N = sum_Y n_Y * (D / D_Y),
    and tops add under products, so top(S) <= max_Y top(n_Y) - deg D_Y."""
    tops = []
    for part, num in zip(core.parts, numerators):
        deg_d = sum((x + y) * mult for (x, y), mult in part.denominator)
        deg_t = sum(2 * x * mult for (x, _), mult in part.denominator)
        top_d = max(x + y for terms in num.values() for x, y in terms)
        top_t = max(2 * x + z for z, terms in num.items() for x, _ in terms)
        tops.append((top_d - deg_d, top_t - deg_t))
    return tuple(max(col) for col in zip(*tops))


def _slice_series(core: _FamilyCore, sides: list[_Slice], top_d: int, top_x: int) -> _Slice:
    """One z-slice of T: the sum of the series of n_Y / D_Y, sides the slices
    of the n_Y, truncated at d = x + y <= top_d and x <= top_x (2x + z <= top_t).

    Each slice of n_Y is kept as rows ``d -> {x: coefficient}``.  Each copy of
    a step (x, y) is one pass of the line recurrence ``g[e] = f[e] + g[e - (x, y)]``,
    in place and in ascending d: x + y > 0, so g[e - (x, y)] is final when e
    is reached.  Every step is >= 0, so no term falls back under the limits
    once it rises above them, and truncating commutes with the division.
    """
    sums: dict[int, dict[int, int]] = {}  # d -> x -> coefficient
    for part, terms in zip(core.parts, sides):
        rows: dict[int, dict[int, int]] = {}
        for (x, y), c in terms.items():
            if x <= top_x and x + y <= top_d:
                rows.setdefault(x + y, {})[x] = c
        if not rows:
            continue  # this slice of n_Y / D_Y lies wholly above the limits
        for (sx, sy), mult in part.denominator:
            sd = sx + sy
            room = top_x - sx  # x + sx stays <= top_x when x <= room
            for _ in range(mult):
                for d in range(min(rows), top_d - sd + 1):
                    row = rows.get(d)
                    if not row:
                        continue
                    above = rows.setdefault(d + sd, {})
                    for x, c in row.items():
                        if x <= room:
                            x += sx
                            above[x] = above.get(x, 0) + c
        for d, row in rows.items():
            acc = sums.setdefault(d, {})
            for x, c in row.items():
                acc[x] = acc.get(x, 0) + c
    return {(x, d - x): c for d, row in sums.items() for x, c in row.items() if c}


def _slice_check(core: _FamilyCore, sides: list[_Slice]) -> _Slice:
    """Exact check ``T * D == N = sum_Y n_Y * (D / D_Y)`` in one z-slice on
    packed ints; sides are T's slice, then each n_Y's.

    Each side is one Python int, one w-bit signed digit per (x, y) of the box
    both sides live in, x the more significant; a row spans y plus the reach
    sum(y * mult) of the steps each side misses, so a step (x, y) is the shift
    ``w * (x * width + y)``.  Digits take _digit_bytes(L1(T) * max|coef(D)| +
    sum_Y L1(n_Y) * 2^(copies in D / D_Y)), a bound on each digit of T * D - N,
    so the ints are equal exactly when the polynomials are.  N is summed
    over the family's balanced tree.  Returns {} on equality, otherwise the
    lowest nonzero digit of each x-row of T * D - N: the rows of the biased
    difference whose bytes differ from the bias's.  The lowest term in bold
    (q, t, a) order is among them, as q = 2(x + y) rises with y in a row.
    """
    reach = [sum(y * mult for (_, y), mult in core.lcm_steps)] + [r for _, r in core.missing]
    lo_x = min(x for side in sides for x, _ in side)
    lo_y = min(y for side in sides for _, y in side)
    width = max(max(y for _, y in side) + r for side, r in zip(sides, reach) if side)
    width += 1 - lo_y
    bound = sum(abs(c) for c in sides[0].values()) * core.lcm_peak
    for side, (spare, _) in zip(sides[1:], core.missing):
        bound += sum(abs(c) for c in side.values()) << spare
    nbytes = _digit_bytes(bound)
    w, half = 8 * nbytes, 1 << (8 * nbytes - 1)

    def pack(side: _Slice) -> int:
        # Each digit is written once, as c + 2^(w - 1) over the bias, which then comes off.
        count = (max((x for x, _ in side), default=lo_x - 1) + 1 - lo_x) * width
        bias = _digit_bias(count, nbytes)
        buf = bytearray(bias.to_bytes(count * nbytes, "little"))
        for (x, y), c in side.items():
            k = ((x - lo_x) * width + y - lo_y) * nbytes
            buf[k:k + nbytes] = (c + half).to_bytes(nbytes, "little")
        v = int.from_bytes(buf, "little")
        del buf
        return v - bias

    def combine(node: _Node) -> int:
        """Packed sum of n_Y * (L / D_Y) over the node's summands, L the lcm of
        their D_Y; halves are summed depth first, so few ints are alive."""
        if isinstance(node, int):
            return pack(sides[node + 1])
        left, right, left_steps, right_steps = node
        v = _times(combine(left), left_steps, width, w)
        return v + _times(combine(right), right_steps, width, w)

    diff = _times(pack(sides[0]), core.lcm_steps, width, w)
    diff -= combine(core.tree)  # at the root, L = D
    found = {}
    if diff:
        row = width * nbytes
        rows = -(-(abs(diff).bit_length() // w + 1) // width)
        bias = _digit_bias(rows * width, nbytes)
        biased = diff + bias
        data = biased.to_bytes(rows * row, "little")
        marks = (biased ^ bias).to_bytes(rows * row, "little")
        for r in range(rows):
            mark = int.from_bytes(marks[r * row:(r + 1) * row], "little")
            if mark:
                y = ((mark & -mark).bit_length() - 1) // w
                at = r * row + y * nbytes
                found[lo_x + r, lo_y + y] = int.from_bytes(data[at:at + nbytes], "little") - half
    return found


def _polynomial(result: Union[Superpolynomial, LaurentPolynomial], use: str) -> LaurentPolynomial:
    """The terms of a result; a NonPolynomial has none: TypeError."""
    if isinstance(result, NonPolynomial):
        raise TypeError(f"({result.n},{result.m}) has no polynomial to {use}: {result.reason}")
    return result.terms if isinstance(result, Superpolynomial) else result


def verify_properties(result: Union[Superpolynomial, LaurentPolynomial]) -> PropertyFlags:
    """Recompute integrality/positivity/normalization flags from the terms."""
    p = _polynomial(result, "verify")
    integral = all(isinstance(c, int) for c in p.terms.values())
    positive = bool(p.terms) and all(c > 0 for c in p.terms.values())
    normalized = (
        bool(p.terms)
        and all(x >= 0 for x in p.content())
        and p.constant_term == 1
    )
    return PropertyFlags(polynomial=True, integral=integral, positive=positive, normalized=normalized)


@lru_cache(maxsize=None, typed=True)  # typed: True == 1 must not hit the cache
def compute(n: int, m: int) -> Union[Superpolynomial, NonPolynomial]:
    """The normalized (n, m) torus-knot invariant, or NonPolynomial.

    Each summand n_Y / D_Y is expanded as a power series truncated at
    _series_bound's limits of x + y and 2x + z, and the series add up to T.
    The multiply-back certificate then compares T * D with
    N = sum_Y n_Y * (D / D_Y) exactly, D the lcm of the D_Y.  If they are
    equal, T is the invariant.  If not, the sum is not a polynomial (a
    polynomial sum lies under those limits, so T would be it); this happens
    exactly when gcd(n, m) > 1, and the reason names the lowest term of
    T * D - N.  All of this runs on Macdonald exponents; only the finished T
    is substituted into (a, q, t) and normalized, by _normalized.  Results
    are immutable and memoized; _compute is the body without the memo.
    """
    _check_positive("n and m", n, m)
    total, failure = _checked_sum(_family_core(n), _numerators(n, m))
    if failure is not None:
        reason = f"multiply-back check failed: {failure}"
        return NonPolynomial(n=n, m=m, gcd=math.gcd(n, m), reason=reason)
    return _normalized(n, m, total)


_compute = compute.__wrapped__


def _checked_sum(core: _FamilyCore, numerators: list[_Slices]) -> tuple[_Slices, str | None]:
    """T, the series sum of the n_Y / D_Y truncated at their bound, and None
    if the multiply-back check holds, otherwise the text naming the lowest
    term of T * D - N in bold (q, t, a) order.  No binomial of D moves the
    power z of A, so both run one z-slice at a time: every series, then every
    check, in ascending z.
    """
    top_d, top_t = _series_bound(core, numerators)
    zs = sorted(set().union(*numerators))

    def sides(z: int) -> list[_Slice]:
        return [num.get(z, {}) for num in numerators]

    total = {z: t for z in zs if (t := _slice_series(core, sides(z), top_d, (top_t - z) // 2))}
    found = {z: d for z in zs if (d := _slice_check(core, [total.get(z, {})] + sides(z)))}
    if not found:
        return total, None
    exps, diff = min(_substitute(found).terms.items(), key=lambda term: term[0][1:] + term[0][:1])
    return total, f"T*D - N has lowest term {diff} at (a, q, t) = {exps}"


def _normalized(n: int, m: int, total: _Slices) -> Superpolynomial:
    """The invariant of a certified T: its bold image divided by its content,
    the lowest exponent per coordinate (2 min z, 2 min (x + y), min (2x + z)).

    The bold map is injective, so the constant term is T's coefficient at
    the content's preimage, sign (-1)^z included, or 0 if it has none.  It
    must be +1; a vanishing T or any other lowest term is an IntegrityError.
    """
    if not total:
        raise IntegrityError(f"({n},{m}): invariant vanished identically")
    content = (
        2 * min(total),
        2 * min(x + y for terms in total.values() for x, y in terms),
        min(2 * x + z for z, terms in total.items() for x, _ in terms),
    )
    terms = _substitute(total, content)
    if terms.constant_term != 1:
        raise IntegrityError(
            f"({n},{m}): lowest term is {terms.constant_term}, expected +1; content {content}"
        )
    return Superpolynomial(n=n, m=m, terms=terms, content=content, flags=verify_properties(terms))


def specialize(result: Union[Superpolynomial, LaurentPolynomial], target: str) -> LaurentPolynomial:
    """Classical reductions: 'homfly' (t -> -1), then 'jones' (a -> q^2) or
    'alexander' (a -> 1).  A NonPolynomial has none: TypeError."""
    p = _polynomial(result, "specialize")
    if p.alphabet != KNOT:
        raise ValueError("specialization expects an (a, q, t) polynomial")
    homfly = p.substitute(_TO_HOMFLY)
    if target == "homfly":
        return homfly
    if target == "jones":
        return homfly.substitute(_TO_JONES)
    if target == "alexander":
        return homfly.substitute(_TO_ALEXANDER)
    raise ValueError(f"unknown specialization {target!r}")


# -- generating functions ----------------------------------------------------


class GeneratingFunction(NamedTuple):
    """Closed form sum_k P(n, nk+r) z^k = numerator / prod (1 - z*pole)."""

    n: int
    r: int
    numerator: tuple[tuple[int, LaurentPolynomial], ...]  # (z power, coefficient)
    poles: tuple[Monomial, ...]  # denominator factors 1 - z * monomial

    def series(self, k_max: int) -> list[LaurentPolynomial]:
        """Taylor coefficients in z up to order k_max, exactly: the numerator
        divided by each 1 - z*pole in turn, c_k += pole * c_{k-1} upward, in
        place on the (a, q, t) terms copied from the numerator.

        The rows' supports overlap (8 rows of the 7 benchmark families hold
        74 686 terms on 22 744 points), so their keys hold one tuple per
        point: a row that gains a point takes its tuple from a point table,
        seeded with the numerator's keys and freed on return, and an update
        or a deletion keeps the key the row already holds.  Memory then
        grows with the terms plus the distinct points, not with a tuple per
        term.
        """
        _check_ints("series order must be an integer", k_max)
        if k_max < 0:
            raise ValueError(f"series order must be non-negative, got {k_max}")
        points: dict[Monomial, Monomial] = {}
        out: list[dict[Monomial, Coeff]] = [{} for _ in range(k_max + 1)]
        for j, coeff in self.numerator:
            if j <= k_max:
                out[j] = {points.setdefault(e, e): c for e, c in coeff.terms.items()}
        for pole in self.poles:
            p_a, p_q, p_t = pole
            moves = any(pole)  # a zero pole keeps the source's own key
            for k in range(1, k_max + 1):
                into = out[k]
                for key, c in out[k - 1].items():
                    if moves:
                        a, q, t = key
                        key = (a + p_a, q + p_q, t + p_t)
                    old = into.get(key)
                    if old is None:
                        into[points.setdefault(key, key)] = c
                    elif not (total := old + c):
                        # Deleted at once: the next pole pass would copy a kept zero into every later row.
                        del into[key]
                    elif type(total) is int:
                        into[key] = total
                    else:
                        into[key] = as_coeff(total)
        return [LaurentPolynomial._of(KNOT, terms) for terms in out]


def _check_family(n: int, r: int) -> None:
    """Reject a family m = nk + r that has no generating function here."""
    _check_positive("n and r", n, r)
    if r >= n:
        raise ValueError(f"need 1 <= r < n, got (n, r) = ({n}, {r})")
    if math.gcd(n, r) != 1:
        raise ValueError(f"family (n={n}, r={r}) hits non-coprime windings")


def generating_function(n: int, r: int) -> GeneratingFunction:
    """Closed form for the winding family m = nk + r, certified by the
    multiply-back check that compute() runs.

    Summand Y of P_k = P(n, nk + r) is n_Y * f_Y^k / D_Y, n_Y that of P_0 and
    f_Y = q^(t_q) t^(t_t + n) its framing: one pole per distinct framing, p
    of them.  Over prod (1 - z*f), numerator order j is
    sum_Y n_Y * [z^j] prod_{g != f_Y} (1 - z*g) / D_Y.  Order 0 is T_0, and
    each order 1..p-1 is certified on its own; a witness is a
    CalibrationError naming z^j.  The series is then exact for every k.  The
    T_k with k <= 3 must step by one content ratio nu, and series(3) must
    reproduce them, or a CalibrationError names the first order that does
    not.  The bold map is an injective ring homomorphism, so order j is
    substituted divided by x^(content_0 + j * nu), and each pole is the bold
    image of its f divided by x^nu.

    Supports overlap, so keys hold one tuple per point: the numerator
    orders, held together, share a table of (a, q, t) points, and the
    products n_Y * c_j(f_Y) of one order's summands a table of (x, y)
    points, dropped with the order, since no two orders are built at once.
    Memory grows with the terms plus the distinct points, and each term
    pair of a product builds one tuple.
    """
    _check_family(n, r)
    core = _family_core(n)
    summand_framings = [(part.framing[0], part.framing[1] + n) for part in core.parts]
    framings = set(summand_framings)
    known = []
    for k in range(4):
        known.append(_compute(n, n * k + r))  # past the memo: nothing is cached
        if isinstance(known[k], NonPolynomial):
            raise CalibrationError(f"({n},{n * k + r}) is not polynomial")
    steps = {monomial_div(known[k + 1].content, known[k].content) for k in range(3)}
    if len(steps) != 1:
        raise CalibrationError(f"content ratio not constant over k = 0..3: {steps}")
    nu = steps.pop()

    # The orders E_j = (-1)^j e_j(framings) of E(z) = prod_f (1 - z*f), by the
    # Pascal pass.  The cofactor [z^j] prod_{g != f} (1 - z*g) of framing f is
    # then c_j(f) = f * c_(j-1)(f) + E_j with c_0(f) = 1, one order at a time.
    elementary = elementary_symmetric(MACD, [(*f, 0) for f in framings], len(framings) - 1)
    cofactors = dict.fromkeys(framings, elementary[0])
    first = _numerators(n, r)
    numerator = [(0, known[0].terms)]
    # A slice or order that gains a point takes its table's tuple; a sum
    # keeps the key already there.
    knot_points = {e: e for e in known[0].terms.terms}
    for j in range(1, len(framings)):
        points: dict[tuple[int, int], tuple[int, int]] = {}
        e_j = -elementary[j] if j % 2 else elementary[j]
        cofactors = {f: c.shifted((*f, 0)) + e_j for f, c in cofactors.items()}
        numerators = []
        for f, num in zip(summand_framings, first):
            slices: _Slices = {}
            for z, terms in num.items():
                acc: _Slice = {}
                for (g_x, g_y, _), g in cofactors[f].terms.items():
                    for (x, y), c in terms.items():
                        key = (x + g_x, y + g_y)
                        old = acc.get(key)
                        if old is None:
                            acc[points.setdefault(key, key)] = g * c
                        else:
                            acc[key] = old + g * c
                slices[z] = {e: c for e, c in acc.items() if c}
            numerators.append(slices)
        total, failure = _checked_sum(core, numerators)
        if failure is not None:
            raise CalibrationError(
                f"numerator order z^{j} failed the multiply-back check: {failure}"
            )
        if total:
            content = tuple(c + j * v for c, v in zip(known[0].content, nu))
            image = _substitute(total, content).terms
            image = {knot_points.setdefault(e, e): c for e, c in image.items()}
            numerator.append((j, LaurentPolynomial._of(KNOT, image)))
    gf = GeneratingFunction(
        n=n,
        r=r,
        numerator=tuple(numerator),
        poles=tuple(sorted(_substitute({0: dict.fromkeys(framings, 1)}, nu).terms)),
    )
    for k, (got, want) in enumerate(zip(gf.series(3), known)):
        if got != want.terms:
            raise CalibrationError(f"series order z^{k} disagrees with compute({n},{n * k + r})")
    return gf


# -- scanning ------------------------------------------------------------------


class ScanRow(NamedTuple):
    n: int
    m: int
    gcd: int
    status: str
    a_max: int | None
    q_max: int | None
    t_max: int | None
    term_count: int | None
    millis: int


class ScanReport(NamedTuple):
    rows: tuple[ScanRow, ...]

    @property
    def all_expected(self) -> bool:
        return all(row.status in ("ok", "nonpolynomial") for row in self.rows)

    def to_csv(self) -> str:
        lines = [",".join(ScanRow._fields)]
        for row in self.rows:
            lines.append(",".join("" if v is None else str(v) for v in row))
        return "\n".join(lines) + "\n"


def _scan_one(n: int, m: int) -> ScanRow:
    start = perf_counter()
    outcome: str
    a_max = q_max = t_max = term_count = None
    g = math.gcd(n, m)
    try:
        result = compute(n, m)
    except Exception as err:  # integrity failures must land in the report
        outcome = f"error:{type(err).__name__}"
    else:
        if isinstance(result, NonPolynomial):
            outcome = "nonpolynomial" if g > 1 else "fail:unexpected-nonpolynomial"
        elif g > 1:
            outcome = "fail:unexpected-polynomial"
        elif not result.flags.all_true:
            outcome = "fail:flags"
        else:
            outcome = "ok"
            highs = result.terms.max_exponents()
            a_max, q_max, t_max = highs
            term_count = result.terms.term_count
    millis = int(round((perf_counter() - start) * 1000))
    return ScanRow(
        n=n, m=m, gcd=g, status=outcome,
        a_max=a_max, q_max=q_max, t_max=t_max, term_count=term_count, millis=millis,
    )


def _check_scan(n_max: int, m_max: int) -> None:
    """Reject bounds that are not integers or that sweep no pair."""
    _check_ints("scan bounds must be integers", n_max, m_max)
    if n_max < 2 or m_max < 3:
        raise ValueError(f"no pair 2 <= n <= {n_max}, n < m <= {m_max} to scan")


def scan(n_max: int, m_max: int) -> ScanReport:
    """Sweep 2 <= n <= n_max, n < m <= m_max; coprime pairs must verify all
    flags, the rest must come back NonPolynomial.  Pairs run one after
    another, so each row's millis is that pair's own wall time.  Bounds
    that are not integers are a TypeError, and a sweep with no pair
    (n_max < 2 or m_max < 3) is a ValueError."""
    _check_scan(n_max, m_max)
    return ScanReport(rows=tuple(
        _scan_one(n, m) for n in range(2, n_max + 1) for m in range(n + 1, m_max + 1)
    ))


# -- canonical JSON ------------------------------------------------------------


def _to_rows(p: LaurentPolynomial) -> list[list]:
    """JSON term rows [a, q, t, "c"], ascending lex over the exponents."""
    return [[a, q, t, str(c)] for (a, q, t), c in p.sorted_terms()]


def _check_list(what: str, value: object) -> None:
    """TypeError "{what} must be a list, got ..." unless value is a JSON array."""
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a list, got {value!r}")


def _json_object(text: str, *names: str) -> dict:
    """The JSON object in text: a TypeError if it is another value, a
    ValueError naming the first of the fields names that it lacks."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise TypeError(f"JSON text must be an object, got a {type(data).__name__}")
    for name in names:
        if name not in data:
            raise ValueError(f"JSON object has no {name!r} field")
    return data


def _from_rows(rows: list[list], where: str = "") -> LaurentPolynomial:
    """Inverse of _to_rows; a coefficient string is read as an int, or as
    an exact Fraction if it is not one (``p/q``).  Rows that are not a list,
    a row that is not a list of 4 fields, an exponent that is not an
    integer, a coefficient that is neither a string nor an integer, a string
    that is not a number or not as _to_rows writes it, a zero coefficient or
    a row repeating an earlier row's exponents is a ValueError or TypeError
    that names the row's index, after the prefix where."""
    _check_list(f"{where}term rows", rows)
    terms: dict[Monomial, Coeff] = {}
    for i, row in enumerate(rows):
        if not isinstance(row, list):  # inline, as it runs once per row of every cache hit
            raise TypeError(f"{where}term row {i} must be a list, got {row!r}")
        if len(row) != 4:
            raise ValueError(f"{where}term row {i} has {len(row)} fields, expected 4 [a, q, t, c]")
        a, q, t, c = row
        if type(a) is not int or type(q) is not int or type(t) is not int:  # builds no message per row
            _check_ints(f"{where}term row {i} exponents must be integers", a, q, t)
        if isinstance(c, bool) or not isinstance(c, (str, int)):
            raise TypeError(f"{where}term row {i} coefficient must be a string or an integer, got {c!r}")
        exps = (a, q, t)
        if exps in terms:
            raise ValueError(f"{where}term row {i} repeats the exponents {exps}")
        try:
            terms[exps] = int(c)
        except ValueError:
            try:
                terms[exps] = Fraction(c)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"{where}term row {i} coefficient is not a number, got {c!r}") from None
        if str(terms[exps]) != str(c):  # "1_1", " +1", "2/1": not as _to_rows writes it
            raise ValueError(f"{where}term row {i} coefficient must be written '{terms[exps]}', got {c!r}")
        if not terms[exps]:
            raise ValueError(f"{where}term row {i} coefficient must be nonzero, got {c!r}")
    return LaurentPolynomial(KNOT, terms)


def superpolynomial_to_json(sp: Superpolynomial) -> str:
    """Canonical one-line JSON; terms ascending lex over (a, q, t) exponents."""
    payload = {"n": sp.n, "m": sp.m, "normalized": True, "terms": _to_rows(sp.terms)}
    return json.dumps(payload, separators=(",", ":"))


def superpolynomial_from_json(text: str) -> Superpolynomial:
    """Inverse of superpolynomial_to_json; the canonical form stores no
    content, so the result's content is the unit monomial.  Text that is
    not an object with the fields n, m and terms, an n or m that is not a
    positive integer, a malformed term row or a normalized field that is
    not true is a TypeError or ValueError naming what is wrong."""
    data = _json_object(text, "n", "m", "terms")
    _check_positive("n and m", data["n"], data["m"])
    poly = _from_rows(data["terms"])
    normalized = data.get("normalized", False)
    if not isinstance(normalized, bool):
        raise TypeError(f"normalized must be true or false, got {normalized!r}")
    if not normalized:
        raise ValueError("only normalized invariants are serialized")
    return Superpolynomial(
        n=data["n"],
        m=data["m"],
        terms=poly,
        content=unit_monomial(KNOT),
        flags=verify_properties(poly),
    )


def generating_function_to_json(gf: GeneratingFunction) -> str:
    numerator = [[j, _to_rows(coeff)] for j, coeff in gf.numerator]
    poles = [list(p) for p in gf.poles]
    payload = {"n": gf.n, "r": gf.r, "numerator": numerator, "denominator": poles}
    return json.dumps(payload, separators=(",", ":"))


def generating_function_from_json(text: str) -> GeneratingFunction:
    """Inverse of generating_function_to_json.  Text that is not an object
    with the fields n, r, numerator and denominator, an (n, r) that is no
    family of generating_function, a value that should be an integer or a
    list and is not, a numerator entry that is not an [order, rows] pair, a
    negative or repeated numerator order, a pole of other than 3 exponents
    or a malformed term row is a TypeError or ValueError naming where it is."""
    data = _json_object(text, "n", "r", "numerator", "denominator")
    _check_family(data["n"], data["r"])
    _check_list("numerator", data["numerator"])
    numerator = []
    for i, entry in enumerate(data["numerator"]):
        _check_list(f"numerator entry {i}", entry)
        if len(entry) != 2:
            raise ValueError(f"numerator entry {i} has {len(entry)} items, expected 2 [order, rows]")
        j, rows = entry
        _check_ints(f"numerator entry {i} order must be an integer", j)
        if j < 0:
            raise ValueError(f"numerator order z^{j} is negative")
        if any(k == j for k, _ in numerator):
            raise ValueError(f"numerator order z^{j} appears more than once")
        numerator.append((j, _from_rows(rows, f"numerator order z^{j}: ")))
    _check_list("denominator", data["denominator"])
    for i, p in enumerate(data["denominator"]):
        _check_list(f"pole {i}", p)
        if len(p) != 3:
            raise ValueError(f"pole {i} has {len(p)} exponents, expected 3 (a, q, t)")
        _check_ints(f"pole {i} exponents must be integers", *p)
    poles = tuple(map(tuple, data["denominator"]))
    return GeneratingFunction(n=data["n"], r=data["r"], numerator=tuple(numerator), poles=poles)

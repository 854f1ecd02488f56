"""Torus-knot invariants assembled from the closed-form Macdonald data.

The (n, m) invariant is a sum over partitions of n.  Each summand is a
factored rational in (q, t, A) times an elementary-symmetric cofactor.  Per
n, every summand is multiplied by the lcm of all the denominators and kept
factored; per (n, r), each numerator is one binomial expansion that starts
from the cofactor.  Everything m-dependent in a summand is a single
monomial, so those numerators serve the whole family m = nk + r.  Their
shifted sum is pushed through the bold variable substitution into (a, q, t),
divided exactly one denominator binomial at a time, and finally normalized
by its monomial content so the lowest term is +1.

A winding family P(n, nk + r) has one pole per partition of n, fixed by the
framings, so its generating function is fit from compute() alone: the
numerator is the pole product times the first p(n) orders, and the series
is checked against direct computations at least one order past the fit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from time import perf_counter
from typing import Union

from .algebra import (
    KNOT,
    MACD,
    FactoredRational,
    LaurentPolynomial,
    Monomial,
    NonDivisibleError,
    SubstitutionMap,
    exact_divide,
    expand_binomial_product,
    monomial_div,
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
    """A generating-function normalization could not be established."""


@dataclass(frozen=True)
class KnotRequest:
    """A validated (n, m) torus-knot index; n strands, m windings."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if any(isinstance(x, bool) or not isinstance(x, int) for x in (self.n, self.m)):
            raise TypeError(f"n and m must be integers, got ({self.n!r}, {self.m!r})")
        if self.n < 1 or self.m < 1:
            raise ValueError(f"n and m must be positive, got ({self.n}, {self.m})")

    @property
    def quotient(self) -> int:
        return self.m // self.n

    @property
    def remainder(self) -> int:
        return self.m % self.n

    @property
    def gcd(self) -> int:
        return math.gcd(self.n, self.m)


@dataclass(frozen=True)
class PropertyFlags:
    polynomial: bool
    integral: bool
    positive: bool
    normalized: bool

    @property
    def all_true(self) -> bool:
        return self.polynomial and self.integral and self.positive and self.normalized


@dataclass(frozen=True)
class Superpolynomial:
    """Normalized invariant in (a, q, t) plus the monomial content removed."""

    n: int
    m: int
    terms: LaurentPolynomial
    content: Monomial
    flags: PropertyFlags


@dataclass(frozen=True)
class NonPolynomial:
    """Outcome for inputs where the summed rational fails exact division."""

    n: int
    m: int
    gcd: int
    reason: str = "exact division left a remainder"


@dataclass(frozen=True)
class _FamilyCore:
    """m-independent data shared by every invariant of strand count n."""

    partitions: tuple[Partition, ...]
    framings: tuple[Monomial, ...]
    # Each summand times the common denominator, still factored (no poles).
    summands: tuple[FactoredRational, ...]
    # The common denominator as bold (a, q, t) binomials with multiplicities.
    denominator: tuple[tuple[LaurentPolynomial, int], ...]


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
    # The lcm divides by each binomial as often as any summand does.
    lcm: dict[Monomial, int] = {}
    for base in bases:
        for b, mult in base.factors.items():
            if mult < 0:
                lcm[b] = max(lcm.get(b, 0), -mult)
    denominator = []
    for b, mult in sorted(lcm.items()):
        sign, image = MACD_TO_KNOT.image(b)
        binomial = LaurentPolynomial(
            KNOT, {unit_monomial(KNOT): 1, image: -1 if sign > 0 else 1}
        )
        denominator.append((binomial, mult))
    lcm_rational = FactoredRational(MACD, factors=lcm)
    return _FamilyCore(
        partitions=tuple(ys),
        framings=tuple(framing_factor(y) for y in ys),
        summands=tuple(base * lcm_rational for base in bases),
        denominator=tuple(denominator),
    )


@lru_cache(maxsize=None)
def _weighted_numerators(n: int, r: int) -> tuple[LaurentPolynomial, ...]:
    core = _family_core(n)
    return tuple(
        expand_binomial_product(
            cell_elementary(y, r).shifted(s.prefactor, s.coeff), s.factors.items()
        )
        for y, s in zip(core.partitions, core.summands)
    )


def _assemble_numerator(req: KnotRequest) -> LaurentPolynomial:
    n, m = req.n, req.m
    k, r = req.quotient, req.remainder
    e = r * n + r * (r - 1) // 2 - n * (n - 1) // 2
    total = LaurentPolynomial.zero(MACD)
    for (t_q, t_t, _), part in zip(_family_core(n).framings, _weighted_numerators(n, r)):
        total = total + part.shifted((e + k * t_q, m + k * t_t, 0))
    return total


def verify_properties(result: Union[Superpolynomial, LaurentPolynomial]) -> PropertyFlags:
    """Recompute integrality/positivity/normalization flags from the terms."""
    p = result.terms if isinstance(result, Superpolynomial) else result
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

    Exact division by the common denominator, one binomial at a time,
    succeeds exactly when gcd(n, m) = 1; otherwise the reason names the
    binomial that left a remainder.  The quotient is stripped of its monomial
    content and must start with constant term +1.  Results are immutable and
    memoized.
    """
    req = KnotRequest(n, m)
    bold = _assemble_numerator(req).substitute(MACD_TO_KNOT)
    for binomial, mult in _family_core(n).denominator:
        for copy in range(1, mult + 1):
            try:
                bold = exact_divide(bold, binomial)
            except NonDivisibleError as err:
                reason = f"division by ({binomial}), copy {copy} of {mult}: {err}"
                return NonPolynomial(n=n, m=m, gcd=req.gcd, reason=reason)
    if bold.is_zero():
        raise IntegrityError(f"({n},{m}): invariant vanished identically")
    content, normalized = bold.divide_content()
    if normalized.constant_term != 1:
        raise IntegrityError(
            f"({n},{m}): lowest term is {normalized.constant_term}, expected +1; "
            f"content {content}"
        )
    return Superpolynomial(
        n=n, m=m, terms=normalized, content=content, flags=verify_properties(normalized)
    )


def specialize(result: Union[Superpolynomial, LaurentPolynomial], target: str) -> LaurentPolynomial:
    """Classical reductions: 'homfly' (t -> -1), then 'jones' (a -> q^2) or
    'alexander' (a -> 1)."""
    p = result.terms if isinstance(result, Superpolynomial) else result
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


@dataclass(frozen=True)
class GeneratingFunction:
    """Closed form sum_k P(n, nk+r) z^k = numerator / prod (1 - z*pole)."""

    n: int
    r: int
    numerator: tuple[tuple[int, LaurentPolynomial], ...]  # (z power, coefficient)
    poles: tuple[Monomial, ...]  # denominator factors 1 - z * monomial

    def series(self, k_max: int) -> list[LaurentPolynomial]:
        """Taylor coefficients in z up to order k_max, exactly: the numerator
        divided by each 1 - z*pole in turn, c_k += pole * c_{k-1} upward."""
        out = [LaurentPolynomial.zero(KNOT)] * (k_max + 1)
        for j, coeff in self.numerator:
            if j <= k_max:
                out[j] = coeff
        for pole in self.poles:
            for k in range(1, k_max + 1):
                out[k] = out[k] + out[k - 1].shifted(pole)
        return out


def _check_family(n: int, r: int) -> None:
    """Reject a family m = nk + r that has no generating function here."""
    KnotRequest(n, r)  # integers, not bools, both positive
    if r >= n:
        raise ValueError("need 1 <= r < n")
    if math.gcd(n, r) != 1:
        raise ValueError(f"family (n={n}, r={r}) hits non-coprime windings")


def generating_function(n: int, r: int, k_check: int = 3) -> GeneratingFunction:
    """Closed form for the winding family m = nk + r, fit from compute().

    With p poles, one per partition of n, the invariants P_k = P(n, nk + r)
    are computed for k <= K = max(p, k_check).  The per-step content ratio
    nu must be the same for every k < K (CalibrationError otherwise); poles
    are the substituted framing monomials divided by nu.  The numerator is
    (sum_{k<p} P_k z^k) * prod (1 - z*pole) mod z^p, and the series must
    reproduce every P_k with k <= K, so at least one order past the fit.
    """
    _check_family(n, r)
    framings = _family_core(n).framings
    count = len(framings)
    top = max(count, k_check)
    results = []
    for k in range(top + 1):
        res = compute(n, n * k + r)
        if isinstance(res, NonPolynomial):
            raise CalibrationError(f"({n},{n * k + r}) is not polynomial")
        results.append(res)

    steps = {
        monomial_div(results[k + 1].content, results[k].content) for k in range(top)
    }
    if len(steps) != 1:
        raise CalibrationError(f"content ratio not constant over k = 0..{top}: {steps}")
    nu = steps.pop()

    poles = []
    for t_q, t_t, _ in framings:
        _, image = MACD_TO_KNOT.image((t_q, t_t + n, 0))
        poles.append(monomial_div(image, nu))
    if len(set(poles)) != len(poles):
        raise CalibrationError(f"coincident poles {sorted(poles)}")

    # Multiply the first `count` orders by each 1 - z*pole, c_j -= pole * c_{j-1}
    # downward, truncating at z^count.
    coeffs = [res.terms for res in results[:count]]
    for pole in poles:
        for j in range(count - 1, 0, -1):
            coeffs[j] = coeffs[j] - coeffs[j - 1].shifted(pole)
    gf = GeneratingFunction(
        n=n,
        r=r,
        numerator=tuple((j, c) for j, c in enumerate(coeffs) if not c.is_zero()),
        poles=tuple(sorted(poles)),
    )

    for k, term in enumerate(gf.series(top)):
        if term != results[k].terms:
            raise CalibrationError(f"series order z^{k} disagrees with compute({n},{n * k + r})")
    return gf


# -- scanning ------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    n: int
    m: int
    gcd: int
    status: str
    a_max: int | None
    q_max: int | None
    t_max: int | None
    term_count: int | None
    millis: int


@dataclass(frozen=True)
class ScanReport:
    rows: tuple[ScanRow, ...]

    @property
    def all_expected(self) -> bool:
        return all(row.status in ("ok", "nonpolynomial") for row in self.rows)

    def to_csv(self) -> str:
        lines = ["n,m,gcd,status,a_max,q_max,t_max,term_count,millis"]
        for row in self.rows:
            degree_fields = [
                "" if v is None else str(v)
                for v in (row.a_max, row.q_max, row.t_max, row.term_count)
            ]
            lines.append(
                f"{row.n},{row.m},{row.gcd},{row.status},"
                + ",".join(degree_fields)
                + f",{row.millis}"
            )
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


def scan(n_max: int, m_max: int) -> ScanReport:
    """Sweep 2 <= n <= n_max, n < m <= m_max; coprime pairs must verify all
    flags, the rest must come back NonPolynomial.  Pairs run one after
    another, so each row's millis is that pair's own wall time."""
    return ScanReport(rows=tuple(
        _scan_one(n, m) for n in range(2, n_max + 1) for m in range(n + 1, m_max + 1)
    ))


# -- canonical JSON ------------------------------------------------------------


def superpolynomial_to_json(sp: Superpolynomial) -> str:
    """Canonical one-line JSON; terms ascending lex over (a, q, t) exponents."""
    terms = [
        [e[0], e[1], e[2], str(c)] for e, c in sp.terms.sorted_terms()
    ]
    payload = {"n": sp.n, "m": sp.m, "normalized": True, "terms": terms}
    return json.dumps(payload, separators=(",", ":"))


def superpolynomial_from_json(text: str) -> Superpolynomial:
    """Inverse of superpolynomial_to_json; the canonical form stores no
    content, so the result's content is the unit monomial."""
    data = json.loads(text)
    terms = [
        ((int(a), int(q), int(t)), Fraction(c)) for a, q, t, c in data["terms"]
    ]
    poly = LaurentPolynomial(KNOT, terms)
    if not data.get("normalized", False):
        raise ValueError("only normalized invariants are serialized")
    content = unit_monomial(KNOT)
    return Superpolynomial(
        n=int(data["n"]),
        m=int(data["m"]),
        terms=poly,
        content=content,
        flags=verify_properties(poly),
    )


def generating_function_to_json(gf: GeneratingFunction) -> str:
    numerator = [
        [j, [[e[0], e[1], e[2], str(c)] for e, c in coeff.sorted_terms()]]
        for j, coeff in gf.numerator
    ]
    payload = {
        "n": gf.n,
        "r": gf.r,
        "numerator": numerator,
        "denominator": [list(p) for p in gf.poles],
    }
    return json.dumps(payload, separators=(",", ":"))


def generating_function_from_json(text: str) -> GeneratingFunction:
    data = json.loads(text)
    numerator = tuple(
        (
            int(j),
            LaurentPolynomial(
                KNOT, [((int(a), int(q), int(t)), Fraction(c)) for a, q, t, c in terms]
            ),
        )
        for j, terms in data["numerator"]
    )
    poles = tuple(tuple(int(x) for x in p) for p in data["denominator"])
    return GeneratingFunction(n=int(data["n"]), r=int(data["r"]), numerator=numerator, poles=poles)

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
from math import factorial, gcd, lcm
from typing import Sequence

from .algebra import (
    MACD,
    Alphabet,
    Coeff,
    FactoredRational,
    LaurentPolynomial,
    Monomial,
    NonDivisibleError,
    SubstitutionMap,
    exact_divide,
    monomial_inverse,
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
# Brown's dense modular algorithm (W. S. Brown, J. ACM 18(4), 1971) on ints.
# A polynomial is packed as rows over the main variable y (of lower degree)
# of coefficient lists in x, content and denominators cleared; univariate
# polynomials mod p are ascending residue lists with no trailing zeros.  Mod
# each 61-bit prime dividing no leading coefficient, the gcd is the gcd of
# the x-contents times a primitive part interpolated through x = 0, 1, ...
# from monic univariate gcds scaled by gamma = gcd(lc_y f, lc_y g); images
# above the lowest y-degree seen (unlucky points) are dropped.  Images of
# successive primes, scaled to the gcd of the integer leading coefficients,
# are joined by CRT: a higher degree (an unlucky prime) is dropped, a lower
# one restarts the lift.  The primitive part C of the symmetric lift is
# certified by exact division of both inputs.  No image has lower degree
# than the true gcd G in either variable and C reduces to the last one, so a
# certified C divides G with G's degrees: it is G up to a scalar, and lowest
# terms are proven.  An image of y-degree 0 with constant content proves 1.

# The Mersenne prime 2^61 - 1; the search for gcd primes runs down from it.
PRIME_61: int = (1 << 61) - 1
_MAX_PRIMES = 16


@lru_cache(maxsize=None)
def _is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases up to 37: exact for 37 < n < 3.3e24."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    return all(
        pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    )


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _eval_p(a: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def _mul_p(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return [c % p for c in out]


def _divmod_p(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    top = len(b) - 1
    inv = pow(b[-1], -1, p)
    rem = list(a)
    quot = [0] * max(len(a) - top, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = rem[k + top] * inv % p
        if c:
            rem[k:k + top] = [(r - c * d) % p for r, d in zip(rem[k:k + top], b)]
    return quot, _trim(rem[:top])


def _gcd_p(polys: list[list[int]], p: int) -> list[int]:
    """Monic gcd of univariate polynomials; that of zeros is zero."""
    a: list[int] = []
    for b in polys:
        while b:
            a, b = b, _divmod_p(a, b, p)[1]
        if len(a) == 1:
            break
    inv = pow(a[-1], -1, p) if a else 0
    return [c * inv % p for c in a]


def _pack(poly: LaurentPolynomial, main: int) -> list[list[int]]:
    lo, hi = poly.min_exponents(), poly.max_exponents()
    minor = 1 - main
    scale = lcm(*(c.denominator for c in poly.terms.values()))
    rows = [[0] * (hi[minor] - lo[minor] + 1) for _ in range(hi[main] - lo[main] + 1)]
    for e, c in poly.terms.items():
        rows[e[main] - lo[main]][e[minor] - lo[minor]] = c.numerator * (scale // c.denominator)
    return [_trim(row) for row in rows]


def _gcd_mod(
    f: list[list[int]], g: list[list[int]], p: int, confirm: int
) -> list[list[int]] | None:
    """Gcd of packed f and g mod p, up to a scalar; None when it is 1.

    The primitive part is accepted once ``need`` points of the lowest
    y-degree fix it and ``confirm`` more add nothing to its Newton form.
    """
    f, g = ([_trim([c % p for c in row]) for row in poly] for poly in (f, g))
    content = _gcd_p(f + g, p)
    lc_f, lc_g = f[-1], g[-1]
    dx_f, dx_g = max(map(len, f)) - 1, max(map(len, g)) - 1
    gamma = _gcd_p([lc_f, lc_g], p)
    need = len(gamma) + min(dx_f, dx_g)  # 1 + a bound on deg_x of the scaled image
    # Only points where a leading coefficient or the cofactors' resultant vanishes fail.
    limit = need + confirm + len(lc_f) + len(lc_g) + (len(f) - 1) * dx_g + dx_f * (len(g) - 1)
    best = 0
    for x in range(limit):
        if not _eval_p(lc_f, x, p) or not _eval_p(lc_g, x, p):
            continue
        h = _gcd_p([[_eval_p(row, x, p) for row in poly] for poly in (f, g)], p)
        if len(h) == 1:
            image = [[1]]
            break
        if not best or len(h) < best:
            best, points, agreed, basis = len(h), 0, 0, [1]
            image = [[] for _ in h]
        elif len(h) > best:
            continue
        scale = _eval_p(gamma, x, p)
        inv = pow(_eval_p(basis, x, p), -1, p)
        changed = False
        for j, v in enumerate(h):
            r = (v * scale - _eval_p(image[j], x, p)) * inv % p
            if r:
                changed = True
                row = image[j] + [0] * (len(basis) - len(image[j]))
                image[j] = [(c + r * b) % p for c, b in zip(row, basis)]
        basis = [(lo - x * hi) % p for lo, hi in zip([0] + basis, basis + [0])]
        points += 1
        agreed = agreed + 1 if points > need and not changed else 0
        if agreed == confirm:
            image = [_trim(row) for row in image]
            part = _gcd_p(image, p)
            image = [_divmod_p(row, part, p)[0] for row in image]
            break
    else:
        raise ArithmeticError(f"bivariate gcd: no stable image mod {p} in {limit} points")
    if len(content) == 1:
        return image if len(image) > 1 else None
    return [_mul_p(content, row, p) if row else row for row in image]


def _gcd_terms(
    f: LaurentPolynomial, g: LaurentPolynomial
) -> tuple[LaurentPolynomial, LaurentPolynomial, LaurentPolynomial]:
    """Gcd of two nonzero (q, t) Laurent polynomials, and the cofactors.

    Returns ``(c, f / c, g / c)``: ``c`` is an integer primitive polynomial
    equal to the gcd up to a rational scalar and a monomial, and the
    quotients are those of its certificate.
    """
    spans = [max(a - b, c - d) for a, b, c, d in zip(
        f.max_exponents(), f.min_exponents(), g.max_exponents(), g.min_exponents())]
    main = 0 if spans[0] <= spans[1] else 1
    fp, gp = _pack(f, main), _pack(g, main)
    # Leading coefficients in both lex orders: y first, and x first.
    guard = [fp[-1][-1], gp[-1][-1]] + [
        next(row[-1] for row in reversed(rows) if len(row) == max(map(len, rows)))
        for rows in (fp, gp)
    ]
    lead = gcd(fp[-1][-1], gp[-1][-1])
    lift: list[list[int]] = []
    modulus = failures = 0
    for p in itertools.islice(filter(_is_prime, range(PRIME_61, 1, -2)), _MAX_PRIMES):
        if any(c % p == 0 for c in guard):
            continue
        rows = _gcd_mod(fp, gp, p, 1 + failures)
        if rows is None:
            return LaurentPolynomial.one(QT), f, g
        width = max(map(len, rows))
        scale = lead * pow(rows[-1][-1], -1, p) % p
        rows = [[c * scale % p for c in row] + [0] * (width - len(row)) for row in rows]
        if not lift or (len(rows), width) < (len(lift), len(lift[0])):
            lift, modulus = rows, p
        elif (len(rows), width) > (len(lift), len(lift[0])):
            continue
        else:
            inv = pow(modulus, -1, p)
            lift = [
                [u + modulus * ((v - u) * inv % p) for u, v in zip(old, new)]
                for old, new in zip(lift, rows)
            ]
            modulus *= p
        terms = {
            (ey, ex) if main == 0 else (ex, ey): c - modulus if 2 * c > modulus else c
            for ey, row in enumerate(lift)
            for ex, c in enumerate(row)
            if c
        }
        common = gcd(*terms.values())
        candidate = LaurentPolynomial(QT, {e: c // common for e, c in terms.items()})
        try:
            return candidate, exact_divide(f, candidate), exact_divide(g, candidate)
        except NonDivisibleError:
            failures += 1
    raise ArithmeticError(f"bivariate gcd: no certified gcd within {_MAX_PRIMES} primes")


def _cancel(
    f: LaurentPolynomial, g: LaurentPolynomial
) -> tuple[LaurentPolynomial, LaurentPolynomial, LaurentPolynomial]:
    """``_gcd_terms`` of two nonzero (q, t) polynomials, skipping the obvious cases."""
    if f == g:
        return f, LaurentPolynomial.one(QT), LaurentPolynomial.one(QT)
    if f.term_count == 1 or g.term_count == 1:  # a monomial is a unit
        return LaurentPolynomial.one(QT), f, g
    return _gcd_terms(f, g)


def _reduce_fraction(
    num: LaurentPolynomial, den: LaurentPolynomial
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Lowest terms of a (q, t) fraction: the cofactors of its certified gcd."""
    _, num, den = _cancel(num, den)
    return num, den


def _rescaled(p: LaurentPolynomial, shift: Monomial, scale: int, common: int) -> LaurentPolynomial:
    """``p * x^shift * scale / common``, all of whose coefficients are integers."""
    out = LaurentPolynomial.zero(p.alphabet)
    out.terms = {
        monomial_mul(e, shift): c.numerator // common * (scale // c.denominator)
        for e, c in p.terms.items()
    }
    return out


def _normalize(
    num: LaurentPolynomial, den: LaurentPolynomial
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """``num / den`` times the unit that puts it in canonical form.

    Both parts get integer coefficients whose joint gcd is 1, ``den`` has
    no monomial content (a monomial denominator becomes a constant), and
    the leading coefficient of ``den`` in lex order is positive.
    """
    if num.is_zero():
        return num, LaurentPolynomial.one(num.alphabet)
    coeffs = (*num.terms.values(), *den.terms.values())
    # The content of reduced rationals a_i / b_i is gcd(a_i) / lcm(b_i).
    scale = lcm(*(c.denominator for c in coeffs))
    common = gcd(*(c.numerator for c in coeffs))
    if den.terms[max(den.terms)] < 0:
        common = -common
    shift = monomial_inverse(den.content())
    if scale == common == 1 and not any(shift):
        return num, den
    return _rescaled(num, shift, scale, common), _rescaled(den, shift, scale, common)


_SCALARS = (int, Fraction)


class RationalFunction:
    """Quotient of two exact Laurent polynomials in (q, t), in lowest terms.

    Canonical form: ``num`` and ``den`` have integer coefficients with no
    common integer factor, ``den`` has no monomial content and a positive
    leading coefficient (:func:`_normalize`).  The constructor also cancels
    the certified bivariate gcd, so equal values have identical ``num`` and
    ``den``.  Any alphabet other than (q, t) is a ``ValueError``.

    Addition and multiplication follow Henrici (Knuth, TAOCP vol. 2,
    4.5.1), valid because the units of Q[q^-1, q, t^-1, t] are scalars times
    monomials.  For reduced ``n1/d1`` and ``n2/d2`` with ``g = gcd(d1, d2)``
    and ``d_i = g * d_i'``, ``s = n1 * d2' + n2 * d1'`` is prime to ``d1'``
    and ``d2'``, so the sum ``s / (g * d1' * d2')`` needs only ``gcd(s, g)``
    (none when ``g`` is a unit).  A product needs only the cross gcds ``gcd(n1, d2)`` and
    ``gcd(n2, d1)``: the product of the cofactors is in lowest terms.  The
    gcds keep the Gram-Schmidt sizes tame: without them,
    ``torus-super verify oracle --max-size 4`` ran for over two minutes on a
    2-core machine.  Its 42 checks take 0.87 s there against 2.22 s with a
    gcd of every whole sum and product over ``Fraction`` coefficients
    (medians of 10 runs each, Python 3.11.7, ``BENCH_10.json``).  Equality
    goes through cross multiplication.  ``int`` and ``Fraction`` operands
    act as constants.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPolynomial, den: LaurentPolynomial | None = None):
        if den is None:
            den = LaurentPolynomial.one(num.alphabet)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.alphabet != QT or den.alphabet != QT:
            raise ValueError(f"fractions are over {QT}, got {num.alphabet} / {den.alphabet}")
        if not num.is_zero():
            num, den = _reduce_fraction(num, den)
        self.num, self.den = _normalize(num, den)

    # -- constructors --------------------------------------------------------

    @classmethod
    def const(cls, value: Coeff) -> "RationalFunction":
        return cls(LaurentPolynomial.constant(QT, value))

    @classmethod
    def _coprime(cls, num: LaurentPolynomial, den: LaurentPolynomial) -> "RationalFunction":
        """``num / den`` with no gcd taken, known to be in lowest terms."""
        out = cls.__new__(cls)
        out.num, out.den = _normalize(num, den)
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
        return self.num * other.den == other.num * self.den

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
        g, d1, d2 = _cancel(d1, d2)
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
            return RationalFunction.const(0)
        _, n1, d2 = _cancel(self.num, other.den)
        _, n2, d1 = _cancel(other.num, self.den)
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


def _qt_of_macd(p: LaurentPolynomial) -> LaurentPolynomial:
    """Drop the A coordinate of an (q, t, A) polynomial that never uses it."""
    terms = {}
    for (eq, et, ea), c in p.terms.items():
        if ea:
            raise ValueError("polynomial genuinely involves A")
        terms[(eq, et)] = c
    return LaurentPolynomial(QT, terms)


def rational_of_factored(fr) -> RationalFunction:
    """Expand a factored (q, t)-only rational into a RationalFunction."""
    num, den = fr.expand()
    return RationalFunction(_qt_of_macd(num), _qt_of_macd(den))


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
        total = RationalFunction.const(0)
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


def inner_product_p(
    n: int, fp: Sequence[RationalFunction], gp: Sequence[RationalFunction]
) -> RationalFunction:
    plist, _ = _power_to_monomial_matrix(n)
    total = RationalFunction.const(0)
    for lam, a, b in zip(plist, fp, gp):
        if a.is_zero() or b.is_zero():
            continue
        total = total + a * b * _power_sum_weight(lam)
    return total


# -- Macdonald polynomials by Gram-Schmidt ---------------------------------------


@lru_cache(maxsize=None)
def _macdonald_family(n: int):
    """All P_y of degree n: m-basis dicts, p-basis vectors, and norms.

    Partitions are processed along a linear extension of dominance from the
    bottom; triangularity and monicity of the outcome are asserted rather
    than assumed.
    """
    if n > MAX_DEGREE:
        raise ValueError(f"oracle capped at degree {MAX_DEGREE}")
    plist, _ = _power_to_monomial_matrix(n)
    ascending = list(reversed(plist))

    built_p: dict[Partition, list[RationalFunction]] = {}
    built_m: dict[Partition, dict[Partition, RationalFunction]] = {}
    norms: dict[Partition, RationalFunction] = {}

    for y in ascending:
        mvec = [RF_ONE if mu == y else RF_ZERO for mu in plist]
        pvec = m_vector_to_p_vector(n, mvec)
        mdict: dict[Partition, RationalFunction] = {y: RF_ONE}
        for prev in built_p:
            coeff = inner_product_p(n, pvec, built_p[prev]) / norms[prev]
            if coeff.is_zero():
                continue
            prev_p = built_p[prev]
            pvec = [a - coeff * b for a, b in zip(pvec, prev_p)]
            for mu, c in built_m[prev].items():
                mdict[mu] = mdict.get(mu, RF_ZERO) - coeff * c
        mdict = {mu: c for mu, c in mdict.items() if not c.is_zero()}
        if mdict.get(y) != RF_ONE:
            raise AssertionError(f"P_{y} failed monicity")
        for mu in mdict:
            if not dominance_leq(mu, y):
                raise AssertionError(f"P_{y} has a coefficient above dominance at {mu}")
        built_p[y] = pvec
        built_m[y] = mdict
        norms[y] = inner_product_p(n, pvec, pvec)
        if norms[y].is_zero():
            raise AssertionError(f"P_{y} has vanishing norm")
    return plist, built_m, built_p, norms


def macdonald_P_mbasis(y: Partition) -> dict[Partition, RationalFunction]:
    """P_y as monomial-basis coefficients over Q(q, t); monic at m_y."""
    y = check_partition(y)
    _, built_m, _, _ = _macdonald_family(size(y))
    return built_m[y]


def macdonald_P(y: Partition, num_vars: int) -> dict[Monomial, RationalFunction]:
    """P_y expanded into monomials of x_1 .. x_num_vars."""
    y = check_partition(y)
    if num_vars > 6:
        raise ValueError("oracle capped at 6 variables")
    alphabet = x_alphabet(num_vars)
    out: dict[Monomial, RationalFunction] = {}
    for mu, c in macdonald_P_mbasis(y).items():
        concrete = monomial_symmetric(alphabet, mu)
        for exps, msign in concrete.terms.items():
            add = c.scale(msign)
            prev = out.get(exps)
            out[exps] = add if prev is None else prev + add
    return {e: c for e, c in out.items() if not c.is_zero()}


# -- verification routines ---------------------------------------------------------


def principal_value(y: Partition, num_vars: int) -> RationalFunction:
    """P_y at x_i = t^(i-1) for i = 1 .. num_vars, computed from the m-basis."""
    y = check_partition(y)
    total = RationalFunction.const(0)
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


def _dimension_closed_form(y: Partition, num_vars: int) -> RationalFunction:
    num, den = macdonald_dimension(y).expand()
    to_qt = SubstitutionMap(
        MACD, QT, {"q": (1, (1, 0)), "t": (1, (0, 1)), "A": (1, (0, num_vars))}
    )
    return RationalFunction(num.substitute(to_qt), den.substitute(to_qt))


def verify_dimension(y: Partition, num_vars: int) -> bool:
    """Brute-force principal specialization against the hook-style closed form."""
    return principal_value(y, num_vars) == _dimension_closed_form(y, num_vars)


def verify_orthogonality(n: int) -> bool:
    """All distinct pairs at degree n pair to zero under the inner product."""
    plist, _, built_p, _ = _macdonald_family(n)
    for i, a in enumerate(plist):
        for b in plist[i + 1:]:
            if not inner_product_p(n, built_p[a], built_p[b]).is_zero():
                return False
    return True


def verify_power_sum_expansion(n: int) -> bool:
    """Solve p_n = sum_y c_y P_y triangularly; compare with the closed form."""
    plist, built_m, _, _ = _macdonald_family(n)
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


def _exp_series_coefficients(
    order: int, factors: dict[int, RationalFunction], tensor: dict[int, LaurentPolynomial]
) -> list[dict[Monomial, RationalFunction]]:
    """Coefficients of Lambda^0..Lambda^order in exp(sum_k a_k Lambda^k) where
    a_k = factors[k] * tensor[k]; grouped by partition instead of expanding exp."""
    out: list[dict[Monomial, RationalFunction]] = [dict() for _ in range(order + 1)]
    alphabet = tensor[1].alphabet if 1 in tensor else None
    for j in range(order + 1):
        acc: dict[Monomial, RationalFunction] = {}
        for lam in enumerate_partitions(j):
            scalar = RationalFunction.const(Fraction(1, z_factor(lam)))
            for part in lam:
                scalar = scalar * factors[part]
            poly = None
            for part in lam:
                poly = tensor[part] if poly is None else poly * tensor[part]
            if poly is None:
                poly = LaurentPolynomial.one(alphabet) if alphabet else None
            if poly is None:
                acc[()] = scalar
                continue
            for exps, c in poly.terms.items():
                add = scalar.scale(c)
                prev = acc.get(exps)
                acc[exps] = add if prev is None else prev + add
        out[j] = {e: v for e, v in acc.items() if not v.is_zero()}
    return out


def verify_cauchy(order: int, nx: int, ny: int, principal_l: int | None = None) -> bool:
    """Kernel identity to order Lambda^order, expanded over explicit variables.

    With ``principal_l`` set, the y side is specialized to (1, t, ..,
    t^(L-1)), replaying the finite-L step of the expansion-coefficient
    derivation before its limit.
    """
    if order > 3:
        raise ValueError("kernel check capped at order 3")
    xs = x_alphabet(nx)
    if principal_l is None:
        ys = x_alphabet(ny, prefix="y")
        joint = xs + ys
        lift_x = {v: (1, tuple(int(joint[i] == v) for i in range(len(joint)))) for v in xs}
        lift_y = {v: (1, tuple(int(joint[i] == v) for i in range(len(joint)))) for v in ys}
        sub_x = SubstitutionMap(xs, joint, lift_x)
        sub_y = SubstitutionMap(ys, joint, lift_y)
    else:
        joint = xs
        sub_x = None
        sub_y = None

    # Left side: sum over |Y| <= order of b_Y * M_Y(x) * M_Y(y).
    lhs: list[dict[Monomial, RationalFunction]] = [dict() for _ in range(order + 1)]
    lhs[0][unit_monomial(joint)] = RF_ONE
    for j in range(1, order + 1):
        acc: dict[Monomial, RationalFunction] = {}
        for y in enumerate_partitions(j):
            b = rational_of_factored(cauchy_norm(y))
            mx = macdonald_P(y, nx)
            if principal_l is None:
                my = macdonald_P(y, ny)
                pairs = (
                    (monomial_mul(sub_x.image(ex)[1], sub_y.image(ey)[1]), cx * cy)
                    for ex, cx in mx.items()
                    for ey, cy in my.items()
                )
            else:
                pv = principal_value(y, principal_l)
                pairs = ((ex, cx * pv) for ex, cx in mx.items())
            for exps, c in pairs:
                v = b * c
                prev = acc.get(exps)
                acc[exps] = v if prev is None else prev + v
        lhs[j] = {e: v for e, v in acc.items() if not v.is_zero()}

    # Right side: exp(sum_k Lambda^k / k * (1-t^k)/(1-q^k) * p_k(x) p_k(y)).
    factors: dict[int, RationalFunction] = {}
    tensor: dict[int, LaurentPolynomial] = {}
    for k in range(1, order + 1):
        if principal_l is None:
            factors[k] = RationalFunction(
                LaurentPolynomial(QT, {(0, 0): 1, (0, k): -1}),
                LaurentPolynomial(QT, {(0, 0): 1, (k, 0): -1}),
            )
            px = power_sum(xs, k).substitute(sub_x)
            py = power_sum(ys, k).substitute(sub_y)
            tensor[k] = px * py
        else:
            factors[k] = RationalFunction(
                LaurentPolynomial(QT, {(0, 0): 1, (0, k * principal_l): -1}),
                LaurentPolynomial(QT, {(0, 0): 1, (k, 0): -1}),
            )
            tensor[k] = power_sum(xs, k)
    rhs = _exp_series_coefficients(order, factors, tensor)

    for j in range(order + 1):
        keys = set(lhs[j]) | set(rhs[j])
        for key in keys:
            if lhs[j].get(key, RF_ZERO) != rhs[j].get(key, RF_ZERO):
                return False
    return True


def verify_expansion_limit(y: Partition) -> bool:
    """The A -> 1 limit identity: C_y = (1 - q^n) m_y [dim_y / (1 - A)] at A = 1."""
    y = check_partition(y)
    n = size(y)
    dim = macdonald_dimension(y)
    trimmed_factors = dict(dim.factors)
    corner = (0, 0, 1)  # the (1,1) cell contributes exactly 1 - A
    if trimmed_factors.get(corner, 0) < 1:
        raise AssertionError("dimension lost its corner factor")
    trimmed_factors[corner] -= 1
    trimmed = FactoredRational(
        MACD, coeff=dim.coeff, prefactor=dim.prefactor, factors=trimmed_factors
    )
    num, den = trimmed.expand()
    drop_a = SubstitutionMap(MACD, QT, {"q": (1, (1, 0)), "t": (1, (0, 1)), "A": (1, (0, 0))})
    limit = RationalFunction(num.substitute(drop_a), den.substitute(drop_a))

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

"""Exact sparse Laurent-polynomial arithmetic and factored binomial products.

A Laurent polynomial is a dict mapping exponent vectors (one signed integer
per variable of a fixed alphabet) to nonzero rational coefficients.
Coefficients stay exact throughout: integers where possible, ``Fraction``
otherwise; the two mix transparently.  All values are immutable by
convention; every operation returns a new object.  A sum adds every term,
then keeps the nonzero ones once, as it builds its result.

Rational functions whose denominators are products of binomials
``1 - monomial`` are kept factored (:class:`FactoredRational`) so that the
large structural cancellations cost nothing; a numerator is expanded only
once it is over its common denominator.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Mapping
from fractions import Fraction
from typing import Union

Alphabet = tuple[str, ...]
Monomial = tuple[int, ...]
Coeff = Union[int, Fraction]

MACD: Alphabet = ("q", "t", "A")
KNOT: Alphabet = ("a", "q", "t")


class AlphabetMismatchError(ValueError):
    """Operands live over different variable alphabets."""


class NonDivisibleError(ArithmeticError):
    """Exact division failed: the quotient is not a Laurent polynomial."""


def as_coeff(value: Coeff) -> Coeff:
    """Normalize an exact rational; integral Fractions collapse to int."""
    if isinstance(value, bool):
        raise TypeError("bool is not a coefficient")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"not an exact rational: {value!r}")


def unit_monomial(alphabet: Alphabet) -> Monomial:
    return (0,) * len(alphabet)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.add, a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.sub, a, b))


def monomial_inverse(m: Monomial) -> Monomial:
    return tuple(map(operator.neg, m))


def _check_same_alphabet(
    a: LaurentPolynomial | FactoredRational, b: LaurentPolynomial | FactoredRational
) -> None:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(f"{a.alphabet} vs {b.alphabet}")


class LaurentPolynomial:
    """Sparse exact Laurent polynomial over a fixed alphabet."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[Monomial, Coeff]):
        alphabet = tuple(alphabet)
        arity = len(alphabet)
        clean: dict[Monomial, Coeff] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != arity:
                raise AlphabetMismatchError(
                    f"exponent vector {exps} has arity {len(exps)}, alphabet needs {arity}"
                )
            c = as_coeff(coeff)
            if c:
                clean[exps] = c
        self.alphabet = alphabet
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, alphabet: Alphabet, terms: dict[Monomial, Coeff]) -> "LaurentPolynomial":
        """The polynomial that takes over terms already clean: keys of the
        alphabet's arity, coefficients normalized by as_coeff and nonzero."""
        out = cls.__new__(cls)
        out.alphabet = alphabet
        out.terms = terms
        return out

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "LaurentPolynomial":
        return cls(alphabet, {})

    @classmethod
    def one(cls, alphabet: Alphabet) -> "LaurentPolynomial":
        return cls(alphabet, {unit_monomial(alphabet): 1})

    @classmethod
    def constant(cls, alphabet: Alphabet, value: Coeff) -> "LaurentPolynomial":
        return cls(alphabet, {unit_monomial(alphabet): value})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def coefficient(self, exps: Monomial) -> Coeff:
        return self.terms.get(tuple(exps), 0)

    @property
    def constant_term(self) -> Coeff:
        return self.terms.get(unit_monomial(self.alphabet), 0)

    def sorted_terms(self) -> list[tuple[Monomial, Coeff]]:
        """Terms in ascending lexicographic order of exponent vectors."""
        return sorted(self.terms.items())

    def min_exponents(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no exponent range")
        return tuple(min(e[i] for e in self.terms) for i in range(len(self.alphabet)))

    def max_exponents(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no exponent range")
        return tuple(max(e[i] for e in self.terms) for i in range(len(self.alphabet)))

    def content(self) -> Monomial:
        """Largest monomial dividing every term (componentwise min exponent)."""
        return self.min_exponents()

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.alphabet == other.alphabet and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._of(self.alphabet, {e: -c for e, c in self.terms.items()})

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        _check_same_alphabet(self, other)
        merged = dict(self.terms)
        for e, c in other.terms.items():
            merged[e] = as_coeff(merged.get(e, 0) + c)
        return LaurentPolynomial._of(self.alphabet, {e: c for e, c in merged.items() if c})

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["LaurentPolynomial", Coeff]) -> "LaurentPolynomial":
        if isinstance(other, (int, Fraction)):
            scale = as_coeff(other)
            terms = {e: as_coeff(c * scale) for e, c in self.terms.items()} if scale else {}
            return LaurentPolynomial._of(self.alphabet, terms)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        _check_same_alphabet(self, other)
        if len(self.terms) < len(other.terms):
            shorter, longer = self.terms, other.terms
        else:
            shorter, longer = other.terms, self.terms
        acc: dict[Monomial, Coeff] = {}
        for e1, c1 in shorter.items():
            for e2, c2 in longer.items():
                e = monomial_mul(e1, e2)
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPolynomial._of(self.alphabet, {e: as_coeff(c) for e, c in acc.items() if c})

    __rmul__ = __mul__

    def shifted(self, mono: Monomial, coeff: Coeff = 1) -> "LaurentPolynomial":
        """Multiply by ``coeff * x^mono`` (a fast exponent translation).

        With coefficient 1 the coefficients are copied as they are.
        """
        mono = tuple(mono)
        scale = as_coeff(coeff)
        if scale == 1:
            terms = {monomial_mul(e, mono): c for e, c in self.terms.items()}
        elif scale:
            terms = {monomial_mul(e, mono): as_coeff(c * scale) for e, c in self.terms.items()}
        else:
            terms = {}
        return LaurentPolynomial._of(self.alphabet, terms)

    # -- substitution --------------------------------------------------------

    def substitute(self, sub: "SubstitutionMap") -> "LaurentPolynomial":
        if sub.source != self.alphabet:
            raise AlphabetMismatchError(
                f"substitution covers {sub.source}, polynomial over {self.alphabet}"
            )
        acc: dict[Monomial, Coeff] = {}
        for exps, c in self.terms.items():
            sign, image = sub.image(exps)
            acc[image] = acc.get(image, 0) + (c if sign > 0 else -c)
        return LaurentPolynomial._of(sub.target, {e: as_coeff(c) for e, c in acc.items() if c})

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.alphabet!r}, {self.terms!r})"


def format_polynomial(p: LaurentPolynomial) -> str:
    """Human-readable form, terms in ascending lex order."""
    if p.is_zero():
        return "0"
    chunks = []
    for exps, c in p.sorted_terms():
        atoms = []
        for name, e in zip(p.alphabet, exps):
            if e == 1:
                atoms.append(name)
            elif e:
                atoms.append(f"{name}^{e}")
        mono = "*".join(atoms)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        sign = "-" if c < 0 else "+"
        chunks.append((sign, body))
    first_sign, first_body = chunks[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text


def exact_divide(f: LaurentPolynomial, g: LaurentPolynomial) -> LaurentPolynomial:
    """Exact quotient ``f / g``; raises :class:`NonDivisibleError` otherwise.

    Sparse reduction in lex order, after shifting both operands to ordinary
    polynomials: every intermediate remainder of an exact division stays a
    multiple of ``g``, so the first leading term not divisible by ``g``'s
    proves non-divisibility.  The loop ends because each step removes the
    remainder's leading term and adds only lower ones.
    """
    _check_same_alphabet(f, g)
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():  # content() of zero raises
        return LaurentPolynomial.zero(f.alphabet)

    content_f = f.content()
    content_g = g.content()
    rem = {monomial_div(e, content_f): c for e, c in f.terms.items()}
    gshift = {monomial_div(e, content_g): c for e, c in g.terms.items()}
    lead_g = max(gshift)
    lead_coeff = gshift.pop(lead_g)

    shift = monomial_div(content_f, content_g)
    quotient: dict[Monomial, Coeff] = {}
    while rem:
        e = max(rem)
        qe = monomial_div(e, lead_g)
        if any(x < 0 for x in qe):
            raise NonDivisibleError(f"leading term {e} not reducible by {lead_g}")
        qc = as_coeff(Fraction(rem.pop(e)) / lead_coeff)
        quotient[monomial_mul(qe, shift)] = qc
        for ge, gc in gshift.items():
            ne = monomial_mul(qe, ge)
            total = rem.get(ne, 0) - qc * gc
            # Deleted at once, unlike a sum: max(rem) must not pick a cancelled term,
            # and the loop ends only when rem is empty.
            if total:
                rem[ne] = total
            else:
                rem.pop(ne, None)
    return LaurentPolynomial._of(f.alphabet, quotient)


class SubstitutionMap:
    """Per-variable map ``x -> sign * monomial`` extended to a ring hom.

    Signs are +1 or -1; each image is an exponent vector over the target
    alphabet.  Monomials map to signed monomials, so polynomials map
    term by term.
    """

    __slots__ = ("source", "target", "images")

    def __init__(
        self,
        source: Alphabet,
        target: Alphabet,
        images: Mapping[str, tuple[int, Monomial]],
    ):
        source = tuple(source)
        target = tuple(target)
        ordered = []
        for name in source:
            if name not in images:
                raise ValueError(f"no image for source variable {name!r}")
            sign, exps = images[name]
            if sign not in (1, -1):
                raise ValueError("sign must be +1 or -1")
            exps = tuple(exps)
            if len(exps) != len(target):
                raise AlphabetMismatchError(
                    f"image of {name!r} has arity {len(exps)}, target needs {len(target)}"
                )
            ordered.append((sign, exps))
        self.source = source
        self.target = target
        self.images = tuple(ordered)

    def image(self, exps: Monomial) -> tuple[int, Monomial]:
        """Signed image of a source monomial."""
        sign = 1
        out = [0] * len(self.target)
        for e, (s, img) in zip(exps, self.images):
            if not e:
                continue
            if s < 0 and e % 2:
                sign = -sign
            for i, ie in enumerate(img):
                if ie:
                    out[i] += ie * e
        return sign, tuple(out)


class FactoredRational:
    """``coeff * x^prefactor * prod (1 - x^b)^mult`` with signed multiplicities.

    Binomials are canonicalized so the first nonzero exponent of ``b`` is
    positive, using ``1 - m == (-m) * (1 - 1/m)``; identical binomials then
    merge and cancel exactly without any polynomial gcd.
    """

    __slots__ = ("alphabet", "coeff", "prefactor", "factors")

    def __init__(
        self,
        alphabet: Alphabet,
        coeff: Coeff = 1,
        prefactor: Monomial | None = None,
        factors: Union[Mapping[Monomial, int], Iterable[tuple[Monomial, int]]] = (),
    ):
        alphabet = tuple(alphabet)
        coeff = as_coeff(coeff)
        if not coeff:
            raise ValueError("zero has no factored form")
        pre = list(prefactor) if prefactor is not None else [0] * len(alphabet)
        if len(pre) != len(alphabet):
            raise AlphabetMismatchError("prefactor arity mismatch")
        merged: dict[Monomial, int] = {}
        items = factors.items() if isinstance(factors, Mapping) else factors
        for b, mult in items:
            if not mult:
                continue
            b = tuple(b)
            if len(b) != len(alphabet):
                raise AlphabetMismatchError("binomial arity mismatch")
            if not any(b):
                raise ZeroDivisionError("binomial 1 - 1 vanishes")
            first = next(x for x in b if x)
            if first < 0:
                if mult % 2:
                    coeff = -coeff
                pre = [p + e * mult for p, e in zip(pre, b)]
                b = monomial_inverse(b)
            merged[b] = merged.get(b, 0) + mult
        self.alphabet = alphabet
        self.coeff = as_coeff(coeff)
        self.prefactor = tuple(pre)
        self.factors = {b: m for b, m in merged.items() if m}

    @classmethod
    def one(cls, alphabet: Alphabet) -> "FactoredRational":
        return cls(alphabet)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FactoredRational):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.coeff == other.coeff
            and self.prefactor == other.prefactor
            and self.factors == other.factors
        )

    __hash__ = None  # type: ignore[assignment]

    def __mul__(self, other: "FactoredRational") -> "FactoredRational":
        if not isinstance(other, FactoredRational):
            return NotImplemented
        _check_same_alphabet(self, other)
        return FactoredRational(
            self.alphabet,
            self.coeff * other.coeff,
            monomial_mul(self.prefactor, other.prefactor),
            [*self.factors.items(), *other.factors.items()],
        )

    def reciprocal(self) -> "FactoredRational":
        return FactoredRational(
            self.alphabet,
            Fraction(1) / self.coeff,
            monomial_inverse(self.prefactor),
            [(b, -m) for b, m in self.factors.items()],
        )

    def expand(self) -> tuple[LaurentPolynomial, LaurentPolynomial]:
        """Expanded ``(numerator, denominator)``; numerator carries coeff and prefactor."""
        num_factors = [(b, m) for b, m in self.factors.items() if m > 0]
        den_factors = [(b, -m) for b, m in self.factors.items() if m < 0]
        start = LaurentPolynomial(self.alphabet, {self.prefactor: self.coeff})
        num = expand_binomial_product(start, num_factors)
        den = expand_binomial_product(LaurentPolynomial.one(self.alphabet), den_factors)
        return num, den

    def __repr__(self) -> str:
        return (
            f"FactoredRational({self.alphabet!r}, coeff={self.coeff!r}, "
            f"prefactor={self.prefactor!r}, factors={self.factors!r})"
        )


def expand_binomial_product(
    start: LaurentPolynomial, factors: Iterable[tuple[Monomial, int]]
) -> LaurentPolynomial:
    """Expand ``start * prod (1 - x^b)^e`` with all ``e >= 0``.

    Each copy of a binomial is one pass ``acc - acc * x^b``, so a multi-term
    ``start`` (a cofactor times a summand's monomial) needs no general product.
    """
    acc: dict[Monomial, Coeff] = dict(start.terms)
    for b, e in sorted(factors):
        if e < 0:
            raise ValueError("negative multiplicity in product expansion")
        b = tuple(b)
        for _ in range(e):
            nxt: dict[Monomial, Coeff] = dict(acc)
            for exps, c in acc.items():
                if c:  # a cancelled term is dropped by the filter below, not shifted again
                    shifted = monomial_mul(exps, b)
                    nxt[shifted] = nxt.get(shifted, 0) - c
            acc = nxt
    return LaurentPolynomial._of(start.alphabet, {e: as_coeff(c) for e, c in acc.items() if c})


def elementary_symmetric(
    alphabet: Alphabet, weights: Iterable[Monomial], top: int
) -> list[LaurentPolynomial]:
    """The elementary symmetric polynomials e_0 .. e_top of the monomials in
    weights, repeats counted, by one Pascal pass: each weight w turns every
    e_s, s downward, into e_s + w * e_(s-1).  Orders above the number of
    weights are 0.  Every coefficient counts subsets, so none cancels.
    """
    rows: list[dict[Monomial, Coeff]] = [{unit_monomial(alphabet): 1}] + [{} for _ in range(top)]
    for w in weights:
        for s in range(top, 0, -1):
            row = rows[s]
            for exps, c in rows[s - 1].items():
                e = monomial_mul(exps, w)
                row[e] = row.get(e, 0) + c
    return [LaurentPolynomial._of(alphabet, row) for row in rows]

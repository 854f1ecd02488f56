"""Exact torus-knot invariants from principally specialized Macdonald data."""

from .algebra import (
    KNOT,
    MACD,
    AlphabetMismatchError,
    FactoredRational,
    LaurentPolynomial,
    NonDivisibleError,
    SubstitutionMap,
    exact_divide,
)
from .invariant import (
    CalibrationError,
    GeneratingFunction,
    IntegrityError,
    NonPolynomial,
    PropertyFlags,
    Superpolynomial,
    compute,
    generating_function,
    scan,
    specialize,
    verify_properties,
)

__version__ = "0.1.0"

__all__ = [
    "KNOT",
    "MACD",
    "AlphabetMismatchError",
    "CalibrationError",
    "FactoredRational",
    "GeneratingFunction",
    "IntegrityError",
    "LaurentPolynomial",
    "NonDivisibleError",
    "NonPolynomial",
    "PropertyFlags",
    "SubstitutionMap",
    "Superpolynomial",
    "compute",
    "exact_divide",
    "generating_function",
    "scan",
    "specialize",
    "verify_properties",
]

"""
Whole winding families at once
==============================

Fixing the strand count n and the winding remainder r, the invariants
P(n, nk+r) for k = 0, 1, 2, ... assemble into a rational function of a
bookkeeping variable z: a polynomial numerator over a product of simple
poles, one pole per distinct framing of the partitions of n.  The closed
form is calibrated and then re-expanded here as a round-trip check.
"""

from torus_super import compute, generating_function
from torus_super.algebra import KNOT, LaurentPolynomial, format_polynomial


def pole_text(exps):
    if not any(exps):
        return "(1 - z)"
    mono = format_polynomial(LaurentPolynomial(KNOT, {tuple(exps): 1}))
    return f"(1 - z*{mono})"


for n, r in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3)]:
    gf = generating_function(n, r)
    print(f"family m = {n}k + {r}")
    for j, coeff in gf.numerator:
        print(f"  numerator z^{j}: {format_polynomial(coeff)}")
    print("  denominator:", " ".join(pole_text(p) for p in gf.poles))

    # Taylor coefficients must reproduce the one-knot computations.
    series = gf.series(3)
    for k in range(4):
        direct = compute(n, n * k + r).terms
        tag = "ok" if series[k] == direct else "MISMATCH"
        print(f"  z^{k} -> P({n},{n * k + r}): {tag}")
    print()

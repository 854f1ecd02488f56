"""
Gallery of small torus knots
============================

Every invariant the test corpus pins down, printed grouped by a-degree.
The growth is visible: two strands stay tiny, five strands at eight
windings already carry 309 terms.
"""

from torus_super import compute
from torus_super.cli import CORPUS_PAIRS, emit_grouped

for n, m in CORPUS_PAIRS:
    result = compute(n, m)
    print(f"(n,m) = ({n},{m})   [{result.terms.term_count} terms]")
    print(emit_grouped(result.terms))
    print()

# A non-coprime pair never yields a polynomial: the truncated series times
# the common denominator misses the numerator, and the outcome names the
# lowest term of the difference.
blocked = compute(2, 4)
print("(n,m) = (2,4):", type(blocked).__name__, "-", blocked.reason)

"""
Sweeping the (n, m) plane
=========================

Coprime (n, m) must give a polynomial with positive integer
coefficients; everything else must fail the multiply-back check.  The
scan drives both directions over a grid and reports shape statistics
along the way.
"""

from collections import Counter

from torus_super import scan

report = scan(6, 20)

statuses = Counter(row.status for row in report.rows)
print("pairs scanned:", len(report.rows))
for status, count in sorted(statuses.items()):
    print(f"  {status}: {count}")
print("every outcome as predicted:", report.all_expected)
print()

# Degrees grow linearly in m at fixed n; term counts much faster.
print("n  m   a_max q_max t_max terms  ms")
for row in report.rows:
    if row.status != "ok":
        continue
    print(f"{row.n}  {row.m:2d}  {row.a_max:4d} {row.q_max:5d} {row.t_max:5d} "
          f"{row.term_count:5d} {row.millis:4d}")
print()

print(report.to_csv(), end="")

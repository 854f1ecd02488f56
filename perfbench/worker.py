"""One round of one workload, in a fresh process.

Imports ``torus_super`` from the checkout's ``src/``, builds the workload's
inputs, prints ``ready``, runs the operations (timed, optionally traced),
checks every output with :mod:`checks`, and prints one JSON record.  The
parent (``run.py``) times the start-up up to ``ready`` as set-up.

    python3 perfbench/worker.py --workload knots --seed 0
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import tempfile
from math import gcd
from pathlib import Path
from time import perf_counter

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"  # span files and the scratch cache
FIXTURES = SRC / "torus_super" / "fixtures"

CORPUS_PAIRS = (
    (2, 3), (2, 5), (2, 7),
    (3, 4), (3, 5), (3, 7), (3, 8), (3, 10), (3, 11),
    (4, 5), (4, 7), (4, 9), (4, 11),
    (5, 6), (5, 8),
)
KNOT_PAIRS = CORPUS_PAIRS + ((7, 8),)
SCAN_N_MAX, SCAN_M_MAX = 6, 12
FAMILIES = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 1), (5, 4))
FAMILY_FIXTURES = ((2, 1), (3, 1), (3, 2))
SERIES_ORDER = 8
ORACLE_MAX_SIZE = 4


def _fixture(name: str) -> str:
    return (FIXTURES / f"{name}.json").read_text()


class Workload:
    """Operations run in :meth:`operate`; :meth:`check` returns
    ``(attempted, failures, errors)``: failed operations and wrong outputs."""

    def __init__(self, ts, rng: random.Random):
        self.ts = ts

    def operate(self) -> None:
        raise NotImplementedError

    def check(self) -> tuple[int, list[str], list[str]]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Knots(Workload):
    """Each knot computed cold, then read back through the file cache twice."""

    def __init__(self, ts, rng):
        super().__init__(ts, rng)
        from torus_super import cli

        self.cli = cli
        self.order = list(KNOT_PAIRS)
        rng.shuffle(self.order)
        self.trip_order = list(KNOT_PAIRS)
        rng.shuffle(self.trip_order)
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT)
        os.environ["TORUS_SUPER_CACHE"] = self.cache_dir
        self.results: dict = {}
        self.trips: dict = {}
        self.raised: list[str] = []

    def operate(self):
        compute, cached_compute = self.ts.compute, self.cli.cached_compute
        for n, m in self.order:
            try:
                self.results[(n, m)] = compute(n, m)
            except Exception as err:
                self.raised.append(f"compute({n},{m}) raised {err!r}")
        for n, m in self.trip_order:
            try:
                self.trips[(n, m)] = (cached_compute(n, m), cached_compute(n, m))
            except Exception as err:
                self.raised.append(f"cached_compute({n},{m}) raised {err!r}")

    def check(self):
        failures = list(self.raised)
        errors = []
        for (n, m), result in self.results.items():
            errors += checks.check_knot(n, m, result, self.ts.specialize)
            if (n, m) in CORPUS_PAIRS and hasattr(result, "terms"):
                rendered = checks.knot_json(n, m, result.terms.terms)
                errors += checks.check_fixture(f"({n},{m})", _fixture(f"{n}_{m}"), rendered)
        for (n, m), (miss, hit) in self.trips.items():
            want = _record(self.results.get((n, m)))
            for label, got in (("miss", miss), ("hit", hit)):
                if _record(got) != want:
                    failures.append(f"cached_compute({n},{m}) {label} differs from compute")
                    break
        return 2 * len(KNOT_PAIRS), failures, errors

    def close(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _record(result):
    """What a cache hit must reproduce: terms, content and flags."""
    if not hasattr(result, "terms"):
        return None
    flags = result.flags
    return (
        result.terms.terms, tuple(result.content),
        (flags.polynomial, flags.integral, flags.positive, flags.normalized),
    )


class Scan(Workload):
    """One serial ``scan``; a third of its pairs are not coprime."""

    def __init__(self, ts, rng):
        super().__init__(ts, rng)
        self.pairs = [
            (n, m) for n in range(2, SCAN_N_MAX + 1) for m in range(n + 1, SCAN_M_MAX + 1)
        ]
        self.report = None
        self.raised: list[str] = []

    def operate(self):
        try:
            self.report = self.ts.scan(SCAN_N_MAX, SCAN_M_MAX)
        except Exception as err:
            self.raised.append(f"scan raised {err!r}")

    def check(self):
        attempted = len(self.pairs)
        if self.report is None:
            return attempted, self.raised * attempted, []
        rows = self.report.rows
        if [(row.n, row.m) for row in rows] != self.pairs:
            return attempted, [], ["scan rows do not cover the requested pairs in order"]
        errors = []
        for row in rows:
            n, m = row.n, row.m
            g = gcd(n, m)
            if row.gcd != g or row.status != ("ok" if g == 1 else "nonpolynomial"):
                errors.append(f"({n},{m}): scan row says gcd {row.gcd}, status {row.status}")
                continue
            # compute() is memoized, so this is the result the scan saw.
            result = self.ts.compute(n, m)
            errors += checks.check_knot(n, m, result, self.ts.specialize)
            if g == 1 and hasattr(result, "terms"):
                terms = result.terms.terms
                shape = (*(max(col) for col in zip(*terms)), len(terms))
                if (row.a_max, row.q_max, row.t_max, row.term_count) != shape:
                    errors.append(f"({n},{m}): scan row degrees differ from the terms")
        return attempted, [], errors


class Families(Workload):
    """Generating function and series for each winding family."""

    def __init__(self, ts, rng):
        super().__init__(ts, rng)
        self.order = list(FAMILIES)
        rng.shuffle(self.order)
        self.out: dict = {}
        self.raised: list[str] = []

    def operate(self):
        generating_function = self.ts.generating_function
        for n, r in self.order:
            try:
                gf = generating_function(n, r)
            except Exception as err:
                self.raised += [f"generating_function({n},{r}) raised {err!r}"] * 2
                continue
            try:
                self.out[(n, r)] = (gf, gf.series(SERIES_ORDER))
            except Exception as err:
                self.raised.append(f"series of ({n},{r}) raised {err!r}")

    def check(self):
        errors = []
        specialize = self.ts.specialize
        for (n, r), (gf, rows) in self.out.items():
            if len(rows) != SERIES_ORDER + 1:
                errors.append(f"({n},{r}): series has {len(rows)} rows")
            for k, row in enumerate(rows):
                errors += checks.check_polynomial(
                    n, n * k + r, row.terms,
                    lambda target, row=row: specialize(row, target).terms,
                )
            if (n, r) in FAMILY_FIXTURES:
                numerator = [(j, coeff.terms) for j, coeff in gf.numerator]
                rendered = checks.genfun_json(n, r, numerator, gf.poles)
                errors += checks.check_fixture(f"f_{n}_{r}", _fixture(f"f_{n}_{r}"), rendered)
        return 2 * len(FAMILIES), list(self.raised), errors


class Oracle(Workload):
    """The checks of ``torus-super verify oracle --max-size 4``."""

    def __init__(self, ts, rng):
        super().__init__(ts, rng)
        from torus_super import oracle
        from torus_super.partitions import enumerate_partitions

        # Each check is a tuple of (oracle function name, args, kwargs) calls;
        # names are looked up when run, so a traced round sees the wrappers.
        self.oracle = oracle
        self.checks: list[tuple[str, tuple]] = []
        sizes = range(1, ORACLE_MAX_SIZE + 1)
        for n in sizes:
            self.checks.append((f"orthogonality {n}", (("verify_orthogonality", (n,), {}),)))
            self.checks.append(
                (f"power-sum expansion {n}", (("verify_power_sum_expansion", (n,), {}),))
            )
        for n in sizes:
            for y in enumerate_partitions(n):
                self.checks.append((
                    f"principal specialization {y}",
                    tuple(("verify_dimension", (y, nv), {}) for nv in (3, 4, 5)),
                ))
                self.checks.append(
                    (f"expansion limit {y}", (("verify_expansion_limit", (y,), {}),))
                )
                if n <= 3:
                    self.checks.append(
                        (f"schur degeneration {y}", (("verify_schur_degeneration", (y,), {}),))
                    )
        for d in range(1, min(3, ORACLE_MAX_SIZE) + 1):
            self.checks.append((f"kernel identity {d}", (("verify_cauchy", (d, d, d), {}),)))
            self.checks.append((
                f"kernel identity {d}, principal L=5",
                (("verify_cauchy", (d, d, 0), {"principal_l": 5}),),
            ))
        self.verdicts: dict[str, object] = {}
        self.raised: list[str] = []

    def operate(self):
        for label, calls in self.checks:
            try:
                self.verdicts[label] = [
                    getattr(self.oracle, name)(*args, **kwargs) for name, args, kwargs in calls
                ]
            except Exception as err:
                self.raised.append(f"oracle check {label} raised {err!r}")

    def check(self):
        errors = [
            f"oracle check {label} returned {verdict}"
            for label, verdict in self.verdicts.items()
            if not all(v is True for v in verdict)
        ]
        return len(self.checks), list(self.raised), errors


WORKLOADS = {"knots": Knots, "scan": Scan, "families": Families, "oracle": Oracle}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--round", type=int, default=0, help="numbers the span file")
    parser.add_argument("--setup-only", action="store_true", help="exit after set-up")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import torus_super

    if Path(torus_super.__file__).resolve().parent != (SRC / "torus_super").resolve():
        print(f"imported torus_super from {torus_super.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](torus_super, random.Random(args.seed))
    try:
        print("ready", flush=True)
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install(torus_super)
        start = perf_counter()
        try:
            workload.operate()
        finally:
            wall_s = perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failures, errors = workload.check()
        record = {
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb,
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures,
            "errors": errors,
        }
        if tracer is not None:
            record["layers"] = tracer.layer_metrics(wall_s)
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}-{args.round}.tsv")
        print(json.dumps(record), flush=True)
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())

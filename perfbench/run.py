"""Benchmark of torus_super: four workloads, each round in a fresh process.

    python3 perfbench/run.py --workload knots --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the program is imported from its ``src/``.
A run starts the workload's process several times up to the end of its
set-up, before and after whole rounds (one fresh process each) that start
until ``--seconds`` have passed.  With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of traced
rounds.  The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for what each
workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import worker
from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT, OUT = worker.ROOT, worker.OUT
WORKLOADS = tuple(worker.WORKLOADS)
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 14  # set-up only starts per run, after one uncounted warm-up
DEADLINE_S = 170.0  # every process of one workload ends within this


class BenchError(RuntimeError):
    """A worker did not start, crashed or ran past the deadline."""


def _worker(workload: str, seed: int, trace: int, round_no: int | None,
            deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its set-up seconds and its JSON record, or
    ``None`` for a set-up only start (``round_no`` is ``None``)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace),
    ]
    cmd += ["--setup-only"] if round_no is None else ["--round", str(round_no)]
    # Every start reads bytecode from one cache that the warm-up start
    # writes, whatever the caller's bytecode settings or stale caches in src/.
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env)
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - start
        if first.strip() != "ready":
            raise BenchError(f"{workload} worker did not get ready")
        rest, _ = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} round ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    if round_no is None:
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} worker printed no result")
    return setup_s, json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = perf_counter() + DEADLINE_S

    def setup_samples(count: int) -> list[float]:
        return [_worker(workload, seed, trace, None, deadline)[0] for _ in range(count)]

    setup_samples(1)  # warm-up: writes the bytecode cache
    # Set-up samples before and after the rounds span the same stretch of
    # machine time as the rounds do.
    setups = setup_samples(SETUP_SAMPLES // 2)
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        setup_s, record = _worker(workload, seed, trace, len(rounds), deadline)
        setups.append(setup_s)
        rounds.append(record)
    setups += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    errors = [e for r in rounds for e in r["errors"]]
    failures = [f for r in rounds for f in r["failures"]]
    if trace:
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in rounds), "unit": unit}
            for name, unit in LAYER_METRICS.items()
        }
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
        "rounds": len(rounds),
        "errors": errors,
        "failures": failures,
    }


def _report(workload: str, result: dict) -> None:
    print(f"== {workload}: {result['rounds']} rounds, attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"   {name} = {metric['value']:.6g} {metric['unit']}")
    for line in sorted(set(result["failures"]))[:5]:
        print(f"   failed: {line}")
    for line in result["errors"][:20]:
        print(f"   WRONG: {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="shuffles operation order (default 0)")
    parser.add_argument("--seconds", type=float, default=15, help="rounds start until this has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "torus_super" / "__init__.py").is_file():
        print(f"no torus_super sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            _report(name, results[name])
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": (
            results[names[0]]["metrics"] if len(names) == 1 else {
                f"{name}.{metric}": value
                for name, r in results.items() for metric, value in r["metrics"].items()
            }
        ),
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1) + "\n"
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

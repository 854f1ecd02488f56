"""Command line entry points.

Subcommands mirror the library surface: ``compute``, ``verify`` (corpus or
oracle), ``genfun``, ``scan``, and ``specialize``.  Exit codes: 0 success,
1 verification mismatch or property failure, 2 usage error, 3 I/O,
4 calibration failure, 5 not a polynomial.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from importlib.util import source_hash
from pathlib import Path

from .algebra import LaurentPolynomial, format_polynomial
from .invariant import (
    CalibrationError,
    KNOT,
    NonPolynomial,
    Superpolynomial,
    compute,
    generating_function,
    generating_function_to_json,
    scan,
    specialize,
    superpolynomial_from_json,
    superpolynomial_to_json,
    _check_family,
    _check_ints,
    _check_positive,
    _check_scan,
)
from .partitions import enumerate_partitions

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_IO = 3
EXIT_CALIBRATION = 4
EXIT_NONPOLYNOMIAL = 5

CORPUS_PAIRS = (
    (2, 3), (2, 5), (2, 7),
    (3, 4), (3, 5), (3, 7), (3, 8), (3, 10), (3, 11),
    (4, 5), (4, 7), (4, 9), (4, 11),
    (5, 6), (5, 8),
)


# -- advisory result cache -----------------------------------------------------


@cache  # the sources do not change under a running process
def _code_version() -> str:
    """64-bit SipHash of every module of the package in sorted order, as
    importlib.util.source_hash keys hash-based .pyc files: none can leave
    stale entries.  The hash is keyed by the interpreter's bytecode magic
    number, so each Python version keeps its own entries."""
    sources = b"".join(path.read_bytes() for path in sorted(Path(__file__).parent.glob("*.py")))
    return source_hash(sources).hex()


def _cache_dir() -> Path:
    env = os.environ.get("TORUS_SUPER_CACHE")
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "torus-super"


def cached_compute(n: int, m: int):
    """compute() behind a delete-safe file cache keyed by the code version.

    An entry holds the canonical JSON and the content that normalization
    removed, so a hit returns what compute() returns.  An entry for another
    knot than the one asked for, or whose content is not one integer
    exponent per variable of (a, q, t), is a miss.
    """
    path = _cache_dir() / f"{n}_{m}_{_code_version()}.json"
    try:
        entry = json.loads(path.read_text())
        hit = superpolynomial_from_json(entry["superpolynomial"])
        content = tuple(entry["content"])
        _check_ints("cache entry content must be integers", *content)
        if (hit.n, hit.m) == (n, m) and len(content) == len(KNOT):
            return hit._replace(content=content)
    except Exception:
        pass  # miss, stale key, or corrupt entry; recompute
    result = compute(n, m)
    if isinstance(result, Superpolynomial):
        entry = {
            "content": list(result.content),
            "superpolynomial": superpolynomial_to_json(result),
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp")
            handle = open(tmp, "x")  # exclusive: another writer's temp file is never reused
            try:
                with handle:
                    handle.write(json.dumps(entry) + "\n")
                os.replace(tmp, path)
            except OSError:
                os.unlink(tmp)  # a failed write, say on a full disk, leaves no temp file
                raise
        except OSError:
            pass  # cache is advisory
    return result


# -- emitters --------------------------------------------------------------------


def _a_degree_slices(p: LaurentPolynomial) -> list[tuple[int, LaurentPolynomial]]:
    groups: dict[int, dict[tuple[int, int], object]] = {}
    for (ea, eq, et), c in p.terms.items():
        groups.setdefault(ea, {})[(eq, et)] = c
    return [
        (ea, LaurentPolynomial(("q", "t"), groups[ea])) for ea in sorted(groups)
    ]


def emit_grouped(p: LaurentPolynomial) -> str:
    lines = []
    for ea, slice_qt in _a_degree_slices(p):
        lines.append(f"a^{ea}: {format_polynomial(slice_qt)}")
    return "\n".join(lines)


def _latex_monomial(name: str, e: int) -> str:
    return rf"\textbf{{{name}}}^{{{e}}}" if e else ""


def emit_latex(p: LaurentPolynomial) -> str:
    """Tabular presentation grouped by a-degree."""
    lines = [
        r"\begin{array}{c|l}",
        r"\textbf{a}-{\rm degree} & {\rm coefficient} \\",
    ]
    for ea, slice_qt in _a_degree_slices(p):
        atoms = []
        for (eq, et), c in slice_qt.sorted_terms():
            factors = " ".join(x for x in (_latex_monomial("q", eq), _latex_monomial("t", et)) if x)
            if not factors:
                atoms.append(str(c))
            elif c == 1:
                atoms.append(factors)
            else:
                atoms.append(f"{c} {factors}")
        lines.append(rf"\hline \textbf{{a}}^{{{ea}}} & " + "+".join(atoms) + r" \\")
    lines.append(r"\end{array}")
    return "\n".join(lines)


# -- subcommands -----------------------------------------------------------------


def _check_arguments(check, *values) -> None:
    """Report a library argument check's rejection as a usage error (exit 2)."""
    try:
        check(*values)
    except (TypeError, ValueError) as err:
        build_parser().error(str(err))


def _report_nonpolynomial(result: NonPolynomial) -> int:
    n, m = result.n, result.m
    print(
        f"P({n},{m}) is not a polynomial: gcd({n},{m}) = {result.gcd}; {result.reason}",
        file=sys.stderr,
    )
    return EXIT_NONPOLYNOMIAL


def cmd_compute(args: argparse.Namespace) -> int:
    _check_arguments(_check_positive, "n and m", args.n, args.m)
    result = cached_compute(args.n, args.m)
    if isinstance(result, NonPolynomial):
        return _report_nonpolynomial(result)
    if args.json:
        print(superpolynomial_to_json(result))
        return EXIT_OK
    if args.raw:
        print(f"content: {format_polynomial(LaurentPolynomial(KNOT, {result.content: 1}))}")
    if args.latex:
        print(emit_latex(result.terms))
    elif args.grouped:
        print(emit_grouped(result.terms))
    else:
        print(f"P({args.n},{args.m}) = {format_polynomial(result.terms)}")
    return EXIT_OK


def cmd_verify_corpus(args: argparse.Namespace) -> int:
    directory = Path(args.fixtures) if args.fixtures else Path(__file__).parent / "fixtures"
    failures = 0
    for n, m in CORPUS_PAIRS:
        path = directory / f"{n}_{m}.json"
        try:
            want = path.read_text().strip()
        except OSError:
            print(f"missing fixture {path}", file=sys.stderr)
            return EXIT_IO
        result = compute(n, m)
        if superpolynomial_to_json(result) == want:
            print(f"({n},{m}) ok")
            continue
        failures += 1
        print(f"({n},{m}) MISMATCH")
        try:
            want_terms = superpolynomial_from_json(want).terms.terms
        except (ValueError, TypeError) as exc:
            print(f"  unreadable fixture: {exc}")
            continue
        got_terms = result.terms.terms
        for key in sorted(set(want_terms) | set(got_terms)):
            a, b = want_terms.get(key), got_terms.get(key)
            if a != b:
                print(f"  a^{key[0]} q^{key[1]} t^{key[2]}: fixture={a} computed={b}")
    return EXIT_MISMATCH if failures else EXIT_OK


def cmd_verify_oracle(args: argparse.Namespace) -> int:
    from . import oracle

    failures = 0

    def run(label: str, check, *check_args, **check_kwargs) -> None:
        nonlocal failures
        try:
            ok = check(*check_args, **check_kwargs)
        except (ArithmeticError, AssertionError) as err:  # a gcd cap or a failed invariant
            print(f"FAIL {label}: {err}")
            ok = False
        else:
            print(("ok " if ok else "FAIL ") + label)
        failures += 0 if ok else 1

    cap = args.max_size
    for n in range(1, cap + 1):
        run(f"orthogonality degree {n}", oracle.verify_orthogonality, n)
        run(f"power-sum expansion degree {n}", oracle.verify_power_sum_expansion, n)
    for n in range(1, cap + 1):
        for y in enumerate_partitions(n):
            run(f"principal specialization {y}",
                lambda: all(oracle.verify_dimension(y, nv) for nv in (3, 4, 5)))
            run(f"expansion limit {y}", oracle.verify_expansion_limit, y)
            if n <= 3:
                run(f"schur degeneration {y}", oracle.verify_schur_degeneration, y)
    for d in range(1, min(3, cap) + 1):
        run(f"kernel identity order {d}", oracle.verify_cauchy, d, d, d)
        run(f"kernel identity order {d}, principal L=5", oracle.verify_cauchy, d, d, 0, principal_l=5)
    return EXIT_MISMATCH if failures else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.what == "corpus":
        return cmd_verify_corpus(args)
    return cmd_verify_oracle(args)


def cmd_genfun(args: argparse.Namespace) -> int:
    _check_arguments(_check_family, args.n, args.r)
    try:
        gf = generating_function(args.n, args.r)
    except CalibrationError as err:
        print(f"calibration failed: {err}", file=sys.stderr)
        return EXIT_CALIBRATION
    print(generating_function_to_json(gf))
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    _check_arguments(_check_scan, args.n_max, args.m_max)
    report = scan(args.n_max, args.m_max)
    csv_text = report.to_csv()
    if args.out:
        try:
            Path(args.out).write_text(csv_text)
        except OSError as err:
            print(f"cannot write {args.out}: {err}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK if report.all_expected else EXIT_MISMATCH


def cmd_specialize(args: argparse.Namespace) -> int:
    _check_arguments(_check_positive, "n and m", args.n, args.m)
    result = compute(args.n, args.m)
    if isinstance(result, NonPolynomial):
        return _report_nonpolynomial(result)
    print(format_polynomial(specialize(result, args.at)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torus-super",
        description="Exact torus-knot invariants with a three-variable grading.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute one invariant")
    p_compute.add_argument("n", type=int)
    p_compute.add_argument("m", type=int)
    style = p_compute.add_mutually_exclusive_group()
    style.add_argument("--json", action="store_true", help="canonical one-line JSON")
    style.add_argument("--latex", action="store_true", help="tabular form grouped by a-degree")
    style.add_argument("--grouped", action="store_true", help="text form grouped by a-degree")
    p_compute.add_argument(
        "--raw", action="store_true",
        help="also print the monomial content that normalization removed",
    )
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="recheck the corpus or the oracle")
    p_verify.add_argument("what", choices=("corpus", "oracle"))
    p_verify.add_argument("--fixtures", help="fixture directory (corpus only)")
    p_verify.add_argument(
        "--max-size", type=int, default=4, choices=range(1, 6),
        help="largest partition size for oracle suites",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_genfun = sub.add_parser("genfun", help="closed form for a winding family")
    p_genfun.add_argument("n", type=int)
    p_genfun.add_argument("r", type=int)
    p_genfun.set_defaults(func=cmd_genfun)

    p_scan = sub.add_parser("scan", help="sweep a range of windings, emit CSV")
    p_scan.add_argument("--n-max", type=int, required=True)
    p_scan.add_argument("--m-max", type=int, required=True)
    p_scan.add_argument("--out", help="CSV destination (default stdout)")
    p_scan.set_defaults(func=cmd_scan)

    p_spec = sub.add_parser("specialize", help="classical one- and two-variable reductions")
    p_spec.add_argument("n", type=int)
    p_spec.add_argument("m", type=int)
    p_spec.add_argument("--at", required=True, choices=("homfly", "jones", "alexander"))
    p_spec.set_defaults(func=cmd_specialize)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "json", False) and getattr(args, "raw", False):
        build_parser().error("--raw does not combine with --json")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

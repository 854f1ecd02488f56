"""Spans around the public functions of each torus_super layer.

The tracer wraps a function under every name its callers look it up by: the
defining module, each module that imported it, and the class dict for
methods.  Each call records a span ``(layer, start, end, parent)`` in memory,
plus per-layer counts; ``uninstall`` puts the original objects back.  Self
time is a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# Per-layer counts, each a function of (args, result) for a call that returned.
_COUNTS = {
    "algebra.exact_divide": {
        "terms_in": lambda args, out: len(args[0].terms),
        "terms_out": lambda args, out: len(out.terms),
    },
    "algebra.mul": {
        "term_pairs": lambda args, out: len(args[0].terms) * (
            len(args[1].terms) if hasattr(args[1], "terms") else 1
        ),
    },
    "algebra.expand_binomial_product": {
        "terms_out": lambda args, out: len(out.terms),
    },
    "algebra.substitute": {
        "terms_in": lambda args, out: len(args[0].terms),
    },
    "invariant.compute": {
        "nonpolynomial": lambda args, out: int(not hasattr(out, "terms")),
    },
}

# Counts of calls that raised, keyed by layer: (metric, exception class name).
_RAISED = {"algebra.exact_divide": ("nondivisible", "NonDivisibleError")}

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "algebra.exact_divide.calls": "count",
    "algebra.exact_divide.self_s": "s",
    "algebra.exact_divide.terms_in": "count",
    "algebra.exact_divide.terms_out": "count",
    "algebra.exact_divide.nondivisible": "count",
    "algebra.mul.calls": "count",
    "algebra.mul.self_s": "s",
    "algebra.mul.term_pairs": "count",
    "algebra.expand_binomial_product.calls": "count",
    "algebra.expand_binomial_product.self_s": "s",
    "algebra.expand_binomial_product.terms_out": "count",
    "macdonald.calls": "count",
    "macdonald.self_s": "s",
    "algebra.add.self_s": "s",
    "algebra.shifted.self_s": "s",
    "algebra.substitute.self_s": "s",
    "algebra.substitute.terms_in": "count",
    "invariant.compute.calls": "count",
    "invariant.compute.s": "s",
    "invariant.compute.self_s": "s",
    "invariant.compute.nonpolynomial": "count",
    "invariant.generating_function.s": "s",
    "invariant.series.s": "s",
    "oracle.checks": "count",
    "oracle.self_s": "s",
    "cli.cached_compute.calls": "count",
    "cli.cached_compute.self_s": "s",
    "trace.wall_s": "s",
}


def _targets(package):
    """(layer, owner, attribute) for every wrapped public function."""
    algebra, invariant, macdonald, oracle, cli = (
        importlib.import_module(f"{package.__name__}.{name}")
        for name in ("algebra", "invariant", "macdonald", "oracle", "cli")
    )
    poly = algebra.LaurentPolynomial
    targets = [
        ("algebra.exact_divide", algebra, "exact_divide"),
        ("algebra.expand_binomial_product", algebra, "expand_binomial_product"),
        ("algebra.mul", poly, "__mul__"),
        ("algebra.mul", poly, "__rmul__"),
        ("algebra.add", poly, "__add__"),
        ("algebra.shifted", poly, "shifted"),
        ("algebra.substitute", poly, "substitute"),
        ("invariant.compute", invariant, "compute"),
        ("invariant.generating_function", invariant, "generating_function"),
        ("invariant.series", invariant.GeneratingFunction, "series"),
        ("cli.cached_compute", cli, "cached_compute"),
    ]
    for name in ("framing_factor", "cell_elementary", "macdonald_dimension",
                 "cauchy_norm", "power_sum_coefficient"):
        targets.append(("macdonald", macdonald, name))
    for name in ("verify_orthogonality", "verify_power_sum_expansion", "verify_dimension",
                 "verify_expansion_limit", "verify_schur_degeneration", "verify_cauchy"):
        targets.append(("oracle", oracle, name))
    return targets


class Tracer:
    """Records spans around the layer functions of one imported package."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counters = _COUNTS.get(layer, {})
        raised = _RAISED.get(layer)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                if raised and type(err).__name__ == raised[1]:
                    key = f"{layer}.{raised[0]}"
                    counts[key] = counts.get(key, 0) + 1
                raise
            finally:
                spans[idx] = (layer, start, perf_counter(), parent)
                stack.pop()
            for metric, count in counters.items():
                key = f"{layer}.{metric}"
                counts[key] = counts.get(key, 0) + count(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        targets = _targets(package)
        modules = [
            mod for name, mod in sys.modules.items()
            if name == package.__name__ or name.startswith(package.__name__ + ".")
        ]
        # Resolve every original first: __rmul__ is the same function as __mul__.
        originals = [
            (layer, owner, vars(owner)[attr]) for layer, owner, attr in targets
        ]
        wrapped: dict[int, object] = {}
        for layer, owner, original in originals:
            if id(original) in wrapped:
                continue
            replacement = wrapped[id(original)] = self._wrap(layer, original)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, name, value))
                        setattr(holder, name, replacement)

    def uninstall(self) -> None:
        for holder, name, value in reversed(self._restore):
            setattr(holder, name, value)
        self._restore.clear()

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Calls, inclusive and self seconds per layer, and the counts."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for idx, (layer, start, end, parent) in enumerate(self.spans):
            totals[f"{layer}.calls"] = totals.get(f"{layer}.calls", 0) + 1
            totals[f"{layer}.self_s"] = totals.get(f"{layer}.self_s", 0.0) + (end - start - child_time[idx])
            # Inclusive time counts only the outermost span of a layer.
            outer = parent
            while outer >= 0 and self.spans[outer][0] != layer:
                outer = self.spans[outer][3]
            if outer < 0:
                totals[f"{layer}.s"] = totals.get(f"{layer}.s", 0.0) + (end - start)
        totals.update(self.counts)
        totals["oracle.checks"] = totals.get("oracle.calls", 0)
        totals["trace.wall_s"] = wall_s
        return {name: totals.get(name, 0) for name in LAYER_METRICS}

    def write(self, path) -> None:
        """Spans as tab-separated ``index layer start end parent`` lines."""
        with open(path, "w") as handle:
            for idx, (layer, start, end, parent) in enumerate(self.spans):
                handle.write(f"{idx}\t{layer}\t{start:.9f}\t{end:.9f}\t{parent}\n")

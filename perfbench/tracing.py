"""Per-layer tracing for the benchmark's traced run.

The hooks wrap module attributes of finspec from the outside: every namespace
in the package that binds the hooked function gets the wrapper, and the
original is put back afterwards.  Each wrapped call records a span (name,
request, parent span, start, end, optional value) in memory; the spans are
aggregated into per-layer counts and self times at the end and can be
written to a file.  A hook whose attribute no longer exists is reported as
absent.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import io
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _rel_gap(args, result, before):
    # solver_residual is a gap in norm units f = 1/d, so gap * d is relative.
    value = getattr(result, "value", None)
    if value is None or value == float("inf") or value == 0:
        return None
    return float(result.solver_residual) * float(value)


def _kelley_converged(args, result, before):
    _, best_f, gap = result
    return 1.0 if gap <= 1e-10 * max(best_f, 1e-12) else 0.0


def _lp_failed(args, result, before):
    return 0.0 if result.success else 1.0


def _bytes_of_arg(args, result, before):
    # Computed, not measured: the complex128 payload of the matrix encoded.
    return 16.0 * getattr(args[0], "size", 0) if args else None


def _bytes_of_result(args, result, before):
    return float(result.nbytes)


def _pairs_checked(args, result, before):
    return float(getattr(result, "pairs_checked", 0))


def _stdout_position():
    out = sys.stdout
    return out.tell() if isinstance(out, io.StringIO) else None


def _emitted_bytes(args, result, before):
    after = _stdout_position()
    if before is None or after is None:
        return None
    return float(after - before)


@dataclass(frozen=True)
class Hook:
    span: str                 # layer span name, e.g. "metric.lp"
    module: str               # finspec submodule that defines the attribute
    attr: str
    value: Callable | None = None
    before: Callable | None = None


HOOKS = (
    Hook("metric.matrix", "metric", "distance_matrix"),
    Hook("metric.connes", "metric", "connes_distance", _rel_gap),
    Hook("metric.slice", "metric", "_minimize_slice"),
    Hook("metric.subgrad", "metric", "_spectral_value_subgrad"),
    Hook("metric.polish", "metric", "minimize"),
    Hook("metric.polish_grad", "metric", "_smoothed_value_grad"),
    Hook("metric.kelley", "metric", "_cutting_plane_refine", _kelley_converged),
    Hook("metric.lp", "metric", "linprog", _lp_failed),
    Hook("metric.coupling", "triple", "coupling_components"),
    Hook("metric.setup", "metric", "_commutator_generators"),
    Hook("metric.setup", "metric", "null_space"),
    Hook("metric.oracle", "metric", "brute_force_distance"),
    Hook("numerics.opnorm", "numerics", "operator_norm"),
    Hook("numerics.codec", "numerics", "matrix_to_json", _bytes_of_arg),
    Hook("numerics.codec", "numerics", "matrix_from_json", _bytes_of_result),
    Hook("triple.validate", "triple", "validate_triple"),
    Hook("triple.real", "triple", "check_real_structure"),
    Hook("triple.decompose", "triple", "decompose"),
    Hook("triple.codec", "triple", "triple_to_json"),
    Hook("triple.codec", "triple", "triple_from_json"),
    Hook("geometry.build", "geometry", "graph_triple"),
    Hook("geometry.geodesic", "geometry", "geodesic_matrix"),
    Hook("geometry.compare", "geometry", "compare_metrics"),
    Hook("category.sf_check", "category", "check_sf_morphism"),
    Hook("category.contraction", "category", "check_pullback_contraction",
         _pairs_checked),
    Hook("category.contraction", "category", "check_metric_morphism"),
    Hook("cli.load", "cli", "_load_json"),
    Hook("cli.emit", "cli", "_emit", _emitted_bytes, _stdout_position),
)

SPANS = tuple(dict.fromkeys(h.span for h in HOOKS))

# What the count of each span measures; "calls" where not listed.
COUNT_NAMES = {"metric.polish": "rounds", "metric.polish_grad": "evals",
               "metric.subgrad": "evals"}

# Metrics computed from span values and counts: name -> unit.
DERIVED = {
    "metric.kelley.converged_ratio": "ratio",
    "metric.lp.fail_ratio": "ratio",
    "metric.lp.calls_per_pair": "calls/pair",
    "metric.coupling.calls_per_matrix": "calls/matrix",
    "metric.rel_gap_max": "ratio",
    "metric.ref_err_max": "ratio",
    "numerics.codec.bytes": "bytes",
    "category.contraction.pairs": "count",
    "cli.emit.bytes": "bytes",
    "other.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# The layers each workload was chosen to load, with the share of the traced
# wall time (inclusive of nested calls) above which a layer counts as loaded:
# about a third of the share measured at the seed commit (seed 1), in the
# comment.  Which end-to-end metric each layer should move, and on which
# workload, is in perfbench/baseline.json.
CHOSEN_FOR = {
    "geodesic_gallery": {
        "polish": (("metric.polish", "metric.polish_grad"), 0.25),    # 0.70
    },
    "cyclic_graphs": {
        "lp": (("metric.lp",), 0.2),                                  # 0.68
        "kelley": (("metric.kelley",), 0.25),                         # 0.77
    },
    "cli_session": {
        "coupling": (("metric.coupling",), 0.1),                      # 0.28
        "codec": (("numerics.codec", "triple.codec"), 0.01),          # 0.027
        "cli": (("cli.load", "cli.emit"), 0.02),                      # 0.045
        "category": (("category.sf_check", "category.contraction"), 0.05),  # 0.13
    },
}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span in SPANS:
        units[f"{span}.{COUNT_NAMES.get(span, 'calls')}"] = "count"
        units[f"{span}.self_s"] = "s"
    units.update(DERIVED)
    return units


class Recorder:
    """In-memory span store; spans are lists
    [span, request, parent, start, end, value]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.request = -1
        self.absent = []
        self._patches = []        # (module, attribute, original, wrapper)
        homes = {}
        for hook in HOOKS:
            try:
                homes[hook.module] = importlib.import_module(f"finspec.{hook.module}")
            except ImportError:
                pass
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "finspec" or name.startswith("finspec."))]
        for hook in HOOKS:
            home = homes.get(hook.module)
            original = vars(home).get(hook.attr) if home else None
            if original is None:
                self.absent.append(f"{hook.module}.{hook.attr}")
                continue
            wrapped = self._wrap(hook, original)
            self._patches += [(mod, hook.attr, original, wrapped) for mod in modules
                              if vars(mod).get(hook.attr) is original]

    def _wrap(self, hook: Hook, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [hook.span, rec.request, rec._stack[-1] if rec._stack else -1,
                    0.0, 0.0, None]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            before = hook.before() if hook.before else None
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                rec._stack.pop()
            if hook.value is not None:
                span[5] = hook.value(args, result, before)
            return result
        return traced

    def install(self):
        """Put the wrapper into every finspec namespace that binds a hook."""
        for mod, attr, _, wrapped in self._patches:
            setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def write(self, path: str):
        """Write the spans as gzipped JSON: {"spans": [[...], ...]}."""
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["span", "request", "parent", "start", "end",
                                  "value"], "spans": self.spans}, fh)

    def layer_metrics(self, rounds: int, traced_wall: float,
                      untraced_wall: float, ref_err_max: float):
        """Per-round counts and self times, plus the derived metrics."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[2] >= 0:
                child[s[2]] += s[4] - s[3]
        self_s = dict.fromkeys(SPANS, 0.0)
        count = dict.fromkeys(SPANS, 0)
        total = dict.fromkeys(SPANS, 0.0)
        peak = dict.fromkeys(SPANS, 0.0)
        for idx, (span, _, _, start, end, value) in enumerate(self.spans):
            self_s[span] += (end - start) - child[idx]
            count[span] += 1
            if value is not None:
                total[span] += value
                peak[span] = max(peak[span], value)

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for span in SPANS:
            out[f"{span}.{COUNT_NAMES.get(span, 'calls')}"] = count[span] / rounds
            out[f"{span}.self_s"] = self_s[span] / rounds
        wall = traced_wall / rounds
        out.update({
            "metric.kelley.converged_ratio":
                ratio(total["metric.kelley"], count["metric.kelley"]),
            "metric.lp.fail_ratio": ratio(total["metric.lp"], count["metric.lp"]),
            "metric.lp.calls_per_pair":
                ratio(count["metric.lp"], count["metric.connes"]),
            "metric.coupling.calls_per_matrix":
                ratio(count["metric.coupling"], count["metric.matrix"]),
            "metric.rel_gap_max": peak["metric.connes"],
            "metric.ref_err_max": ref_err_max,
            "numerics.codec.bytes": total["numerics.codec"] / rounds,
            "category.contraction.pairs": total["category.contraction"] / rounds,
            "cli.emit.bytes": total["cli.emit"] / rounds,
            "other.self_s": wall - sum(self_s.values()) / rounds,
            "trace.wall_s": wall,
            "trace.overhead_s": (traced_wall - untraced_wall) / rounds,
        })
        return out

    def absent_spans(self):
        present = {h.span for h in HOOKS
                   if f"{h.module}.{h.attr}" not in self.absent}
        return [s for s in SPANS if s not in present]

    def chosen_layers(self, workload: str, layer: dict, rounds: int):
        """For each layer the workload was chosen to load: its share of the
        traced wall time, by self time and inclusive of nested calls, and
        whether the inclusive share reaches the layer's threshold."""
        wall = layer["trace.wall_s"]
        report = {}
        for name, (group, threshold) in CHOSEN_FOR.get(workload, {}).items():
            inclusive = 0.0
            for span, _, parent, start, end, _ in self.spans:
                if span not in group:
                    continue
                while parent >= 0 and self.spans[parent][0] not in group:
                    parent = self.spans[parent][2]
                if parent < 0:
                    inclusive += end - start
            share = inclusive / rounds / wall
            report[name] = {
                "self_share": round(sum(layer[f"{s}.self_s"] for s in group) / wall, 4),
                "inclusive_share": round(share, 4),
                "threshold": threshold,
                "loaded": share >= threshold,
            }
        return report

"""Spans around ringlab's public calls, recorded from outside the package.

The tracer replaces selected functions and methods of the imported ringlab
modules with wrappers that record one span per call: label, start, end,
parent span and op id, plus an optional integer size (samples, nodes,
bytes, iterations) taken from the call's arguments or result.  Spans stay
in memory; per-module metrics are computed from them after the run.

A module's self time is the duration of its spans minus the union of their
direct child spans; ``unattributed_s`` is the op's wall time minus every
module's self time.  Run this file to check that arithmetic::

    python3 ringbench/spans.py
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

OP = "op"

# span record fields
LABEL, START, END, PARENT, OPID, SIZE = range(6)


def _len_arg(index: int, key: str) -> Callable:
    def size(args, kwargs, result):
        value = kwargs[key] if key in kwargs else args[index]
        return int(getattr(value, "size", 1))
    return size


def _inner_bytes(args, kwargs, result):
    f, g = args[0], args[1]
    return int(f.values.nbytes + g.values.nbytes)


def _newton_iterations(args, kwargs, result):
    return int(result["iterations"])


def _bytes_written(args, kwargs, result):
    return sum(os.path.getsize(p) for p in result.values())


def _sigma_doublings(args, kwargs, result):
    from ringlab import merotoy
    start = kwargs.get("start", inspect.signature(
        merotoy.choose_sigma_max).parameters["start"].default)
    return int(round(math.log2(result / start)))


#: (module, attribute path, hook giving the span size or None).  The span
#: label is "<module>.<attribute path>".  ``merotoy._gl_line_sum`` is the one
#: private name: it is the Gauss-Legendre pass, the unit of contour work.
TARGETS = (
    ("config", "load_config", None),
    ("config", "ScenarioConfig.__post_init__", None),
    ("pipeline", "run_subcommand", None),
    ("pipeline", "run_pipeline", None),
    ("pipeline", "run_sweep", None),
    ("pipeline", "run_extract", None),
    ("pipeline", "run_prony", None),
    ("pipeline", "run_band_isolate", None),
    ("pipeline", "run_pseudospectrum", None),
    ("pipeline", "run_window_check", None),
    ("signal_model", "sample_scene", None),
    ("signal_model", "eval_scene", _len_arg(3, "t")),
    ("signal_model", "NoiseSpec.eval", _len_arg(1, "t")),
    ("signal_model", "weighted_inner", _inner_bytes),
    ("signal_model", "residual_l2", None),
    ("extractor", "extract", None),
    ("extractor", "epsilon_budget", None),
    ("paramap", "LatticeModel.data_map", None),
    ("paramap", "invert_data", _newton_iterations),
    ("paramap", "inverse_constants", None),
    ("paramap", "bias_bound_2p", None),
    ("merotoy", "random_rational_resolvent", None),
    ("merotoy", "band_subtract", None),
    ("merotoy", "choose_sigma_max", _sigma_doublings),
    ("merotoy", "line_integral", None),
    ("merotoy", "_gl_line_sum", None),
    ("merotoy", "RationalResolvent.eval_many", _len_arg(1, "omega")),
    ("merotoy", "residue_time_term", None),
    ("merotoy", "pseudospectrum_scan", None),
    ("analytic_window", "modified_window", None),
    ("analytic_window", "apply_window_modal", None),
    ("analytic_window", "apply_window_fd", None),
    ("analytic_window", "interp_robustness", None),
    ("analytic_window", "growth_profile", None),
    ("prony2", "prony4", None),
    ("prony2", "conditioning_report", None),
    ("report", "RunReport.write", _bytes_written),
)

MODULES = ("config", "pipeline", "signal_model", "extractor", "paramap",
           "merotoy", "analytic_window", "prony2", "report")


class Tracer:
    """In-memory span recorder that instruments ringlab while installed."""

    def __init__(self):
        self.labels: List[str] = [OP]
        self._ids: Dict[str, int] = {OP: 0}
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: list = []
        self._op: Optional[int] = None
        self._ops = 0

    def _label_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def _wrap(self, fn: Callable, label: str, size: Optional[Callable]) -> Callable:
        label_id = self._label_id(label)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [label_id, clock(), 0.0, stack[-1] if stack else -1, self._op, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if size is not None:
                rec[SIZE] = size(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        """Wrap every target, in each ringlab namespace that binds it."""
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "ringlab" or name.startswith("ringlab.")]
        for module_name, path, size in TARGETS:
            module = importlib.import_module(f"ringlab.{module_name}")
            label = f"{module_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                wrapper = self._wrap(owner.__dict__[attr], label, size)
                self._patches.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, label, size)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def run_op(self, fn: Callable, *args):
        """Call fn(*args) inside a root span; ops are numbered from 0."""
        self._op = self._ops
        self._ops += 1
        rec = [0, time.perf_counter(), 0.0, -1, self._op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args)
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
            self._op = None

    def dump(self) -> dict:
        return {"fields": ["label", "start", "end", "parent", "op", "size"],
                "labels": self.labels, "spans": self.spans}


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def union_length(intervals: Sequence[Sequence[float]]) -> float:
    """Total length covered by a set of [start, end] intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of each span: its duration minus the union of its children."""
    children: Dict[int, list] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for idx in range(len(spans)):
        span = spans[idx]
        covered = [(max(lo, span[START]), min(hi, span[END]))
                   for lo, hi in children.get(idx, ())]
        out.append((span[END] - span[START]) - union_length(covered))
    return out


def module_of(label: str) -> str:
    return label.split(".", 1)[0]


def op_breakdown(labels: Sequence[str], spans: Sequence[Sequence]) -> Dict[int, dict]:
    """Per op: wall time, each module's self time and the unattributed rest."""
    selfs = self_times(spans)
    ops: Dict[int, dict] = {}
    for idx, span in enumerate(spans):
        entry = ops.setdefault(span[OPID], {"wall_s": 0.0, "unattributed_s": 0.0,
                                            "self_s": {m: 0.0 for m in MODULES}})
        label = labels[span[LABEL]]
        if label == OP:
            entry["wall_s"] = span[END] - span[START]
            entry["unattributed_s"] = selfs[idx]
        else:
            entry["self_s"][module_of(label)] += selfs[idx]
    return ops


def pass_metrics(labels: Sequence[str], spans: Sequence[Sequence],
                 n_ops: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, as means per op.

    Counts are exact integers summed over the pass and divided by the op
    count, so two passes over the same inputs give identical counts.
    """
    count: Dict[str, int] = {}
    dur: Dict[str, float] = {}
    size: Dict[str, int] = {}
    gl_nodes = 0
    final_nodes = 0
    last_pass_of: Dict[int, int] = {}
    pass_nodes: Dict[int, int] = {}
    for idx, span in enumerate(spans):
        label = labels[span[LABEL]]
        count[label] = count.get(label, 0) + 1
        dur[label] = dur.get(label, 0.0) + span[END] - span[START]
        size[label] = size.get(label, 0) + span[SIZE]
        parent = span[PARENT]
        if label == "merotoy.RationalResolvent.eval_many" and parent >= 0 \
                and labels[spans[parent][LABEL]] == "merotoy._gl_line_sum":
            gl_nodes += span[SIZE]
            pass_nodes[parent] = pass_nodes.get(parent, 0) + span[SIZE]
        if label == "merotoy._gl_line_sum" and parent >= 0:
            last_pass_of[parent] = idx
    for pass_idx in last_pass_of.values():
        final_nodes += pass_nodes.get(pass_idx, 0)

    ops = op_breakdown(labels, spans)
    per_module = {m: sum(o["self_s"][m] for o in ops.values()) for m in MODULES}
    modules_calls: Dict[str, int] = {}
    for label, n in count.items():
        modules_calls[module_of(label)] = modules_calls.get(module_of(label), 0) + n

    c = lambda label: count.get(label, 0)
    d = lambda label: dur.get(label, 0.0)
    z = lambda label: size.get(label, 0)
    raw = {
        "config.calls": modules_calls.get("config", 0),
        "config.self_s": per_module["config"],
        "pipeline.self_s": per_module["pipeline"],
        "pipeline.scenarios": c("pipeline.run_pipeline"),
        "signal_model.self_s": per_module["signal_model"],
        "signal_model.calls": modules_calls.get("signal_model", 0),
        "signal_model.noise_evals": c("signal_model.NoiseSpec.eval"),
        "signal_model.noise_s": d("signal_model.NoiseSpec.eval"),
        "signal_model.noise_samples": z("signal_model.NoiseSpec.eval"),
        "signal_model.inner_calls": c("signal_model.weighted_inner"),
        "signal_model.inner_s": d("signal_model.weighted_inner"),
        "signal_model.samples_synthesised": z("signal_model.eval_scene"),
        "signal_model.inner_bytes_computed": z("signal_model.weighted_inner"),
        "extractor.self_s": per_module["extractor"],
        "extractor.extract_calls": c("extractor.extract"),
        "paramap.self_s": per_module["paramap"],
        "paramap.inverse_constants_s": d("paramap.inverse_constants"),
        "paramap.invert_data_s": d("paramap.invert_data"),
        "paramap.data_map_evals": c("paramap.LatticeModel.data_map"),
        "paramap.newton_iterations": z("paramap.invert_data"),
        "merotoy.self_s": per_module["merotoy"],
        "merotoy.line_integrals": c("merotoy.line_integral"),
        "merotoy.line_integral_s": d("merotoy.line_integral"),
        "merotoy.gl_passes": c("merotoy._gl_line_sum"),
        "merotoy.resolvent_nodes": gl_nodes,
        "merotoy.residue_s": d("merotoy.residue_time_term"),
        "merotoy.sigma_max_doublings": z("merotoy.choose_sigma_max"),
        "merotoy.pseudospectrum_s": d("merotoy.pseudospectrum_scan"),
        "analytic_window.self_s": per_module["analytic_window"],
        "analytic_window.calls": modules_calls.get("analytic_window", 0),
        "prony2.self_s": per_module["prony2"],
        "prony2.calls": modules_calls.get("prony2", 0),
        "report.self_s": per_module["report"],
        "report.write_s": d("report.RunReport.write"),
        "report.bytes_written": z("report.RunReport.write"),
        "unattributed_s": sum(o["unattributed_s"] for o in ops.values()),
        "op_wall_s": sum(o["wall_s"] for o in ops.values()),
    }
    out = {k: v / n_ops for k, v in raw.items()}
    out["merotoy.useful_node_ratio"] = final_nodes / gl_nodes if gl_nodes else 0.0
    return out


def counts_under(labels, spans, ancestor: str,
                 counted: Sequence[str]) -> List[Dict[str, int]]:
    """For each span labelled ``ancestor``, how many spans of each counted label it holds."""
    roots = {i for i, span in enumerate(spans) if labels[span[LABEL]] == ancestor}
    out = {i: {label: 0 for label in counted} for i in roots}
    for span in spans:
        label = labels[span[LABEL]]
        if label not in counted:
            continue
        parent = span[PARENT]
        while parent >= 0 and parent not in roots:
            parent = spans[parent][PARENT]
        if parent in roots:
            out[parent][label] += 1
    return [out[i] for i in sorted(roots)]


def check_sum_identity(labels, spans, tol: float = 1e-9) -> List[str]:
    """Each op: modules' self_s plus unattributed_s equals the op wall time."""
    problems = []
    for op_id, entry in op_breakdown(labels, spans).items():
        total = sum(entry["self_s"].values()) + entry["unattributed_s"]
        if abs(total - entry["wall_s"]) > tol or entry["unattributed_s"] < -tol:
            problems.append(f"op {op_id}: self times sum to {total!r}, "
                            f"wall {entry['wall_s']!r}")
    return problems


def selftest() -> List[str]:
    """Self-time arithmetic on hand-made spans; returns a list of failures."""
    labels = [OP, "merotoy.line_integral", "merotoy._gl_line_sum",
              "merotoy.RationalResolvent.eval_many", "report.RunReport.write",
              "paramap.LatticeModel.data_map"]
    spans = [
        [0, 0.0, 10.0, -1, 0, 0],   # op
        [1, 1.0, 6.0, 0, 0, 0],     # line integral
        [2, 2.0, 3.0, 1, 0, 0],     # first pass, nested
        [3, 2.2, 2.8, 2, 0, 20],    # nodes of the first pass
        [2, 3.0, 5.0, 1, 0, 0],     # second pass, back to back with the first
        [3, 3.5, 4.5, 4, 0, 40],    # nodes of the second (final) pass
        [4, 6.0, 9.0, 0, 0, 0],     # report write, back to back with the integral
        [5, 6.0, 9.0, 6, 0, 0],     # child covering its parent entirely
    ]
    failures = []
    want_self = {0: 2.0, 1: 2.0, 2: 0.4, 3: 0.6, 4: 1.0, 5: 1.0, 6: 0.0, 7: 3.0}
    got = self_times(spans)
    for idx, want in want_self.items():
        if abs(got[idx] - want) > 1e-12:
            failures.append(f"span {idx}: self {got[idx]} != {want}")
    entry = op_breakdown(labels, spans)[0]
    if abs(entry["self_s"]["merotoy"] - 5.0) > 1e-12:
        failures.append(f"merotoy self {entry['self_s']['merotoy']} != 5")
    if abs(entry["self_s"]["report"]) > 1e-12 or abs(entry["self_s"]["paramap"] - 3.0) > 1e-12:
        failures.append("report/paramap self times wrong")
    if abs(entry["unattributed_s"] - 2.0) > 1e-12:
        failures.append(f"unattributed {entry['unattributed_s']} != 2")
    failures += check_sum_identity(labels, spans)
    for intervals, want in (([(1, 4), (3, 6)], 5.0), ([(1, 2), (2, 3)], 2.0),
                            ([(0, 5), (1, 2)], 5.0), ([], 0.0)):
        if union_length(intervals) != want:
            failures.append(f"union of {intervals} != {want}")
    metrics = pass_metrics(labels, spans, 1)
    if metrics["merotoy.gl_passes"] != 2 or metrics["merotoy.resolvent_nodes"] != 60:
        failures.append("pass or node count wrong")
    if metrics["merotoy.useful_node_ratio"] != 40 / 60:
        failures.append("useful node ratio wrong")
    return failures


if __name__ == "__main__":
    problems = selftest()
    for p in problems:
        print(p)
    print("trace self-time arithmetic:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)

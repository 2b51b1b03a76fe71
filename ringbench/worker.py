"""Workload process: one closed-loop client that issues the next op only
after the previous one has finished.

Protocol with ``run.py``: after set-up (imports, input generation, one
untimed warm-up op) it prints one ``READY`` JSON line, then reads a command
line from stdin: ``quit`` ends the process, ``run`` runs the timed phase
(or, with ``--trace 1``, the traced phase) and prints one result JSON line.
Anything ringlab prints goes to stderr, so stdout carries only the protocol.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

#: Counts known on the seed code.  Each check runs only while the listed
#: sources still have the seed's sha256 prefix; a change to them is expected
#: to move the counts on purpose.
SEED_SOURCES = {
    "config.py": "f30b1526892767f5",
    "extractor.py": "44899d69f3c40cda",
    "merotoy.py": "dcd0d7b9417e49e2",
    "paramap.py": "e5f1722a299e7b6c",
    "pipeline.py": "e062e54139e6a87b",
    "signal_model.py": "397b89cfb56f7f7a",
}
SCENARIO_COUNTS = {
    "ell-sweep": ({"paramap.LatticeModel.data_map": 147},
                  ("config.py", "paramap.py", "pipeline.py")),
    "lcg-long-grid": ({"paramap.LatticeModel.data_map": 147,
                       "signal_model.NoiseSpec.eval": 4},
                      ("config.py", "paramap.py", "pipeline.py", "signal_model.py",
                       "extractor.py")),
}
BAND_DEMO_COUNTS = ({"merotoy.line_integrals": 60, "merotoy.gl_passes": 171,
                     "merotoy.resolvent_nodes": 407840}, ("merotoy.py", "pipeline.py"))


def seed_code(src: Path, files) -> bool:
    return all(hashlib.sha256((src / "ringlab" / f).read_bytes()).hexdigest()
               .startswith(SEED_SOURCES[f]) for f in files)


class Inputs:
    """Op inputs generated from the seed, in order; extended on demand."""

    def __init__(self, make, seed: int, prefetch: int):
        self.make, self.seed = make, seed
        self.items = [make(seed, i) for i in range(prefetch)]

    def __getitem__(self, i: int):
        while len(self.items) <= i:
            self.items.append(self.make(self.seed, len(self.items)))
        return self.items[i]


def call(fn, *args):
    """Run one op; an exception is the op's failure, not the client's."""
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001  every op error is a counted failure
        return None, f"{type(exc).__name__}: {exc}"


def threads_now() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 1


def outcome(wl, result, error) -> tuple:
    """(problems, rows fingerprint) of one op; the result itself is dropped,
    so the client holds no growing state across ops."""
    problems = [error] if error else wl.check(result)
    if problems:
        return problems, None
    return problems, hashlib.sha256(wl.digest(result).encode()).hexdigest()


def timed_phase(wl, inputs: Inputs, seconds: float, workdir: Path) -> dict:
    durations, outcomes = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        i = len(durations)
        out = workdir / f"op{i}"
        t0 = time.perf_counter()
        result, error = call(wl.run, inputs[i], out)
        durations.append(time.perf_counter() - t0)
        outcomes.append(outcome(wl, result, error))
        shutil.rmtree(out, ignore_errors=True)
    wall = time.perf_counter() - start
    who = resource.RUSAGE_CHILDREN if wl.subprocess_ops else resource.RUSAGE_SELF
    peak_kib = resource.getrusage(who).ru_maxrss
    threads = threads_now()

    # Determinism: identical input must give identical rows.  CLI ops are
    # compared with one in-process run of the same config; in-process ops
    # are run again at five points of the phase.
    n = len(durations)
    if wl.subprocess_ops:
        again = range(n)
    else:
        again = sorted({0, n // 4, n // 2, (3 * n) // 4, n - 1})
    reference = {}
    for i in again:
        problems, digest = outcomes[i]
        key = inputs[i] if wl.subprocess_ops else i
        if key not in reference:
            ref_out = workdir / f"again{i}"
            reference[key] = outcome(wl, *call(wl.run_inprocess, inputs[i], ref_out))
            shutil.rmtree(ref_out, ignore_errors=True)
        if digest is not None and reference[key][1] != digest:
            problems.append(f"rerun on identical input gave different rows "
                            f"({reference[key][0]})")
    failed = [i for i in range(n) if outcomes[i][0]]
    problems = [f"op {i}: {p}" for i in failed for p in outcomes[i][0]]
    return {"attempted": n, "failed": len(failed), "problems": problems[:20],
            "durations": durations, "wall_s": wall,
            "peak_rss_kib": peak_kib, "threads": threads}


def traced_phase(wl, inputs: Inputs, seconds: float, workdir: Path,
                 src: Path, trace_out: Path) -> dict:
    """Alternate untraced and traced passes over the first ``trace_ops`` inputs."""
    problems = [f"selftest: {p}" for p in spans.selftest()]
    n = wl.trace_ops
    pass_inputs = [inputs[i] for i in range(n)]
    attempted, failed = 0, 0
    digests = {}
    untraced_s, traced_s, per_pass = [], [], []
    first_trace = None
    start = time.perf_counter()
    p = 0
    while p == 0 or time.perf_counter() - start < seconds:
        for traced in (False, True):
            tracer = spans.Tracer()
            run = functools.partial(tracer.run_op, wl.run_inprocess)
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            results = [call(run if traced else wl.run_inprocess, inp, workdir / f"op{k}")
                       for k, inp in enumerate(pass_inputs)]
            (traced_s if traced else untraced_s).append(time.perf_counter() - t0)
            if traced:
                tracer.uninstall()
                per_pass.append(spans.pass_metrics(tracer.labels, tracer.spans, n))
                problems += spans.check_sum_identity(tracer.labels, tracer.spans)
                problems += scenario_count_problems(wl.name, tracer, src)
                first_trace = first_trace or tracer
            for k, (result, error) in enumerate(results):
                attempted += 1
                msgs = [error] if error else wl.check(result)
                if not msgs and digests.setdefault(k, wl.digest(result)) != wl.digest(result):
                    msgs.append("identical input gave different rows")
                failed += bool(msgs)
                problems += [f"pass {p} op {k}: {m}" for m in msgs]
            shutil.rmtree(workdir, ignore_errors=True)
        p += 1

    for name in per_pass[0]:
        if not name.endswith("_s") and any(m[name] != per_pass[0][name] for m in per_pass):
            problems.append(f"count {name} differs between traced passes")
    if wl.name == "band-isolate" and seed_code(src, BAND_DEMO_COUNTS[1]):
        tracer = spans.Tracer()
        tracer.install()
        _, error = call(tracer.run_op, wl.run_inprocess, workloads.BAND_DEMO, workdir)
        tracer.uninstall()
        demo = spans.pass_metrics(tracer.labels, tracer.spans, 1)
        for name, want in BAND_DEMO_COUNTS[0].items():
            if error or demo[name] != want:
                problems.append(f"band_isolate.yaml: {name} = {demo[name]}, want {want}")

    trace_out.parent.mkdir(parents=True, exist_ok=True)
    trace_out.write_text(json.dumps(first_trace.dump()), encoding="utf-8")
    # Times come from the traced pass of median wall time, so the reported
    # self times and unattributed_s still sum to the reported op_wall_s.
    walls = [m["op_wall_s"] for m in per_pass]
    mid = per_pass[walls.index(statistics.median_low(walls))]
    metrics = {name: (mid if name.endswith("_s") else per_pass[0])[name]
               for name in per_pass[0]}
    metrics["trace.untraced_ops_per_s"] = statistics.median([n / w for w in untraced_s])
    metrics["trace.traced_ops_per_s"] = statistics.median([n / w for w in traced_s])
    return {"attempted": attempted, "failed": failed, "problems": problems[:20],
            "metrics": metrics, "passes": p, "threads": threads_now()}


def scenario_count_problems(name: str, tracer, src: Path) -> list:
    if name not in SCENARIO_COUNTS or not seed_code(src, SCENARIO_COUNTS[name][1]):
        return []
    want = SCENARIO_COUNTS[name][0]
    problems = []
    for n, got in enumerate(spans.counts_under(tracer.labels, tracer.spans,
                                               "pipeline.run_pipeline", list(want))):
        if got != want:
            problems.append(f"scenario {n}: counts {got}, want {want}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args()
    proto, sys.stdout = sys.stdout, sys.stderr

    wl = workloads.make(args.workload)
    t0 = time.perf_counter()
    wl.prepare(args.workdir)
    t1 = time.perf_counter()
    inputs = Inputs(wl.make_input, args.seed, prefetch=64)
    t2 = time.perf_counter()
    run = wl.run if not args.trace else wl.run_inprocess
    # The warm-up input is the same for every seed, so setup_s does not vary
    # with the cost of a seeded input.
    _, error = call(run, wl.make_input(0, -1), args.workdir / "warmup")
    t3 = time.perf_counter()
    if error:
        print(f"warm-up op failed: {error}", file=sys.stderr)
        return 1
    print(json.dumps({"ready": True, "prepare_s": t1 - t0, "generate_s": t2 - t1,
                      "warmup_s": t3 - t2}), file=proto, flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0
    if args.trace:
        out = traced_phase(wl, inputs, args.seconds, args.workdir / "ops", args.src,
                           args.trace_out)
    else:
        out = timed_phase(wl, inputs, args.seconds, args.workdir / "ops")
    print(json.dumps(out), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Informational scaling probe, not a workload and not gated.

One untimed-then-traced pass of the ``lcg-long-grid`` op at 200, 20k and
200k samples, and of the ``ell-sweep`` op at 3, 40 and 400 points.  Prints
one JSON document with each op's untraced wall time and its per-module
metrics from the traced pass.  Started by ``run.py --scaling``, which sets
the environment and records provenance.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import spans
import workloads


def probe(wl, inp) -> dict:
    t0 = time.perf_counter()
    report = wl.run(inp, None)
    op_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.run_op(wl.run, inp, None)
    finally:
        tracer.uninstall()
    metrics = spans.pass_metrics(tracer.labels, tracer.spans, 1)
    return {"op_s": op_s, "problems": wl.check(report),
            "metrics": {k: v for k, v in metrics.items() if v}}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    proto, sys.stdout = sys.stdout, sys.stderr
    out = {}
    lcg = workloads.make("lcg-long-grid")
    lcg.prepare(None)
    for samples in (200, 20000, 200000):
        out[f"lcg-long-grid/samples={samples}"] = probe(
            lcg, workloads.lcg_input(args.seed, 0, samples=samples))
    ell = workloads.make("ell-sweep")
    ell.prepare(None)
    for points in (3, 40, 400):
        out[f"ell-sweep/points={points}"] = probe(
            ell, workloads.ell_sweep_input(args.seed, 0, points=points))
    print(json.dumps(out), file=proto)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""ringlab benchmark: one command that runs a workload, checks its outputs and
prints every metric by name with its unit.

    python3 ringbench/run.py --workload ell-sweep --seed 1 --seconds 15 --trace 0
    python3 ringbench/run.py --workload all --seed 1     # every workload, one table
    python3 ringbench/run.py --scaling --seed 1          # informational scaling probe

Run it from anywhere inside a ringlab checkout; it benchmarks ``src/`` of
that checkout.  Workloads, metric names and units come from
``BENCHMARK.json`` at the checkout root.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Run records and span dumps are written under
``.ringbench/`` in the checkout.

Each workload runs in fresh worker processes (``worker.py``).  ``setup_s`` is
the time from spawning one until it is ready to issue its first timed op;
it is measured on ``SETUPS`` spawns and reported as the median.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".ringbench"
SETUPS = 5
STARTUP_SPAWNS = 3
DEADLINE_S = 170

_children: list = []


class Deadline(Exception):
    pass


def child_env() -> dict:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    # bytecode caches are written next to the sources and reused
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def spawn(argv: list, **kwargs) -> subprocess.Popen:
    """Start a child in its own process group, so reap() also ends its children."""
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, start_new_session=True,
                            **kwargs)
    _children.append(proc)
    return proc


def reap(proc: subprocess.Popen):
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()
    if proc in _children:
        _children.remove(proc)


def read_json_line(proc: subprocess.Popen) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"worker exited with code {proc.wait()} before replying")
    return json.loads(line)


def run_worker(workload: str, seed: int, seconds: float, trace: int, tag: str,
               setups: int) -> tuple:
    """Spawn ``setups`` workers, timing each until ready; the last one runs."""
    setup_s, result = [], None
    for k in range(setups):
        workdir = STATE / f"work-{os.getpid()}-{tag}-{k}"
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                "--workdir", str(workdir), "--src", str(SRC),
                "--trace-out", str(STATE / "traces" / f"{workload}-seed{seed}.json")]
        t0 = time.perf_counter()
        proc = spawn(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            read_json_line(proc)
            setup_s.append(time.perf_counter() - t0)
            last = k == setups - 1
            proc.stdin.write("run\n" if last else "quit\n")
            proc.stdin.flush()
            if last:
                result = read_json_line(proc)
            proc.stdin.close()
            if proc.wait() != 0:
                raise RuntimeError(f"worker exited with code {proc.returncode}")
        finally:
            reap(proc)
            shutil.rmtree(workdir, ignore_errors=True)
    return setup_s, result


# ---------------------------------------------------------------------------
# start-up, from -X importtime
# ---------------------------------------------------------------------------

_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s+)(\S+)")


def import_times(stderr: str) -> dict:
    """Cumulative import seconds of ringlab, numpy, scipy and yaml.

    ringlab counts its outermost entries.  numpy, scipy and yaml count their
    entries that no other of the three imported, so the three are disjoint:
    numpy submodules that only scipy loads count as scipy.
    """
    entries = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2)) * 1e-6))
    totals = {"ringlab": 0.0, "numpy": 0.0, "scipy": 0.0, "yaml": 0.0}
    # importtime prints children before parents; walk it parents-first
    open_pkgs: list = []
    for depth, name, cumulative in reversed(entries):
        del open_pkgs[depth:]
        pkg = name.split(".")[0]
        owners = {pkg} if pkg == "ringlab" else {"numpy", "scipy", "yaml"}
        if pkg in totals and not owners.intersection(open_pkgs):
            totals[pkg] += cumulative
        open_pkgs.extend([None] * (depth - len(open_pkgs)))
        open_pkgs.append(pkg)
    return totals


def startup_metrics() -> dict:
    samples = {k: [] for k in ("interpreter", "ringlab", "numpy", "scipy", "yaml")}
    for _ in range(STARTUP_SPAWNS):
        t0 = time.perf_counter()
        proc = spawn([sys.executable, "-c", "pass"])
        proc.wait()
        reap(proc)
        samples["interpreter"].append(time.perf_counter() - t0)
        proc = spawn([sys.executable, "-X", "importtime", "-c", "import ringlab.cli"],
                     stderr=subprocess.PIPE, text=True)
        _, err = proc.communicate()
        reap(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"import ringlab.cli failed: {err[-400:]}")
        for k, v in import_times(err).items():
            samples[k].append(v)
    return {"startup.interpreter_s": statistics.median(samples["interpreter"]),
            "startup.import_ringlab_s": statistics.median(samples["ringlab"]),
            "startup.import_numpy_s": statistics.median(samples["numpy"]),
            "startup.import_scipy_s": statistics.median(samples["scipy"]),
            "startup.import_yaml_s": statistics.median(samples["yaml"])}


# ---------------------------------------------------------------------------
# provenance and metrics
# ---------------------------------------------------------------------------

def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ringlab").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    return {"seed": seed, "git_commit": commit, "src_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "pyyaml": version("PyYAML")}


def end_to_end(setup_s: list, res: dict) -> dict:
    durations = res["durations"]
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(durations) / res["wall_s"],
        "op_p50_s": statistics.median(durations),
        "op_p90_s": (statistics.quantiles(durations, n=10, method="inclusive")[8]
                     if len(durations) > 1 else durations[0]),
        "peak_rss_mb": res["peak_rss_kib"] / 1024.0,
        "ok_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
    }


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    prov = provenance(seed)
    if trace:
        startup = startup_metrics()
        setup_s, res = run_worker(workload, seed, seconds, 1, "trace", setups=1)
        metrics = {**startup, **res["metrics"]}
        wanted = spec["per_layer"]
        extra = {"passes": res["passes"],
                 "trace_file": str(STATE / "traces" / f"{workload}-seed{seed}.json")}
    else:
        setup_s, res = run_worker(workload, seed, seconds, 0, "run", setups=SETUPS)
        metrics = end_to_end(setup_s, res)
        wanted = spec["end_to_end"]
        extra = {"setup_samples_s": setup_s,
                 "failed_ratio": res["failed"] / res["attempted"]}
    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    problems = list(res["problems"])
    if res["threads"] > prov["nproc"]:
        problems.append(f"workload process ran {res['threads']} threads > nproc")
    record = {"workload": workload, "trace": trace, "seconds": seconds,
              "provenance": prov, "correct": not problems,
              "attempted": res["attempted"], "failed": res["failed"],
              "problems": problems, "metrics": metrics, **extra}
    if not trace:
        record["durations_s"] = res["durations"]
    runs = STATE / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return {"record": record, "units": {m["name"]: m["unit"] for m in wanted}}


def print_table(workload: str, why: str, out: dict):
    rec = out["record"]
    print(f"== {workload}: {why}")
    print(f"   seed {rec['provenance']['seed']}, {rec['attempted']} ops, "
          f"{rec['failed']} failed, outputs {'correct' if rec['correct'] else 'WRONG'}")
    for p in rec["problems"]:
        print(f"   problem: {p}")
    for name, unit in out["units"].items():
        print(f"   {name:<38} {rec['metrics'][name]:>14.6g} {unit}")
    if "failed_ratio" in rec:
        print(f"   {'failed_ratio':<38} {rec['failed_ratio']:>14.6g} 1")


def result_line(outs: dict) -> dict:
    metrics = {}
    for workload, out in outs.items():
        prefix = f"{workload}." if len(outs) > 1 else ""
        for name, unit in out["units"].items():
            metrics[prefix + name] = {"value": out["record"]["metrics"][name], "unit": unit}
    recs = [o["record"] for o in outs.values()]
    return {"correct": all(r["correct"] for r in recs),
            "attempted": sum(r["attempted"] for r in recs),
            "failed": sum(r["failed"] for r in recs), "metrics": metrics}


def scaling(seed: int):
    proc = spawn([sys.executable, str(HERE / "scaling.py"), "--seed", str(seed)],
                 stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate()
    reap(proc)
    if proc.returncode != 0:
        raise RuntimeError("scaling probe failed")
    doc = {"provenance": provenance(seed), "probe": json.loads(out)}
    STATE.mkdir(exist_ok=True)
    (STATE / "scaling.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
    print(json.dumps(doc, indent=1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scaling", action="store_true")
    args = ap.parse_args()

    if not (SRC / "ringlab" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no ringlab checkout at {ROOT} (need src/ringlab and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    names = list(whys) if args.workload == "all" else [args.workload]
    if any(n not in whys for n in names):
        print(f"unknown workload {args.workload!r}; choose from {list(whys)} or all",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    def on_alarm(signum, frame):
        raise Deadline(f"benchmark exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(DEADLINE_S)
    STATE.mkdir(exist_ok=True)
    try:
        compileall.compile_dir(str(SRC / "ringlab"), quiet=1)
        if args.scaling:
            scaling(args.seed)
            return 0
        outs = {}
        for name in names:
            signal.alarm(DEADLINE_S)
            outs[name] = run_one(spec, name, args.seed, seconds, args.trace)
            signal.alarm(0)
            print_table(name, whys[name], outs[name])
    except (Deadline, RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        for proc in list(_children):
            reap(proc)
    print(json.dumps(result_line(outs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

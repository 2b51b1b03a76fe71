"""The four benchmark workloads: seeded inputs, one op each, output checks.

Every input is generated here from the workload seed; ringlab receives only
those inputs (YAML files for ``cli-demos``, ``ScenarioConfig`` dicts for the
in-process workloads).  Generation uses ``random.Random`` with string seeds,
which is stable across Python versions and independent of hash seeding.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import subprocess
import sys
from pathlib import Path
from typing import List

# The nine shipped demo configs other than band_isolate.yaml, with the
# subcommand each one is run through.
CLI_DEMOS = {
    "canonical": ("pipeline", """\
lattice:
  M: 1.0
  a: 0.08
  Lambda: 0.02
  kappa: 0.3
  damping: {kind: constant, value: 0.2}
  ell: 100
  overtone: 0
tail: {c: 1.0, nu: 0.5, m: 2}
observation: {T0: 4.0, T: 10.0, Delta: 1.0, dt: 0.05, taper: raised-cosine}
inversion:
  mode: 2p
  box: {M: [0.9, 1.1], a: [0.0, 0.15]}
"""),
    "three_param": ("pipeline", """\
lattice:
  M: 1.0
  a: 0.08
  Lambda: 0.02
  damping: {kind: gap_over_mass}
  ell: 100
tail: {c: 0.5, nu: 0.5, m: 2}
observation: {T0: 4.0, T: 10.0, Delta: 1.0, dt: 0.05}
inversion:
  mode: 3p
  box: {M: [0.9, 1.1], a: [0.02, 0.15], Lambda: [0.01, 0.03]}
"""),
    "windowed_overtone": ("pipeline", """\
lattice:
  M: 1.0
  a: 0.08
  Lambda: 0.02
  damping: {kind: constant, value: 0.2}
  ell: 100
  overtone: 1
modes:
  amp_plus: [1.0, 0.0]
  amp_minus: [1.0, 0.0]
  contaminants:
    - {j: 0, sign: 1, amp: [0.5, 0.0]}
    - {j: 0, sign: -1, amp: [0.5, 0.0]}
tail: {c: 0.2, nu: 0.5, m: 2}
observation: {T0: 4.0, T: 10.0, Delta: 1.0, dt: 0.05}
window: {enabled: true, n: 1, m0: 3, prior: exact, path: modal}
inversion:
  mode: 2p
  box: {M: [0.9, 1.1], a: [0.0, 0.15]}
"""),
    "sweep_ell": ("sweep", """\
lattice:
  M: 1.0
  a: 0.08
  Lambda: 0.02
  damping: {kind: constant, value: 0.2}
  ell: 100
tail: {c: 1.0, nu: 0.5, m: 2}
observation: {T0: 4.0, T: 10.0, Delta: 1.0, dt: 0.05}
inversion:
  mode: 2p
  box: {M: [0.9, 1.1], a: [0.0, 0.15]}
sweep: {axis: ell, values: [50, 100, 200]}
"""),
    "extract": ("extract", """\
lattice:
  M: 1.0
  a: 0.08
  Lambda: 0.02
  damping: {kind: constant, value: 0.2}
  ell: 100
tail: {c: 1.0, nu: 0.5, m: 2}
noise:
  harmonics: [[0.001, 3.0, 0.4]]
observation: {T0: 4.0, T: 10.0, Delta: 1.0, dt: 0.05}
"""),
    "prony": ("prony", """\
prony:
  samples: [[2, 0], [1.4, 0], [1.06, 0], [0.854, 0]]
"""),
    "prony_conditioning": ("prony", """\
prony:
  amps: [[1, 0], [1, 0]]
  nodes: [[0.9, 0], [0.5, 0]]
  eta: 1.0e-8
"""),
    "pseudospectrum": ("pseudospectrum", """\
pseudospectrum:
  poles: [[0.0, -1.0], [1.0, -1.0]]
  e_plus: 1.0
  e_minus: 1.0
  hol_bound: 0.1
  eps: [1.0e-1, 1.0e-2, 1.0e-3, 1.0e-4]
  grid_n: 400
"""),
    "window_check": ("window-check", """\
window_check:
  nodes: [[2.0, -0.1], [2.0, -0.3], [2.0, -0.5]]
  m0: 4
  n_draws: 200
  nu: 0.5
  sigma_max: 100.0
"""),
}

#: canonical.yaml as a dict: the scenario the in-process workloads vary
CANONICAL = {
    "lattice": {"M": 1.0, "a": 0.08, "Lambda": 0.02, "kappa": 0.3,
                "damping": {"kind": "constant", "value": 0.2},
                "ell": 100, "overtone": 0},
    "tail": {"c": 1.0, "nu": 0.5, "m": 2},
    "observation": {"T0": 4.0, "T": 10.0, "Delta": 1.0, "dt": 0.05,
                    "taper": "raised-cosine"},
    "inversion": {"mode": "2p", "box": {"M": [0.9, 1.1], "a": [0.0, 0.15]}},
}

#: band_isolate.yaml as a dict, for the known-count self-check
BAND_DEMO = {"band_isolate": {"n_models": 10, "seed": 7, "nu1": 0.3, "nu2": 2.3,
                              "times": [1.0, 2.0, 5.0], "forcing_k": 6, "tol": 1e-6}}


def _rng(workload: str, seed: int, index) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def ell_sweep_input(seed: int, i: int, points: int = 40) -> dict:
    rng = _rng("ell-sweep", seed, i)
    cfg = copy.deepcopy(CANONICAL)
    cfg["sweep"] = {"axis": "ell", "values": [rng.randint(50, 400) for _ in range(points)]}
    return cfg


def lcg_input(seed: int, i: int, samples: int = 20000) -> dict:
    rng = _rng("lcg-long-grid", seed, i)
    cfg = copy.deepcopy(CANONICAL)
    cfg["observation"]["dt"] = cfg["observation"]["T"] / samples
    cfg["noise"] = {"lcg": {"seed": rng.getrandbits(63), "amplitude": 1e-3}}
    cfg["sweep"] = {"axis": "noise_amp",
                    "values": [round(rng.uniform(0.25, 4.0), 6) for _ in range(4)]}
    return cfg


def band_input(seed: int, i: int) -> dict:
    """Op i's model; each pass of 15 ops covers every (dim, n_poles) pair once."""
    shapes = [(dim, poles) for dim in (1, 2, 3) for poles in (1, 2, 3, 4, 5)]
    _rng("band-isolate", seed, f"pass{i // len(shapes)}").shuffle(shapes)
    dim, n_poles = shapes[i % len(shapes)]
    return {"band_isolate": {
        "n_models": 1, "seed": _rng("band-isolate", seed, i).randrange(2**31),
        "dim": dim, "n_poles": n_poles, "forcing_k": 6, "nu1": 0.3, "nu2": 2.3,
        "times": [1.0, 2.0, 5.0], "tol": 1e-6}}


def cli_input(seed: int, i: int) -> str:
    """Demo config name of op i: the seed shuffles the order within each pass."""
    names = sorted(CLI_DEMOS)
    _rng("cli-demos", seed, i // len(names)).shuffle(names)
    return names[i % len(names)]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _above(row: dict, value: str, bound: str, strict: bool = False) -> bool:
    v, b = row.get(value), row.get(bound)
    if v is None or b is None:
        return False
    return v >= b if strict else v > b


def check_rows(rows: List[dict]) -> List[str]:
    """Certified pairs read back from report rows; an entry per breach."""
    problems = []
    for n, row in enumerate(rows):
        if row.get("failed"):
            problems.append(f"row {n}: failed: {row.get('error')}")
        for suffix in ("_plus", "_minus", ""):
            if row.get("hyp_eps_small" + suffix) and _above(
                    row, "omega_err" + suffix, "bound_omega" + suffix):
                problems.append(f"row {n}: omega_err{suffix} > bound_omega{suffix}")
        if _above(row, "data_err", "data_bound"):
            problems.append(f"row {n}: data_err > data_bound")
        if row.get("hyp_bias") and _above(row, "param_err", "bias_bound_2p"):
            problems.append(f"row {n}: param_err > bias_bound_2p")
        if _above(row, "mismatch", "tol", strict=True):
            problems.append(f"row {n}: mismatch >= tol")
        for flag in ("inclusion_holds", "ok"):
            if flag in row and not row[flag]:
                problems.append(f"row {n}: {flag} is false")
    return problems


def rows_digest(rows: List[dict]) -> str:
    """Exact serialisation of report rows, for the determinism check."""
    return json.dumps(rows, sort_keys=True, default=repr)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class InProcess:
    """One op = one pipeline driver call on a ScenarioConfig built from a dict."""

    subprocess_ops = False

    def __init__(self, name: str, make_input, driver: str, trace_ops: int):
        self.name = name
        self.make_input = make_input
        self.driver = driver
        self.trace_ops = trace_ops

    def prepare(self, workdir: Path):
        from ringlab import cli  # noqa: F401  (the CLI import chain, as users load it)
        from ringlab import pipeline
        from ringlab.config import ScenarioConfig
        self._config = ScenarioConfig
        self._pipeline = pipeline

    def run(self, inp: dict, out_dir: Path):
        return getattr(self._pipeline, self.driver)(self._config(raw=inp))

    run_inprocess = run

    def check(self, report) -> List[str]:
        return list(report.violations) + check_rows(report.rows)

    def digest(self, report) -> str:
        return rows_digest(report.rows)


class CliDemos:
    """One op = one fresh ``python -m ringlab.cli`` process on a demo config."""

    name = "cli-demos"
    subprocess_ops = True
    trace_ops = len(CLI_DEMOS)

    make_input = staticmethod(cli_input)

    def prepare(self, workdir: Path):
        self.config_dir = workdir / "configs"
        self.config_dir.mkdir(parents=True, exist_ok=True)
        for name, (_, text) in CLI_DEMOS.items():
            (self.config_dir / f"{name}.yaml").write_text(text, encoding="utf-8")

    def argv(self, name: str, out_dir: Path) -> List[str]:
        sub = CLI_DEMOS[name][0]
        return [sub, "--config", str(self.config_dir / f"{name}.yaml"), "--out", str(out_dir)]

    def run(self, name: str, out_dir: Path):
        proc = subprocess.run([sys.executable, "-m", "ringlab.cli"] + self.argv(name, out_dir),
                              capture_output=True, timeout=120)
        return {"code": proc.returncode, "out": out_dir, "stderr": proc.stderr[-400:]}

    def run_inprocess(self, name: str, out_dir: Path):
        from ringlab import cli
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(self.argv(name, out_dir))
        return {"code": code, "out": out_dir, "stderr": err.getvalue()[-400:]}

    def check(self, result: dict) -> List[str]:
        if result["code"] != 0:
            return [f"exit code {result['code']}: {result['stderr']!r}"]
        try:
            doc = json.loads((result["out"] / "report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"report.json unreadable: {exc}"]
        problems = [str(v) for v in doc.get("violations", [])]
        if not doc.get("ok", False):
            problems.append("report ok is false")
        return problems + check_rows(doc.get("rows", []))

    def digest(self, result: dict) -> str:
        return (result["out"] / "report.csv").read_bytes().hex()


def make(name: str):
    if name == "cli-demos":
        return CliDemos()
    if name == "ell-sweep":
        return InProcess(name, ell_sweep_input, "run_sweep", trace_ops=5)
    if name == "lcg-long-grid":
        return InProcess(name, lcg_input, "run_sweep", trace_ops=4)
    if name == "band-isolate":
        return InProcess(name, band_input, "run_band_isolate", trace_ops=24)
    raise KeyError(name)

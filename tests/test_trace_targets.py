"""The benchmark tracer (ringbench/spans.py) wraps ringlab attributes by
name; every name it lists must still exist where it looks for it."""
import importlib
import importlib.util
from pathlib import Path

import numpy as np

RINGBENCH = Path(__file__).resolve().parents[1] / "ringbench"


def load_ringbench(name):
    spec = importlib.util.spec_from_file_location(f"ringbench_{name}", RINGBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_op(fn, *args):
    """Run one op under the tracer; return its result and per-op metrics."""
    spans = load_ringbench("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = tracer.run_op(fn, *args)
    finally:
        tracer.uninstall()
    return result, spans.pass_metrics(tracer.labels, tracer.spans, 1)


def test_targets_resolve_in_ringlab():
    for module_name, path, _ in load_ringbench("spans").TARGETS:
        module = importlib.import_module(f"ringlab.{module_name}")
        if "." in path:
            # the tracer wraps the class's own __dict__ entry, so an
            # inherited or instance attribute would not be found
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(module, cls_name)), f"{module_name}.{path}"
        else:
            assert callable(getattr(module, path)), f"{module_name}.{path}"


def test_band_isolate_op_counters():
    # one band-isolate op: one call per model, so one line integral per line,
    # each of whose Gauss-Kronrod passes evaluates the resolvent.  At tol
    # 1e-6 the radius search stops at its first rung, sigma_max 50: the nu1
    # line accepts all 63 panels (1 323 nodes) of its first pass; the nu2
    # line bisects 2 of them and accepts their 4 halves, so its passes
    # evaluate 1 323 and 84 nodes
    from ringlab import pipeline
    from ringlab.config import ScenarioConfig
    cfg = ScenarioConfig(raw={"band_isolate": {
        "n_models": 1, "seed": 11, "dim": 2, "n_poles": 3, "forcing_k": 6,
        "nu1": 0.3, "nu2": 2.3, "times": [1.0, 2.0, 5.0], "tol": 1e-6}})
    report, metrics = traced_op(pipeline.run_band_isolate, cfg)
    assert len(report.rows) == 3 and not report.violations
    assert {row["sigma_max"] for row in report.rows} == {50.0}
    assert metrics["merotoy.line_integrals"] == 2
    assert metrics["merotoy.gl_passes"] == 3
    assert metrics["merotoy.resolvent_nodes"] == 2730


def test_noise_sampled_once_per_scenario():
    # an lcg-long-grid op sweeps 4 scenarios, one table row each; both
    # sectors of a scenario add the one noise sample taken on the setup grid
    workload = load_ringbench("workloads").make("lcg-long-grid")
    workload.prepare(None)
    report, metrics = traced_op(workload.run, workload.make_input(1, 0), None)
    assert len(report.rows) == 4 and not report.violations
    assert metrics["signal_model.noise_evals"] == 4


def test_weights_computed_once_per_setup(monkeypatch):
    # every weighted inner product of a scenario uses its setup's weights
    from ringlab import pipeline, signal_model
    from ringlab.config import ScenarioConfig
    calls = []
    weight_eval = signal_model.weight_eval

    def counted(setup, t):
        calls.append(setup)
        return weight_eval(setup, t)

    monkeypatch.setattr(signal_model, "weight_eval", counted)
    cfg = ScenarioConfig(raw={"noise": {"harmonics": [[0.001, 3.0, 0.4]]}})
    report, metrics = traced_op(pipeline.run_pipeline, cfg)
    assert len(report.rows) == 1 and not report.violations
    assert metrics["signal_model.noise_evals"] == 1
    assert metrics["signal_model.inner_calls"] > 1
    assert calls == [cfg.setup]


def test_ell_sweep_op_is_one_batch(monkeypatch):
    # one ell-sweep op: 40 points on one 201-sample grid form one batch, so
    # each sign is one extract call of five weighted inner products, and the
    # table has one row per point.  The 40 inversions are one
    # batched call of three undamped Newton steps per row, and the inverse
    # constants are built once, at load, since no point moves the map or the
    # M and Lambda box ranges
    from ringlab import paramap
    calls = {"invert_rows": 0, "inverse_constants": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(paramap, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(paramap, name, counted)
    workload = load_ringbench("workloads").make("ell-sweep")
    workload.prepare(None)
    report, metrics = traced_op(workload.run, workload.make_input(1, 0), None)
    assert len(report.rows) == 40 and not report.violations
    assert metrics["extractor.extract_calls"] == 2
    assert metrics["signal_model.inner_calls"] == 10
    assert calls == {"invert_rows": 1, "inverse_constants": 1}
    assert sum(row["newton_iterations"] for row in report.rows) == 120


def test_lcg_long_grid_op_counts(monkeypatch):
    # one lcg-long-grid op: 4 points of 20 001 samples, one point per batch
    # (the sample cap), so 8 extract calls of five weighted inner products;
    # one residual_l2 per scenario, for its noise norm (no contaminants).
    # The points are one run of equal setups that differ only in noise
    # amplitude, so the op samples its tail once, draws its LCG stream once
    # and synthesises one reference row per sign, which every batch uses
    from ringlab import pipeline, signal_model
    calls = {"residual_l2": 0, "tail": 0, "mode_rows": 0, "lcg_unit": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(signal_model, "residual_l2",
                        counted("residual_l2", signal_model.residual_l2))
    monkeypatch.setattr(signal_model, "mode_rows", counted("mode_rows", signal_model.mode_rows))
    monkeypatch.setattr(signal_model.TailSpec, "eval", counted("tail", signal_model.TailSpec.eval))
    monkeypatch.setattr(signal_model.NoiseSpec, "lcg_unit",
                        counted("lcg_unit", signal_model.NoiseSpec.lcg_unit))
    workload = load_ringbench("workloads").make("lcg-long-grid")
    workload.prepare(None)
    report, metrics = traced_op(workload.run, workload.make_input(1, 0), None)
    assert len(report.rows) == 4 and not report.violations
    assert pipeline._BATCH_SAMPLES // 20001 == 1
    assert metrics["extractor.extract_calls"] == 8
    assert metrics["signal_model.inner_calls"] == 40
    assert metrics["signal_model.noise_evals"] == 4
    assert calls == {"residual_l2": 4, "tail": 1, "mode_rows": 2, "lcg_unit": 1}


def test_weights_computed_once_per_sweep(monkeypatch):
    # every point of an ell sweep keeps the base config's setup object
    from ringlab import pipeline, signal_model
    from ringlab.config import ScenarioConfig
    calls = []
    weight_eval = signal_model.weight_eval

    def counted(setup, t):
        calls.append(setup)
        return weight_eval(setup, t)

    monkeypatch.setattr(signal_model, "weight_eval", counted)
    cfg = ScenarioConfig(raw=load_ringbench("workloads").ell_sweep_input(1, 0))
    report = pipeline.run_sweep(cfg)
    assert len(report.rows) == 40 and report.ok
    assert calls == [cfg.setup]


def test_sweep_points_built_once(monkeypatch):
    # ScenarioConfig builds each sweep point at load, and run_sweep runs those
    from ringlab import pipeline
    from ringlab.config import ScenarioConfig
    calls = []
    point = ScenarioConfig.point

    def counted(self, value):
        calls.append(value)
        return point(self, value)

    monkeypatch.setattr(ScenarioConfig, "point", counted)
    raw = load_ringbench("workloads").ell_sweep_input(1, 0)
    report = pipeline.run_sweep(ScenarioConfig(raw=raw))
    assert len(report.rows) == 40 and report.ok
    assert calls == raw["sweep"]["values"]


def test_invert_data_feeds_newton_iterations():
    # the tracer's paramap.invert_data hook reads the "iterations" entry of
    # the dict invert_data returns, so that dict is part of its contract
    from ringlab import paramap
    model = paramap.default_lattice(lam_kind="constant")
    data = {k: float(v) for k, v in zip(
        "UV", model.data_map(paramap.ParameterPoint(m=1.0, a=0.08, lam=0.02), False))}
    guess = paramap.ParameterPoint(m=1.03, a=0.07, lam=0.02)
    result, metrics = traced_op(lambda: paramap.invert_data(model, data, guess))
    assert set(result) == {"point", "iterations", "residual"} and result["iterations"] > 0
    assert metrics["paramap.newton_iterations"] == result["iterations"]


def test_band_isolate_tol_ladder():
    # the config's tol sets the quadrature: on each of the benchmark's 15
    # model shapes every rung certifies, a looser tol never takes a larger
    # radius or more resolvent nodes, and in all the loosest takes fewer
    from ringlab import pipeline
    from ringlab.config import ScenarioConfig
    band_input = load_ringbench("workloads").band_input
    tightest = loosest = 0
    for i in range(15):
        doc = band_input(1, i)
        radii, nodes = [], []
        for tol in (1e-8, 1e-6, 1e-4):
            doc["band_isolate"]["tol"] = tol
            report, metrics = traced_op(pipeline.run_band_isolate, ScenarioConfig(raw=doc))
            assert report.rows and not report.violations
            assert all(row["mismatch"] <= tol and row["ok"] for row in report.rows)
            radii.append(report.rows[0]["sigma_max"])
            nodes.append(metrics["merotoy.resolvent_nodes"])
        assert radii == sorted(radii, reverse=True) and nodes == sorted(nodes, reverse=True), i
        tightest, loosest = tightest + nodes[0], loosest + nodes[-1]
    assert loosest < tightest


def test_band_subtract_is_its_steps_composed(monkeypatch):
    # on the benchmark's 15 model shapes, band_subtract at tol equals, bit
    # for bit, the radius search at tol/40 and both lines at tol/4, composed
    # by hand, with the tail formula at the chosen radius per line
    from ringlab import merotoy as mt
    from ringlab import pipeline
    from ringlab.config import ScenarioConfig
    calls, real = [], mt.band_subtract

    def tracked(*args, **kw):
        calls.append((args, kw, real(*args, **kw)))
        return calls[-1][2]

    monkeypatch.setattr(mt, "band_subtract", tracked)
    band_input = load_ringbench("workloads").band_input
    for i in range(15):
        for tol in (1e-6, 1e-8):
            doc = band_input(1, i)
            doc["band_isolate"]["tol"] = tol
            pipeline.run_band_isolate(ScenarioConfig(raw=doc))
    assert len(calls) == 30
    for (resolvent, forcing, g, nu1, nu2, times), kw, out in calls:
        tol, times = kw["tol"], np.asarray(times, dtype=float)
        sigma = max(mt.choose_sigma_max(resolvent, forcing, g, nu, times, tol / 40)
                    for nu in (nu1, nu2))
        lines = [mt.line_integral(resolvent, forcing, g, nu, times, sigma, tol / 4)
                 for nu in (nu1, nu2)]
        tails = [mt._tail_from_envelope(mt._envelope(resolvent, forcing, g, nu,
                                                     np.array([sigma]))[0], nu, times, sigma)
                 for nu in (nu1, nu2)]
        assert out["sigma_max"] == sigma
        assert np.array_equal(out["difference"], lines[0] - lines[1])
        assert np.array_equal(out["truncation_estimate"], tails[0] + tails[1])
        assert out["n_in_strip"] == len(resolvent.poles_in_strip(-nu2, -nu1))

"""The benchmark tracer (ringbench/spans.py) wraps ringlab attributes by
name; every name it lists must still exist where it looks for it."""
import importlib
import importlib.util
from pathlib import Path

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
    # each of whose Gauss-Kronrod passes evaluates the resolvent: the nu1
    # line stops after one pass of 2 625 nodes, the nu2 line after two, of
    # 2 625 and 5 250
    from ringlab import pipeline
    from ringlab.config import ScenarioConfig
    cfg = ScenarioConfig(raw={"band_isolate": {
        "n_models": 1, "seed": 11, "dim": 2, "n_poles": 3, "forcing_k": 6,
        "nu1": 0.3, "nu2": 2.3, "times": [1.0, 2.0, 5.0], "tol": 1e-6}})
    report, metrics = traced_op(pipeline.run_band_isolate, cfg)
    assert len(report.rows) == 3 and not report.violations
    assert metrics["merotoy.line_integrals"] == 2
    assert metrics["merotoy.gl_passes"] == 3
    assert metrics["merotoy.resolvent_nodes"] == 10500


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
    # The points differ only in noise amplitude, so the op samples its tail
    # once, draws its LCG stream once and synthesises one reference row per
    # sign, which every later batch reuses
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

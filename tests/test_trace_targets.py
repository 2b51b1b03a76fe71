"""The benchmark tracer (ringbench/spans.py) wraps ringlab attributes by
name; every name it lists must still exist where it looks for it."""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "ringbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("ringbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_targets_resolve_in_ringlab():
    for module_name, path, _ in load_spans().TARGETS:
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
    # each of whose Gauss-Legendre passes evaluates the resolvent
    from ringlab import pipeline
    from ringlab.config import ScenarioConfig
    spans = load_spans()
    cfg = ScenarioConfig(raw={"band_isolate": {
        "n_models": 1, "seed": 11, "dim": 2, "n_poles": 3, "forcing_k": 6,
        "nu1": 0.3, "nu2": 2.3, "times": [1.0, 2.0, 5.0], "tol": 1e-6}})
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = tracer.run_op(pipeline.run_band_isolate, cfg)
    finally:
        tracer.uninstall()
    assert len(report.rows) == 3 and not report.violations
    metrics = spans.pass_metrics(tracer.labels, tracer.spans, 1)
    assert metrics["merotoy.line_integrals"] == 2
    assert metrics["merotoy.resolvent_nodes"] > 0

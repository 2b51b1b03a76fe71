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

"""The benchmark's layer tracer wraps library functions by name; a rename in
``src/`` must fail here rather than only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for layer, owner, attr, _spans, _counter in tracer.TARGETS:
        module_name, _, class_name = owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            assert attr in vars(getattr(module, class_name)), (layer, owner, attr)
        else:
            assert callable(getattr(module, attr, None)), (layer, owner, attr)

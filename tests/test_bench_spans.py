"""The benchmark tracer's targets name callables that exist.

`bench/run.py --trace 1` wraps every `(module, attribute)` pair in
`bench/spans.py`'s `TARGETS`; a rename or deletion in `qbsim` would
break traced runs, so each pair is resolved here without installing
the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    for module_name, path, span_name in targets:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for name in owners:
            owner = getattr(owner, name)
        assert callable(getattr(owner, attr, None)), f"{module_name}.{path} ({span_name})"

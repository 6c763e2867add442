"""The benchmark tracer's targets name callables that exist.

`bench/run.py --trace 1` wraps every `(module, attribute)` pair in
`bench/spans.py`'s `TARGETS`; a rename or deletion in `qbsim` would
break traced runs, so each pair is resolved here without installing
the tracer. The same holds for the arguments and results that its
`OBSERVERS` read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from qbsim.commitment import OpenResult
from qbsim.consensus import ConsensusResult
from qbsim.transport import Delivery, Network

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


def test_observed_arguments_and_results_keep_their_names():
    observers = load_spans().OBSERVERS
    assert set(observers) == {"transport.send", "transport.deliver", "commitment.open",
                              "consensus.run", "scenario.canonical"}
    # the send observer reads the payload as args[3] of a positional call
    assert list(inspect.signature(Network.send_authenticated).parameters) == [
        "self", "sender", "receiver", "payload"]
    for result_type, attr in ((Delivery, "ok"), (OpenResult, "accepted"),
                              (ConsensusResult, "phases_run")):
        assert attr in result_type.__annotations__, f"{result_type.__name__}.{attr}"

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
import json
import subprocess
import sys
from pathlib import Path

from qbsim.commitment import OpenResult
from qbsim.consensus import ConsensusResult
from qbsim.transport import Delivery, Network
from test_cli import src_env

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


# Loads the tracer from the path in argv[1], installs it once every
# module a run uses is loaded, runs one scenario and one 3-run batch of a
# lottery and of an auction through their modules, and prints how many
# spans each name got.
TRACED_RUNS = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
from qbsim import batch, scenario
tracer = spans.Tracer()
tracer.install()
for config in (scenario.ScenarioConfig(protocol="lottery", players=3, ticket_bits=4, miners=2),
               scenario.ScenarioConfig(protocol="auction", buyers=3, miners=2)):
    scenario.run_scenario(config)
    batch.run_batch(config, runs=3)
counts = {}
for name_id, *_ in tracer.spans:
    counts[tracer.names[name_id]] = counts.get(tracer.names[name_id], 0) + 1
print(json.dumps(counts))
"""


def test_traced_runs_record_a_span_per_protocol_run():
    """Every run, from `run_scenario` or `run_batch`, enters its protocol
    through the function the tracer wraps. `Tracer.install()` patches
    qbsim for the rest of its process, so the runs go in a child."""
    done = subprocess.run([sys.executable, "-c", TRACED_RUNS, str(SPANS)], env=src_env(),
                          capture_output=True, text=True, check=True)
    counts = json.loads(done.stdout)
    assert (counts.get("lottery.run"), counts.get("auction.run")) == (4, 4)
    assert (counts["scenario.run"], counts["batch.run"]) == (2, 2)

"""Span tracer for traced benchmark runs, and the per-layer metrics built
from its spans.

The tracer wraps public functions and methods of `qbsim` from outside
the package. Modules bind most of these names with `from .x import y`,
so a function is replaced in every loaded `qbsim` module that holds it,
not only where it is defined; a method is replaced on its class.

A span is `(name, start_ns, end_ns, parent, op)`; `parent` is the index
of the enclosing span (-1 at top level) and `op` the benchmark
operation it belongs to. Spans stay in memory and are written out once,
when the run ends. A layer's self time is the time of its spans minus
the time their child spans cover.

This module imports nothing outside the standard library, so `run.py`
can aggregate span files without importing `qbsim`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module that defines or binds the callable, attribute path, span name)
TARGETS = (
    ("qbsim.keystore", "KeyStore.consume", "keystore.consume"),
    ("qbsim.keystore", "KeyStore.block_at", "keystore.block_at"),
    ("qbsim.mac", "PolyMac.tag", "mac.tag"),
    ("qbsim.mac", "PolyMac.verify", "mac.verify"),
    ("qbsim.mac", "PolyMac.key_from_block", "mac.key_from_block"),
    ("qbsim.transport", "Network.send_authenticated", "transport.send"),
    ("qbsim.transport", "Network.deliver_next", "transport.deliver"),
    ("qbsim.transport", "Network.drain", "transport.drain"),
    ("qbsim.encoding", "decode_payload", "encoding.decode_payload"),
    ("qbsim.encoding", "decode_ticket_list", "encoding.decode_ticket_list"),
    ("qbsim.encoding", "decode_verification_output", "encoding.decode_verification_output"),
    ("qbsim.consensus", "CodecDomain.contains", "consensus.domain_contains"),
    ("qbsim.consensus", "run_consensus", "consensus.run"),
    ("qbsim.commitment", "CommitmentRegistry.commit", "commitment.commit"),
    ("qbsim.commitment", "CommitmentRegistry.open", "commitment.open"),
    ("qbsim.ledger", "MinerLedger.append_finalized", "ledger.append"),
    ("qbsim.eventlog", "EventLog.append", "eventlog.append"),
    ("qbsim.eventlog", "EventLog.note", "eventlog.note"),
    ("qbsim.rng", "generator", "rng.generator"),
    ("qbsim.rng", "derive_seed", "rng.derive_seed"),
    ("qbsim.lottery", "run_lottery", "lottery.run"),
    ("qbsim.auction", "run_auction", "auction.run"),
    ("qbsim.scenario", "run_scenario", "scenario.run"),
    ("qbsim.scenario", "validate_report", "scenario.validate"),
    ("qbsim.scenario", "canonical_report_bytes", "scenario.canonical"),
    ("qbsim.batch", "run_batch", "batch.run"),
    ("qbsim.batch", "chisquare", "batch.chisquare"),
    ("qbsim.qbc.io", "load_scheme", "qbc.load"),
    ("qbsim.qbc.measures", "binding_attack", "qbc.analyze"),
    ("qbsim.qbc.measures", "concealing_defect", "qbc.analyze"),
)

# Span of a handler that `Network.drain` dispatches to; its time belongs
# to the layer that called drain, not to transport.
HANDLER = "handler"


# Counters read from arguments or results: span name -> (counter, value).
def _payload_bytes(args, kwargs, result):
    payload = kwargs["payload"] if "payload" in kwargs else args[3]
    return "transport.payload_bytes", len(payload)


def _auth_failure(args, kwargs, result):
    return "transport.auth_failures", int(result is not None and not result.ok)


def _cheat_detected(args, kwargs, result):
    return "commitment.cheats_detected", int(not result.accepted)


def _phases(args, kwargs, result):
    return "consensus.phases", result.phases_run


def _report_bytes(args, kwargs, result):
    return "scenario.report_bytes", len(result)


OBSERVERS = {
    "transport.send": _payload_bytes,
    "transport.deliver": _auth_failure,
    "commitment.open": _cheat_detected,
    "consensus.run": _phases,
    "scenario.canonical": _report_bytes,
}


class Tracer:
    """Collects spans and counters for the operations of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self.counters: dict[str, int] = {}
        self.op = 0
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, observe=None):
        """`fn` wrapped so that each call records one span named `name`."""
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op)
            if observe is not None:
                counter, value = observe(args, kwargs, result)
                self.counters[counter] = self.counters.get(counter, 0) + value
            return result

        return traced

    def _traced_drain(self, drain):
        traced = self.span("transport.drain", drain)

        def drain_with_handler_spans(network, handler=None):
            if handler is not None:
                handler = self.span(HANDLER, handler)
            return traced(network, handler)

        return functools.wraps(drain)(drain_with_handler_spans)

    def install(self):
        """Wrap every target in every loaded qbsim module that binds it."""
        for module_name, path, span_name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                wrapped = (self._traced_drain(original) if span_name == "transport.drain"
                           else self.span(span_name, original, OBSERVERS.get(span_name)))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(module, path)
            wrapped = self.span(span_name, original, OBSERVERS.get(span_name))
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name != "qbsim" and not loaded_name.startswith("qbsim."):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapped)

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": self.counters}, fp)


# ------------------------------------------------------------ aggregation

# Self-time groups: metric -> span names whose self time it sums.
SELF_TIME = {
    "keystore.self_ms_per_run": ("keystore.consume", "keystore.block_at"),
    "mac.self_ms_per_run": ("mac.tag", "mac.verify", "mac.key_from_block"),
    "transport.self_ms_per_run": ("transport.send", "transport.deliver", "transport.drain"),
    "rng.self_ms_per_run": ("rng.generator", "rng.derive_seed"),
    "encoding.self_ms_per_run": ("encoding.decode_payload", "encoding.decode_ticket_list",
                                 "encoding.decode_verification_output"),
    "consensus.self_ms_per_run": ("consensus.run", "consensus.domain_contains"),
    "commitment.self_ms_per_run": ("commitment.commit", "commitment.open"),
    "ledger.self_ms_per_run": ("ledger.append",),
    "eventlog.self_ms_per_run": ("eventlog.append", "eventlog.note"),
    "lottery.self_ms_per_run": ("lottery.run",),
    "auction.self_ms_per_run": ("auction.run",),
    "scenario.run_self_ms_per_run": ("scenario.run",),
    "scenario.validate_ms_per_run": ("scenario.validate",),
    "scenario.canonical_ms_per_run": ("scenario.canonical",),
    "batch.self_ms_per_run": ("batch.run",),
    "cli.self_ms": ("cli.main",),
    "cli.import_ms": ("cli.import",),
}

# Call counts: metric -> span names whose calls it counts.
CALLS = {
    "keystore.consume_calls_per_run": ("keystore.consume",),
    "mac.tag_calls_per_run": ("mac.tag",),
    "mac.key_from_block_calls_per_run": ("mac.key_from_block",),
    "transport.messages_per_run": ("transport.send",),
    "rng.generators_per_run": ("rng.generator",),
    "encoding.decode_calls_per_run": ("encoding.decode_payload",),
    "encoding.ticket_list_decodes_per_run": ("encoding.decode_ticket_list",),
    "consensus.domain_checks_per_run": ("consensus.domain_contains",),
    "commitment.commits_per_run": ("commitment.commit",),
    "commitment.opens_per_run": ("commitment.open",),
    "ledger.appends_per_run": ("ledger.append",),
    "eventlog.records_per_run": ("eventlog.append", "eventlog.note"),
}

# Observed counters: metric -> counter name.
COUNTERS = {
    "transport.payload_bytes_per_run": "transport.payload_bytes",
    "transport.auth_failures_per_run": "transport.auth_failures",
    "commitment.cheats_detected_per_run": "commitment.cheats_detected",
    "consensus.phases_per_run": "consensus.phases",
    "scenario.report_bytes_per_run": "scenario.report_bytes",
}


class SpanTotals:
    """Self time, call counts and counters summed over span files."""

    def __init__(self):
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.consensus_messages = 0

    def add_file(self, path: str):
        with open(path, "r", encoding="utf-8") as fp:
            data = json.load(fp)
        names = data["names"]
        spans = data["spans"]
        child_ns = [0] * len(spans)
        for name_id, start, end, parent, _op in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        # a handler's self time goes to the span that called drain
        owner = [None] * len(spans)
        in_consensus = [False] * len(spans)
        for index, (name_id, start, end, parent, _op) in enumerate(spans):
            name = names[name_id]
            if name == HANDLER:
                caller = spans[parent][3]
                name = owner[caller] if caller >= 0 else "transport.drain"
            owner[index] = name
            in_consensus[index] = name == "consensus.run" or (
                parent >= 0 and in_consensus[parent])
            own = end - start - child_ns[index]
            self.self_ns[name] = self.self_ns.get(name, 0) + own
            if names[name_id] != HANDLER:
                self.calls[name] = self.calls.get(name, 0) + 1
            if name == "transport.send" and in_consensus[index]:
                self.consensus_messages += 1
        for counter, value in data["counters"].items():
            self.counters[counter] = self.counters.get(counter, 0) + value

    def metrics(self, runs: int, schemes: int) -> dict[str, float]:
        """Per-layer metrics per run; `schemes` is the number of `qbc
        analyze` processes (0 where the workload has none)."""
        out = {}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(self.self_ns.get(n, 0) for n in names) / 1e6 / runs
        for metric, names in CALLS.items():
            out[metric] = sum(self.calls.get(n, 0) for n in names) / runs
        for metric, counter in COUNTERS.items():
            out[metric] = self.counters.get(counter, 0) / runs
        out["consensus.messages_per_run"] = self.consensus_messages / runs
        # chisquare, load_scheme and the qbc measures have no child spans
        batch_calls = self.calls.get("batch.run", 0)
        out["batch.chisquare_ms"] = (self.self_ns.get("batch.chisquare", 0) / 1e6 / batch_calls
                                     if batch_calls else 0.0)
        for metric, name in (("qbc.load_ms_per_scheme", "qbc.load"),
                             ("qbc.analyze_ms_per_scheme", "qbc.analyze")):
            out[metric] = self.self_ns.get(name, 0) / 1e6 / schemes if schemes else 0.0
        return out

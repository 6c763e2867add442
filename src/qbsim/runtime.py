"""Shared per-run machinery: the parameters and results every protocol
run shares, scripted party policies, parties, network, commitment
registry, log, the commit/open exchange, the limits every protocol
shares, and consensus-to-ledger finalization."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .commitment import IDEAL, Backend, CommitmentRegistry, OpenResult
from .consensus import (
    BOT,
    MINER_SCRIPT_NAMES,
    SCRIPTS,
    CodecDomain,
    ConsensusResult,
    pair_key_blocks,
    run_consensus,
)
from .encoding import MAX_COUNT, decode_payload, encode
from .errors import QbsimError
from .eventlog import EventLog
from .keystore import DEFAULT_BUDGET, KeyStore
from .ledger import MinerLedger, RecordKind, ledgers_consistent
from .parties import PartyId, miner
from .rng import derive_seed, generator
from .transport import Network


@dataclass(kw_only=True)
class RunParams:
    """The committee, seed, backend and budgets of one protocol run."""

    miners: int
    seed: int
    backend: Backend = IDEAL
    key_budget: int = DEFAULT_BUDGET
    detail: bool = True
    byzantine_miners: dict = field(default_factory=dict)  # miner -> script name or script


@dataclass
class SimContext:
    seed: int
    log: EventLog
    network: Network
    registry: CommitmentRegistry

    def rng(self, *path):
        """Substream keyed by purpose path; independent of other draws."""
        return generator(self.seed, *path)

    def commit_to(self, committer: PartyId, receivers, value, backend: Backend) -> dict:
        """Commit `value` to each receiver in turn and notify it of the
        commitment id; returns {receiver: id}."""
        ids = {}
        for receiver in receivers:
            ids[receiver] = self.registry.commit(committer, receiver, value, backend)
            self.network.send_authenticated(committer, receiver, encode(
                "commit_notify", commitment_id=ids[receiver], bit_length=len(value)))
        return ids

    def adjudicate(self, delivery) -> OpenResult | None:
        """The registry's verdict on a delivered `open`; None for any
        other message."""
        msg = decode_payload(delivery.payload)
        if msg["kind"] != "open":
            return None
        return self.registry.open(msg["commitment_id"], delivery.sender, msg["claimed"])


def make_context(seed: int, parties, key_budget: int, detail: bool) -> SimContext:
    log = EventLog(detail=detail)
    network = Network(parties, KeyStore(seed, budget=key_budget),
                      scheduler_seed=derive_seed(seed, "scheduler"), log=log)
    registry = CommitmentRegistry(generator(seed, "registry"), log)
    return SimContext(seed=seed, log=log, network=network, registry=registry)


class Policy(NamedTuple):
    """A scripted party as its config text `name:value:...` spells it:
    no values (drawn at run time), one value, or the committed value and
    then the opened one."""

    name: str
    values: tuple = ()


def policy_usages(table: dict) -> list[str]:
    """Each policy of a table, which maps a name to the placeholders of
    its values, as a config text spells it: `fixed:V`."""
    return [":".join((name, *slots)) for name, slots in table.items()]


def _defines(table: dict, name: str, arity: int) -> bool:
    return name in table and len(table[name]) == arity


def canonical_decimal(text: str, digits: int) -> bool:
    """Whether `text` spells a number in its one form: at most `digits`
    ASCII digits (`int()` may refuse a long text), no leading zero."""
    return (text.isascii() and text.isdecimal() and (text[0] != "0" or text == "0")
            and len(text) <= digits)


def parse_policy(text: str, role: str, table: dict, convert) -> Policy:
    """The policy `text` names in `table`, each value run through
    `convert`; a name the table lacks, a count of values other than its
    placeholders' and a value `convert` refuses raise `QbsimError`."""
    name, *texts = text.split(":")
    if not _defines(table, name, len(texts)):
        *first, last = policy_usages(table)
        raise QbsimError(f"unknown {role} policy {text!r} "
                         f"(expected {', '.join(first)} or {last})")
    try:
        return Policy(name, tuple(map(convert, texts)))
    except QbsimError as exc:
        raise QbsimError(f"{role} policy {text!r}: {exc}") from None


def policy_violations(role: str, policies: dict, count: int, table: dict, check) -> list[str]:
    """Policies for a party index outside [0, count), or whose name and
    value count `table` does not define, and `check(index, values)` for
    the rest."""
    out = []
    for i, policy in sorted(policies.items()):
        if not 0 <= i < count:
            out.append(f"{role} policy for unknown {role} {i}")
        elif not _defines(table, policy.name, len(policy.values)):
            out.append(f"{role} {i}: unknown policy {policy!r}")
        else:
            out += check(i, policy.values)
    return out


def scripted_values(policies: dict, count: int, draw) -> tuple[dict, dict]:
    """The value each of `count` parties commits and the one it opens.
    A `Policy` holds one value, or the committed and then the opened
    one; a party without values gets `draw(index)`."""
    committed, opened = {}, {}
    for i in range(count):
        values = policies[i].values if i in policies else ()
        if not values:
            values = (draw(i),)
        committed[i], opened[i] = values[0], values[-1]
    return committed, opened


# ------------------------------------------------------------- limits


def count_violations(name: str, value: int, low: int, high: int = MAX_COUNT) -> list[str]:
    """`value` must lie in [low, high]; the default maximum is what a
    ">H" count or party-index field carries."""
    if value < low:
        return [f"need at least {low} {name}, got {value}"]
    if value > high:
        return [f"{name} must be at most {high} to fit the encoding, got {value}"]
    return []


def run_violations(params: RunParams, party_blocks: int) -> list[str]:
    """The limits every run shares: a seed that is no 64-bit unsigned
    integer, the committee's size, Byzantine miners outside it, unknown
    script names, a committee without an honest miner to finalize
    anything, and a key budget below the most one-time key blocks a pair
    can spend. That is `party_blocks` for a protocol party and a miner,
    and `consensus.pair_key_blocks` for two miners."""
    miners, byzantine = params.miners, params.byzantine_miners
    out = [] if 0 <= params.seed < 1 << 64 else ["seed must lie in [0, 2^64)"]
    out += count_violations("miners", miners, 1)
    out += [f"byzantine script for unknown miner {m.index}"
            for m in sorted(byzantine) if m.index >= miners]
    out += [f"{m}: unknown script {spec!r} (expected one of {MINER_SCRIPT_NAMES})"
            for m, spec in sorted(byzantine.items())
            if not callable(spec) and spec not in MINER_SCRIPT_NAMES]
    if miners >= 1 and len({m for m in byzantine if m.index < miners}) >= miners:
        out.append("at least one honest miner is required")
    need = max(party_blocks, pair_key_blocks(miners))
    if params.key_budget < need:
        out.append(f"key_budget must be at least {need} blocks per pair for this run, "
                   f"got {params.key_budget}")
    return out


# ------------------------------------------------------- finalization


@dataclass(kw_only=True)
class FinalizedRun:
    """What every protocol run ends with: the decided record body, the
    miners' `ledgers`, the named cheaters, the `consensus` result that
    filled the ledgers, and the run's context."""

    decided_body: bytes
    ledgers: dict
    cheaters: tuple
    consensus: ConsensusResult
    context: SimContext

    @property
    def honest_ledgers_consistent(self) -> tuple[bool, int | None]:
        return ledgers_consistent([self.ledgers[m] for m in self.consensus.honest])


def finalize(ctx: SimContext, params: RunParams, protocol: str, instance_id: int,
             kind: RecordKind, decode, propose):
    """Agree on one record among the miners and append it to the ledger
    of every miner that decided it.

    Honest miners propose `propose(m)`, Byzantine ones follow their
    scripts (a script name is built from `consensus.SCRIPTS`, a callable
    runs as it is), and membership in the domain is validity under
    `decode`.
    Past the f < n/3 bound consensus may settle on the reserved "no
    valid input" element, for some honest miners or all of them. A
    miner that decided it appends nothing, because there is no record to
    append; when the reference miner, the first one holding a decision,
    is one of them, `consensus_no_agreement` is logged. Returns the
    consensus result, the ledgers and the reference miner.
    """
    miners = [miner(j) for j in range(params.miners)]
    inputs = {m: propose(m) for m in miners if m not in params.byzantine_miners}
    candidates = list(inputs.values())
    scripts = {m: spec if callable(spec) else
               SCRIPTS[spec](ctx.rng("miner-script", m.index), candidates)
               for m, spec in params.byzantine_miners.items()}
    result = run_consensus(inputs, scripts, ctx.network, CodecDomain(decode), instance_id)

    ledgers = {m: MinerLedger() for m in miners}
    reference = next(m for m in miners if result.decisions[m] is not None)
    if result.decisions[reference] == BOT:
        ctx.log.append("consensus_no_agreement", protocol=protocol)
    for m in miners:
        decided = result.decisions[m]
        if decided:  # None for a Byzantine miner, BOT for no record
            record = ledgers[m].append_finalized(kind, decided, instance_id)
            ctx.log.append("ledger_append", miner=str(m), kind=kind.value,
                           height=record.height, body=record.body.hex())
    return result, ledgers, reference

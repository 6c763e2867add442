"""Shared per-run machinery: parties, network, commitment registry, log,
the limits every protocol shares, and consensus-to-ledger finalization."""

from __future__ import annotations

from dataclasses import dataclass

from .commitment import CommitmentRegistry
from .consensus import (
    BOT,
    MINER_SCRIPT_NAMES,
    CodecDomain,
    ConsensusInstance,
    resolve_script,
    run_consensus,
)
from .encoding import MAX_COUNT
from .eventlog import EventLog
from .keystore import KeyStore
from .ledger import MinerLedger, RecordKind, ledgers_consistent
from .parties import PartyId, miner
from .rng import derive_seed, generator
from .transport import Network


@dataclass
class SimContext:
    seed: int
    parties: tuple[PartyId, ...]
    log: EventLog
    network: Network
    registry: CommitmentRegistry

    def rng(self, *path):
        """Substream keyed by purpose path; independent of other draws."""
        return generator(self.seed, *path)


def make_context(seed: int, parties, key_budget: int, detail: bool) -> SimContext:
    parties = tuple(parties)
    log = EventLog(detail=detail)
    network = Network(parties, KeyStore(seed, budget=key_budget),
                      scheduler_seed=derive_seed(seed, "scheduler"), log=log)
    registry = CommitmentRegistry(generator(seed, "registry"), log)
    return SimContext(seed=seed, parties=parties, log=log, network=network,
                      registry=registry)


# ------------------------------------------------------------- limits


def count_violations(name: str, value: int, low: int, high: int = MAX_COUNT) -> list[str]:
    """`value` must lie in [low, high]; the default maximum is what a
    ">H" count or party-index field carries."""
    if value < low:
        return [f"need at least {low} {name}, got {value}"]
    if value > high:
        return [f"{name} must be at most {high} to fit the encoding, got {value}"]
    return []


def committee_violations(miners: int, byzantine: dict) -> list[str]:
    """Byzantine miners outside the committee, unknown script names, and
    a committee without an honest miner to finalize anything.
    `byzantine` maps each Byzantine miner to a script name or a script."""
    out = [f"byzantine script for unknown miner {m.index}"
           for m in sorted(byzantine) if m.index >= miners]
    out += [f"{m}: unknown script {spec!r} (expected one of {MINER_SCRIPT_NAMES})"
            for m, spec in sorted(byzantine.items())
            if not callable(spec) and spec not in MINER_SCRIPT_NAMES]
    if miners >= 1 and len({m for m in byzantine if m.index < miners}) >= miners:
        out.append("at least one honest miner is required")
    return out


# ------------------------------------------------------- finalization


class FinalizedRun:
    """Run results that hold the miners' `ledgers` and the `consensus`
    result that filled them."""

    @property
    def honest_ledgers_consistent(self) -> tuple[bool, int | None]:
        return ledgers_consistent([self.ledgers[m] for m in self.consensus.honest])


def finalize(ctx: SimContext, params, protocol: str, instance_id: int,
             kind: RecordKind, decode, propose):
    """Agree on one record among the miners and append it to the ledger
    of every miner that decided it.

    Honest miners propose `propose(m)`, Byzantine ones follow their
    scripts, and membership in the domain is validity under `decode`.
    Past the f < n/3 bound consensus may settle on the reserved "no
    valid input" element; then nothing is appended, because there is no
    record to append, and `consensus_no_agreement` is logged. Returns
    the consensus result, the ledgers and the reference miner, the
    first one holding a decision.
    """
    miners = [miner(j) for j in range(params.miners)]
    instance = ConsensusInstance(instance_id, miners, CodecDomain(decode))
    for m in miners:
        if m not in params.byzantine_miners:
            instance.propose(m, propose(m))
    candidates = [instance.inputs[m] for m in sorted(instance.inputs)]
    scripts = {m: resolve_script(spec, ctx.rng("miner-script", m.index), candidates)
               for m, spec in params.byzantine_miners.items()}
    result = run_consensus(instance, scripts, ctx.network, ctx.log)

    ledgers = {m: MinerLedger(m) for m in miners}
    reference = next(m for m in miners if result.decisions[m] is not None)
    if result.decisions[reference] == BOT:
        ctx.log.append("consensus_no_agreement", protocol=protocol)
        return result, ledgers, reference
    for m in miners:
        decided = result.decisions[m]
        if decided:  # None for a Byzantine miner, BOT for no record
            ledgers[m].append_finalized(kind, decided, instance_id, decided_body=decided)
            ctx.log.append("ledger_append", miner=str(m), kind=kind.value,
                           height=0, body=decided.hex())
    return result, ledgers, reference

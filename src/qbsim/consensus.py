"""Byzantine agreement among the miners: multi-valued phase king.

The algorithm runs f_tol + 1 phases with f_tol = floor((n-1)/3), three
rounds per phase:

  round 1  everyone broadcasts its preference; a value seen at least
           n - f_tol times becomes the new preference (two distinct
           values cannot both reach that threshold when n > 3f), else
           the party marks itself undecided;
  round 2  everyone broadcasts preference-or-undecided; each party
           picks the most frequent concrete value d (ties to the
           lexicographically smallest encoding) and its count;
  round 3  the phase's king broadcasts its d; parties with fewer than
           n - f_tol supporting votes adopt the king's value, the rest
           keep their own d.

A delivered message casts one vote in the current (phase, round): the
value it carries; None, the one undecided marker, for round 2's
undecided flag; or the reserved domain element BOT (the empty byte
string) for garbage, a foreign instance, phase or round, an undecided
flag outside round 2, or a value outside the domain. A missing message
counts as BOT too, so "no valid input" is representable inside the
domain. The vote depends on the payload alone, so each round memoizes
it per distinct payload: the domain is checked once per distinct value
a round carries, not once per delivery. Agreement and validity hold
whenever fewer than n/3 participants are Byzantine; otherwise the run
completes but is flagged guarantees_void.

The reported decision_phase is the first phase after which every honest
preference already equals the final decision. The first f+1 kings
include an honest one (f = actual Byzantine count), and preferences
persist once the honest parties agree, so decision_phase <= f + 1; with
no faults and equal inputs it is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encoding import decode_payload, encode_consensus
from .errors import ConsensusUsageError, EncodingError
from .eventlog import EventLog
from .parties import PartyId
from .transport import Network

BOT = b""  # reserved domain element: "no valid input"


class CodecDomain:
    """Membership by validity of a canonical encoding (protocol domains
    are far too large to enumerate)."""

    def __init__(self, validator):
        self._validator = validator

    def contains(self, value: bytes) -> bool:
        if value == BOT:
            return True
        try:
            self._validator(value)
            return True
        except EncodingError:
            return False


def tolerated_faults(n: int) -> int:
    return (n - 1) // 3


class ConsensusInstance:
    def __init__(self, instance_id: int, participants, domain):
        self.instance_id = instance_id
        self.participants = tuple(sorted(participants))
        if len(set(self.participants)) != len(self.participants):
            raise ConsensusUsageError("duplicate participants")
        self.domain = domain
        self.inputs: dict[PartyId, bytes] = {}

    def propose(self, miner: PartyId, value: bytes):
        if miner not in self.participants:
            raise ConsensusUsageError(f"{miner} is not a participant")
        if not self.domain.contains(value):
            raise ConsensusUsageError(f"proposed value outside the domain")
        if miner in self.inputs and self.inputs[miner] != value:
            raise ConsensusUsageError(f"{miner} already proposed a different value")
        self.inputs[miner] = value

    @property
    def n(self) -> int:
        return len(self.participants)


# Byzantine script factories. A script is called once per (phase, round,
# recipient) and returns None (stay silent), ("garbage",) or ("value", v).


def silent_script():
    return lambda phase, round_, recipient: None


def garbage_script(rng):
    return lambda phase, round_, recipient: ("garbage",)


def equivocating_script(rng, candidates):
    pool = [bytes(c) for c in candidates] + [BOT]

    def script(phase, round_, recipient):
        roll = rng.random()
        if roll < 0.15:
            return None
        if roll < 0.3:
            return ("garbage",)
        return ("value", pool[int(rng.integers(0, len(pool)))])

    return script


MINER_SCRIPT_NAMES = ("silent", "garbage", "equivocate")


def resolve_script(spec, rng, candidates):
    """Turn a config-level script name into a script; callables pass
    through so library users can inject anything."""
    if callable(spec):
        return spec
    if spec == "silent":
        return silent_script()
    if spec == "garbage":
        return garbage_script(rng)
    if spec == "equivocate":
        return equivocating_script(rng, candidates)
    raise ConsensusUsageError(f"unknown miner script {spec!r}")


class PhaseKingParty:
    """Honest party state machine; one phase = r1/r2/r3 feed cycle.

    Received value lists are positional over all n participants, the
    party's own value in its own slot and a vote everywhere else (round
    2 may carry None, the undecided marker). The preference is None
    while the party is undecided.
    """

    def __init__(self, n: int, f_tol: int, pref: bytes):
        self.n = n
        self.f_tol = f_tol
        self.pref = pref
        self._d = BOT
        self._d_count = 0

    # round 1
    def r1_payload(self) -> bytes:
        return self.pref

    def r1_receive(self, values: list[bytes]):
        counts: dict[bytes, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        threshold = self.n - self.f_tol
        for value, count in counts.items():
            if count >= threshold:
                self.pref = value
                return
        self.pref = None

    # round 2
    def r2_payload(self) -> bytes | None:
        return self.pref

    def r2_receive(self, values: list):
        counts: dict[bytes, int] = {}
        for v in values:
            if v is None:
                continue
            counts[v] = counts.get(v, 0) + 1
        if counts:
            best = max(counts.items(), key=lambda kv: (kv[1], kv[0]))
            # ties resolve to the lexicographically smallest encoding
            top = best[1]
            self._d = min(v for v, c in counts.items() if c == top)
            self._d_count = top
        else:
            self._d, self._d_count = BOT, 0

    # round 3
    def r3_payload(self) -> bytes:
        return self._d

    def r3_receive(self, king_value: bytes):
        if self._d_count >= self.n - self.f_tol:
            self.pref = self._d
        else:
            self.pref = king_value


@dataclass
class ConsensusResult:
    decisions: dict  # every participant; None for Byzantine miners
    honest: tuple
    f_tolerance: int
    f_actual: int
    guarantees_void: bool
    phases_run: int
    decision_phase: int


def vote(instance: ConsensusInstance, phase: int, round_: int, payload: bytes):
    """The vote a delivered payload casts in (phase, round_): the value it
    carries, None for round 2's undecided flag, BOT for anything else."""
    try:
        msg = decode_payload(payload)
    except EncodingError:
        return BOT
    if (msg["kind"] != "consensus" or msg["instance"] != instance.instance_id
            or msg["phase"] != phase or msg["round"] != round_):
        return BOT
    if msg["undecided"]:
        return None if round_ == 2 else BOT
    return msg["value"] if instance.domain.contains(msg["value"]) else BOT


def run_consensus(instance: ConsensusInstance, scripts: dict,
                  network: Network, log: EventLog | None = None) -> ConsensusResult:
    """Drive one instance over the network, synchronous-round style.

    `scripts` maps each Byzantine participant to its script; every other
    participant is honest and must have proposed an input.
    """
    participants = instance.participants
    n = instance.n
    honest = tuple(m for m in participants if m not in scripts)
    for m in honest:
        if m not in instance.inputs:
            raise ConsensusUsageError(f"honest miner {m} never proposed an input")
    f_tol = tolerated_faults(n)
    f_actual = n - len(honest)
    guarantees_void = 3 * f_actual >= n
    phases = f_tol + 1

    states = {m: PhaseKingParty(n, f_tol, instance.inputs[m]) for m in honest}
    index_of = {m: i for i, m in enumerate(participants)}
    others = {m: [r for r in participants if r != m] for m in participants}
    prefs_history: list[dict] = []

    def exchange(phase: int, round_: int, payload_of, senders) -> dict:
        """Send round messages from `senders`, deliver all, and return
        votes[recipient] = one vote per participant, the recipient's own
        value in its own slot (when it sent one) and BOT wherever nothing
        valid arrived."""
        votes = {m: [BOT] * n for m in honest}
        for sender in senders:
            if sender in scripts:
                script = scripts[sender]
                for recipient in participants:
                    if recipient == sender:
                        continue
                    action = script(phase, round_, recipient)
                    if action is None:
                        continue
                    if action[0] == "garbage":
                        payload = b"\xee_not_a_protocol_message"
                    else:
                        payload = encode_consensus(instance.instance_id, phase,
                                                   round_, action[1])
                    network.send_authenticated(sender, recipient, payload)
            else:
                value = payload_of(sender)
                votes[sender][index_of[sender]] = value
                network.broadcast(sender, others[sender],
                                  encode_consensus(instance.instance_id, phase, round_, value))

        memo: dict[bytes, bytes | None] = {}

        def on_delivery(delivery):
            row = votes.get(delivery.receiver)
            if row is None:
                return  # byzantine recipients run no honest logic
            payload = delivery.payload
            if payload not in memo:
                memo[payload] = vote(instance, phase, round_, payload)
            row[index_of[delivery.sender]] = memo[payload]

        network.drain(on_delivery)
        return votes

    for phase in range(1, phases + 1):
        king = participants[(phase - 1) % n]

        r1 = exchange(phase, 1, lambda m: states[m].r1_payload(), participants)
        for m in honest:
            states[m].r1_receive(r1[m])

        r2 = exchange(phase, 2, lambda m: states[m].r2_payload(), participants)
        for m in honest:
            states[m].r2_receive(r2[m])

        r3 = exchange(phase, 3, lambda m: states[m].r3_payload(), [king])
        for m in honest:
            states[m].r3_receive(r3[m][index_of[king]])

        prefs_history.append({m: states[m].pref for m in honest})
        if log is not None:
            log.append("consensus_phase", instance=instance.instance_id,
                       phase=phase, king=str(king))

    decisions = {m: (states[m].pref if m in states else None) for m in participants}

    decision_phase = phases
    if honest:
        final = {m: decisions[m] for m in honest}
        for phase_index in range(phases - 1, -1, -1):
            if prefs_history[phase_index] != final:
                break
            decision_phase = phase_index + 1

    return ConsensusResult(
        decisions=decisions,
        honest=honest,
        f_tolerance=f_tol,
        f_actual=f_actual,
        guarantees_void=guarantees_void,
        phases_run=phases,
        decision_phase=decision_phase,
    )

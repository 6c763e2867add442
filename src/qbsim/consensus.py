"""Byzantine agreement among the miners: multi-valued phase king.

One call, `run_consensus`, runs one instance on two maps: the honest
miners' inputs and the Byzantine miners' scripts (`SCRIPTS` builds a
script from its config-level name).

The algorithm runs f_tol + 1 phases with f_tol = floor((n-1)/3), three
rounds per phase:

  round 1  everyone broadcasts its preference; a value seen at least
           n - f_tol times becomes the new preference (two distinct
           values cannot both reach that threshold when n > 3f), else
           the party marks itself undecided (`adopt`);
  round 2  everyone broadcasts preference-or-undecided; each party
           picks the most frequent concrete value d (ties to the
           lexicographically smallest encoding) and its count
           (`plurality`);
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

from .encoding import decode_payload, encode
from .errors import ConsensusUsageError, EncodingError
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


# Byzantine scripts. A script is called once per (phase, round,
# recipient) and returns None (stay silent), ("garbage",) or ("value", v).


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


# Config-level script name -> factory (rng, candidates) -> script.
SCRIPTS = {
    "silent": lambda rng, candidates: lambda phase, round_, recipient: None,
    "garbage": lambda rng, candidates: lambda phase, round_, recipient: ("garbage",),
    "equivocate": equivocating_script,
}

MINER_SCRIPT_NAMES = tuple(SCRIPTS)


def adopt(votes: list, threshold: int) -> bytes | None:
    """Round 1: the value with at least `threshold` votes, else None (the
    party is undecided). At n - f_tol > n/2 at most one value qualifies."""
    for value in dict.fromkeys(votes):
        if votes.count(value) >= threshold:
            return value
    return None


def plurality(votes: list) -> tuple[bytes, int]:
    """Round 2: the most frequent concrete vote, ties to the smallest
    encoding, and its count; None, the undecided marker, is not counted.
    Without a concrete vote it is (BOT, 0)."""
    best, top = BOT, 0
    for value in dict.fromkeys(votes):
        if value is not None:
            count = votes.count(value)
            if count > top or (count == top and value < best):
                best, top = value, count
    return best, top


@dataclass
class ConsensusResult:
    decisions: dict  # every participant; None for Byzantine miners
    honest: tuple
    f_tolerance: int
    f_actual: int
    guarantees_void: bool
    phases_run: int
    decision_phase: int


def vote(instance_id: int, domain, phase: int, round_: int, payload: bytes):
    """The vote a delivered payload casts in (phase, round_) of instance
    `instance_id`: the value it carries, None for round 2's undecided
    flag, BOT for anything else."""
    try:
        msg = decode_payload(payload)
    except EncodingError:
        return BOT
    if (msg["kind"] != "consensus" or msg["instance"] != instance_id
            or msg["phase"] != phase or msg["round"] != round_):
        return BOT
    if msg["value"] is None:
        return None if round_ == 2 else BOT
    return msg["value"] if domain.contains(msg["value"]) else BOT


def run_consensus(inputs: dict, scripts: dict, network: Network, domain,
                  instance_id: int = 0) -> ConsensusResult:
    """Run one instance over the network, synchronous-round style.

    `inputs` maps each honest miner to its value and `scripts` each
    Byzantine miner to its script; together they are the participants.
    Each input must lie in `domain`, and no miner may be in both maps.
    The `consensus_phase` records go to `network.log`.
    """
    if both := inputs.keys() & scripts.keys():
        raise ConsensusUsageError(f"{min(both)} is both honest and Byzantine")
    honest = tuple(sorted(inputs))
    for m in honest:
        if not domain.contains(inputs[m]):
            raise ConsensusUsageError(f"{m} proposed a value outside the domain")
    participants = tuple(sorted(inputs.keys() | scripts.keys()))
    n = len(participants)
    f_tol = tolerated_faults(n)
    f_actual = n - len(honest)
    guarantees_void = 3 * f_actual >= n
    phases = f_tol + 1
    threshold = n - f_tol
    index_of = {m: i for i, m in enumerate(participants)}
    others = {m: [r for r in participants if r != m] for m in participants}

    def exchange(phase: int, round_: int, values: dict, senders) -> dict:
        """Send round messages from `senders`, each honest one broadcasting
        its entry in `values`, deliver all, and return votes[recipient] =
        one vote per participant, the recipient's own value in its own
        slot (when it sent one) and BOT wherever nothing valid arrived."""
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
                        payload = encode("consensus", instance=instance_id, phase=phase,
                                         round=round_, value=action[1])
                    network.send_authenticated(sender, recipient, payload)
            else:
                value = values[sender]
                votes[sender][index_of[sender]] = value
                network.broadcast(sender, others[sender],
                                  encode("consensus", instance=instance_id, phase=phase,
                                         round=round_, value=value))

        memo: dict[bytes, bytes | None] = {}

        def on_delivery(delivery):
            row = votes.get(delivery.receiver)
            if row is None:
                return  # byzantine recipients run no honest logic
            payload = delivery.payload
            if payload not in memo:
                memo[payload] = vote(instance_id, domain, phase, round_, payload)
            row[index_of[delivery.sender]] = memo[payload]

        network.drain(on_delivery)
        return votes

    prefs = {m: inputs[m] for m in honest}
    history: list[dict] = []  # honest preferences after each phase
    for phase in range(1, phases + 1):
        king = participants[(phase - 1) % n]
        votes = exchange(phase, 1, prefs, participants)
        prefs = {m: adopt(votes[m], threshold) for m in honest}
        votes = exchange(phase, 2, prefs, participants)
        best = {m: plurality(votes[m]) for m in honest}
        votes = exchange(phase, 3, {m: d for m, (d, _) in best.items()}, [king])
        slot = index_of[king]  # round 3: d with n - f_tol votes, else the king's value
        prefs = {m: d if count >= threshold else votes[m][slot]
                 for m, (d, count) in best.items()}
        history.append(prefs)
        network.log.append("consensus_phase", instance=instance_id, phase=phase,
                           king=str(king))

    decision_phase = phases
    while honest and decision_phase > 1 and history[decision_phase - 2] == prefs:
        decision_phase -= 1

    return ConsensusResult(
        decisions={m: prefs.get(m) for m in participants},
        honest=honest,
        f_tolerance=f_tol,
        f_actual=f_actual,
        guarantees_void=guarantees_void,
        phases_run=phases,
        decision_phase=decision_phase,
    )


def pair_key_blocks(n: int) -> int:
    """The most one-time key blocks two of `n` miners spend on each other
    in one instance: `exchange` sends one message each way in rounds 1
    and 2 of every phase, and one more in each of the at most two phases
    one of them is king. A lone miner sends nothing."""
    phases = tolerated_faults(n) + 1
    return 4 * phases + min(2, phases) if n >= 2 else 0

"""Protocol-level commit/open sessions.

The registry is the in-model stand-in for the quantum exchange between
one committer and one receiver: it holds the committed value privately,
logs nothing of it beyond the session id and bit length, and
adjudicates openings. A backend is one per-bit detection probability
p: each flipped bit escapes detection independently with probability
(1 - p), so an opening with k flipped bits succeeds with probability
(1 - p)^k and is otherwise caught. The ideal backend, p = 1, is
perfectly binding: any opening that differs from the committed value
is rejected outright.

A session's id is its position in the order of commits. Its state goes
from "committed" to "opened" or to "cheat_detected", once, and each
step is logged for the rest of the protocol (miners act on detections).
Session `id` draws its detections from its own substream
`(seed, "registry", id)`, so the order in which openings are delivered
decides nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .bits import BitString
from .errors import CommitmentStateError, QbsimError
from .eventlog import EventLog
from .parties import PartyId
from .rng import generator


@dataclass(frozen=True)
class Backend:
    """Per-bit detection probability p in (0, 1] and its commit-log text."""

    detection_prob_per_bit: float
    text: str

    def __post_init__(self):
        if not 0.0 < self.detection_prob_per_bit <= 1.0:
            raise QbsimError(
                f"per-bit detection probability must be in (0, 1], got {self.detection_prob_per_bit}"
            )

    def __str__(self) -> str:
        return self.text


IDEAL = Backend(1.0, "ideal")
# what `float()` may read of a `cheat:<p>` text: no space, no digit outside
# ASCII, no `nan` or `inf`, and no final newline
_PROBABILITY = re.compile("[0-9.eE+-]+")


def parse_backend(text: str) -> Backend:
    if text == "ideal":
        return IDEAL
    name, _, number = text.partition(":")
    if name == "cheat" and _PROBABILITY.fullmatch(number):
        try:
            p = float(number)
        except ValueError:
            pass  # not a number: named below
        else:
            return Backend(p, f"cheat:{p:g}")
    raise QbsimError(f"unknown backend {text!r} (expected 'ideal' or 'cheat:<p>')")


REJECT_EQUIVOCATION = "equivocation"
REJECT_UNKNOWN = "unknown_commitment"
REJECT_WRONG_PARTY = "wrong_party"


@dataclass(frozen=True)
class OpenResult:
    accepted: bool
    value: BitString | None = None
    reason: str | None = None

    @classmethod
    def accept(cls, value: BitString) -> "OpenResult":
        return cls(True, value=value)

    @classmethod
    def reject(cls, reason: str) -> "OpenResult":
        return cls(False, reason=reason)


class _Record:
    __slots__ = ("committer", "receiver", "value", "state", "backend")

    def __init__(self, committer, receiver, value, backend):
        self.committer = committer
        self.receiver = receiver
        self.value = value
        self.state = "committed"
        self.backend = backend


class CommitmentRegistry:
    """All commitment sessions of one scenario instance; a session's id
    is its position in the order of commits."""

    def __init__(self, seed: int, log: EventLog):
        self._seed = seed
        self._log = log
        self._records: list[_Record] = []

    # ------------------------------------------------------------ commit

    def commit(self, committer: PartyId, receiver: PartyId, value: BitString,
               backend: Backend) -> int:
        if len(value) < 1:
            raise QbsimError("cannot commit a zero-length value")
        commitment_id = len(self._records)
        self._records.append(_Record(committer, receiver, value, backend))
        if self._log.detail:
            self._log.append("commit", id=commitment_id, committer=str(committer),
                             receiver=str(receiver), backend=str(backend),
                             length=len(value))
        else:
            self._log.note("commit")
        return commitment_id

    # -------------------------------------------------------------- open

    def open(self, commitment_id: int, caller: PartyId, claimed: BitString) -> OpenResult:
        if not 0 <= commitment_id < len(self._records):
            return OpenResult.reject(REJECT_UNKNOWN)
        record = self._records[commitment_id]
        if caller != record.committer:
            return OpenResult.reject(REJECT_WRONG_PARTY)
        if record.state != "committed":
            raise CommitmentStateError(f"commitment {commitment_id} already {record.state}")

        flipped = (
            record.value.hamming_distance(claimed)
            if len(claimed) == len(record.value)
            else max(len(claimed), len(record.value))  # length change: every bit suspect
        )
        if flipped == 0:
            return self._finish(commitment_id, OpenResult.accept(record.value))

        p = record.backend.detection_prob_per_bit
        # at p = 1 every draw would detect: no draw can change the outcome;
        # below it every flipped bit takes its draw, detected or not
        if p == 1.0:
            return self._finish(commitment_id, OpenResult.reject(REJECT_EQUIVOCATION))
        rng = generator(self._seed, "registry", commitment_id)
        if any([rng.random() < p for _ in range(flipped)]):
            return self._finish(commitment_id, OpenResult.reject(REJECT_EQUIVOCATION))
        # cheat slipped through: the receiver accepts the claimed value
        return self._finish(commitment_id, OpenResult.accept(claimed))

    def _finish(self, commitment_id: int, result: OpenResult) -> OpenResult:
        record = self._records[commitment_id]
        record.state, event, outcome = (
            ("opened", "open", {"result": "accepted"}) if result.accepted
            else ("cheat_detected", "cheat_detected", {"reason": result.reason}))
        if self._log.detail:
            # declared_equivocation is a fixed report field: no caller declares one
            self._log.append(event, id=commitment_id, committer=str(record.committer),
                             receiver=str(record.receiver), **outcome,
                             declared_equivocation=False)
        else:
            self._log.note(event)
        return result

    # ------------------------------------------------------------ status

    def cheat_detected_committers(self) -> set[PartyId]:
        """Committers with at least one detected equivocation; the event
        log carries the same information for miners to act on."""
        return {r.committer for r in self._records if r.state == "cheat_detected"}

"""Per-miner append-only replicated logs of consensus-finalized records.
A record's kind is the record kind its body's tag byte names in the
wire-format table (`encoding.RECORD_KINDS`)."""

from __future__ import annotations

from dataclasses import dataclass

from .encoding import RECORD_KINDS
from .errors import LedgerError


@dataclass(frozen=True)
class LedgerRecord:
    height: int
    body: bytes
    origin_consensus: int

    def __post_init__(self):
        if self.height < 0:
            raise LedgerError(f"negative height {self.height}")
        if self.body[:1] not in RECORD_KINDS:
            raise LedgerError(f"tag {self.body[:1].hex() or '(none)'} names no record kind")

    @property
    def kind(self) -> str:
        return RECORD_KINDS[self.body[:1]]

    def to_dict(self) -> dict:
        return {
            "height": self.height,
            "kind": self.kind,
            "body": self.body.hex(),
            "origin_consensus": self.origin_consensus,
        }


class MinerLedger:
    """Append-only: nothing here removes or rewrites a record."""

    def __init__(self):
        self._records: list[LedgerRecord] = []

    @property
    def records(self) -> tuple[LedgerRecord, ...]:
        return tuple(self._records)

    @property
    def height(self) -> int:
        return len(self._records)

    def append_finalized(self, body: bytes, origin_consensus: int) -> LedgerRecord:
        """Append `body`, this miner's consensus decision for instance
        `origin_consensus`, at the next height."""
        record = LedgerRecord(len(self._records), body, origin_consensus)
        self._records.append(record)
        return record


def ledgers_consistent(ledgers) -> tuple[bool, int | None]:
    """True iff all given ledgers hold byte-identical record sequences;
    otherwise the height of the first divergence."""
    ledgers = list(ledgers)
    if len(ledgers) <= 1:
        return True, None
    reference = ledgers[0].records
    for other in ledgers[1:]:
        records = other.records
        for height in range(max(len(reference), len(records))):
            # a missing record, another body or another origin; the kind is the body's
            if reference[height:height + 1] != records[height:height + 1]:
                return False, height
    return True, None

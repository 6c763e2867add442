"""Per-miner append-only replicated logs of consensus-finalized records."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import LedgerError


class RecordKind(Enum):
    TICKET_LIST = "ticket_list"
    AUCTION_OUTCOME = "auction_outcome"


@dataclass(frozen=True)
class LedgerRecord:
    height: int
    kind: RecordKind
    body: bytes
    origin_consensus: int

    def __post_init__(self):
        if self.height < 0:
            raise LedgerError(f"negative height {self.height}")
        if not self.body:
            raise LedgerError("record body must be non-empty")

    def to_dict(self) -> dict:
        return {
            "height": self.height,
            "kind": self.kind.value,
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

    def append_finalized(self, kind: RecordKind, body: bytes,
                         origin_consensus: int) -> LedgerRecord:
        """Append `body`, this miner's consensus decision for instance
        `origin_consensus`, at the next height."""
        record = LedgerRecord(len(self._records), kind, body, origin_consensus)
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
            if height >= len(reference) or height >= len(records):
                return False, height
            a, b = reference[height], records[height]
            if (a.kind, a.body, a.origin_consensus) != (b.kind, b.body, b.origin_consensus):
                return False, height
    return True, None

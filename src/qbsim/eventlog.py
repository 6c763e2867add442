"""Structured per-run event log.

Detail mode keeps every record (feeds reports and the privacy scans);
summary mode keeps only per-kind counters so statistical batches stay
cheap. Records are plain dicts with a sequence number, ready for
canonical JSON.
"""

from __future__ import annotations

from .errors import QbsimError


class EventLog:
    def __init__(self, detail: bool = True):
        self.detail = detail
        self.records: list[dict] = []
        self.counters: dict[str, int] = {}
        self._seq = 0

    def append(self, event: str, **fields) -> dict | None:
        """Log one event; in detail mode the record is returned, so its
        producer can add to it later."""
        self.counters[event] = self.counters.get(event, 0) + 1
        if self.detail:
            # the keyword dict is the record: one dict per record, and
            # canonical JSON sorts its keys
            fields["seq"] = self._seq
            fields["event"] = event
            self.records.append(fields)
        self._seq += 1
        return fields if self.detail else None

    def note(self, event: str) -> int:
        """Count one event and take its sequence number, with no record:
        a delivery is stated on its send record, and summary-mode hot
        paths build no fields just to discard them."""
        self.counters[event] = self.counters.get(event, 0) + 1
        seq = self._seq
        self._seq = seq + 1
        return seq

    def head(self, event: str, **fields) -> dict:
        """A detail-mode record that states the events right after it
        (a broadcast's sends): it takes the seq of the first of them and
        consumes none, and it is counted under no kind; each of those
        events is counted and numbered by its own `note`."""
        fields["seq"] = self._seq
        fields["event"] = event
        self.records.append(fields)
        return fields

    def of_kind(self, kind: str) -> list[dict]:
        """Records of one kind; a summary-mode log keeps none to scan."""
        if not self.detail:
            raise QbsimError(f"scanning {kind!r} records needs the detail log")
        return [r for r in self.records if r["event"] == kind]

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

    def append(self, event: str, **fields):
        self.counters[event] = self.counters.get(event, 0) + 1
        if self.detail:
            # the keyword dict is the record: one dict per record, and
            # canonical JSON sorts its keys
            fields["seq"] = self._seq
            fields["event"] = event
            self.records.append(fields)
        self._seq += 1

    def note(self, event: str):
        """Counter-only fast path; hot-path callers use it in summary mode
        so no record fields get built just to be discarded."""
        self.counters[event] = self.counters.get(event, 0) + 1
        self._seq += 1

    @property
    def total_events(self) -> int:
        return self._seq

    def to_list(self) -> list[dict]:
        return list(self.records)

    def of_kind(self, kind: str) -> list[dict]:
        """Records of one kind; a summary-mode log keeps none to scan."""
        if not self.detail:
            raise QbsimError(f"scanning {kind!r} records needs the detail log")
        return [r for r in self.records if r["event"] == kind]

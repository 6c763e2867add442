"""Exception hierarchy shared by all qbsim modules."""


class QbsimError(Exception):
    """Base class for everything raised deliberately by this package."""


class ViolationsError(QbsimError):
    """Base for errors that carry every violated constraint, one a line,
    under the subclass's `heading`."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(f"{self.heading}:\n" + "\n".join(f"  - {v}" for v in self.violations))

    @classmethod
    def check(cls, violations):
        """Raise one error listing `violations`, if there are any."""
        if violations:
            raise cls(violations)


class ConfigError(ViolationsError):
    """Invalid scenario configuration; carries every violated constraint."""

    heading = "invalid configuration"


class ReportError(ViolationsError):
    """A run report violates the published report schema; carries every violation."""

    heading = "invalid report"


class DimensionMismatchError(QbsimError):
    """Operands live on incompatible spaces."""


class StateValidationError(QbsimError):
    """A quantum-state object violates its construction invariants."""


class SchemeValidationError(QbsimError):
    """A commitment scheme violates the definition it is meant to satisfy."""


class EncodingError(QbsimError):
    """A canonical byte encoding failed to parse."""


class KeyExhaustionError(QbsimError):
    """A pairwise one-time key stream ran out of blocks."""


class UnknownPartyError(QbsimError):
    """A message or commitment referenced a party outside the scenario."""


class CommitmentStateError(QbsimError):
    """A commitment record was driven through an illegal status transition."""


class ConsensusUsageError(QbsimError):
    """Consensus preconditions violated (bad proposal, missing input, ...)."""


class LedgerError(QbsimError):
    """Append without a matching consensus decision, or a corrupted ledger."""

"""Exception hierarchy for the package.

Every domain error carries a stable ``code`` string; the command line maps
codes onto exit statuses, so the codes are part of the public surface and
must not change casually.
"""


class ElimGameError(Exception):
    """Base class for all errors raised by this package."""

    code = "ERROR"


class ParseError(ElimGameError):
    """Malformed profile or sequence text."""

    code = "PARSE_ERROR"

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class CandidateUnknown(ElimGameError):
    code = "CANDIDATE_UNKNOWN"


class SequenceLengthMismatch(ElimGameError):
    code = "SEQUENCE_LENGTH_MISMATCH"


class InvalidVoter(ElimGameError):
    code = "INVALID_VOTER"


class TreeTooLarge(ElimGameError):
    code = "TREE_TOO_LARGE"


class ZeroWelfare(ElimGameError):
    code = "ZERO_WELFARE"


class OutOfDomain(ElimGameError):
    code = "OUT_OF_DOMAIN"


class BudgetExceeded(ElimGameError):
    code = "BUDGET_EXCEEDED"


class PhiOutOfRange(ElimGameError):
    code = "PHI_OUT_OF_RANGE"


class Unsatisfiable(ElimGameError):
    code = "UNSATISFIABLE"


class StructureUnsatisfiable(Unsatisfiable):
    """The elimination sequence admits no bound-attaining profile."""

    code = "STRUCTURE_UNSATISFIABLE"

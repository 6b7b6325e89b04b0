"""Exception types shared across the package."""


class TradeContestError(Exception):
    """Base class for all errors raised by this package."""


class CsvFormatError(TradeContestError):
    """A CSV row could not be parsed or violates bar invariants."""


class DuplicateBarError(TradeContestError):
    """Two bars share the same (symbol, date) key."""


class MissingDataError(TradeContestError):
    """A required bar is absent from the store."""


class TemporalViolationError(TradeContestError):
    """A query reached past the cutoff of a time-restricted view."""


class AgentUnavailableError(TradeContestError):
    """An external agent endpoint timed out or could not be reached."""


class ProtocolError(TradeContestError):
    """An external agent response was malformed or violated an invariant."""


class InsufficientHistoryError(TradeContestError):
    """A window operation was asked for more history than exists."""


class InsufficientCrossSectionError(TradeContestError):
    """A cross-sectional statistic needs at least two parallel series."""


class UndefinedCorrelationError(TradeContestError):
    """Rank correlation is undefined because an input is constant."""


class TrainingError(TradeContestError):
    """Predictor training was given too little or inconsistent data."""


class ConfigurationError(TradeContestError):
    """A run configuration is invalid or internally inconsistent."""


class InvariantError(TradeContestError):
    """An exchange rule that must hold on every day was broken."""

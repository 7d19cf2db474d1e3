"""Exception types shared across the package."""


class PairsieveError(Exception):
    """Base class for all package errors."""


class ZeroNorm(PairsieveError):
    """A vector that must be normalized has zero Euclidean norm."""


class DimMismatch(PairsieveError):
    """Operands have incompatible dimensions."""


class NonFiniteLoss(PairsieveError):
    """A loss evaluation produced NaN or infinity."""


class ConfigError(PairsieveError):
    """A configuration violates its invariants."""


class LedgerMiss(PairsieveError):
    """A score update referenced an id the ledger does not track."""


class EmptySet(PairsieveError):
    """An operation requires a non-empty retained set."""


class EmptyBatch(PairsieveError):
    """An operation requires a non-empty batch."""


class EmptyMask(PairsieveError):
    """A masked batch contains no masked positions."""


class NoNegatives(PairsieveError):
    """Contrastive loss requires at least one negative sample."""


class CacheMismatch(PairsieveError):
    """A backward pass received a cache from a different forward call."""


class FormatError(PairsieveError):
    """A binary file failed header or size validation."""


class MissingTruth(PairsieveError):
    """A retrieval query has no ground-truth key."""

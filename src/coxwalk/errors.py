"""Exceptions shared across the package."""


class CoxwalkError(Exception):
    """Base class for package errors."""


class InvalidRank(CoxwalkError, ValueError):
    """Rank parameters outside the domain of a group family or formula."""


class InvalidStepCount(CoxwalkError, ValueError):
    """Walk length t outside the domain of an engine (t < 0)."""


class SpecMismatch(CoxwalkError, ValueError):
    """Operands belong to different groups."""


class DParityViolation(CoxwalkError, ValueError):
    """Signed permutation with an odd number of sign changes used where a
    type-D element is required."""


class UnsupportedFamily(CoxwalkError, ValueError):
    """Element-level operation requested for a family without an element
    model (G(r,1,n) with r >= 3; use the A/B models for r in {1, 2})."""


class OrderLimitExceeded(CoxwalkError, RuntimeError):
    """Group order (or walk work estimate) exceeds the configured guard."""

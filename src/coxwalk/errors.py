"""Exceptions shared across the package, the one integer rule (``as_int``),
the one walk-length check, and Enum lookup."""

import operator


class CoxwalkError(Exception):
    """Base class for package errors."""


class InvalidRank(CoxwalkError, ValueError):
    """Rank parameters outside the domain of a group family or formula."""


class InvalidStepCount(CoxwalkError, ValueError):
    """Walk length t outside the domain of an engine or formula (not an
    integer, or t < 0)."""


class InvalidPair(CoxwalkError, IndexError):
    """Index pair (i, j) not integers, or outside the pairs a closed form
    covers."""


class InvalidTrialCount(CoxwalkError, ValueError):
    """Monte Carlo trial count not an integer, or below the 2 a standard error
    needs, or a worker count (the split of the trials) not an integer, or
    below 1."""


class InvalidSeed(CoxwalkError, ValueError):
    """Monte Carlo seed outside [0, 2^64), the key range of its streams."""


class InvalidTrialIndex(CoxwalkError, ValueError):
    """Monte Carlo trial index outside [0, 2^64), the key range of its
    streams."""


class InvalidGuardLimit(CoxwalkError, ValueError):
    """COXWALK_GUARD_LIMIT is set but is not a decimal integer."""


class SpecMismatch(CoxwalkError, ValueError):
    """Operands belong to different groups."""


class DParityViolation(CoxwalkError, ValueError):
    """Signed permutation with an odd number of sign changes used where a
    type-D element is required."""


class UnsupportedFamily(CoxwalkError, ValueError):
    """Operation requested where it does not exist: an element-level operation
    without an element model (G(r,1,n) with r >= 3; use the A/B models for r
    in {1, 2}), pair tables outside length under reflections in A, B, D, or a
    closed form that a (family, gens, measure) cell lacks."""


class OrderLimitExceeded(CoxwalkError, RuntimeError):
    """Group order (or walk work estimate) exceeds the configured guard."""


def as_int(value, error, what: str) -> int:
    """value as a Python int when it is an integer (a Python or numpy integer,
    or a bool), else error naming what; the one integer rule of the package."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def check_step_count(t: int) -> int:
    """t as a Python int; InvalidStepCount if it is not an integer or is below
    0.  Every engine and closed form calls this and walks the int it returns."""
    if (t := as_int(t, InvalidStepCount, "t")) < 0:
        raise InvalidStepCount(f"t must be >= 0, got {t}")
    return t


def as_member(enum, value):
    """The member of enum that value is or names ("A" names Family.A), else UnsupportedFamily."""
    if type(value) is enum:  # before enum's lookup, which costs 0.4 us
        return value
    try:
        return enum(value)
    except ValueError:
        names = ", ".join(m.value for m in enum)
    raise UnsupportedFamily(f"{value!r} names no {enum.__name__}; choose from {names}")

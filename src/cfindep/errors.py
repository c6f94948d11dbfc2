"""Exception hierarchy.

Every failure mode is an explicit exception; there are no NaN-like sentinel
values anywhere in the library.
"""


class CFIndepError(Exception):
    """Base class for all library errors."""


def refuse_assignment(self, name, value=None):
    """``__setattr__`` and ``__delattr__`` of the immutable value types."""
    raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")


# -- interval / dyadic kernel ------------------------------------------------

class DivisorContainsZero(CFIndepError):
    """Interval division where the divisor encloses zero."""


class NegativeSqrt(CFIndepError):
    """Square root of an interval with negative lower endpoint."""


class NoSignChange(CFIndepError):
    """Root refinement on an interval without a sign change."""


class NonConvergent(CFIndepError):
    """Iteration cap reached before the requested width."""


class NotSquarefree(CFIndepError):
    """Sturm machinery requires a squarefree polynomial."""


class BitBudgetExceeded(CFIndepError):
    """A generated quotient would exceed the per-quotient bit guard."""


# -- number fields -----------------------------------------------------------

class Reducible(CFIndepError):
    """Defining polynomial is not irreducible over the rationals."""


class NotMonic(CFIndepError):
    """Defining polynomial must be monic with integer coefficients."""


class RootNotIsolated(CFIndepError):
    """The root-selection interval does not isolate exactly one real root."""


class DivisionByZero(CFIndepError):
    """Inverse of the zero field element."""


class FieldMismatch(CFIndepError):
    """Arithmetic between elements of different number fields."""


class PrecisionInsufficient(CFIndepError):
    """Enclosures could not be separated at the working precision."""


# -- continued fractions -----------------------------------------------------

class QuotientBelowOne(CFIndepError):
    """A partial quotient whose identity-embedding value is below one."""


class TailContainsZero(CFIndepError):
    """Complex CF evaluation hit an exactly zero tail."""


# -- checkers ----------------------------------------------------------------

class IndeterminateAtPrecision(CFIndepError):
    """A strict inequality could not be decided after precision escalation."""


class UnknownFamily(CFIndepError):
    """Unrecognized sequence-generator kind."""


class RootsNotRealDistinctGreaterOne(CFIndepError):
    """Polynomial roots must be real, pairwise distinct, and greater than 1."""


# -- reports -----------------------------------------------------------------

class DecimalTooLong(CFIndepError):
    """An exact integer has more decimal digits than Python converts to a string."""


# -- relation search ---------------------------------------------------------

class RankDeficient(CFIndepError):
    """Lattice basis rows are linearly dependent."""


class PrecisionTooLow(CFIndepError):
    """Input enclosures are wider than the requested relation precision."""

"""Domain errors.

Every error below is part of the library contract: the class name is the
stable error code that the CLI prints on stderr before exiting with status 1.
"""


class FqLabError(Exception):
    """Base class for all fqlab domain errors."""


# field construction / arithmetic
class NotPrime(FqLabError):
    pass


class DegreeZero(FqLabError):
    pass


class FieldTooLarge(FqLabError):
    pass


class InvalidCap(FqLabError, ValueError):
    """The FQLAB_CAP override is not a power of two in [2, 2^24]."""


class MalformedDescriptor(FqLabError, ValueError):
    """A field descriptor is not of the form "p" or "p^m" with integers p, m."""


class NoIrreducibleFound(FqLabError):
    """Internal: the modulus search failed, which indicates a construction bug."""


class DivisionByZero(FqLabError, ZeroDivisionError):
    pass


class NotProperSubfield(FqLabError):
    pass


# set algebra
class MalformedLiteral(FqLabError, ValueError):
    """A set literal, set element or scalar argument is not an integer."""


class ElementOutOfRange(FqLabError, ValueError):
    """An element encoding lies outside [0, q)."""


class MixedFields(FqLabError):
    pass


class ZeroDivisorInRatio(FqLabError):
    pass


class ZeroShift(FqLabError):
    pass


class ZeroElement(FqLabError, ValueError):
    """An element the statement needs nonzero (a dilation factor) is 0 in the field."""


class SetTooSmall(FqLabError):
    pass


class ZeroInDenominatorSet(FqLabError):
    pass


class EmptySet(FqLabError):
    pass


class EmptyAfterZeroStrip(FqLabError):
    pass


# decompositions
class SumBelowK(FqLabError):
    pass


class EmptySpectrum(FqLabError):
    pass


class DegenerateSlice(FqLabError):
    pass


class SecondSetLarger(FqLabError, ValueError):
    """A dyadic slice of the ratios y/x was asked for with |Y| > |X|."""


class TraceDegenerate(FqLabError):
    pass


class ZeroInSet(FqLabError):
    pass


class InvariantViolated(FqLabError):
    """A proof-critical invariant failed; raised explicitly rather than
    asserted, so the check still runs under python -O."""


# lemma oracles
class NotSubsets(FqLabError):
    pass


class NotApplicable(FqLabError):
    pass


class EpsilonOutOfRange(FqLabError):
    pass


# survey
class InvalidSurveyConfig(FqLabError, ValueError):
    """A survey asks for fewer than one trial, a negative seed, a size below 2,
    or an unknown sampler, alpha policy or kind."""


class SizeInfeasible(FqLabError):
    pass


class NoProperSubfield(FqLabError):
    pass


class BudgetExceeded(FqLabError):
    pass


class IoFailure(FqLabError):
    pass

"""Exception types shared across the package."""


class LcmLatError(Exception):
    """Base class for every error raised by this package."""


class CyclicCovers(LcmLatError):
    """The cover relation supplied to a lattice constructor has a cycle."""


class NotBounded(LcmLatError):
    """The poset lacks a unique bottom or a unique top element."""


class NotALattice(LcmLatError):
    """Some pair of elements has no unique meet or join."""


class NotComparable(LcmLatError):
    """An interval operation was asked for an incomparable (or equal) pair."""


class BadExponent(LcmLatError, ValueError):
    """A monomial exponent is negative or not an integer."""


class BadComplex(LcmLatError, ValueError):
    """A simplicial complex is malformed, or a boundary map was asked of a
    dimension below 0."""


class UnitGenerator(LcmLatError):
    """A monomial generator equal to 1 was supplied."""


class EmptyGeneratorSet(LcmLatError):
    """An ideal needs at least one generator."""


class ArityMismatch(LcmLatError, ValueError):
    """A generator has a different number of variables than its ideal."""


class NotMinimal(LcmLatError, ValueError):
    """One generator of an ideal divides another; ``minimalize`` drops it."""


class MissingLabels(LcmLatError, ValueError):
    """A Betti number or pd was asked of a lattice without monomial labels."""


class NotAtomic(LcmLatError):
    """The lattice is not atomic (required e.g. by the Phan construction)."""


class NoEdges(LcmLatError):
    """The graph has no edges, so it has no edge ideal."""


class BadParameter(LcmLatError):
    """A constructor parameter is out of range (non-prime q, cycle n < 3, ...)."""


class TooLarge(LcmLatError):
    """The requested object exceeds the supported element capacity."""


class ContractViolation(LcmLatError):
    """A proved inequality or implication failed: an implementation bug."""


class TheoremViolation(LcmLatError):
    """A lattice-side verdict disagreed with its graph-side characterization."""


class BadTheoremId(LcmLatError):
    """Unknown verification case id."""


class ResourceLimit(LcmLatError):
    """taylor_betti was given more than ``taylor.MAX_GENERATORS`` (16) generators."""


class FormatError(LcmLatError):
    """A file could not be parsed; the message carries the line number."""

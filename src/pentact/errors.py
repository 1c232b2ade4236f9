"""Exception hierarchy shared by all pentact modules."""


class PentactError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PentactError):
    """Malformed input file."""


class NonPlanar(PentactError):
    """Input graph admits no planar embedding."""


class NotTriangulated(PentactError):
    """Some inner face has four or more sides."""


class OuterFaceMismatch(PentactError):
    """The prescribed outer cycle is not a face of the embedding."""


class ChordPresent(PentactError):
    """Edge between two non-consecutive outer vertices."""


class InvalidSize(PentactError):
    """Requested instance size is out of range."""


class MissingEdgeAmbiguous(PentactError):
    """A face does not have exactly one missing-outgoing corner."""


class TooLarge(PentactError):
    """Instance exceeds the guard for exhaustive operations."""


class NotDirectedFace(PentactError):
    """Cycle passed to flip is not a directed facial cycle."""


class DimensionMismatch(PentactError):
    """Internal inconsistency while assembling the linear system."""


class SingularMatrix(PentactError):
    """The system matrix is singular; this indicates a bug upstream."""


class CycleLinkFailure(PentactError):
    """Sign-separating edges did not link into disjoint simple cycles."""


class NegativeInput(PentactError):
    """Layout requested from a solution with negative entries."""


class ClosureFailure(PentactError):
    """A skeleton cycle failed to close during coordinate propagation."""


class DegenerateContact(PentactError):
    """Corner-corner contact; the induced forest is ambiguous."""

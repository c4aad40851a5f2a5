"""Exception taxonomy shared across the package."""


class PolystressError(Exception):
    """Base class for all package errors."""


class InvalidArgument(PolystressError):
    pass


class InvalidComplex(PolystressError):
    pass


class NotAFace(PolystressError):
    pass


class DegenerateFace(PolystressError):
    """Face whose points are affinely dependent."""


class NotAVertex(PolystressError):
    pass


class DegenerateQuotient(PolystressError):
    pass


class NotSimplicial(PolystressError):
    """Point configuration whose hull has a non-simplex facet."""


class DegenerateEmbedding(PolystressError):
    """Points that fail to span the ambient space affinely."""


class ExpansionFailure(PolystressError):
    """Squarefree part with no unique full-polynomial completion."""


class NotNeighborlyEnough(PolystressError):
    pass


class NotMissing(PolystressError):
    pass


class RigidityFailure(PolystressError):
    pass


class InvalidInput(PolystressError):
    pass


class InvalidCertificate(PolystressError):
    pass


class ReconstructionFailure(PolystressError):
    pass


class CompletionFailure(PolystressError):
    pass


class InternalArithmeticError(PolystressError, ArithmeticError):
    """Exact arithmetic broke an invariant the package relies on: an
    inexact division in elimination, or an unbounded LP."""


class ParseError(PolystressError):
    """Malformed document; message carries the location."""

"""Exception hierarchy for the toolkit.

Every domain error raised by the library derives from :class:`FoursubError`,
so callers (in particular the CLI) can distinguish domain failures from
programming errors and parse failures.
"""

from __future__ import annotations


class FoursubError(Exception):
    """Base class for all domain errors raised by this package."""


# --- field / scalar level ---------------------------------------------------

class FieldMismatch(FoursubError):
    """Operands belong to different base fields."""


class DivisionByZero(FoursubError):
    """Division or inversion of the zero element."""


class UnsupportedField(FoursubError):
    """The requested operation is not supported over this field."""


# --- matrix level -----------------------------------------------------------

class DimensionMismatch(FoursubError):
    """Matrix shapes are not conformable for the requested operation."""


class NotSquare(FoursubError):
    """A square matrix was required."""


class ReducibleModulus(FoursubError):
    """A polynomial that must be irreducible failed the irreducibility test."""


# --- representation level ---------------------------------------------------

class ShapeError(FoursubError):
    """A representation's matrix has the wrong shape for its arrow."""


class QuiverMismatch(FoursubError):
    """Two representations live over different quivers."""


class ZeroObject(FoursubError):
    """The zero representation was passed where a nonzero one is required."""


class IndecomposabilityUndecided(FoursubError):
    """The layered indecomposability test bottomed out in its heuristic layer."""


class NotIndecomposable(FoursubError):
    """A single indecomposable object was required, but the input decomposes."""


# --- linear relations -------------------------------------------------------

class NotIdempotent(FoursubError):
    """The supplied endomorphism is not idempotent."""


class ImagePullbackError(FoursubError):
    """A summand of the S- or K-representation of a relation object has
    source maps without full column rank, so it is not the representation
    of any relation.

    A summand of a representation with injective source maps has them
    too, so this always indicates an internal bug and is surfaced loudly
    rather than ignored.
    """


# --- functors ---------------------------------------------------------------

class SourceMismatch(FoursubError):
    """The object does not belong to the functor's source category."""


class RestrictionNotContained(FoursubError):
    """A morphism does not map the relation subspace into the target subspace."""


class NotInC5(FoursubError):
    """An endpoint of an extension is not in the essential image of functor 5."""


# --- canonical families / classification ------------------------------------

class InvalidTag(FoursubError):
    """The tag does not denote a canonical family member of its category."""


class UnclassifiedSummand(FoursubError):
    """An indecomposable summand matched no canonical family tag."""


# --- census -----------------------------------------------------------------

class TooLarge(FoursubError):
    """The enumeration space exceeds the census guard."""


class UnmatchedClass(FoursubError):
    """A census sweep found an indecomposable class no canonical tag matches."""


# --- input parsing ----------------------------------------------------------

class ParseError(FoursubError):
    """Malformed textual input (rep/relation files, tags, polynomials)."""

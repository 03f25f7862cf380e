"""Exception hierarchy shared by all eqbundles modules."""


class EqBundlesError(Exception):
    """Base class for all package errors."""


class ConductorMismatch(EqBundlesError):
    """Two exact scalars (or containers of them) live in different cyclotomic fields."""


class DimensionMismatch(EqBundlesError):
    """Matrix/vector shapes are incompatible for the requested operation."""


class NonUnimodular(EqBundlesError):
    """Determinant is not a unit monomial c*z^k, so the matrix is not a valid gluing/bundle map."""


class MissingElement(EqBundlesError):
    """An equivariant structure lacks a map for some group element, or has
    one for a name that is not a group element."""


class NoSuchStructure(EqBundlesError):
    """The requested equivariant structure does not exist (parity obstruction)."""


class NotComparable(EqBundlesError):
    """Two structures do not live on the same bundle/group and cannot be compared."""


class InternalInconsistency(EqBundlesError):
    """A guaranteed postcondition failed; indicates a bug, not bad input."""


class InvalidStructure(EqBundlesError):
    """An operation required a validated equivariant structure and did not get one."""


class ShapeMismatch(EqBundlesError):
    """A certificate does not fit the target bundle."""


class ParseError(EqBundlesError):
    """A document or scalar string failed to parse; carries line/column when
    known, and the message without them."""

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ValidationError(EqBundlesError):
    """A parsed document violates the invariants of its kind."""

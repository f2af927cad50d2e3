"""Exception types shared across the package, and the JSON type check and
the malformed-document boundary the document loaders share."""

from contextlib import contextmanager


class CutcountError(Exception):
    """Base class for every error this package raises deliberately."""


# --- semilattice validation ---

class NoMinimum(CutcountError):
    """No flat lies below every other flat."""


class NotAPartialOrder(CutcountError):
    """The given relation violates antisymmetry or transitivity."""


class MissingMeet(CutcountError):
    """Two flats have no greatest lower bound."""


class RankViolation(CutcountError):
    """Dimensions do not decrease strictly along the order."""


class UnknownFlat(CutcountError):
    """A flat id is not part of the semilattice."""


class NegativeCoefficient(CutcountError):
    """A face polynomial came out with a negative count."""


# --- exact geometry ---

class DuplicateHyperplane(CutcountError):
    """Two input hyperplanes coincide as point sets."""


class FlatNotInLattice(CutcountError):
    """The requested flat is not an intersection of the arrangement."""


# --- budgets ---

class CapExceeded(CutcountError):
    """The input is larger than a cap or budget allows."""


# --- wiring diagrams ---

class OutOfRange(CutcountError):
    """A diagram has no wire, or an event does not fit the wire positions."""


class RepeatedCrossing(CutcountError):
    """A pair of wires crosses more than once."""


# --- CLI ---

class ParseError(CutcountError):
    """An input document is malformed."""


def json_field(value, kind: type, what: str):
    """`value` when its JSON type is exactly `kind`: int, list, or dict (an
    object); ParseError otherwise, so nothing is coerced: `true` is no int."""
    if type(value) is not kind:
        raise ParseError(f"{what} must be a JSON {'object' if kind is dict else kind.__name__}, got {value!r}")
    return value


@contextmanager
def malformed(kind: str):
    """While a `kind` document is read, a KeyError (a missing field), TypeError,
    ValueError or ParseError becomes ParseError("malformed <kind> document:
    ..."); any other CutcountError is a validation fault and passes through."""
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"malformed {kind} document: missing field {exc}") from exc
    except (TypeError, ValueError, ParseError) as exc:
        raise ParseError(f"malformed {kind} document: {exc}") from exc


class UnsupportedKind(CutcountError):
    """The command does not apply to this input kind."""


class ParamError(CutcountError):
    """Generator parameters are out of range or inconsistent."""

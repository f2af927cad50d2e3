"""Exception types shared across the package, and the JSON type check the
document loaders share."""


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
    """A crossing event does not fit the current wire positions."""


class RepeatedCrossing(CutcountError):
    """A pair of wires crosses more than once."""


# --- CLI ---

class ParseError(CutcountError):
    """An input document is malformed."""


def json_field(value, kind: type, what: str):
    """`value` when its JSON type is exactly `kind`, int or list; ParseError
    otherwise, so nothing is coerced: `true` and `3.9` are not integers."""
    if type(value) is not kind:
        raise ParseError(f"{what} must be a JSON {kind.__name__}, got {value!r}")
    return value


class UnsupportedKind(CutcountError):
    """The command does not apply to this input kind."""


class ParamError(CutcountError):
    """Generator parameters are out of range or inconsistent."""

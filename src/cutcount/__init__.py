"""Intersection lattices, Möbius polynomials, and exact face counts for
hyperplane and pseudoline arrangements."""

from .errors import (
    CapExceeded,
    CutcountError,
    DuplicateHyperplane,
    FlatNotInLattice,
    MissingMeet,
    NegativeCoefficient,
    NoMinimum,
    NotAPartialOrder,
    OutOfRange,
    ParamError,
    ParseError,
    RankViolation,
    RepeatedCrossing,
    UnknownFlat,
    UnsupportedKind,
)
from .exactgeom import (
    Arrangement,
    arrangement_from_json,
    arrangement_to_json,
    build_lattice,
)
from .faces import (
    enumerate_faces,
    f_vector_oracle,
    faces_to_json,
)
from .poset import (
    BiPolynomial,
    Semilattice,
    f_from_mobius,
    mobius_polynomial,
    semilattice_from_json,
)
from .wiring import (
    WiringDiagram,
    lattice_from_wiring,
    sweep_f_vector,
    wiring_from_json,
    wiring_to_json,
)

__version__ = "0.1.0"

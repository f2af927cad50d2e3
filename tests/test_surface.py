"""The names the package exports; adding or dropping one is a deliberate edit."""

import types

import cutcount


def test_public_surface():
    names = sorted(
        name for name, value in vars(cutcount).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == [
        "AffineFlat", "Arrangement", "BiPolynomial", "CapExceeded", "CrossingEvent",
        "CutcountError", "DimensionMismatch", "DuplicateHyperplane", "FaceRecord", "Flat",
        "FlatNotInLattice", "Hyperplane", "MissingMeet", "NegativeCoefficient", "NoMinimum",
        "NotAPartialOrder", "OutOfRange", "ParamError", "ParseError", "RankViolation",
        "RepeatedCrossing", "Semilattice", "UnknownFlat", "UnsupportedKind", "WiringDiagram",
        "arrangement_from_json", "arrangement_to_json", "build_lattice",
        "enumerate_faces", "f_from_mobius", "f_vector_from_semilattice",
        "f_vector_oracle", "faces_to_json", "feasible", "intersect", "lattice_from_wiring",
        "mobius_polynomial", "parse_rational", "restrict", "semilattice_from_json",
        "semilattice_to_json", "sweep_f_vector", "upper_set", "validate_semilattice",
        "validate_wiring", "wiring_from_json", "wiring_to_json",
    ]

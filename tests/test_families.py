"""Arrangements with face counts known in closed form, checked on both sides:
the Möbius polynomial of the lattice and the face oracle. Each expected
count is computed here from its formula, never from cutcount; one nearly
central arrangement without a closed form is checked for agreement only."""

from itertools import combinations
from math import comb, factorial

import pytest

from cutcount.exactgeom import Arrangement, build_lattice
from cutcount.faces import DEFAULT_CAP, f_vector_oracle
from cutcount.poset import mobius_polynomial
from reference import f_vector_from_semilattice, flats_by_id


def stirling2(n, k):
    """Partitions of an n-set into k blocks."""
    if n == 0:
        return int(k == 0)
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def both_sides(A, cap=DEFAULT_CAP):
    """The f-vector read off the lattice, after checking the oracle agrees."""
    f = f_vector_from_semilattice(build_lattice(A))
    assert f_vector_oracle(A, cap=cap) == f
    return f


def expand(roots):
    """Coefficients, constant term first, of the product of (t - a) over the roots."""
    coeffs = [1]
    for a in roots:
        shifted = [0, *coeffs]
        coeffs = [c - a * d for c, d in zip(shifted, [*coeffs, 0])]
    return coeffs


def differences(n, values):
    # x_i - x_j = c for i < j and each c in values
    return [(*(int(k == i) - int(k == j) for k in range(n)), c)
            for i, j in combinations(range(n), 2) for c in values]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_braid_arrangement(n):
    # x_i = x_j for i < j: a face of dimension k is an ordered partition of
    # the n coordinates into k blocks, and the line x_1 = ... = x_n lies in
    # every face, so there is no vertex
    expected = [0] + [factorial(k) * stirling2(n, k) for k in range(1, n + 1)]
    assert both_sides(Arrangement(n, differences(n, [0]))) == expected


def test_central_planes_and_one_affine_plane():
    # the affine plane is parallel to one central plane and meets the others
    # in lines and points off the origin
    normals = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, -1, 2)]
    A = Arrangement(3, [(*v, 0) for v in normals] + [(1, 1, 1, 7)])
    L = build_lattice(A)
    assert sum(1 for f in flats_by_id(L).values() if f.dim == 0) > 1
    assert f_vector_from_semilattice(L) == f_vector_oracle(A)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_shi_arrangement(n):
    # (n + 1)^(n - 1) regions (Shi 1986); n = 5 has 20 planes, past the default cap
    A = Arrangement(n, differences(n, [0, 1]))
    assert both_sides(A, cap=len(A))[-1] == (n + 1) ** (n - 1)


def test_catalan_arrangement():
    # n! C_n regions, C_n the Catalan number; n = 4 has 18 planes, past the default cap
    for n in (3, 4):
        catalan = comb(2 * n, n) // (n + 1)
        A = Arrangement(n, differences(n, [-1, 0, 1]))
        assert both_sides(A, cap=len(A))[-1] == factorial(n) * catalan


@pytest.mark.parametrize("n", [4, 5])
def test_linial_arrangement(n):
    # 2^-n sum_k C(n, k) (k + 1)^(n - 1) regions (Postnikov-Stanley 2000)
    total = sum(comb(n, k) * (k + 1) ** (n - 1) for k in range(n + 1))
    assert total % 2 ** n == 0
    assert both_sides(Arrangement(n, differences(n, [1])))[-1] == total // 2 ** n


@pytest.mark.parametrize("n", range(1, 7))
def test_coordinate_arrangement(n):
    # a face of dimension k picks k nonzero coordinates and their signs
    A = Arrangement(n, [(*(int(k == i) for k in range(n)), 0) for i in range(n)])
    assert both_sides(A) == [comb(n, k) * 2 ** k for k in range(n + 1)]


@pytest.mark.parametrize("d, m", [(1, 4), (2, 6), (3, 7), (4, 8), (5, 8)])
def test_generic_arrangement(d, m):
    # planes (1, t, ..., t^(d-1)) . x = t^d: t^d - (1, t, ..., t^(d-1)) . x is
    # monic of degree d in t, so any d planes meet in one point (Vandermonde)
    # and no d + 1 do; Buck (1943) counts the faces
    A = Arrangement(d, [(*(t ** e for e in range(d)), t ** d) for t in range(1, m + 1)])
    assert both_sides(A) == [comb(m, d - k) * sum(comb(m - d + k, i) for i in range(k + 1))
                             for k in range(d + 1)]


def signed_pairs(n):
    # x_i - x_j = 0 and x_i + x_j = 0 for i < j
    return [(*(int(k == i) + s * int(k == j) for k in range(n)), 0)
            for i, j in combinations(range(n), 2) for s in (-1, 1)]


def check_coxeter(A, cap, regions, exponents):
    # a reflection arrangement has characteristic polynomial prod (t - e) over
    # its exponents e (Orlik-Solomon 1980); M(0, t) is that polynomial, the
    # x^0 terms of the Möbius polynomial, as the rank is the ambient dimension
    assert both_sides(A, cap)[-1] == regions
    M = mobius_polynomial(build_lattice(A))
    assert [M.coefficient(0, k) for k in range(A.ambient_dim + 1)] == expand(exponents)


@pytest.mark.parametrize("n, cap", [(3, DEFAULT_CAP), (4, 16)])
def test_coxeter_b(n, cap):
    # x_i = +-x_j and x_i = 0, n^2 planes: the 2^n n! regions are the signed
    # permutations, and the exponents are 1, 3, ..., 2n - 1
    A = Arrangement(n, signed_pairs(n) + [(*(int(k == i) for k in range(n)), 0) for i in range(n)])
    check_coxeter(A, cap, 2 ** n * factorial(n), [2 * k + 1 for k in range(n)])


@pytest.mark.parametrize("n", [4])
def test_coxeter_d(n):
    # x_i = +-x_j, n(n - 1) planes: 2^(n-1) n! regions, exponents 1, 3, ..., 2n - 3
    # and n - 1; central with many flats not in general position
    A = Arrangement(n, signed_pairs(n))
    check_coxeter(A, DEFAULT_CAP, 2 ** (n - 1) * factorial(n), [2 * k + 1 for k in range(n - 1)] + [n - 1])

"""Central and nearly central arrangements, with face counts known in closed
form where there is one, checked on both sides: the Möbius polynomial of the
lattice and the face oracle."""

from itertools import combinations
from math import factorial

import pytest

from cutcount.exactgeom import Arrangement, Hyperplane, build_lattice
from cutcount.faces import f_vector_oracle
from cutcount.poset import f_vector_from_semilattice


def stirling2(n, k):
    """Partitions of an n-set into k blocks."""
    if n == 0:
        return int(k == 0)
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_braid_arrangement(n):
    # x_i = x_j for i < j: a face of dimension k is an ordered partition of
    # the n coordinates into k blocks, and the line x_1 = ... = x_n lies in
    # every face, so there is no vertex
    planes = [tuple(int(c == i) - int(c == j) for c in range(n)) for i, j in combinations(range(n), 2)]
    A = Arrangement(n, [Hyperplane(v, 0) for v in planes])
    expected = [0] + [factorial(k) * stirling2(n, k) for k in range(1, n + 1)]
    assert f_vector_from_semilattice(build_lattice(A)) == expected
    assert f_vector_oracle(A) == expected


def test_central_planes_and_one_affine_plane():
    # the affine plane is parallel to one central plane and meets the others
    # in lines and points off the origin
    normals = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, -1, 2)]
    A = Arrangement(3, [Hyperplane(v, 0) for v in normals] + [Hyperplane((1, 1, 1), 7)])
    L = build_lattice(A)
    assert sum(1 for x in L.ids() if L.flats[x].dim == 0) > 1
    assert f_vector_from_semilattice(L) == f_vector_oracle(A)

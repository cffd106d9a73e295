"""Shared construction helpers for the test suite."""

import random
from fractions import Fraction

from tautilt.homology import ext1
from tautilt.linalg import Matrix, solve_linear
from tautilt.rep import Representation

# non-monomial relation b*a - d*c
COMMUTATIVE_SQUARE = (
    "algebra square { vertices: 1 2 3 4; "
    "arrows: a: 1->2, b: 2->4, c: 1->3, d: 3->4; "
    "relations: b*a - d*c; }"
)
# the double quiver of A3 with radical square zero: three pairs of its
# support tau-tilting pairs share their summands' dimension vectors
DOUBLE_A3_RAD2 = (
    "algebra double_a3 { vertices: 1 2 3; "
    "arrows: a: 1->2, b: 2->1, c: 2->3, d: 3->2; "
    "relations: b*a, d*c, c*a, b*d, a*b, c*d; }"
)
# self-injective Nakayama algebras on the oriented 3-cycle: their AR quivers
# are cyclic, so no ordering of the indecomposables makes the mesh triangular
NAKAYAMA_CYCLE_RAD2 = (
    "algebra nakayama_rad2 { vertices: 1 2 3; arrows: a: 1->2, b: 2->3, c: 3->1; "
    "relations: b*a, c*b, a*c; }"
)
NAKAYAMA_CYCLE_RAD3 = (
    "algebra nakayama_rad3 { vertices: 1 2 3; arrows: a: 1->2, b: 2->3, c: 3->1; "
    "relations: c*b*a, a*c*b, b*a*c; }"
)


def R(algebra, dims, **maps):
    """Build a representation from row-lists keyed by arrow name."""
    built = {}
    for name, rows in maps.items():
        arrow = algebra.quiver.arrows[algebra.quiver.arrow_index(name)]
        built[name] = Matrix.from_rows(rows, cols=dims[arrow.source - 1])
    return Representation(algebra, dims, built)


def random_invertible(rng, n):
    while True:
        m = Matrix.from_rows(
            [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)], cols=n
        )
        if n == 0 or m.rank() == n:
            return m


def conjugate(m, seed=0):
    """A representation isomorphic to m via a seeded random change of basis."""
    rng = random.Random(seed)
    mats = [random_invertible(rng, d) for d in m.dims]
    inverses = [solve_linear(p, Matrix.identity(p.rows))[0] for p in mats]
    maps = {}
    for arrow in m.algebra.quiver.arrows:
        s, t = arrow.source - 1, arrow.target - 1
        maps[arrow.name] = mats[t] @ m.arrow_maps[arrow.name] @ inverses[s]
    return Representation(m.algebra, m.dims, maps)


def skewed_121(algebra):
    """The indecomposable with dimension vector 121 over the skewed triangle."""
    return R(algebra, (1, 2, 1), a=[[1], [0]], b=[[0, 1]], c=[[1]])


def skewed_101(algebra):
    return R(algebra, (1, 0, 1), c=[[1]])


def ext_dim(m, n):
    """dim Ext^1(m, n) from the module-level computation, AR-formula check included."""
    return ext1(m, n).dim

"""Shared construction helpers for the test suite."""

import random
from itertools import accumulate
from fractions import Fraction

from tautilt.algebra import Path
from tautilt.errors import ContractViolation
from tautilt.homology import (
    _assemble,
    _combination_coefficients,
    _on_copies,
    _proj_copy_morphism,
    ext1,
    projective,
    projective_sum,
    right_multiplication,
)
from tautilt.linalg import Matrix, solve_linear
from tautilt.rep import (
    Morphism,
    Representation,
    _indec_iso,
    decompose,
    direct_sum,
    hom_basis,
    hom_dim,
    identity_morphism,
    zero_morphism,
    zero_rep,
)

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


def naive_rref(rows, cols):
    """Textbook Gauss-Jordan over Fractions, as an oracle for `linalg`:
    (reduced rows, pivot columns), pivots scaled to one, zero rows last."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(cols):
        sel = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def naive_span(rows, cols):
    """The canonical basis of the span of rows: the nonzero rows of their rref."""
    red, pivots = naive_rref(rows, cols)
    return red[:len(pivots)]


def naive_kernel(rows, cols):
    """The canonical basis of {v : rows v = 0}."""
    red, pivots = naive_rref(rows, cols)
    vecs = []
    for f in range(cols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -red[r][f]
        vecs.append(vec)
    return naive_span(vecs, cols)


# -- reference constructions: the engine's earlier, slower paths ----------------------


def composite_proj_sum_morphism(ps, x, vectors):
    """`proj_sum_morphism` as a sum over copies k of (P(i_k) -> x) . projection_k."""
    total = zero_morphism(ps.rep, x)
    for k, (i, vec) in enumerate(zip(ps.vertices, vectors)):
        total = total + (_proj_copy_morphism(ps.algebra, i, x, vec) @ ps.projections[k])
    return total


def unit_vector_hom_basis_from_projsum(ps, x):
    """`hom_basis_from_projsum` built one unit vector at a time, every path
    matrix recomputed for each."""
    out = []
    for k, i in enumerate(ps.vertices):
        d = x.dims[i - 1]
        for r in range(d):
            vec = [Fraction(0)] * d
            vec[r] = Fraction(1)
            out.append(_on_copies(ps, x, {k: _proj_copy_morphism(ps.algebra, i, x, vec)}))
    return out


def composite_hom_basis_from_projsum(ps, x):
    """`hom_basis_from_projsum` with each basis map composed through a projection."""
    out = []
    for k, i in enumerate(ps.vertices):
        d = x.dims[i - 1]
        for r in range(d):
            vec = [Fraction(0)] * d
            vec[r] = Fraction(1)
            out.append(_proj_copy_morphism(ps.algebra, i, x, vec) @ ps.projections[k])
    return out


def composite_star_of_presentation_map(pres):
    """`star_of_presentation_map` as a sum of inclusion . component . projection."""
    a = pres.m.algebra
    op = a.opposite()
    op_p0 = projective_sum(op, pres.p0.vertices)
    op_p1 = projective_sum(op, pres.p1.vertices)
    dstar = zero_morphism(op_p0.rep, op_p1.rep)
    for b, i_b in enumerate(pres.p1.vertices):
        triv_col = a.block_paths(i_b, i_b).index(Path(i_b, ()))
        offset = sum(projective(a, pres.p1.vertices[x]).dims[i_b - 1] for x in range(b))
        row_offset = 0
        for aa, j_a in enumerate(pres.p0.vertices):
            block = a.block_paths(j_a, i_b)
            element = {}
            for r, p in enumerate(block):
                coeff = pres.d.maps[i_b - 1][row_offset + r, offset + triv_col]
                if coeff:
                    element[Path(i_b, tuple(reversed(p.arrows)))] = coeff
            row_offset += len(block)
            if element:
                comp = right_multiplication(op, j_a, i_b, element)
                dstar = dstar + (op_p1.inclusions[b] @ comp @ op_p0.projections[aa])
    return op_p0, op_p1, dstar


def matched_iso_test(m, n):
    """`iso_test` by decompose-and-match for every input: an explicit
    isomorphism m -> n assembled from matched summands, or None."""
    if m.dims != n.dims:
        return None
    if m == n or m.is_zero():
        return identity_morphism(m)
    if hom_dim(m, n) != hom_dim(n, m) or hom_dim(m, m) != hom_dim(n, n) or hom_dim(m, n) == 0:
        return None
    dm, dn = decompose(m), decompose(n)
    if sorted(p.dims for p in dm.parts) != sorted(p.dims for p in dn.parts):
        return None
    used = [False] * len(dn.parts)
    matches = []
    for p in dm.parts:
        for j, q in enumerate(dn.parts):
            phi = None if used[j] else _indec_iso(p, q)
            if phi is not None:
                used[j] = True
                matches.append((j, phi))
                break
        else:
            return None
    sum_m = direct_sum(m.algebra, dm.parts)
    sum_n = direct_sum(n.algebra, dn.parts)
    middle = zero_morphism(sum_m.total, sum_n.total)
    for (j, phi), proj in zip(matches, sum_m.projections):
        middle = middle + (sum_n.inclusions[j] @ phi @ proj)
    iso = dn.splitting.inverse() @ middle @ dm.splitting
    if not iso.is_iso():
        raise ContractViolation("reference: assembled isomorphism is not invertible")
    return Morphism(m, n, iso.maps, verify=True)


def factor_left(phi, f):
    """g with g . f = phi, for phi: X -> W and f: X -> C; None when impossible."""
    cand = hom_basis(f.target, phi.target)
    coeffs = _combination_coefficients([h @ f for h in cand], list(phi.flat()))
    return None if coeffs is None else _assemble(cand, coeffs, f.target, phi.target)


def factoring_envelope(x, types):
    """`add_envelope` by factoring: the legs hom_basis(x, W) summed into
    x -> sum of copies through the inclusions; then the first copy whose
    removal leaves every map x -> W factoring through the rest (`factor_left`)
    is dropped, by copying the other rows, and the scan restarts.  Returns the
    map and the copy owners."""
    a = x.algebra
    legs = [(t, phi) for t, w in enumerate(types) for phi in hom_basis(x, w)]
    if not legs:
        return zero_morphism(x, zero_rep(a)), []
    ds = direct_sum(a, [types[t] for t, _ in legs])
    pre = zero_morphism(x, ds.total)
    for (_, phi), inc in zip(legs, ds.inclusions):
        pre = pre + (inc @ phi)

    def rebuild(keep):
        """pre with only the rows of the kept copies."""
        maps = []
        for v in range(a.vertex_count):
            starts = list(accumulate((types[t].dims[v] for t, _ in legs), initial=0))
            rows = [pre.maps[v].row(r) for k in keep for r in range(starts[k], starts[k + 1])]
            maps.append(Matrix.from_rows(rows, cols=x.dims[v]))
        target = direct_sum(a, [types[legs[k][0]] for k in keep]).total
        return Morphism(x, target, maps, verify=False)

    def is_preenvelope(f):
        return all(factor_left(phi, f) is not None for w in types for phi in hom_basis(x, w))

    keep = list(range(len(legs)))
    dropped = True
    while dropped:
        dropped = False
        for drop in keep:
            rest = [k for k in keep if k != drop]
            if is_preenvelope(rebuild(rest)):
                keep, dropped = rest, True
                break
    return rebuild(keep), [legs[k][0] for k in keep]

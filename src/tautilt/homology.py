"""Projective presentations, AR translates, extensions, AR-quiver enumeration.

tau is computed along the minimal-presentation route: apply the Nakayama
functor to p1 -> p0 and take the kernel.  The transpose Tr is implemented
independently (cokernel of the starred presentation map), which yields the
cross-check D(Tr m) = tau m for free.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import Algebra, Path
from .errors import CapExceededError, ContractViolation, NotCertifiableError
from .linalg import (ONE, ZERO, Matrix, Subspace, kernel_basis, rref_rank, solve_linear,
                     subspace_complement)
from .rep import (
    Morphism,
    Representation,
    _trace_of_product,
    decompose,
    direct_sum,
    end_radical,
    hom_basis,
    hom_dim,
    image_subrep,
    is_isomorphic,
    kernel_subrep,
    morphism_from_flat,
    quotient_rep,
    radical_subrep,
    rep_to_json,
    restrict_through_inclusion,
    socle_subrep,
    zero_morphism,
    zero_rep,
)

DEFAULT_COUNT_CAP = 256
DEFAULT_DIM_CAP = 24


def projective(a: Algebra, i: int) -> Representation:
    memo = a.memo("projective")
    if i not in memo:
        memo[i] = a.projective(i)
    return memo[i]


def injective(a: Algebra, i: int) -> Representation:
    memo = a.memo("injective")
    if i not in memo:
        memo[i] = a.injective(i)
    return memo[i]


# -- sums of structural projectives with a summand registry -----------------------


@dataclass(frozen=True)
class ProjSum:
    """A direct sum of P(i)'s remembering which vertex each copy came from.

    `projective_sum` shares one instance per (algebra, vertices), so it is
    frozen and its morphism lists are tuples."""

    algebra: Algebra
    vertices: Tuple[int, ...]
    rep: Representation
    inclusions: Tuple[Morphism, ...]
    projections: Tuple[Morphism, ...]

    @property
    def copies(self) -> int:
        return len(self.vertices)

    def is_zero(self) -> bool:
        return not self.vertices

    def widths(self, v: int) -> List[int]:
        """The dimension of each copy at vertex v (0-based)."""
        return [inc.source.dims[v] for inc in self.inclusions]


def projective_sum(a: Algebra, vertices: Sequence[int]) -> ProjSum:
    """The direct sum of the P(i), i in vertices, memoized per algebra."""
    memo = a.memo("projective_sum")
    key = tuple(vertices)
    if key not in memo:
        ds = direct_sum(a, [projective(a, i) for i in key])
        memo[key] = ProjSum(a, key, ds.total, tuple(ds.inclusions), tuple(ds.projections))
    return memo[key]


def _on_copies(ps: ProjSum, x: Representation, copy_maps: Dict[int, Morphism]) -> Morphism:
    """The map ps.rep -> x that is copy_maps[k] on copy k, zero on the others."""
    maps = [Matrix.from_blocks([x.dims[v]], ps.widths(v),
                               {(0, k): f.maps[v] for k, f in copy_maps.items()})
            for v in range(ps.algebra.vertex_count)]
    return Morphism(ps.rep, x, maps, verify=False)


def _proj_copy_morphism(a: Algebra, i: int, x: Representation, vector: Sequence[Fraction]) -> Morphism:
    """The module map P(i) -> x sending the trivial path to the given vector."""
    p = projective(a, i)
    maps = []
    for v in a.quiver.vertices:
        cols = [x.path_matrix(path).apply(vector) for path in a.block_paths(i, v)]
        rows = [[cols[c][r] for c in range(len(cols))] for r in range(x.dims[v - 1])]
        maps.append(Matrix.from_rows(rows, cols=len(cols)))
    return Morphism(p, x, maps, verify=False)


def proj_sum_morphism(ps: ProjSum, x: Representation, vectors: Sequence[Sequence[Fraction]]) -> Morphism:
    """The map ps.rep -> x determined by one vector of x per projective copy."""
    if len(vectors) != ps.copies:
        raise ContractViolation("one vector per projective copy required")
    return _on_copies(ps, x, {k: _proj_copy_morphism(ps.algebra, i, x, vec)
                              for k, (i, vec) in enumerate(zip(ps.vertices, vectors))})


def hom_basis_from_projsum(ps: ProjSum, x: Representation) -> List[Morphism]:
    """Basis of Hom(ps.rep, x): dim Hom(P(i), x) = dim x_i, no solve needed.

    The r-th basis map on copy k sends the trivial path to the r-th unit
    vector of x_i, so its column for a path p is column r of x.path_matrix(p);
    each path matrix is built once per copy."""
    a = ps.algebra
    out = []
    for k, i in enumerate(ps.vertices):
        p = projective(a, i)
        # per vertex v: the columns of every path matrix x_i -> x_v, path by path
        columns = []
        for v in a.quiver.vertices:
            mats = [x.path_matrix(path) for path in a.block_paths(i, v)]
            columns.append([[m.entries[c::m.cols] for m in mats] for c in range(x.dims[i - 1])])
        for r in range(x.dims[i - 1]):
            maps = []
            for v in a.quiver.vertices:
                cols = columns[v - 1][r]
                entries = tuple(col[row] for row in range(x.dims[v - 1]) for col in cols)
                maps.append(Matrix._of(x.dims[v - 1], len(cols), entries))
            out.append(_on_copies(ps, x, {k: Morphism(p, x, maps, verify=False)}))
    return out


# -- minimal presentations -----------------------------------------------------


@dataclass
class Presentation:
    """Minimal projective presentation p1 -> p0 ->> m."""

    m: Representation
    p0: ProjSum
    p1: ProjSum
    d: Morphism
    eps: Morphism
    syzygy: Representation
    syzygy_incl: Morphism


def projective_cover_map(m: Representation) -> Tuple[ProjSum, Morphism]:
    """p0 ->> m lifting a basis of top(m); eps induces an iso on tops.

    Memoized per algebra by m.key(), so the cover of D(X) is built once for
    both `injective_envelope_map` and tau-.  Surjectivity is certified when
    the cover is built; a memo hit returns that certified map, whose target
    is data-equal to m."""
    a = m.algebra
    memo = a.memo("projective_cover")
    key = m.key()
    if key in memo:
        return memo[key]
    rad = radical_subrep(m)
    vertices: List[int] = []
    vectors: List[List[Fraction]] = []
    for v in a.quiver.vertices:
        comp = subspace_complement(rad.spaces[v - 1])
        for r in range(comp.dim):
            vertices.append(v)
            vectors.append(list(comp.basis.row(r)))
    ps = projective_sum(a, vertices)
    eps = proj_sum_morphism(ps, m, vectors)
    if not eps.is_surjective():
        raise ContractViolation("internal: projective cover map is not surjective")
    memo[key] = (ps, eps)
    return ps, eps


def minimal_presentation(m: Representation) -> Presentation:
    memo = m.algebra.memo("presentation")
    key = m.key()
    if key in memo:
        return memo[key]
    p0, eps = projective_cover_map(m)
    ker = kernel_subrep(eps)
    syz, incl = ker.to_rep()
    if syz.is_zero():
        p1 = projective_sum(m.algebra, [])
        d = zero_morphism(p1.rep, p0.rep)
    else:
        p1, eps1 = projective_cover_map(syz)
        d = incl @ eps1
    # minimality: the image of d lies in rad p0
    radp0 = radical_subrep(p0.rep)
    img = image_subrep(d)
    for v in range(m.algebra.vertex_count):
        if not radp0.spaces[v].contains(img.spaces[v]):
            raise ContractViolation("internal: presentation is not minimal")
    pres = Presentation(m, p0, p1, d, eps, syz, incl)
    memo[key] = pres
    return pres


def g_vector(m: Representation) -> Tuple[int, ...]:
    """[p0] - [p1] in the projective basis of K0(proj A)."""
    pres = minimal_presentation(m)
    n = m.algebra.vertex_count
    g = [0] * n
    for i in pres.p0.vertices:
        g[i - 1] += 1
    for i in pres.p1.vertices:
        g[i - 1] -= 1
    return tuple(g)


def bracket(g: Sequence[int], d: Sequence[int]) -> int:
    """<[P], dim M> pairing; bilinear since dim Hom(P(i), M) = dim M_i."""
    if len(g) != len(d):
        raise ContractViolation("coordinate length mismatch")
    return sum(int(x) * int(y) for x, y in zip(g, d))


# -- duality, star, transpose ----------------------------------------------------


def dualize(m: Representation) -> Representation:
    """D(m) over the opposite algebra: transpose all matrices."""
    op = m.algebra.opposite()
    maps = {arrow.name: m.arrow_maps[arrow.name].transpose() for arrow in m.algebra.quiver.arrows}
    return Representation(op, m.dims, maps)


def dualize_morphism(f: Morphism) -> Morphism:
    """D is contravariant: a map X -> Y dualizes to D(Y) -> D(X)."""
    return Morphism(dualize(f.target), dualize(f.source),
                    [mat.transpose() for mat in f.maps], verify=False)


def right_multiplication(a: Algebra, s: int, t: int, element: Dict[Path, Fraction]) -> Morphism:
    """The map P(s) -> P(t) given by right multiplication with an element of
    span{paths t -> s} (the identification Hom(Ae_s, Ae_t) = e_s A e_t)."""
    ps, pt = projective(a, s), projective(a, t)
    maps = []
    for v in a.quiver.vertices:
        src_paths = a.block_paths(s, v)
        tgt_paths = a.block_paths(t, v)
        tgt_pos = {p: r for r, p in enumerate(tgt_paths)}
        rows = [[Fraction(0)] * len(src_paths) for _ in range(len(tgt_paths))]
        for c, q in enumerate(src_paths):
            for w, coeff in element.items():
                for res, c2 in a.reduce_path(Path(t, w.arrows + q.arrows)).items():
                    rows[tgt_pos[res]][c] += coeff * c2
        maps.append(Matrix.from_rows(rows, cols=len(src_paths)))
    return Morphism(ps, pt, maps, verify=False)


def star_of_presentation_map(pres: Presentation) -> Tuple[ProjSum, ProjSum, Morphism]:
    """(-)* = Hom(-, A) applied to d: p1 -> p0, yielding p0* -> p1* over A^op.

    Components of d are right multiplications by elements z of path blocks;
    their stars are right multiplications by the reversed elements.
    """
    a = pres.m.algebra
    op = a.opposite()
    op_p0 = projective_sum(op, pres.p0.vertices)
    op_p1 = projective_sum(op, pres.p1.vertices)
    blocks: Dict[Tuple[int, int], Morphism] = {}
    for b, i_b in enumerate(pres.p1.vertices):
        # d restricted to copy b, evaluated on its trivial path (vertex i_b):
        # locate that column inside p1's block at vertex i_b
        triv_col = a.block_paths(i_b, i_b).index(Path(i_b, ()))
        dmat_at_ib = pres.d.maps[i_b - 1]
        copy_col = sum(pres.p1.widths(i_b - 1)[:b]) + triv_col
        row_offset = 0
        for aa, j_a in enumerate(pres.p0.vertices):
            block = a.block_paths(j_a, i_b)
            element: Dict[Path, Fraction] = {}
            for r, p in enumerate(block):
                coeff = dmat_at_ib[row_offset + r, copy_col]
                if coeff:
                    element[Path(i_b, tuple(reversed(p.arrows)))] = coeff
            row_offset += len(block)
            if element:
                blocks[(b, aa)] = right_multiplication(op, j_a, i_b, element)
    maps = [Matrix.from_blocks(op_p1.widths(v), op_p0.widths(v),
                               {bk: comp.maps[v] for bk, comp in blocks.items()})
            for v in range(op.vertex_count)]
    return op_p0, op_p1, Morphism(op_p0.rep, op_p1.rep, maps, verify=False)


def transpose(m: Representation) -> Representation:
    """Tr(m) over the opposite algebra: the cokernel of d*; zero on projectives."""
    pres = minimal_presentation(m)
    if pres.p1.is_zero():
        return zero_rep(m.algebra.opposite())
    _, op_p1, dstar = star_of_presentation_map(pres)
    coker, _ = quotient_rep(op_p1.rep, image_subrep(dstar))
    return coker


def tau(m: Representation) -> Representation:
    """AR translate: kernel of nu(d) for a minimal presentation; 0 on projectives."""
    memo = m.algebra.memo("tau")
    key = m.key()
    if key in memo:
        return memo[key]
    pres = minimal_presentation(m)
    if pres.p1.is_zero():
        result = zero_rep(m.algebra)
    else:
        _, _, dstar = star_of_presentation_map(pres)
        nud = dualize_morphism(dstar)  # nu p1 -> nu p0 over the base algebra
        result, _ = kernel_subrep(nud).to_rep()
    memo[key] = result
    return result


def tau_minus(m: Representation) -> Representation:
    """Inverse AR translate: Tr over the opposite, pulled back; 0 on injectives."""
    memo = m.algebra.memo("tau_minus")
    key = m.key()
    if key in memo:
        return memo[key]
    result = dualize(tau(dualize(m)))
    memo[key] = result
    return result


def injective_envelope_map(m: Representation) -> Morphism:
    """m -> E(m): dual of the projective cover of D(m)."""
    dm = dualize(m)
    _, eps_op = projective_cover_map(dm)
    env = dualize_morphism(eps_op)
    # source of env is D(D(m)), which is data-equal to m
    return Morphism(m, env.target, env.maps, verify=False)


def proj_dim_le1(m: Representation) -> bool:
    """projdim <= 1, with the injectives-to-tau cross-check asserted."""
    pres = minimal_presentation(m)
    primary = kernel_subrep(pres.d).is_zero()
    tm = tau(m)
    secondary = all(
        hom_dim(injective(m.algebra, i), tm) == 0 for i in m.algebra.quiver.vertices
    )
    if primary != secondary:
        raise ContractViolation("internal: projective dimension tests disagree")
    return primary


# -- Ext^1 spaces ------------------------------------------------------------------


@dataclass
class ExtClass:
    """An element of Ext^1(m, n): a map from the syzygy of m into n, taken
    modulo restrictions of maps p0 -> n.

    The presentation the syzygy came from rides along so a class can be
    realized against the exact same objects it was computed with.
    """

    m: Representation
    n: Representation
    theta: Morphism  # syzygy(m) -> n
    presentation: Optional["Presentation"] = None


@dataclass
class ExtSpace:
    m: Representation
    n: Representation
    dim: int
    classes: List[ExtClass]
    presentation: Presentation
    _flat_len: int
    _w_space: Subspace
    _rep_rows: List[tuple]

    def coords_of(self, theta: Morphism) -> Tuple[Fraction, ...]:
        """Coordinates of a class in the chosen complement basis."""
        if self.dim == 0:
            return ()
        flat = list(theta.flat())
        stack = [list(r) for r in self._rep_rows]
        w_rows = [list(self._w_space.basis.row(i)) for i in range(self._w_space.dim)]
        mat = Matrix.from_rows(stack + w_rows, cols=self._flat_len).transpose()
        sol, _ = solve_linear(mat, Matrix.from_rows([[x] for x in flat], cols=1))
        if sol is None:
            raise ContractViolation("internal: class outside Hom space")
        return tuple(sol[i, 0] for i in range(self.dim))

    def class_from_coords(self, coords: Sequence[Fraction]) -> ExtClass:
        flat = [Fraction(0)] * self._flat_len
        for c, row in zip(coords, self._rep_rows):
            if c:
                flat = [x + c * y for x, y in zip(flat, row)]
        theta = morphism_from_flat(self.presentation.syzygy, self.n, flat)
        return ExtClass(self.m, self.n, theta, self.presentation)


def ext1(m: Representation, n: Representation) -> ExtSpace:
    """Ext^1(m, n) via Hom(syzygy, n) modulo restrictions from p0.

    The dimension is cross-checked against the AR-formula count
    dim stable-Hom(n, tau m) (maps modulo those factoring through injectives);
    the two must agree.
    """
    if m.algebra is not n.algebra:
        raise ContractViolation("different algebras")
    memo = m.algebra.memo("ext1")
    key = (m.key(), n.key())
    if key in memo:
        return memo[key]
    pres = minimal_presentation(m)
    omega = pres.syzygy
    v_basis = hom_basis(omega, n)
    flat_len = len(zero_morphism(omega, n).flat())
    if not v_basis:
        space = ExtSpace(m, n, 0, [], pres, flat_len, Subspace.zero(max(flat_len, 0)), [])
    else:
        restrictions = []
        for phi in hom_basis_from_projsum(pres.p0, n):
            restrictions.append(list((phi @ pres.syzygy_incl).flat()))
        w_space = Subspace.from_rows(flat_len, restrictions)
        v_space = Subspace.from_rows(flat_len, [list(b.flat()) for b in v_basis])
        comp = subspace_complement(w_space, v_space)
        rep_rows = [comp.basis.row(i) for i in range(comp.dim)]
        classes = [ExtClass(m, n, morphism_from_flat(omega, n, row), pres) for row in rep_rows]
        space = ExtSpace(m, n, comp.dim, classes, pres, flat_len, w_space, rep_rows)

    # AR-formula cross-check: dim Ext^1(m, n) = dim stable-Hom(n, tau m)
    tm = tau(m)
    full = hom_dim(n, tm)
    if full == 0:
        stable = 0
    else:
        env = injective_envelope_map(n)
        through = [list((psi @ env).flat()) for psi in hom_basis(env.target, tm)]
        flat_dim = len(zero_morphism(n, tm).flat())
        stable = full - Subspace.from_rows(flat_dim, through).dim
    if stable != space.dim:
        raise ContractViolation(
            f"internal: Ext dimension {space.dim} disagrees with stable Hom {stable}"
        )
    memo[key] = space
    return space


def _combination_coefficients(composed: List[Morphism], target_flat: List[Fraction]) -> Optional[List[Fraction]]:
    """Coefficients c with sum c_k composed_k = target, or None."""
    if not composed:
        return [] if not any(target_flat) else None
    cols = [list(h.flat()) for h in composed]
    mat = Matrix.from_rows(cols, cols=len(target_flat)).transpose()
    sol, _ = solve_linear(mat, Matrix.from_rows([[x] for x in target_flat], cols=1))
    if sol is None:
        return None
    return [sol[k, 0] for k in range(len(composed))]


def _assemble(cand: List[Morphism], coeffs: List[Fraction],
              src: Representation, tgt: Representation) -> Morphism:
    out = None
    for c, base in zip(coeffs, cand):
        if c:
            term = base.scale(c)
            out = term if out is None else out + term
    return out if out is not None else zero_morphism(src, tgt)


def factor_through(f: Morphism, g: Morphism, basis: Optional[List[Morphism]] = None) -> Optional[Morphism]:
    """h with g . h = f, for f: X -> Z and g: Y -> Z; None when impossible."""
    if f.source.algebra is not g.source.algebra:
        raise ContractViolation("different algebras")
    cand = basis if basis is not None else hom_basis(f.source, g.source)
    coeffs = _combination_coefficients([g @ h for h in cand], list(f.flat()))
    if coeffs is None:
        return None
    return _assemble(cand, coeffs, f.source, g.source)


def realize_extension(c: ExtClass) -> Tuple[Representation, Morphism, Morphism]:
    """Short exact sequence 0 -> n -> e -> m -> 0 with class c (pushout of
    syzygy -> p0 along the representative)."""
    pres = c.presentation if c.presentation is not None else minimal_presentation(c.m)
    n = c.n
    ds = direct_sum(n.algebra, [n, pres.p0.rep])
    psi = (ds.inclusions[0] @ c.theta) - (ds.inclusions[1] @ pres.syzygy_incl)
    e, pi = quotient_rep(ds.total, image_subrep(psi))
    incl_n = pi @ ds.inclusions[0]
    g = pres.eps @ ds.projections[1]
    proj_maps = []
    for v in range(n.algebra.vertex_count):
        sol, _ = solve_linear(pi.maps[v].transpose(), g.maps[v].transpose())
        if sol is None:
            raise ContractViolation("internal: extension projection failed")
        proj_maps.append(sol.transpose())
    proj_m = Morphism(e, c.m, proj_maps, verify=True)
    if not incl_n.is_injective() or not proj_m.is_surjective():
        raise ContractViolation("internal: realized sequence is not exact")
    if not (proj_m @ incl_n).is_zero():
        raise ContractViolation("internal: realized sequence does not compose to zero")
    if e.total_dim != n.total_dim + c.m.total_dim:
        raise ContractViolation("internal: middle term has wrong dimension")
    return e, incl_n, proj_m


def extension_class_of(seq_incl: Morphism, seq_proj: Morphism) -> ExtClass:
    """The class of an exact sequence 0 -> n -> e -> m -> 0."""
    n = seq_incl.source
    e = seq_incl.target
    m = seq_proj.target
    pres = minimal_presentation(m)
    lift = factor_through(pres.eps, seq_proj, hom_basis_from_projsum(pres.p0, e))
    if lift is None:
        raise ContractViolation("internal: projective lift failed")
    theta_into_e = lift @ pres.syzygy_incl
    theta = restrict_through_inclusion(seq_incl, theta_into_e)
    return ExtClass(m, n, theta)


# -- almost split sequences ---------------------------------------------------------


@dataclass
class ARSequence:
    start: Representation   # tau m
    middle: Representation
    end: Representation     # m
    incl: Morphism          # tau m -> middle
    proj: Morphism          # middle -> m


def _end_action_on_ext(space: ExtSpace, psi: Morphism) -> Matrix:
    """Matrix of the right action of psi in End(m) on Ext^1(m, n) coordinates
    (precompose representatives with the induced map on the syzygy)."""
    pres = space.presentation
    lifted = factor_through(psi @ pres.eps, pres.eps,
                            hom_basis_from_projsum(pres.p0, pres.p0.rep))
    if lifted is None:
        raise ContractViolation("internal: endomorphism does not lift")
    psi_omega = restrict_through_inclusion(pres.syzygy_incl, lifted @ pres.syzygy_incl)
    cols = []
    for cls in space.classes:
        cols.append(space.coords_of(cls.theta @ psi_omega))
    return Matrix.from_rows([[cols[c][r] for c in range(len(cols))] for r in range(space.dim)],
                            cols=space.dim)


def ar_sequence(m: Representation) -> ARSequence:
    """The almost split sequence ending at an indecomposable non-projective m.

    The class is the unique (up to scalar) element of Ext^1(m, tau m)
    annihilated by rad End(m); socle dimension != 1 means the certificate
    fails (non-split End) and raises instead of guessing.
    """
    tm = tau(m)
    if tm.is_zero():
        raise ContractViolation("projective modules have no almost split sequence")
    space = ext1(m, tm)
    if space.dim == 0:
        raise ContractViolation("internal: Ext^1(m, tau m) = 0 for non-projective m")
    rad = end_radical(m)
    if hom_dim(m, m) - len(rad) != 1:
        raise NotCertifiableError("cannot certify almost split sequence: End not split local")
    if not rad:
        socle_dim = space.dim
        coords = (Fraction(1),) + (Fraction(0),) * (space.dim - 1)
    else:
        rows = []
        for psi in rad:
            act = _end_action_on_ext(space, psi)
            for r in range(act.rows):
                rows.append(list(act.row(r)))
        ker = kernel_basis(Matrix.from_rows(rows, cols=space.dim))
        socle_dim = ker.dim
        coords = tuple(ker.basis.row(0)) if ker.dim else ()
    if socle_dim != 1:
        raise NotCertifiableError(
            f"cannot certify almost split sequence: socle dimension {socle_dim} != 1"
        )
    cls = space.class_from_coords(coords)
    e, incl, proj = realize_extension(cls)
    return ARSequence(tm, e, m, incl, proj)


# -- enumeration of indecomposables ---------------------------------------------------


@dataclass
class ARSequenceData:
    end: int
    start: int
    middle: List[int]


class ARQuiverData:
    """The enumerated indecomposables of a representation-finite algebra with
    tau links, AR sequences, and the irreducible-arrow multiset.

    The Hom and Ext tables are read off this data, not computed module by
    module: `hom_table` solves the mesh relations and `ext_table` adds one
    syzygy per indecomposable.  They trust the arrows and tau links, so the
    Hom table must reproduce every dimension vector (rows of the projectives,
    columns of the injectives), and `ext_projectives` still compares the
    Auslander-Smalo test with the Ext table.  `ext1` keeps its own AR-formula
    check for single queries and for `ar_sequence`.
    """

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        self.indecomposables: List[Representation] = []
        self.labels: List[str] = []
        self.tau_links: Dict[int, int] = {}
        self.tau_inv_links: Dict[int, int] = {}
        self.sequences: Dict[int, ARSequenceData] = {}
        self.arrows: Dict[Tuple[int, int], int] = {}
        self.projective_vertex: Dict[int, int] = {}
        self.injective_vertex: Dict[int, int] = {}
        self._label_counts: Dict[str, int] = {}
        self._hom_table: Optional[List[List[int]]] = None
        self._hom_masks: Optional[Tuple[List[int], List[int]]] = None
        self._ext_table: Optional[List[List[int]]] = None
        self._ext_masks: Optional[Tuple[List[int], List[int]]] = None
        self._support_masks: Optional[Dict[int, int]] = None
        # torsion-class mask -> its certified support tau-tilting pair, filled
        # by the mutation closure (`tautilting._pair_of_class`)
        self.class_pairs: Dict[int, object] = {}

    @property
    def count(self) -> int:
        return len(self.indecomposables)

    def index_of(self, m: Representation) -> Optional[int]:
        for i, x in enumerate(self.indecomposables):
            if x.dims == m.dims and is_isomorphic(x, m):
                return i
        return None

    def add(self, m: Representation) -> int:
        base = m.dim_label()
        suffix = "'" * self._label_counts.get(base, 0)
        self._label_counts[base] = self._label_counts.get(base, 0) + 1
        self.indecomposables.append(m)
        self.labels.append(base + suffix)
        return len(self.indecomposables) - 1

    # -- pairwise tables read off the AR quiver --------------------------------

    def hom_table(self) -> List[List[int]]:
        """H[x][y] = dim Hom(X_x, X_y), solved from the meshes.

        Over the Auslander algebra the simple functor S_y has the minimal
        projective resolution 0 -> (-, tau Y) -> (-, E) -> (-, Y) -> S_y -> 0
        from the AR sequence ending at Y, or 0 -> (-, rad P) -> (-, P) -> S_P
        -> 0 for a projective P.  Every X_x has End/rad = Q (`decompose`
        certifies it), so S_y(X_x) has dimension delta_xy, and with the mesh
        matrix R[y][y] = 1, R[y][j] -= arrows[(j, y)], R[y][tau y] += 1 this
        reads H R^T = I.  The solve is one exact row reduction of [R | I];
        H must come out a non-negative integer matrix that reproduces every
        dimension vector, H[P(i)][x] = dim (X_x)_i = H[x][I(i)].
        """
        if self._hom_table is None:
            n = self.count
            mesh = [[0] * n for _ in range(n)]
            for y in range(n):
                mesh[y][y] += 1
                if y not in self.projective_vertex:
                    mesh[y][self.tau_links[y]] += 1
            for (j, y), mult in self.arrows.items():
                mesh[y][j] -= mult
            aug = Matrix.from_rows(
                [[Fraction(v) if v else ZERO for v in row] + [ONE if c == y else ZERO for c in range(n)]
                 for y, row in enumerate(mesh)],
                cols=2 * n,
            )
            red, pivots, _ = rref_rank(aug)
            if pivots != list(range(n)):
                raise ContractViolation("internal: AR mesh matrix is singular")
            inverse = [red.row(y)[n:] for y in range(n)]
            if any(h.denominator != 1 or h.numerator < 0 for row in inverse for h in row):
                raise ContractViolation("internal: AR mesh gives a non-integral Hom table")
            hom = [[h.numerator for h in col] for col in zip(*inverse)]  # H = (R^-1)^T
            self._check_dimension_vectors(hom)
            self._hom_table = hom
        return self._hom_table

    def _check_dimension_vectors(self, hom: List[List[int]]) -> None:
        """dim Hom(P(i), X) = dim X_i = dim Hom(X, I(i)) on every row and column."""
        proj_index = {v: x for x, v in self.projective_vertex.items()}
        inj_index = {v: x for x, v in self.injective_vertex.items()}
        for i in self.algebra.quiver.vertices:
            if i not in proj_index or i not in inj_index:
                raise ContractViolation(f"internal: enumeration lacks P({i}) or I({i})")
            p, q = proj_index[i], inj_index[i]
            for x, m in enumerate(self.indecomposables):
                if hom[p][x] != m.dims[i - 1] or hom[x][q] != m.dims[i - 1]:
                    raise ContractViolation(
                        f"internal: Hom table from the AR mesh misses dim vector at {self.labels[x]}"
                    )

    def hom_masks(self) -> Tuple[List[int], List[int]]:
        """The Hom table as bitmasks over AR indices: (out, into), where bit y
        of out[x] and bit x of into[y] are set iff Hom(X_x, X_y) != 0."""
        if self._hom_masks is None:
            self._hom_masks = _table_masks(self.hom_table())
        return self._hom_masks

    def ext_masks(self) -> Tuple[List[int], List[int]]:
        """The Ext table as bitmasks, like `hom_masks`: bit y of out[x] and
        bit x of into[y] are set iff Ext^1(X_x, X_y) != 0."""
        if self._ext_masks is None:
            self._ext_masks = _table_masks(self.ext_table())
        return self._ext_masks

    def support_masks(self) -> Dict[int, int]:
        """For each quiver vertex v, the mask of the AR indices x with
        (X_x)_v != 0."""
        if self._support_masks is None:
            self._support_masks = {
                v: sum(1 << x for x, m in enumerate(self.indecomposables) if m.dims[v - 1])
                for v in self.algebra.quiver.vertices
            }
        return self._support_masks

    def hom_to_tau(self, i: int, j: int) -> int:
        """dim Hom(X_i, tau X_j); zero when X_j is projective."""
        if j in self.projective_vertex:
            return 0
        return self.hom_table()[i][self.tau_links[j]]

    def ext_table(self) -> List[List[int]]:
        """E[x][y] = dim Ext^1(X_x, X_y), from the Hom table and one minimal
        presentation per indecomposable.

        Hom(-, Y) on 0 -> Omega X -> P0 -> X -> 0 is exact up to Ext^1(X, Y)
        since Ext^1(P0, -) = 0, so ext(X, Y) = hom(Omega X, Y) - hom(P0, Y)
        + hom(X, Y), where hom(P0, Y) sums dim Y_v over the top vertices v of X
        and hom(Omega X, Y) sums rows of H over the summands of Omega X.
        """
        if self._ext_table is None:
            hom = self.hom_table()
            proj_index = {v: x for x, v in self.projective_vertex.items()}
            dim_rows = {v: [t.dims[v - 1] for t in self.indecomposables]
                        for v in self.algebra.quiver.vertices}
            table = []
            for x, m in enumerate(self.indecomposables):
                if x in self.projective_vertex:  # Ext^1(P, -) = 0
                    table.append([0] * self.count)
                    continue
                pres = minimal_presentation(m)
                plus = [hom[s] for s in self._syzygy_summands(pres, proj_index)] + [hom[x]]
                minus = [dim_rows[v] for v in pres.p0.vertices]
                row = [sum(p) - sum(q) for p, q in zip(zip(*plus), zip(*minus))]
                if min(row) < 0:
                    raise ContractViolation(f"internal: negative Ext^1 out of {self.labels[x]}")
                table.append(row)
            self._ext_table = table
        return self._ext_table

    def _syzygy_summands(self, pres: Presentation, proj_index: Dict[int, int]) -> List[int]:
        """AR indices of the summands of Omega X, with multiplicity.  When
        dim Omega X = dim p1 the projective cover p1 ->> Omega X is an iso."""
        if pres.syzygy.total_dim == pres.p1.rep.total_dim:
            return [proj_index[v] for v in pres.p1.vertices]
        out: List[int] = []
        for part, mult in decompose(pres.syzygy).factors:
            idx = self.index_of(part)
            if idx is None:
                raise ContractViolation("internal: syzygy summand outside the enumeration")
            out.extend([idx] * mult)
        return out

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra.content_hash(),
            "indecomposables": [
                {"label": self.labels[i], "dims": list(x.dims), "rep": rep_to_json(x)}
                for i, x in enumerate(self.indecomposables)
            ],
            "tau": {str(k): v for k, v in sorted(self.tau_links.items())},
            "sequences": [
                {"end": s.end, "start": s.start, "middle": sorted(s.middle)}
                for _, s in sorted(self.sequences.items())
            ],
            "arrows": [[i, j, mult] for (i, j), mult in sorted(self.arrows.items())],
            "projectives": {str(k): v for k, v in sorted(self.projective_vertex.items())},
            "injectives": {str(k): v for k, v in sorted(self.injective_vertex.items())},
        }


def _table_masks(table: List[List[int]]) -> Tuple[List[int], List[int]]:
    """Row and column bitmasks of the nonzero entries of a square table."""
    n = len(table)
    out = [0] * n
    into = [0] * n
    for x in range(n):
        row = table[x]
        for y in range(n):
            if row[y]:
                out[x] |= 1 << y
                into[y] |= 1 << x
    return out, into


def _enum_cap_exceeded(name: str, value: int, dim: int, found: int) -> CapExceededError:
    return CapExceededError(
        f"not representation-finite within caps: {name}={value} exceeded by a "
        f"module of dimension {dim} after {found} indecomposables",
        cap=name, value=value, progress=found, dim=dim,
    )


def _predict_middle(data: ARQuiverData, x: int, y: int,
                    tau_minus_of: Dict[int, int]) -> Optional[List[int]]:
    """The summands of the AR middle term of 0 -> X -> E -> Y -> 0, knitted
    from the arrows out of X already recorded, or None when part of that mesh
    is not recorded yet.

    The arrows out of X go to the projectives P with X | rad P and to tau- W
    for each arrow W -> X with W not injective, with equal multiplicities
    (Auslander-Reiten-Smalo, ch. VII).  The enumeration processes indices in
    order, so every projective and, when x < y, X itself with its incoming
    arrows are recorded; each such W needs to be processed too."""
    if x >= y:
        return None
    out: List[int] = []
    for (j, z), mult in data.arrows.items():
        if z == x:
            if j >= y:
                return None
            if j not in data.injective_vertex:
                out.extend([tau_minus_of[j]] * mult)
        elif j == x and z in data.projective_vertex:
            out.extend([z] * mult)
    return out


def _middle_certified(data: ARQuiverData, ids: List[int], middle: Representation) -> bool:
    """Whether the sum of the indecomposables ids is isomorphic to middle, by
    an explicit map checked with `is_iso`.

    The dimension vectors must add up first.  For each distinct summand Z of
    multiplicity m the legs Z -> middle come from `hom_basis`: those whose
    trace pairing tr(psi . phi) with Hom(middle, Z) is independent come
    first.  End(Z) is split local, so psi . phi avoids rad End(Z) exactly when
    its trace is nonzero, and Z^m is a summand of middle exactly when m legs
    pair independently; only `is_iso` on the assembled map decides."""
    parts = [data.indecomposables[j].dims for j in ids]
    if tuple(sum(col) for col in zip(*parts)) != middle.dims:
        return False
    legs: List[Morphism] = []
    for j in sorted(set(ids)):
        z, mult = data.indecomposables[j], ids.count(j)
        fwd = hom_basis(z, middle)
        if len(fwd) < mult:
            return False
        if len(fwd) > mult:  # choose: legs that pair independently first
            pairing = Matrix.from_rows(
                [[_trace_of_product(psi, phi) for phi in fwd] for psi in hom_basis(middle, z)],
                cols=len(fwd))
            _, pivots, _ = rref_rank(pairing)
            fwd = [fwd[c] for c in pivots + [c for c in range(len(fwd)) if c not in pivots]]
        legs.extend(fwd[:mult])
    ds = direct_sum(data.algebra, [leg.source for leg in legs])
    maps = [Matrix.from_blocks([middle.dims[v]], [leg.source.dims[v] for leg in legs],
                               {(0, k): leg.maps[v] for k, leg in enumerate(legs)})
            for v in range(data.algebra.vertex_count)]
    return Morphism(ds.total, middle, maps, verify=False).is_iso()


def enumerate_indecomposables(a: Algebra, count_cap: int = DEFAULT_COUNT_CAP,
                              dim_cap: int = DEFAULT_DIM_CAP) -> ARQuiverData:
    """Neighbor closure from the projectives.

    Neighbors of X: summands of rad X (X projective), summands of X/soc X
    (X injective), tau X and the AR middle at X (X non-projective), tau- X
    (X non-injective).  On representation-finite input this walks every mesh;
    cap overruns raise CapExceededError.

    The mesh recorded so far names the rest of an AR sequence in advance.
    tau Y is first compared with the X whose tau- found Y, and only looked up
    among all indecomposables when that fails.  The middle term is knitted
    from the arrows out of tau Y (`_predict_middle`) and accepted only when an
    explicit map from the predicted sum passes `is_iso`
    (`_middle_certified`); otherwise it is split by `decompose`, which also
    finds any summand not enumerated yet.
    """
    memo = a.memo("ar_quiver")
    memo_key = (count_cap, dim_cap)
    if memo_key in memo:
        return memo[memo_key]

    data = ARQuiverData(a)
    if a.is_zero:
        memo[memo_key] = data
        return data

    projectives = {i: projective(a, i) for i in a.quiver.vertices}
    injectives = {i: injective(a, i) for i in a.quiver.vertices}

    def find_or_add(m: Representation) -> int:
        idx = data.index_of(m)
        if idx is not None:
            return idx
        if m.total_dim > dim_cap:
            raise _enum_cap_exceeded("dim_cap", dim_cap, m.total_dim, data.count)
        if data.count + 1 > count_cap:
            raise _enum_cap_exceeded("count_cap", count_cap, m.total_dim, data.count)
        idx = data.add(m)
        queue.append(idx)
        return idx

    queue: deque = deque()
    for i in a.quiver.vertices:
        find_or_add(projectives[i])
    # tau- X and its inverse, recorded when X is processed: the mesh that
    # `_predict_middle` knits from, and the candidate for tau Y
    tau_minus_of: Dict[int, int] = {}
    tau_of: Dict[int, int] = {}

    while queue:
        idx = queue.popleft()
        x = data.indecomposables[idx]
        proj_v = next((i for i, p in projectives.items()
                       if p.dims == x.dims and is_isomorphic(p, x)), None)
        inj_v = next((i for i, p in injectives.items()
                      if p.dims == x.dims and is_isomorphic(p, x)), None)
        if proj_v is not None:
            data.projective_vertex[idx] = proj_v
        if inj_v is not None:
            data.injective_vertex[idx] = inj_v

        if proj_v is not None:
            rad_rep, _ = radical_subrep(x).to_rep()
            if not rad_rep.is_zero():
                for part, mult in decompose(rad_rep).factors:
                    j = find_or_add(part)
                    data.arrows[(j, idx)] = data.arrows.get((j, idx), 0) + mult
        else:
            tm = tau(x)
            if x.total_dim + tm.total_dim > dim_cap:
                # the AR middle term at x would have dimension dim x + dim tau x
                raise _enum_cap_exceeded("dim_cap", dim_cap, x.total_dim + tm.total_dim, data.count)
            seq = ar_sequence(x)
            t_idx = tau_of.get(idx)
            if t_idx is None or not is_isomorphic(data.indecomposables[t_idx], seq.start):
                t_idx = find_or_add(seq.start)
            data.tau_links[idx] = t_idx
            data.tau_inv_links[t_idx] = idx
            middle_ids = _predict_middle(data, t_idx, idx, tau_minus_of)
            if middle_ids is None or not _middle_certified(data, middle_ids, seq.middle):
                middle_ids = []
                for part, mult in decompose(seq.middle).factors:
                    middle_ids.extend([find_or_add(part)] * mult)
            for j in middle_ids:
                data.arrows[(j, idx)] = data.arrows.get((j, idx), 0) + 1
            data.sequences[idx] = ARSequenceData(idx, t_idx, middle_ids)

        if inj_v is None:
            t = tau_minus_of[idx] = find_or_add(tau_minus(x))
            tau_of[t] = idx
        else:
            soc = socle_subrep(x)
            quot, _ = quotient_rep(x, soc)
            if not quot.is_zero():
                for part, _ in decompose(quot).factors:
                    find_or_add(part)

    memo[memo_key] = data
    return data

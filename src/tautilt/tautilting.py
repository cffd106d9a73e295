"""Torsion classes, tau-rigidity, Bongartz completions, mutation, Hasse quivers.

Class-level operations represent torsion classes extensionally as sets of
indecomposables from a completed AR enumeration, so they are confined to
representation-finite algebras; the finiteness probe and the exchange-sequence
mutation work without enumeration and detect the boundary honestly.  Inside
the lattice engine (`mutate`, `hasse`) a class is an int bitmask over AR
indices, computed from the exact Hom table (`ARQuiverData.hom_masks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .algebra import Algebra, quotient_by_vertices
from .errors import CapExceededError, ContractViolation, DomainError
from .homology import (
    DEFAULT_DIM_CAP,
    ARQuiverData,
    ExtClass,
    Presentation,
    dualize,
    dualize_morphism,
    enumerate_indecomposables,
    ext1,
    g_vector,
    projective,
    projective_sum,
    proj_dim_le1,
    realize_extension,
    tau,
    transpose,
)
from .linalg import Matrix, Subspace
from .rep import (
    Morphism,
    Representation,
    SubRep,
    cokernel,
    decompose,
    direct_sum,
    end_radical,
    extend_from_quotient,
    hom_basis,
    hom_dim,
    image_subrep,
    in_gen,
    is_isomorphic,
    iso_test,
    quotient_rep,
    restrict_to_quotient,
    sub_sum,
    support_rank,
    trace_subrep,
    zero_morphism,
    zero_rep,
)

ORACLE_MAX_INDECS = 20
DEFAULT_VERTEX_CAP = 256


# --------------------------------------------------------------------------
# module classes over an enumeration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ModuleClass:
    """add(sum of members): an extensional module class over an AR index."""

    ar: ARQuiverData
    members: FrozenSet[int]

    def reps(self) -> List[Representation]:
        return [self.ar.indecomposables[i] for i in sorted(self.members)]

    def labels(self) -> List[str]:
        return sorted(self.ar.labels[i] for i in self.members)

    @property
    def size(self) -> int:
        return len(self.members)

    def support_vertices(self) -> Set[int]:
        out = set()
        for i in self.members:
            for v, d in enumerate(self.ar.indecomposables[i].dims, start=1):
                if d:
                    out.add(v)
        return out

    def support_rank(self) -> int:
        return len(self.support_vertices())

    def mask(self) -> int:
        return _mask(self.members)


def _mask(ids) -> int:
    out = 0
    for i in ids:
        out |= 1 << i
    return out


def _members(mask: int) -> FrozenSet[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def _perp_mask(mask: int, hom_rows: List[int]) -> int:
    """The AR indices in no hom_rows[i] for i in mask.  With the out-masks
    of `ARQuiverData.hom_masks` this is mask^perp0, with the in-masks
    perp0(mask)."""
    hit = 0
    while mask:
        low = mask & -mask
        hit |= hom_rows[low.bit_length() - 1]
        mask ^= low
    return ((1 << len(hom_rows)) - 1) & ~hit


def fac_class(ids: Sequence[int], ar: ARQuiverData) -> int:
    """Fac U for a tau-rigid U = sum of the indecomposables ids, as a bitmask.

    For tau-rigid U, Fac U is a torsion class (Auslander-Smalo;
    Adachi-Iyama-Reiten 2014, Thm 2.7), hence the smallest one containing U:
    the double perp perp0(U^perp0), read off the exact Hom table.  The
    trace-based `gen_class` computes the same class from the modules and is
    kept as its independent cross-check in the tests.
    """
    out_masks, in_masks = ar.hom_masks()
    return _perp_mask(_perp_mask(_mask(ids), out_masks), in_masks)


def perp_right(cls: ModuleClass) -> ModuleClass:
    """cls^{perp0}: everything receiving no map from cls."""
    out_masks, _ = cls.ar.hom_masks()
    return ModuleClass(cls.ar, _members(_perp_mask(_mask(cls.members), out_masks)))


def perp_left(cls: ModuleClass) -> ModuleClass:
    """{}^{perp0} cls: everything mapping nowhere into cls."""
    _, in_masks = cls.ar.hom_masks()
    return ModuleClass(cls.ar, _members(_perp_mask(_mask(cls.members), in_masks)))


def is_torsion_class(cls: ModuleClass) -> Tuple[bool, Optional[int]]:
    """Double-perp fixpoint test; the witness is a differing indecomposable."""
    double = perp_left(perp_right(cls))
    if double.members == cls.members:
        return True, None
    return False, min(double.members.symmetric_difference(cls.members))


def enumerate_torsion_classes_oracle(ar: ARQuiverData) -> List[ModuleClass]:
    """Brute-force oracle: all double-perp fixpoint subsets, by a 2^n scan.

    Deliberately desk-scale; refuses beyond ORACLE_MAX_INDECS indecomposables.
    Result is sorted by descending size (the full class first), then labels.
    """
    n = ar.count
    if n > ORACLE_MAX_INDECS:
        raise DomainError(
            f"oracle is a 2^n subset scan; {n} indecomposables exceed the limit {ORACLE_MAX_INDECS}"
        )
    out_mask, in_mask = ar.hom_masks()
    full = (1 << n) - 1
    total = 1 << n
    dp_out = [0] * total
    dp_in = [0] * total
    for s in range(1, total):
        low = s & (-s)
        rest = s & (s - 1)
        dp_out[s] = dp_out[rest] | out_mask[low.bit_length() - 1]
        dp_in[s] = dp_in[rest] | in_mask[low.bit_length() - 1]
    classes = []
    for s in range(total):
        f = full & ~dp_out[s]
        if (full & ~dp_in[f]) == s:
            classes.append(s)
    out = [ModuleClass(ar, _members(s)) for s in classes]
    out.sort(key=lambda c: (-c.size, c.labels()))
    return out


def gen_class(m, ar: ARQuiverData) -> ModuleClass:
    """gen of a module or a list of modules, extensionally, by traces."""
    gens = list(m) if isinstance(m, (list, tuple)) else [m]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return ModuleClass(ar, frozenset())
    return ModuleClass(ar, frozenset(
        i for i, x in enumerate(ar.indecomposables) if in_gen(gens, x)
    ))


def torsion_theory_of(cls: ModuleClass, x: Representation):
    """The canonical sequence 0 -> tX -> X -> X/tX -> 0 for a torsion class."""
    ok, witness = is_torsion_class(cls)
    if not ok:
        raise DomainError(f"not a torsion class (witness indecomposable {witness})")
    gens = cls.reps()
    if not gens:
        tx = SubRep(x, [Subspace.zero(d) for d in x.dims], check=False)
    else:
        tx = trace_subrep(gens, x)
    quot, _ = quotient_rep(x, tx)
    return tx, quot


# --------------------------------------------------------------------------
# rigidity and Ext-projectives
# --------------------------------------------------------------------------


def is_tau_rigid(t: Representation) -> bool:
    """Hom(T, tau T) = 0."""
    return t.is_zero() or hom_dim(t, tau(t)) == 0


def is_tau_rigid_indexed(ids: Sequence[int], ar: ARQuiverData) -> bool:
    """Hom(T, tau T) = 0 for T = sum of the indecomposables ids, read off the
    exact Hom table: Hom(T, tau T) is the direct sum of the Hom(T_i, tau T_j)
    (Adachi-Iyama-Reiten 2014), so every hom_to_tau(i, j) must vanish."""
    return all(ar.hom_to_tau(i, j) == 0 for i in ids for j in ids)


def ext_projectives_in(cls: ModuleClass) -> ModuleClass:
    """{X in cls : Ext^1(X, cls) = 0}, via the exact Ext table's row masks."""
    ext_out, _ = cls.ar.ext_masks()
    t = cls.mask()
    return ModuleClass(cls.ar, frozenset(x for x in cls.members if not t & ext_out[x]))


def ext_injectives_in(cls: ModuleClass) -> ModuleClass:
    """{X in cls : Ext^1(cls, X) = 0}, via the Ext table's column masks."""
    _, ext_into = cls.ar.ext_masks()
    t = cls.mask()
    return ModuleClass(cls.ar, frozenset(x for x in cls.members if not t & ext_into[x]))


def ext_projectives(cls: ModuleClass) -> ModuleClass:
    """P(T) for a torsion class, by the Auslander-Smalo test
    Hom(cls, tau X) = 0 on the Hom table's masks (projectives always pass,
    since tau P = 0); cross-checked against the Ext table."""
    ar = cls.ar
    _, hom_into = ar.hom_masks()
    t = cls.mask()
    out = frozenset(
        x for x in cls.members
        if x in ar.projective_vertex or not t & hom_into[ar.tau_links[x]]
    )
    if out != ext_projectives_in(cls).members:
        raise ContractViolation("internal: Auslander-Smalo test disagrees with Ext table")
    return ModuleClass(ar, out)


def ext_injectives(cls: ModuleClass) -> ModuleClass:
    """I(F) for a torsion-free class: X with tau^- X in the torsion side,
    i.e. Hom(tau^- X, cls) = 0 (injectives always pass); cross-checked
    against the Ext table."""
    ar = cls.ar
    hom_out, _ = ar.hom_masks()
    t = cls.mask()
    out = frozenset(
        x for x in cls.members
        if x in ar.injective_vertex or not t & hom_out[ar.tau_inv_links[x]]
    )
    if out != ext_injectives_in(cls).members:
        raise ContractViolation("internal: dual Auslander-Smalo test disagrees with Ext table")
    return ModuleClass(ar, out)


# --------------------------------------------------------------------------
# tilting
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TiltingCheck:
    partial_tilting: bool
    tilting: bool
    summands: int


def tilting_checks(t: Representation) -> TiltingCheck:
    """partial tilting = rigid + projdim <= 1; tilting adds #T = #A."""
    if t.is_zero():
        return TiltingCheck(True, t.algebra.vertex_count == 0, 0)
    partial = ext1(t, t).dim == 0 and proj_dim_le1(t)
    count = decompose(t).summand_count
    return TiltingCheck(partial, partial and count == t.algebra.vertex_count, count)


def _summed_presentation(pres: Presentation, n: int) -> Presentation:
    """The direct sum of n copies of a minimal presentation (sums of minimal
    maps are minimal)."""
    a = pres.m.algebra
    m_n = direct_sum(a, [pres.m] * n)
    p0_n = projective_sum(a, tuple(pres.p0.vertices) * n)
    p1_n = projective_sum(a, tuple(pres.p1.vertices) * n)
    syz = direct_sum(a, [pres.syzygy] * n)

    def block(base: Morphism) -> List[Matrix]:
        return [Matrix.block_diag([base.maps[v]] * n) for v in range(a.vertex_count)]

    d = Morphism(p1_n.rep, p0_n.rep, block(pres.d), verify=False)
    eps = Morphism(p0_n.rep, m_n.total, block(pres.eps), verify=False)
    incl = Morphism(syz.total, p0_n.rep, block(pres.syzygy_incl), verify=False)
    return Presentation(m_n.total, p0_n, p1_n, d, eps, syz.total, incl)


def bongartz_tilting(m: Representation) -> Representation:
    """Classical Bongartz completion via the universal extension of a basis
    of Ext^1(m, A); the result is basic and certified tilting."""
    checks = tilting_checks(m)
    if not checks.partial_tilting:
        raise DomainError("bongartz_tilting requires a partial tilting module")
    a = m.algebra
    a_rep = direct_sum(a, [projective(a, i) for i in a.quiver.vertices]).total
    space = ext1(m, a_rep)
    if space.dim == 0:
        e = a_rep
    else:
        n = space.dim
        pres_n = _summed_presentation(space.presentation, n)
        syz_parts = direct_sum(a, [space.presentation.syzygy] * n)
        theta = zero_morphism(pres_n.syzygy, a_rep)
        for i, cls in enumerate(space.classes):
            theta = theta + (cls.theta @ syz_parts.projections[i])
        univ = ExtClass(pres_n.m, a_rep, theta, pres_n)
        e, _, _ = realize_extension(univ)
    combined = direct_sum(a, [e, m]).total
    parts = decompose(combined).factors
    result = direct_sum(a, [p for p, _ in parts]).total
    final = tilting_checks(result)
    if not final.tilting:
        raise ContractViolation("internal: Bongartz completion failed the tilting check")
    return result


def bongartz_tau(u: Representation, ar: ARQuiverData) -> ModuleClass:
    """P(perp0(tau u)): the tau-tilting Bongartz completion of a tau-rigid u."""
    if not is_tau_rigid(u):
        raise DomainError("bongartz_tau requires a tau-rigid module")
    tu = tau(u)
    members = frozenset(
        i for i in range(ar.count) if hom_dim(ar.indecomposables[i], tu) == 0
    )
    cls = ModuleClass(ar, members)
    ok, witness = is_torsion_class(cls)
    if not ok:
        raise ContractViolation(f"internal: perp class not torsion (witness {witness})")
    if cls.support_rank() != ar.algebra.vertex_count:
        raise ContractViolation("internal: Bongartz class is not sincere")
    result = ext_projectives(cls)
    if len(result.members) != ar.algebra.vertex_count:
        raise ContractViolation("internal: Bongartz completion has wrong summand count")
    # u must embed into add(result)
    for part, _ in decompose(u).factors:
        if all(iso_test(part, ar.indecomposables[i]) is None for i in result.members):
            raise ContractViolation("internal: input lost by Bongartz completion")
    # gen(result) = perp0(tau result)
    summed = direct_sum(ar.algebra, result.reps()).total
    gen_side = gen_class(result.reps(), ar).members
    perp_side = frozenset(
        i for i in range(ar.count)
        if all(ar.hom_to_tau(i, j) == 0 for j in result.members)
    )
    if gen_side != perp_side:
        raise ContractViolation("internal: gen(T) != perp0(tau T) for Bongartz completion")
    if not is_tau_rigid(summed):
        raise ContractViolation("internal: Bongartz completion not tau-rigid")
    return result


# --------------------------------------------------------------------------
# support tau-tilting pairs
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportTauTiltingPair:
    """(T, P): basic tau-rigid module plus killed projective vertices with
    #T + #P = #A."""

    algebra: Algebra
    summands: Tuple[Representation, ...]
    kill: FrozenSet[int]
    ids: Optional[Tuple[int, ...]] = None

    def key(self):
        """(ids, sorted kill) for an indexed pair, whose ids `pair_from_ids`
        stores sorted; otherwise (sorted summand g-vectors, sorted kill), which
        determines the pair up to isomorphism (Adachi-Iyama-Reiten 2014,
        Thm 5.5) without depending on bases.  Built once per pair."""
        return self._key

    @cached_property
    def _key(self):
        kill = tuple(sorted(self.kill))
        if self.ids is not None:
            return (self.ids, kill)
        return (tuple(sorted(g_vector(r) for r in self.summands)), kill)

    def label(self, ar: Optional[ARQuiverData] = None) -> str:
        if self.ids is not None and ar is not None:
            mods = sorted(ar.labels[i] for i in self.ids)
        else:
            mods = sorted(r.dim_label() for r in self.summands)
        body = "+".join(mods) if mods else "0"
        if self.kill:
            body += " | kill " + ",".join(str(v) for v in sorted(self.kill))
        return body

    @property
    def summand_count(self) -> int:
        return len(self.summands)


def pair_from_ids(ar: ARQuiverData, ids: Sequence[int], kill: Sequence[int]) -> SupportTauTiltingPair:
    return SupportTauTiltingPair(
        ar.algebra,
        tuple(ar.indecomposables[i] for i in sorted(ids)),
        frozenset(kill),
        tuple(sorted(ids)),
    )


def check_pair(pair: SupportTauTiltingPair, ar: Optional[ARQuiverData] = None) -> None:
    """Assert the support tau-tilting pair axioms exactly.

    Hom(T, tau T) is the direct sum of the Hom(T_i, tau T_j), so
    tau-rigidity is decided summand by summand: read off the exact Hom table
    (`is_tau_rigid_indexed`) for a pair indexed against the enumeration ar,
    and as hom_dim(T_i, tau T_j) == 0 for the other pairs (`dagger`,
    `finiteness_probe`), with tau memoized per summand.
    """
    a = pair.algebra
    n = a.vertex_count
    if len(pair.summands) + len(pair.kill) != n:
        raise DomainError("#T + #P != #A")
    for i, x in enumerate(pair.summands):
        for v in pair.kill:
            if x.dims[v - 1] != 0:
                raise DomainError("Hom(P, T) != 0: summand supported on a killed vertex")
        for y in pair.summands[i + 1:]:
            if x.dims == y.dims and is_isomorphic(x, y):
                raise DomainError("pair is not basic")
    if ar is not None and pair.ids is not None:
        if ar.algebra is not a:
            raise ContractViolation("pair is not indexed against this enumeration")
        rigid = is_tau_rigid_indexed(pair.ids, ar)
    else:
        rigid = all(hom_dim(x, tau(y)) == 0 for x in pair.summands for y in pair.summands)
    if not rigid:
        raise DomainError("module part is not tau-rigid")


def support_tau_tilting_check(t: Representation) -> bool:
    """tau-rigid T is support tau-tilting iff #T = supportrank T."""
    if not is_tau_rigid(t):
        raise DomainError("not tau-rigid")
    if t.is_zero():
        return True
    return decompose(t).summand_count == support_rank(t)


def complete_pair(t: Representation, ar: ARQuiverData) -> SupportTauTiltingPair:
    """The pair (T, P) with P maximal projective with Hom(P, T) = 0."""
    if not support_tau_tilting_check(t):
        raise DomainError("#T != supportrank T: completion refused")
    kill = frozenset(
        v for v in t.algebra.quiver.vertices if t.is_zero() or t.dims[v - 1] == 0
    )
    ids = []
    for part, _ in ([] if t.is_zero() else decompose(t).factors):
        idx = ar.index_of(part)
        if idx is None:
            raise DomainError("summand not found in the AR index")
        ids.append(idx)
    pair = pair_from_ids(ar, ids, kill)
    check_pair(pair, ar)
    return pair


def pair_torsion_class(pair: SupportTauTiltingPair, ar: ARQuiverData) -> ModuleClass:
    """Fac T of an indexed pair, as the double perp of its summands."""
    if pair.ids is None:
        raise ContractViolation("pair is not indexed against this enumeration")
    return ModuleClass(ar, _members(fac_class(pair.ids, ar)))


def _class_to_pair(cls: ModuleClass) -> SupportTauTiltingPair:
    """The support tau-tilting pair of a functorially finite torsion class."""
    ar = cls.ar
    p = ext_projectives(cls)
    t = cls.mask()
    kill = frozenset(v for v, support in ar.support_masks().items() if not t & support)
    return pair_from_ids(ar, sorted(p.members), kill)


def _pair_of_class(ar: ARQuiverData, mask: int) -> SupportTauTiltingPair:
    """The pair of the torsion class mask, memoized per enumeration: built by
    `_class_to_pair` (with the Ext-table cross-check of `ext_projectives`)
    and certified by `check_pair` once, when first built."""
    pair = ar.class_pairs.get(mask)
    if pair is None:
        pair = _class_to_pair(ModuleClass(ar, _members(mask)))
        check_pair(pair, ar)
        ar.class_pairs[mask] = pair
    return pair


@dataclass(frozen=True)
class MutationResult:
    pair: SupportTauTiltingPair
    direction: str                  # "left" or "right"
    removed: Optional[str]
    added: Optional[str]


def mutate(pair: SupportTauTiltingPair, ar: ARQuiverData, k) -> MutationResult:
    """Replace one summand (module or killed vertex) by the unique alternative.

    k is ("module", ar-index of a summand) or ("vertex", killed vertex).
    Both candidate torsion classes of the almost complete pair (U, Q) are
    computed from the Hom table: Fac U as the double perp of U (`fac_class`)
    and perp0(tau U) cap Q^perp0.  Each is turned back into a pair by
    `_pair_of_class`, which builds a class's pair from its Ext-projectives
    (cross-checked against the Ext table) and checks the axioms with
    `check_pair` once per class, the first time any mutation reaches it.  The
    completion differing from the input is returned, with the direction flag
    (left iff the removed module is outside gen of the rest).
    """
    if pair.ids is None:
        raise ContractViolation("pair is not indexed against this enumeration")
    kind, which = k
    if kind == "module":
        if which not in pair.ids:
            raise DomainError(f"index {which} is not a summand of the pair")
        u_ids = tuple(i for i in pair.ids if i != which)
        q_kill = set(pair.kill)
    elif kind == "vertex":
        if which not in pair.kill:
            raise DomainError(f"vertex {which} is not killed by the pair")
        u_ids = pair.ids
        q_kill = set(pair.kill) - {which}
    else:
        raise ContractViolation("k must be ('module', id) or ('vertex', v)")

    c1 = fac_class(u_ids, ar)
    _, in_masks = ar.hom_masks()
    tau_u = _mask(ar.tau_links[u] for u in u_ids if u not in ar.projective_vertex)
    c2 = _perp_mask(tau_u, in_masks)
    support = ar.support_masks()
    for v in q_kill:
        c2 &= ~support[v]
    if c1 == c2:
        raise ContractViolation("internal: the two completions coincide")
    pair1 = _pair_of_class(ar, c1)
    pair2 = _pair_of_class(ar, c2)
    if pair1.key() == pair.key():
        other, direction = pair2, "right"
    elif pair2.key() == pair.key():
        other, direction = pair1, "left"
    else:
        raise ContractViolation("internal: input pair is neither completion")
    removed = ar.labels[which] if kind == "module" else f"P({which})"
    added_ids = set(other.ids or ()) - set(pair.ids)
    added = ar.labels[next(iter(added_ids))] if added_ids else None
    return MutationResult(other, direction, removed, added)


# --------------------------------------------------------------------------
# envelopes, covers, exchange sequences
# --------------------------------------------------------------------------


def add_envelope(x: Representation, types: Sequence[Representation]) -> Tuple[Morphism, List[int]]:
    """A minimal left add(U)-approximation x -> sum of copies of the types.

    Returns the map and the list of type indices, one per codomain copy.  The
    legs are the hom_basis(x, W) of each type W in turn.  A stack of legs
    (phi_k): x -> sum of W_k is an add(U)-preenvelope iff, for each type W,
    the composites h . phi_k with h in Hom(W_k, W) span Hom(x, W)
    (Auslander-Smalo 1980), so each composite is flattened once and the test
    is one rank per type.  The first copy that can go is dropped and the scan
    restarts, until no copy can go.
    """
    a = x.algebra
    bases = [hom_basis(x, w) for w in types]
    legs = [(t, phi) for t, basis in enumerate(bases) for phi in basis]
    if not legs:
        return zero_morphism(x, zero_rep(a)), []
    width = [sum(d * e for d, e in zip(x.dims, w.dims)) for w in types]
    # comps[k][t]: the flattened h . phi for leg k = (o, phi), h in hom_basis(W_o, W_t)
    comps = [[[(h @ phi).flat() for h in hom_basis(types[o], w)] for w in types]
             for o, phi in legs]

    def spans(keep: List[int]) -> bool:
        return all(
            Matrix.from_rows([row for k in keep for row in comps[k][t]], cols=width[t]).rank()
            == len(basis)
            for t, basis in enumerate(bases) if basis
        )

    keep = list(range(len(legs)))
    dropped = True
    while dropped:
        dropped = False
        for drop in keep:
            rest = [k for k in keep if k != drop]
            if spans(rest):
                keep, dropped = rest, True
                break
    owners = [legs[k][0] for k in keep]
    target = direct_sum(a, [types[o] for o in owners]).total
    maps = [
        Matrix.from_blocks([types[o].dims[v] for o in owners], [x.dims[v]],
                           {(b, 0): legs[k][1].maps[v] for b, k in enumerate(keep)})
        for v in range(a.vertex_count)
    ]
    return Morphism(x, target, maps, verify=False), owners


def add_cover(x: Representation, types: Sequence[Representation]) -> Morphism:
    """A minimal right add(U)-approximation of x: D of the add(DU)-envelope of
    Dx over the opposite algebra, since the exact duality D turns minimal left
    approximations into minimal right ones."""
    env, _ = add_envelope(dualize(x), [dualize(w) for w in types])
    return dualize_morphism(env)


@dataclass
class ExchangeResult:
    f: Morphism                       # the add(U)-envelope of x
    y: Representation                 # cokernel (zero when U is not sincere)
    new_summands: List[Representation]
    dead_vertices: Set[int]           # vertices dropped into the kill set


def exchange_step(u_summands: Sequence[Representation], x: Representation) -> ExchangeResult:
    """One left mutation by the exchange sequence x -> U' -> y -> 0, where
    x -> U' is the minimal left add(U)-approximation of `add_envelope` and y
    its cokernel: zero when one vertex dies, otherwise the new indecomposable
    summand."""
    a = x.algebra
    types = list(u_summands)
    env, _ = add_envelope(x, types)
    y, _ = cokernel(env)
    if y.is_zero():
        support = set()
        for u in types:
            support |= {v for v in a.quiver.vertices if u.dims[v - 1] > 0}
        dead = {v for v in a.quiver.vertices if v not in support}
        if len(dead) != 1:
            raise ContractViolation("internal: exactly one vertex must die")
        return ExchangeResult(env, y, list(types), dead)
    parts = decompose(y).factors
    if len(parts) != 1 or parts[0][1] != 1:
        raise ContractViolation("internal: exchange cokernel is not indecomposable")
    y_indec = parts[0][0]
    for u in types:
        if u.dims == y_indec.dims and is_isomorphic(u, y_indec):
            raise ContractViolation("internal: exchange produced an existing summand")
    return ExchangeResult(env, y_indec, list(types) + [y_indec], set())


def exchange_sequence(t: Representation, x: Representation) -> ExchangeResult:
    """Spec-level form: t tau-tilting with summand x; U = t minus x."""
    parts = decompose(t).factors
    if not is_tau_rigid(t) or len(parts) != t.algebra.vertex_count:
        raise DomainError("exchange_sequence requires a tau-tilting module")
    u = []
    removed = False
    for p, mult in parts:
        if not removed and p.dims == x.dims and is_isomorphic(p, x):
            removed = True
            continue
        u.append(p)
    if not removed:
        raise DomainError("x is not a summand of t")
    result = exchange_step(u, x)
    total = direct_sum(t.algebra, result.new_summands).total
    if not is_tau_rigid(total):
        raise ContractViolation("internal: exchange result is not tau-rigid")
    return result


# --------------------------------------------------------------------------
# Hasse quiver
# --------------------------------------------------------------------------


@dataclass
class HasseQuiver:
    algebra: Algebra
    vertices: List[SupportTauTiltingPair]
    edges: List[Tuple[int, int, str]]     # (from, to, exchanged label): left mutations
    classes: List[FrozenSet[int]]         # Fac-classes per vertex (AR indices)
    ar: ARQuiverData

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @cached_property
    def in_out_degrees(self) -> Tuple[List[int], List[int]]:
        """(in-degrees, out-degrees) of all vertices, from one pass over the edges."""
        ins = [0] * self.vertex_count
        outs = [0] * self.vertex_count
        for i, j, _ in self.edges:
            outs[i] += 1
            ins[j] += 1
        return ins, outs

    def degree(self, i: int) -> int:
        ins, outs = self.in_out_degrees
        return ins[i] + outs[i]

    def source_index(self) -> int:
        return max(range(self.vertex_count), key=lambda i: len(self.classes[i]))

    def sink_index(self) -> int:
        return min(range(self.vertex_count), key=lambda i: len(self.classes[i]))

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra.content_hash(),
            "vertices": [
                {
                    "label": p.label(self.ar),
                    "summands": sorted(self.ar.labels[i] for i in (p.ids or ())),
                    "kill": sorted(p.kill),
                }
                for p in self.vertices
            ],
            "edges": [
                {"from": i, "to": j, "exchanged": lbl} for i, j, lbl in self.edges
            ],
            "counts": {"vertices": self.vertex_count, "edges": len(self.edges)},
        }


def _cap_exceeded(name: str, value: int, interned: int) -> CapExceededError:
    return CapExceededError(
        f"possibly tau-tilting infinite: {name}={value} exceeded after {interned} pairs",
        cap=name, value=value, progress=interned,
    )


def _confirm_same_pair(known: SupportTauTiltingPair, pair: SupportTauTiltingPair) -> None:
    """A g-vector key hit, confirmed summand by summand in g-vector order."""
    for x, y in zip(sorted(known.summands, key=g_vector), sorted(pair.summands, key=g_vector)):
        if not is_isomorphic(x, y):
            raise ContractViolation("internal: pairs with equal g-vectors are not isomorphic")


def _mutation_closure(start: SupportTauTiltingPair, step, vertex_cap: int):
    """The breadth-first closure of start under step, shared by `hasse` and
    `finiteness_probe`.

    step(pair, interned) yields (neighbour, edge) for one pair; interned is
    the live list of pairs found so far, and edge is None or (label, out),
    an arrow pair -> neighbour when out is true and neighbour -> pair
    otherwise.  Pairs are interned by `key()` in discovery order, and that
    list is also the queue.  An unindexed pair is certified by `check_pair`
    when it is new, and a key hit on one is confirmed by `is_isomorphic`;
    indexed pairs arrive certified by `mutate`.  Returns the pairs and the
    set of (from, to, label) edges.
    """
    vertices: List[SupportTauTiltingPair] = []
    index_of: Dict[tuple, int] = {}
    edges: Set[Tuple[int, int, str]] = set()

    def intern(pair: SupportTauTiltingPair) -> int:
        key = pair.key()
        idx = index_of.get(key)
        if idx is not None:
            if pair.ids is None:
                _confirm_same_pair(vertices[idx], pair)
            return idx
        if len(vertices) >= vertex_cap:
            raise _cap_exceeded("vertex_cap", vertex_cap, len(vertices))
        idx = index_of[key] = len(vertices)
        vertices.append(pair)
        if pair.ids is None:
            check_pair(pair)
        return idx

    intern(start)
    for vi, pair in enumerate(vertices):
        for neighbour, edge in step(pair, vertices):
            wi = intern(neighbour)
            if edge is not None:
                label, out = edge
                edges.add((vi, wi, label) if out else (wi, vi, label))
    return vertices, edges


def hasse(a: Algebra, vertex_cap: int = DEFAULT_VERTEX_CAP,
          ar: Optional[ARQuiverData] = None) -> HasseQuiver:
    """Breadth-first mutation closure from (A, empty), edges = left mutations.

    The closure is `_mutation_closure` with the n `mutate` moves of a pair
    as its step.  Table-driven: each vertex's class Fac T is the double perp
    of its summands on the Hom table (`fac_class`), and `mutate` and
    `check_pair` take classes and tau-rigidity from the same table.  Both
    tables are read off the AR quiver (`ARQuiverData`): Hom from the meshes,
    checked against every dimension vector, and Ext from one syzygy per
    indecomposable.  Each torsion class becomes a pair once per enumeration
    (`_pair_of_class`): the Ext-table cross-check in `ext_projectives` and
    `check_pair` run once per class, not on every mutation.  The edge set
    is recomputed independently as maximal inclusions of the classes and
    the two must coincide; the quiver is
    #A-regular with unique source and sink, both read from one degree count.
    Trace-based `gen_class`, D Tr = tau and the exchange-sequence closure of
    `finiteness_probe` are cross-checked against this path in the tests.
    """
    if ar is None:
        ar = enumerate_indecomposables(a)
    # Fac A = mod A, whose Ext-projectives are the projectives
    start = _pair_of_class(ar, (1 << ar.count) - 1)

    def step(pair: SupportTauTiltingPair, _interned):
        moves = [("module", i) for i in pair.ids] + [("vertex", v) for v in sorted(pair.kill)]
        for mv in moves:
            res = mutate(pair, ar, mv)
            if res.direction == "left":
                yield res.pair, (res.removed, True)
            else:
                yield res.pair, (res.removed if res.added is None else res.added, False)

    vertices, edges = _mutation_closure(start, step, vertex_cap)
    masks = [fac_class(p.ids, ar) for p in vertices]

    # independent recomputation: maximal inclusions among the classes; a k
    # with classes[j] < classes[k] < classes[i] is itself below i
    incl_edges = set()
    for i, mi in enumerate(masks):
        below = [j for j, mj in enumerate(masks) if mj != mi and mj & mi == mj]
        for j in below:
            mj = masks[j]
            if not any(masks[k] != mj and masks[k] & mj == mj for k in below):
                incl_edges.add((i, j))
    mut_edges = {(i, j) for i, j, _ in edges}
    if mut_edges != incl_edges:
        raise ContractViolation("internal: mutation edges differ from maximal inclusions")

    classes = [_members(m) for m in masks]
    hq = HasseQuiver(a, vertices, sorted(edges), classes, ar)
    n = a.vertex_count
    ins, outs = hq.in_out_degrees
    if any(d_in + d_out != n for d_in, d_out in zip(ins, outs)):
        raise ContractViolation("internal: Hasse quiver is not #A-regular")
    if ins.count(0) != 1 or outs.count(0) != 1:
        raise ContractViolation("internal: Hasse quiver must have unique source and sink")
    return hq


# --------------------------------------------------------------------------
# dagger
# --------------------------------------------------------------------------


def dagger(pair: SupportTauTiltingPair) -> SupportTauTiltingPair:
    """(T, P)^dagger = (Tr T_np + P*, T_pr*) over the opposite algebra."""
    a = pair.algebra
    op = a.opposite()
    pr_vertices: List[int] = []
    np_parts: List[Representation] = []
    for x in pair.summands:
        found = None
        for i in a.quiver.vertices:
            p = projective(a, i)
            if p.dims == x.dims and is_isomorphic(p, x):
                found = i
                break
        if found is not None:
            pr_vertices.append(found)
        else:
            np_parts.append(x)
    new_summands = [transpose(x) for x in np_parts]
    new_summands += [projective(op, v) for v in sorted(pair.kill)]
    new_kill = frozenset(pr_vertices)
    out = SupportTauTiltingPair(op, tuple(new_summands), new_kill)
    check_pair(out)
    return out


# --------------------------------------------------------------------------
# bricks
# --------------------------------------------------------------------------


@dataclass
class BrickRecord:
    module: Representation
    is_brick: bool
    fbrick_image: Representation


def fbrick_of(x: Representation) -> Representation:
    """x / rad_End(x): quotient by the sum of images of radical endomorphisms."""
    rad = end_radical(x)
    if not rad:
        return x
    sub = image_subrep(rad[0])
    for psi in rad[1:]:
        sub = sub_sum(sub, image_subrep(psi))
    quot, _ = quotient_rep(x, sub)
    return quot


def bricks(ar: ARQuiverData) -> List[BrickRecord]:
    out = []
    for x in ar.indecomposables:
        out.append(BrickRecord(x, hom_dim(x, x) == 1, fbrick_of(x)))
    return out


# --------------------------------------------------------------------------
# finiteness probe (no enumeration required)
# --------------------------------------------------------------------------


@dataclass
class ProbeResult:
    tau_tilting_finite: Optional[bool]    # None = unknown
    count: Optional[int]
    evidence: str
    oracle_agrees: Optional[bool] = None


def finiteness_probe(a: Algebra, vertex_cap: int = DEFAULT_VERTEX_CAP,
                     dim_cap: int = DEFAULT_DIM_CAP) -> ProbeResult:
    """Left-mutation closure from (A, empty) via exchange sequences.

    The closure is `_mutation_closure` with one step per pair: restrict the
    pair to the quotient by its killed vertices, run `exchange_step` (the
    cokernel of the minimal left approximation by the rest, `add_envelope`)
    on each summand outside gen of the rest, and extend the results back.  Pairs are
    identified by their g-vector keys, each hit confirmed by `is_isomorphic`,
    and every new pair is certified by `check_pair`.  Needs no enumeration of
    indecomposables, so it runs on representation-infinite algebras and
    reports 'unknown' when the vertex or the dimension cap is hit.  The count
    is cross-checked against the 2^n oracle when the enumeration finishes
    within ORACLE_MAX_INDECS indecomposables; otherwise the enumeration stops
    at that cap and `oracle_agrees` stays None.
    """
    if a.is_zero:
        return ProbeResult(True, 1, "zero algebra")
    start = SupportTauTiltingPair(
        a, tuple(projective(a, i) for i in a.quiver.vertices), frozenset()
    )
    quotients: Dict[FrozenSet[int], object] = {}

    def step(pair: SupportTauTiltingPair, interned):
        kill = pair.kill
        vq = None
        local = list(pair.summands)
        if kill:
            if kill not in quotients:
                quotients[kill] = quotient_by_vertices(a, set(kill))
            vq = quotients[kill]
            local = [restrict_to_quotient(vq, x) for x in local]
        if any(x.total_dim > dim_cap for x in local):
            raise _cap_exceeded("dim_cap", dim_cap, len(interned))
        for drop, x in enumerate(local):
            u = local[:drop] + local[drop + 1:]
            if u and in_gen(u, x):
                continue   # right mutation; reached from above instead
            res = exchange_step(u, x)
            if any(s.total_dim > dim_cap for s in res.new_summands):
                raise _cap_exceeded("dim_cap", dim_cap, len(interned))
            if vq is None:
                back, dead = res.new_summands, res.dead_vertices
            else:
                back = [extend_from_quotient(vq, s, a) for s in res.new_summands]
                dead = {vq.kept[v - 1] for v in res.dead_vertices}
            yield SupportTauTiltingPair(a, tuple(back), kill | frozenset(dead)), None

    try:
        count = len(_mutation_closure(start, step, vertex_cap)[0])
    except CapExceededError as e:
        return ProbeResult(None, None, f"mutation closure exceeded caps: {e}")

    try:
        ar = enumerate_indecomposables(a, count_cap=ORACLE_MAX_INDECS, dim_cap=dim_cap)
        oracle_agrees = len(enumerate_torsion_classes_oracle(ar)) == count
    except CapExceededError:
        oracle_agrees = None
    return ProbeResult(True, count, f"mutation closure complete with {count} pairs",
                       oracle_agrees)

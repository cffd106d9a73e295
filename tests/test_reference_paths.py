"""The block-built presentation maps, the path-matrix basis of
Hom(sum of P(i), X), the direct isomorphism test for modules with local
End and the rank-tested add(U)-envelope agree with the earlier constructions
kept in `helpers` (sums of composites, one unit vector at a time,
decompose-and-match, the factoring greedy), over A and A^op; the dual
add(U)-cover is checked to be a minimal right approximation."""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import (
    COMMUTATIVE_SQUARE,
    NAKAYAMA_CYCLE_RAD2,
    R,
    composite_hom_basis_from_projsum,
    composite_proj_sum_morphism,
    composite_star_of_presentation_map,
    conjugate,
    factoring_envelope,
    matched_iso_test,
    unit_vector_hom_basis_from_projsum,
)

from tautilt import fixtures
from tautilt.algebra import algebra_from_source
from tautilt.errors import NotCertifiableError
from tautilt.homology import (
    enumerate_indecomposables,
    factor_through,
    hom_basis_from_projsum,
    minimal_presentation,
    proj_sum_morphism,
    projective_sum,
    star_of_presentation_map,
)
from tautilt.rep import direct_sum, end_radical, hom_basis, iso_test, zero_morphism
from tautilt.tautilting import add_cover, add_envelope, is_tau_rigid_indexed

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SOURCES = {name: fixtures.SOURCES[name] for name in ("a3rel", "skewed", "wild4")}
SOURCES["d4"] = (FIXTURES / "d4.alg").read_text()
SOURCES["square"] = COMMUTATIVE_SQUARE
SOURCES["nakayama_rad2"] = NAKAYAMA_CYCLE_RAD2


@pytest.fixture(scope="module", params=[(name, side) for name in SOURCES for side in ("A", "A^op")],
                ids=lambda p: f"{p[0]}-{p[1]}")
def indecs(request):
    name, side = request.param
    a = algebra_from_source(SOURCES[name])
    if side == "A^op":
        a = a.opposite()
    return name, enumerate_indecomposables(a).indecomposables


def _same_maps(f, g):
    return f.source == g.source and f.target == g.target and f.maps == g.maps


def test_block_built_maps_match_sums_of_composites(indecs):
    _, mods = indecs
    rng = random.Random(3)
    for x in mods:
        pres = minimal_presentation(x)
        for ps, target in ((pres.p0, x), (pres.p0, pres.p0.rep), (pres.p1, pres.syzygy)):
            new = hom_basis_from_projsum(ps, target)
            old = composite_hom_basis_from_projsum(ps, target)
            assert len(new) == len(old) and all(_same_maps(f, g) for f, g in zip(new, old))
            vectors = [[Fraction(rng.randint(-3, 3)) for _ in range(target.dims[i - 1])]
                       for i in ps.vertices]
            assert _same_maps(proj_sum_morphism(ps, target, vectors),
                              composite_proj_sum_morphism(ps, target, vectors))
        op_p0, op_p1, dstar = star_of_presentation_map(pres)
        ref_p0, ref_p1, ref = composite_star_of_presentation_map(pres)
        assert (op_p0, op_p1) == (ref_p0, ref_p1)
        assert _same_maps(dstar, ref)


def test_hom_basis_from_projsum_matches_unit_vector_construction(indecs):
    _, mods = indecs
    a = mods[0].algebra
    # every projective once, then the first one again: two copies of one vertex
    ps = projective_sum(a, list(a.quiver.vertices) + [1])
    for x in mods:
        pres = minimal_presentation(x)
        for p, target in ((ps, x), (pres.p0, x), (pres.p1, pres.syzygy)):
            new = hom_basis_from_projsum(p, target)
            old = unit_vector_hom_basis_from_projsum(p, target)
            assert len(new) == len(old) and all(_same_maps(f, g) for f, g in zip(new, old))


def _check_agrees(m, n):
    got, ref = iso_test(m, n), matched_iso_test(m, n)
    assert (got is None) == (ref is None)
    if got is not None:
        assert got.source == m and got.target == n and got.is_iso()
    return got is not None


def test_iso_test_matches_decompose_and_match(indecs):
    name, mods = indecs
    non_iso_pairs = 0
    for i, x in enumerate(mods):
        local = len(hom_basis(x, x)) - len(end_radical(x)) == 1
        assert local  # every enumerated indecomposable takes the direct path
        for seed in (1, 2):
            y = conjugate(x, seed)
            assert _check_agrees(x, y) and _check_agrees(y, x)
        for z in mods[i + 1:]:
            if z.dims == x.dims:
                assert not _check_agrees(x, z) and not _check_agrees(z, x)
                non_iso_pairs += 1
    if name == "skewed":  # the two 111s: P(1) and I(3)
        assert non_iso_pairs >= 1
    # decomposable modules keep decompose-and-match
    a = mods[0].algebra
    for x, y in zip(mods, mods[1:]):
        s = direct_sum(a, [x, y]).total
        assert _check_agrees(s, conjugate(s, 5))
        assert _check_agrees(s, direct_sum(a, [y, x]).total)


def test_iso_test_refuses_non_split_end():
    # End = Q(i) is not local over Q in the certified sense (End/rad has
    # dimension 2), so the direct path is not taken and decompose refuses
    kron = fixtures.load("kronecker")
    m = R(kron, (2, 2), a=[[1, 0], [0, 1]], b=[[0, -1], [1, 0]])
    for test in (iso_test, matched_iso_test):
        with pytest.raises(NotCertifiableError):
            test(m, conjugate(m, 4))


@pytest.fixture(scope="module",
                params=[(name, side) for name in ("a3rel", "skewed", "wild4") for side in ("A", "A^op")],
                ids=lambda p: f"{p[0]}-{p[1]}")
def rigid_types(request):
    """The indecomposables and every tau-rigid U with one or two summands."""
    name, side = request.param
    a = algebra_from_source(SOURCES[name])
    if side == "A^op":
        a = a.opposite()
    ar = enumerate_indecomposables(a)
    mods = ar.indecomposables
    ids = [(i,) for i in range(ar.count)]
    ids += [(i, j) for i in range(ar.count) for j in range(i + 1, ar.count)]
    return mods, [[mods[i] for i in u] for u in ids if is_tau_rigid_indexed(u, ar)]


def test_add_envelope_matches_factoring_greedy(rigid_types):
    mods, us = rigid_types
    for x in mods:
        for types in us:
            env, owners = add_envelope(x, types)
            ref, ref_owners = factoring_envelope(x, types)
            assert owners == ref_owners and _same_maps(env, ref)


def _copies(source, types, most):
    """(type index of each copy, their direct sum) for the copies of the types,
    in type order and at most most[t] of types[t], whose sum is source."""
    a = source.algebra
    for counts in itertools.product(*(range(m + 1) for m in most)):
        owners = [t for t, c in enumerate(counts) for _ in range(c)]
        dims = tuple(sum(types[t].dims[v] for t in owners) for v in range(a.vertex_count))
        if dims == source.dims:
            copies = direct_sum(a, [types[t] for t in owners])
            if copies.total == source:
                return owners, copies
    return None, None


def test_add_cover_is_a_minimal_right_approximation(rigid_types):
    mods, us = rigid_types
    a = mods[0].algebra
    for x in mods:
        for types in us:
            cover = add_cover(x, types)
            bases = [hom_basis(w, x) for w in types]
            owners, copies = _copies(cover.source, types, [len(b) for b in bases])
            assert owners is not None and cover.target == x
            assert all(factor_through(phi, cover) is not None for b in bases for phi in b)
            parts = [cover @ inc for inc in copies.inclusions]
            for drop, o in enumerate(owners):
                rest = [k for k in range(len(owners)) if k != drop]
                sub = direct_sum(a, [types[owners[k]] for k in rest])
                restricted = zero_morphism(sub.total, x)
                for j, k in enumerate(rest):
                    restricted = restricted + (parts[k] @ sub.projections[j])
                # the maps from the dropped copy's type first: one of them must fail
                maps = bases[o] + [phi for t, b in enumerate(bases) if t != o for phi in b]
                assert any(factor_through(phi, restricted) is None for phi in maps)

from pathlib import Path

import pytest
from helpers import R, conjugate, skewed_121

import tautilt.rep as rep
from tautilt import fixtures
from tautilt.errors import ContractViolation
from tautilt.homology import ar_sequence, enumerate_indecomposables
from tautilt.rep import (
    Morphism,
    decompose,
    direct_sum,
    end_radical,
    hom_basis,
    hom_dim,
    identity_morphism,
    in_gen,
    is_isomorphic,
    iso_test,
    quotient_rep,
    radical_subrep,
    restrict_to_quotient,
    socle_subrep,
    support_rank,
    top_of,
    trace_and_reject,
    validate,
    zero_morphism,
    zero_rep,
)

FIXTURE_FILES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def a2():
    return fixtures.load("a2")


@pytest.fixture(scope="module")
def a3():
    return fixtures.load("a3lin")


@pytest.fixture(scope="module")
def a3rel():
    return fixtures.load("a3rel")


@pytest.fixture(scope="module")
def skewed():
    return fixtures.load("skewed")


# -- validation ---------------------------------------------------------------


def test_projectives_validate(a3rel):
    for i in a3rel.quiver.vertices:
        assert validate(a3rel.projective(i)) is None


def test_relation_violation_reported(a3rel):
    bad = R(a3rel, (1, 1, 1), a=[[1]], b=[[1]])
    report = validate(bad)
    assert report is not None
    assert "b*a" in report
    assert "(1, 3)" in report


def test_zero_rep_validates(a3rel):
    assert validate(zero_rep(a3rel)) is None


def test_shape_mismatch_is_contract_violation(a2):
    with pytest.raises(ContractViolation):
        R(a2, (1, 1), a=[[1], [1]])


# -- hom spaces ----------------------------------------------------------------


def test_hom_dims_over_a2(a2):
    p1 = a2.projective(1)   # 11
    p2 = a2.projective(2)   # 01
    assert hom_dim(p1, p2) == 0
    assert hom_dim(p2, p1) == 1


def test_hom_from_projective_counts_dims(a3, a3rel):
    for a in (a3, a3rel):
        mods = [a.projective(2), a.injective(2), a.simple(1), a.simple(2)]
        for m in mods:
            for i in a.quiver.vertices:
                assert hom_dim(a.projective(i), m) == m.dims[i - 1]


def test_hom_is_additive_in_sums(a3):
    x, y = a3.simple(2), a3.projective(1)
    z = a3.injective(2)
    sum_ = direct_sum(a3, [x, y]).total
    assert hom_dim(sum_, z) == hom_dim(x, z) + hom_dim(y, z)
    assert hom_dim(z, sum_) == hom_dim(z, x) + hom_dim(z, y)


def test_hom_basis_morphisms_intertwine(a3rel):
    m, n = a3rel.projective(1), a3rel.injective(2)
    for phi in hom_basis(m, n):
        for arrow in a3rel.quiver.arrows:
            s, t = arrow.source - 1, arrow.target - 1
            assert phi.maps[t] @ m.arrow_maps[arrow.name] == n.arrow_maps[arrow.name] @ phi.maps[s]


# -- direct sums ------------------------------------------------------------------


def test_direct_sum_with_zero(a3):
    m = a3.projective(2)
    s = direct_sum(a3, [m, zero_rep(a3)]).total
    assert is_isomorphic(s, m)


def test_direct_sum_dims(a3):
    s = direct_sum(a3, [a3.simple(2), a3.projective(1)]).total
    assert s.dims == (1, 2, 1)


def test_sum_of_projectives_has_algebra_dims(a3rel):
    s = direct_sum(a3rel, [a3rel.projective(i) for i in a3rel.quiver.vertices]).total
    per_vertex = tuple(
        sum(a3rel.projective(i).dims[v] for i in a3rel.quiver.vertices) for v in range(3)
    )
    assert s.dims == per_vertex
    assert s.total_dim == a3rel.dim


# -- decomposition ------------------------------------------------------------------


def test_decompose_multiplicity(a2):
    p1 = a2.projective(1)
    m = direct_sum(a2, [p1, p1]).total
    d = decompose(m)
    assert len(d.factors) == 1
    rep, mult = d.factors[0]
    assert mult == 2
    assert rep.dims == (1, 1)
    assert d.splitting.is_iso()


def test_decompose_conjugated_sum(a3):
    m = direct_sum(a3, [a3.simple(2), a3.projective(1)]).total
    twisted = conjugate(m, seed=5)
    d = decompose(twisted)
    assert sorted(rep.dims for rep, _ in d.factors) == [(0, 1, 0), (1, 1, 1)]
    assert all(mult == 1 for _, mult in d.factors)


def _check_decomposition_data(m):
    """Each recorded inclusion is an injective morphism from its part into m,
    and `splitting` composed with their sum is the identity of m."""
    d = decompose(m)
    assert len(d.inclusions) == len(d.parts) > 0
    parts_sum = direct_sum(m.algebra, d.parts)
    joined = zero_morphism(parts_sum.total, m)
    for part, incl, proj in zip(d.parts, d.inclusions, parts_sum.projections):
        assert incl.source is part and incl.target is m
        assert incl.is_injective()
        joined = joined + Morphism(part, m, incl.maps, verify=True) @ proj
    assert (joined @ d.splitting).flat() == identity_morphism(m).flat()


@pytest.mark.parametrize("name", ["a2", "a3lin", "a3rel", "d4", "k1", "skewed", "wild4", "wild5"])
def test_decomposition_data_of_ar_middle_terms(name):
    a = fixtures.algebra_from_source((FIXTURE_FILES / f"{name}.alg").read_text())
    ar = enumerate_indecomposables(a)
    for idx, x in enumerate(ar.indecomposables):
        if idx not in ar.projective_vertex:
            _check_decomposition_data(ar_sequence(x).middle)


def test_decomposition_data_of_conjugated_sums(a2, a3, a3rel, skewed):
    sums = [
        [a2.projective(1), a2.projective(1)],
        [a3.simple(2), a3.projective(1)],
        [a3.simple(2), a3.projective(3), a3.simple(2), a3.injective(2)],
        [a3rel.projective(1), a3rel.simple(2), a3rel.simple(2)],
        [skewed.simple(2), skewed.projective(1), skewed_121(skewed)],
    ]
    for seed, parts in enumerate(sums):
        m = direct_sum(parts[0].algebra, parts).total
        _check_decomposition_data(conjugate(m, seed=seed))


def test_end_radical_is_memoized(skewed):
    # End(S2 + P1) = k x k plus Hom(S2, P1) = k, which is its radical
    m = direct_sum(skewed, [skewed.simple(2), skewed.projective(1)]).total
    rad = end_radical(m)
    assert end_radical(m) is rad
    assert (len(hom_basis(m, m)), len(rad)) == (3, 1)


def test_decompose_121_indecomposable(skewed):
    d = decompose(skewed_121(skewed))
    assert len(d.parts) == 1
    assert d.factors[0][1] == 1


def test_splitting_candidates_are_fixed_and_lazy(a2, monkeypatch):
    # End(S1 + S2) is spanned by the two projections, both outside rad End
    m = direct_sum(a2, [a2.simple(1), a2.simple(2)]).total
    basis = hom_basis(m, m)
    rad = end_radical(m)
    stream = [x.flat() for x in rep._splitting_candidates(basis, rad)]
    assert stream == [x.flat() for x in rep._splitting_candidates(basis, rad)]
    assert stream[:3] == [basis[0].flat(), basis[1].flat(), (basis[0] + basis[1]).flat()]
    assert len(stream) <= 3 + rep.SPLIT_RANDOM_CANDIDATES

    def boom(*args):
        raise AssertionError("candidate built before it was asked for")

    with monkeypatch.context() as mp:
        mp.setattr(Morphism, "__add__", boom)
        mp.setattr(Morphism, "scale", boom)
        assert next(rep._splitting_candidates(basis, rad)).flat() == basis[0].flat()

    # the first projection splits m, so the search asks for no second candidate
    drawn = []
    real = rep._splitting_candidates

    def counted(b, r):
        for x in real(b, r):
            drawn.append(x)
            yield x

    monkeypatch.setattr(rep, "_splitting_candidates", counted)
    assert rep._fitting_split(basis, rad) is not None
    assert len(drawn) == 1


def test_decompose_involutive_with_direct_sum(a3rel):
    mods = [a3rel.projective(1), a3rel.simple(2), a3rel.simple(2)]
    m = direct_sum(a3rel, mods).total
    d = decompose(m)
    rebuilt = direct_sum(a3rel, d.parts).total
    assert is_isomorphic(m, rebuilt)


def test_krull_schmidt_merge(a3):
    m = direct_sum(a3, [a3.simple(2), a3.projective(3)]).total
    n = direct_sum(a3, [a3.simple(2), a3.injective(2)]).total
    big = decompose(direct_sum(a3, [m, n]).total)
    merged = {}
    for part in [m, n]:
        for rep, mult in decompose(part).factors:
            for key in list(merged):
                pass
            found = False
            for key in merged:
                if is_isomorphic(key, rep):
                    merged[key] += mult
                    found = True
                    break
            if not found:
                merged[rep] = mult
    assert sorted(v for v in merged.values()) == sorted(mult for _, mult in big.factors)
    assert len(merged) == len(big.factors)


# -- isomorphism ------------------------------------------------------------------


def test_iso_self_is_identity(a3):
    m = a3.projective(2)
    phi = iso_test(m, m)
    assert phi is not None
    assert phi.maps == identity_morphism(m).maps


def test_iso_conjugated(a3):
    m = direct_sum(a3, [a3.simple(2), a3.projective(1)]).total
    twisted = conjugate(m, seed=11)
    phi = iso_test(m, twisted)
    assert phi is not None and phi.is_iso()


def test_iso_non_invertible_assembly_raises(a3, monkeypatch):
    # every summand matches, so a non-invertible assembled map is an internal
    # fault, never "not isomorphic"
    from tautilt.rep import Morphism

    m = direct_sum(a3, [a3.simple(2), a3.projective(1)]).total
    twisted = conjugate(m, seed=11)
    real_is_iso = Morphism.is_iso

    def fake_is_iso(self):
        if self.source is m and self.target is twisted:
            return False
        return real_is_iso(self)

    monkeypatch.setattr(Morphism, "is_iso", fake_is_iso)
    with pytest.raises(ContractViolation, match="assembled isomorphism"):
        iso_test(m, twisted)


def test_two_111_of_skewed_not_isomorphic(skewed):
    under = skewed.projective(1)           # a acts as 1, b as 0
    over = skewed.injective(3)             # b acts as 1, a as 0
    assert under.dims == over.dims == (1, 1, 1)
    assert iso_test(under, over) is None


def test_non_split_end_is_reported():
    # a regular Kronecker module with End = Q(i): indecomposable over Q but
    # not absolutely so; the engine must refuse to certify, not guess
    from tautilt.errors import NotCertifiableError

    kron = fixtures.load("kronecker")
    m = R(kron, (2, 2), a=[[1, 0], [0, 1]], b=[[0, -1], [1, 0]])
    assert hom_dim(m, m) == 2
    with pytest.raises(NotCertifiableError, match="non-split"):
        decompose(m)


# -- trace and reject ----------------------------------------------------------------


def test_trace_of_projectives_is_everything(a3rel):
    projs = [a3rel.projective(i) for i in a3rel.quiver.vertices]
    for m in (a3rel.simple(2), a3rel.injective(2), a3rel.projective(2)):
        tr, _ = trace_and_reject(projs, m)
        assert tr.is_full()


def test_trace_example_from_torsion_class(a3):
    gens = [a3.simple(2), a3.projective(1)]       # 010 + 111
    assert in_gen(gens, a3.simple(1))             # 100 in gen M
    tr, _ = trace_and_reject(gens, a3.projective(3))
    assert not tr.is_full()                       # 001 is torsion-free here


def test_reject_detects_cogenerated(a3):
    gens = [a3.projective(1)]                     # 111 cogenerates its socle
    _, rj = trace_and_reject(gens, a3.projective(3))
    assert rj.is_zero()                           # 001 = soc(111) embeds


def test_trace_idempotent(a3):
    gens = [a3.simple(2), a3.projective(1)]
    y = a3.injective(2)
    tr, _ = trace_and_reject(gens, y)
    sub_rep, _ = tr.to_rep()
    tr2, _ = trace_and_reject(gens, sub_rep)
    assert tr2.is_full()


# -- structural submodules -------------------------------------------------------------


def test_simple_structure(a3):
    s = a3.simple(2)
    assert radical_subrep(s).is_zero()
    top, _ = top_of(s)
    assert top.dims == s.dims
    assert socle_subrep(s).dims == s.dims


def test_radical_and_top_of_projective(a3):
    p1 = a3.projective(1)
    rad = radical_subrep(p1)
    assert rad.dims == (0, 1, 1)
    top, _ = top_of(p1)
    assert top.dims == (1, 0, 0)


def test_socle_of_a2_projective(a2):
    assert socle_subrep(a2.projective(1)).dims == (0, 1)


def test_rad_p1_of_a2_is_simple(a2):
    rad = radical_subrep(a2.projective(1))
    rep, _ = rad.to_rep()
    assert is_isomorphic(rep, a2.projective(2))


# -- support rank ------------------------------------------------------------------------


def test_support_rank(a3):
    assert support_rank(a3.simple(2)) == 1
    assert support_rank(a3.projective(1)) == 3
    cls = [a3.simple(2), a3.projective(1), a3.injective(2), a3.simple(1)]
    assert support_rank(cls) == 3


# -- quotient transport ---------------------------------------------------------------------


def test_restrict_to_quotient(a3):
    from tautilt.algebra import quotient_by_vertices

    vq = quotient_by_vertices(a3, {1})
    m = a3.projective(2)    # vanishes at vertex 1
    r = restrict_to_quotient(vq, m)
    assert r.dims == (1, 1)
    with pytest.raises(ContractViolation):
        restrict_to_quotient(vq, a3.projective(1))


def test_quotient_rep_shapes(a3):
    p1 = a3.projective(1)
    rad = radical_subrep(p1)
    q, proj = quotient_rep(p1, rad)
    assert q.dims == (1, 0, 0)
    assert proj.is_surjective()


def test_module_key_hashes_once(a3, monkeypatch):
    # memo lookups keyed by module data hash the key object, whose hash is
    # computed when the key is built, not from every matrix entry again
    m = R(a3, (1, 1, 0), a=[[2]])
    same = R(a3, (1, 1, 0), a=[[2]])
    other = R(a3, (1, 1, 0), a=[[3]])
    key = m.key()
    assert key is m.key()
    assert key == same.key() and hash(key) == hash(same.key())
    assert key != other.key()
    hashed = []
    real = rep.Fraction.__hash__
    monkeypatch.setattr(rep.Fraction, "__hash__", lambda x: hashed.append(x) or real(x))
    lookups = {(key, key): 1}
    assert lookups[(m.key(), m.key())] == 1 and not hashed

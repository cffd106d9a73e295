import copy
import dataclasses
from pathlib import Path

import pytest
from helpers import (
    COMMUTATIVE_SQUARE,
    DOUBLE_A3_RAD2,
    NAKAYAMA_CYCLE_RAD2,
    NAKAYAMA_CYCLE_RAD3,
    ext_dim,
    skewed_121,
)

from tautilt import fixtures, homology
from tautilt.algebra import algebra_from_source
from tautilt.errors import CapExceededError, ContractViolation
from tautilt.homology import (
    ARQuiverData,
    ar_sequence,
    bracket,
    dualize,
    enumerate_indecomposables,
    ext1,
    extension_class_of,
    g_vector,
    injective,
    minimal_presentation,
    projective,
    projective_cover_map,
    projective_sum,
    proj_dim_le1,
    realize_extension,
    tau,
    tau_minus,
    transpose,
)
from tautilt.rep import (
    Morphism,
    decompose,
    direct_sum,
    hom_dim,
    is_isomorphic,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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


@pytest.fixture(scope="module")
def kron():
    return fixtures.load("kronecker")


# -- presentations ---------------------------------------------------------------


def test_projective_sum_is_shared_and_frozen(a3rel):
    ps = projective_sum(a3rel, (1, 2, 1))
    assert projective_sum(a3rel, [1, 2, 1]) is ps
    assert isinstance(ps.inclusions, tuple) and isinstance(ps.projections, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ps.vertices = (1,)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ps.inclusions = ()


def test_projective_cover_is_memoized_by_data(a3rel):
    m = a3rel.injective(2)
    p0, eps = projective_cover_map(m)
    again = copy.copy(m)
    assert again is not m and again == m
    assert projective_cover_map(again) == (p0, eps)
    assert eps.is_surjective() and eps.target == m


def test_presentation_of_projective(a3):
    pres = minimal_presentation(projective(a3, 2))
    assert pres.p1.is_zero()
    assert pres.p0.vertices == (2,)
    assert pres.eps.is_iso()


def test_presentation_of_simple_middle(a3):
    pres = minimal_presentation(a3.simple(2))
    assert pres.p0.vertices == (2,)   # p0 = 011
    assert pres.p1.vertices == (3,)   # p1 = 001
    assert pres.syzygy.dims == (0, 0, 1)


def test_presentation_of_simple_top_a3rel(a3rel):
    pres = minimal_presentation(a3rel.simple(1))
    assert pres.p0.vertices == (1,)   # 110
    assert pres.p1.vertices == (2,)   # 011
    assert pres.syzygy.dims == (0, 1, 0)  # syzygy 010 is not projective


def test_g_vectors(a3):
    assert g_vector(projective(a3, 1)) == (1, 0, 0)
    assert g_vector(projective(a3, 2)) == (0, 1, 0)
    assert g_vector(a3.simple(2)) == (0, 1, -1)


def test_bracket_identity_instance(a3):
    s2 = a3.simple(2)
    g = g_vector(s2)
    assert bracket(g, s2.dims) == 1
    t = tau(s2)
    assert bracket(g, s2.dims) == hom_dim(s2, s2) - hom_dim(s2, t)


def test_g_vector_additive_on_sums(a3, a3rel):
    for a in (a3, a3rel):
        x, y = a.simple(2), a.injective(2)
        gx, gy = g_vector(x), g_vector(y)
        gsum = g_vector(direct_sum(a, [x, y]).total)
        assert gsum == tuple(p + q for p, q in zip(gx, gy))


# -- duality and transpose ----------------------------------------------------------


def test_dual_of_projective_is_opposite_injective(a3rel):
    op = a3rel.opposite()
    for i in a3rel.quiver.vertices:
        assert is_isomorphic(dualize(projective(a3rel, i)), op.injective(i))


def test_transpose_kills_projectives(a2):
    assert transpose(projective(a2, 1)).is_zero()
    assert transpose(projective(a2, 2)).is_zero()


def test_transpose_is_involutive_off_projectives(a2):
    s1 = a2.simple(1)  # 10, non-projective
    tr = transpose(s1)
    back = transpose(tr)
    assert is_isomorphic(back, s1)


def test_d_tr_equals_tau(a3, a3rel):
    wild4 = fixtures.load("wild4")
    for a in (a3, a3rel, wild4):
        ar = enumerate_indecomposables(a)
        non_projective = [
            x for i, x in enumerate(ar.indecomposables) if i not in ar.projective_vertex
        ]
        for m in [a.simple(1), a.simple(2), a.injective(2)] + non_projective:
            t1 = tau(m)
            t2 = dualize(transpose(m))
            if t1.is_zero():
                assert t2.is_zero()
            else:
                assert is_isomorphic(t1, t2)


# -- tau -----------------------------------------------------------------------------


def test_tau_of_projectives_is_zero(a3, a3rel, skewed):
    for a in (a3, a3rel, skewed):
        for i in a.quiver.vertices:
            assert tau(projective(a, i)).is_zero()


def test_tau_minus_of_injectives_is_zero(a3):
    for i in a3.quiver.vertices:
        assert tau_minus(injective(a3, i)).is_zero()


def test_tau_links_a3lin(a3):
    assert tau(a3.simple(2)).dims == (0, 0, 1)
    assert tau(a3.simple(1)).dims == (0, 1, 0)
    assert tau(a3.injective(2)).dims == (0, 1, 1)


def test_tau_tau_minus_inverse(a3rel):
    m = a3rel.simple(2)
    t = tau(m)
    back = tau_minus(t)
    assert is_isomorphic(back, m)


def test_kronecker_tau_minus_chain(kron):
    m = projective(kron, 2)  # 01
    expected = [(2, 3), (4, 5), (6, 7)]
    for dims in expected:
        m = tau_minus(m)
        assert m.dims == dims


# -- projective dimension --------------------------------------------------------------


def test_proj_dim_projectives(a3rel):
    for i in a3rel.quiver.vertices:
        assert proj_dim_le1(projective(a3rel, i))


def test_proj_dim_a3rel_simples(a3rel):
    assert proj_dim_le1(a3rel.simple(2))        # 010: syzygy 001 projective
    assert not proj_dim_le1(a3rel.simple(1))    # 100: syzygy 010 not projective


# -- Ext^1 ------------------------------------------------------------------------------


def test_ext_from_projective_vanishes(a3):
    for i in a3.quiver.vertices:
        for j in a3.quiver.vertices:
            assert ext1(projective(a3, i), projective(a3, j)).dim == 0
            assert ext1(projective(a3, i), a3.simple(j)).dim == 0


def test_ext_dim_a2(a2):
    assert ext1(a2.simple(1), a2.simple(2)).dim == 1


def test_ext_dim_a3(a3):
    assert ext1(a3.simple(2), a3.simple(3)).dim == 1


def test_realize_zero_class_splits(a3):
    s2, s1 = a3.simple(2), a3.simple(1)
    space = ext1(s1, s2)   # tau(100) = 010, stable hom = End(010)/... = 1
    assert space.dim == 1
    zero_cls = space.class_from_coords([0] * space.dim)
    e, _, _ = realize_extension(zero_cls)
    assert is_isomorphic(e, direct_sum(a3, [s2, s1]).total)


def test_realize_generator_a2(a2):
    space = ext1(a2.simple(1), a2.simple(2))
    e, incl, proj = realize_extension(space.classes[0])
    assert is_isomorphic(e, projective(a2, 1))
    cls = extension_class_of(incl, proj)
    assert space.coords_of(cls.theta) != (0,) * space.dim


def test_realize_generator_a3(a3):
    space = ext1(a3.simple(2), a3.simple(3))
    e, _, _ = realize_extension(space.classes[0])
    assert is_isomorphic(e, projective(a3, 2))  # mesh 001 -> 011 -> 010


# -- almost split sequences ------------------------------------------------------------


def test_ar_sequence_a2(a2):
    seq = ar_sequence(a2.simple(1))  # 0 -> 01 -> 11 -> 10 -> 0
    assert seq.start.dims == (0, 1)
    assert is_isomorphic(seq.middle, projective(a2, 1))


def test_ar_sequence_middle_at_110(a3):
    seq = ar_sequence(a3.injective(2))  # at 110
    assert seq.start.dims == (0, 1, 1)
    factors = decompose(seq.middle).factors
    assert sorted(f.dims for f, _ in factors) == [(0, 1, 0), (1, 1, 1)]


def test_ar_sequence_at_010_a3(a3):
    seq = ar_sequence(a3.simple(2))
    assert seq.start.dims == (0, 0, 1)
    assert is_isomorphic(seq.middle, projective(a3, 2))


def test_ar_sequence_rejects_projective(a3):
    with pytest.raises(ContractViolation):
        ar_sequence(projective(a3, 1))


# -- enumeration ------------------------------------------------------------------------


def test_enumerate_a2(a2):
    ar = enumerate_indecomposables(a2)
    assert ar.count == 3
    assert sorted(ar.labels) == ["01", "10", "11"]


def test_enumerate_a3lin(a3):
    ar = enumerate_indecomposables(a3)
    assert ar.count == 6
    links = {ar.labels[k]: ar.labels[v] for k, v in ar.tau_links.items()}
    assert links == {"010": "001", "100": "010", "110": "011"}


def test_enumerate_a3rel(a3rel):
    ar = enumerate_indecomposables(a3rel)
    assert ar.count == 5
    assert sorted(ar.labels) == ["001", "010", "011", "100", "110"]


def test_enumerate_skewed(skewed):
    ar = enumerate_indecomposables(skewed)
    assert ar.count == 9
    labels = sorted(ar.labels)
    assert labels.count("111") + labels.count("111'") == 2
    # the hand-built 121 shows up
    assert ar.index_of(skewed_121(skewed)) is not None


def test_enumerate_kronecker_cap(kron):
    with pytest.raises(CapExceededError, match="not representation-finite"):
        enumerate_indecomposables(kron, dim_cap=16)


def test_enumerate_wild4():
    a = fixtures.load("wild4")
    ar = enumerate_indecomposables(a)
    assert ar.count == 19


def test_tau_bijection_on_enumeration(a3rel):
    ar = enumerate_indecomposables(a3rel)
    nonproj = [i for i in range(ar.count) if i not in ar.projective_vertex]
    noninj = [i for i in range(ar.count) if i not in ar.injective_vertex]
    assert sorted(ar.tau_links[i] for i in nonproj) == sorted(noninj)
    for i in nonproj:
        assert ar.tau_inv_links[ar.tau_links[i]] == i


def test_ar_formula_over_fixture_pairs(a3rel):
    # dim Ext^1(X, Y) = dim stable Hom(Y, tau X) is asserted inside ext1, so
    # calling it on every pair exercises the stable-Hom count on each
    ar = enumerate_indecomposables(a3rel)
    table = [[ext1(x, y).dim for y in ar.indecomposables] for x in ar.indecomposables]
    assert table == ar.ext_table()
    assert table[ar.labels.index("100")][ar.labels.index("010")] == 1


TABLE_ALGEBRAS = {name: (FIXTURES / f"{name}.alg").read_text()
                  for name in ("a2", "a3lin", "a3rel", "k1", "skewed", "wild4", "wild5")}
TABLE_ALGEBRAS.update(square=COMMUTATIVE_SQUARE, double_a3=DOUBLE_A3_RAD2,
                      nakayama_rad2=NAKAYAMA_CYCLE_RAD2, nakayama_rad3=NAKAYAMA_CYCLE_RAD3)


@pytest.mark.parametrize("name", sorted(TABLE_ALGEBRAS))
def test_tables_from_ar_quiver_equal_module_level_tables(name):
    # the Hom table solved from the meshes and the Ext table from syzygies
    # agree entry for entry with hom_dim and ext1 on the modules themselves
    ar = enumerate_indecomposables(algebra_from_source(TABLE_ALGEBRAS[name]))
    xs = ar.indecomposables
    assert ar.hom_table() == [[hom_dim(x, y) for y in xs] for x in xs]
    assert ar.ext_table() == [[ext_dim(x, y) for y in xs] for x in xs]


@pytest.mark.parametrize("name", ["a3rel", "wild4", "nakayama_rad2"])
def test_wrong_arrow_multiplicity_is_refused(name):
    # a miscounted irreducible map changes the mesh matrix; the Hom table it
    # would give misses some dimension vector, so it must raise, not answer
    ar = enumerate_indecomposables(algebra_from_source(TABLE_ALGEBRAS[name]))
    for arrow in sorted(ar.arrows):
        for delta in (1, -1):
            bad = copy.copy(ar)
            bad.arrows = dict(ar.arrows)
            bad.arrows[arrow] += delta
            bad._hom_table = bad._hom_masks = bad._ext_table = None
            with pytest.raises(ContractViolation, match="Hom table|singular"):
                bad.ext_table()


def test_nakayama_sends_projective_to_injective(a3rel, skewed):
    from tautilt.homology import star_of_presentation_map

    for a in (a3rel, skewed):
        for i in a.quiver.vertices:
            pres = minimal_presentation(a.simple(i))
            # nu P(j) = D(P_op(j)) = I(j): check on the cover summands
            _, _, dstar = star_of_presentation_map(pres)
            for j, part in zip(pres.p0.vertices, [None] * len(pres.p0.vertices)):
                assert is_isomorphic(dualize(a.opposite().projective(j)), injective(a, j))


def test_middle_never_contains_endpoints(a3, skewed):
    for a in (a3, skewed):
        ar = enumerate_indecomposables(a)
        for idx, seq in ar.sequences.items():
            assert idx not in seq.middle
            assert seq.start not in seq.middle


# -- knitted AR middle terms --------------------------------------------------------

KNIT_ALGEBRAS = dict(TABLE_ALGEBRAS, d4=(FIXTURES / "d4.alg").read_text())
# (middle terms knitted from the mesh, middle terms split by decompose); a
# middle term falls back when part of the mesh at tau Y is not recorded yet
KNIT_COUNTS = {
    "a2": (1, 0), "a3lin": (3, 0), "a3rel": (2, 0), "d4": (8, 0), "k1": (0, 0),
    "skewed": (5, 1), "wild4": (13, 2), "wild5": (24, 6), "square": (7, 0),
    "double_a3": (3, 3), "nakayama_rad2": (2, 1), "nakayama_rad3": (2, 4),
}


def _count_certificates(monkeypatch):
    """Record the verdict of every knitting certificate."""
    verdicts = []
    real = homology._middle_certified

    def counted(data, ids, middle):
        verdicts.append(real(data, ids, middle))
        return verdicts[-1]

    monkeypatch.setattr(homology, "_middle_certified", counted)
    return verdicts


@pytest.mark.parametrize("name", sorted(KNIT_ALGEBRAS))
def test_knitted_enumeration_equals_decompose_only(monkeypatch, name):
    verdicts = _count_certificates(monkeypatch)
    knitted = enumerate_indecomposables(algebra_from_source(KNIT_ALGEBRAS[name]))
    assert not verdicts.count(False)  # every complete prediction is certified
    assert (verdicts.count(True), len(knitted.sequences) - verdicts.count(True)) == KNIT_COUNTS[name]
    monkeypatch.setattr(homology, "_predict_middle", lambda *args: None)
    split = enumerate_indecomposables(algebra_from_source(KNIT_ALGEBRAS[name]))
    assert knitted.to_json() == split.to_json()


def test_tampered_prediction_fails_iso_certificate(monkeypatch):
    # skewed has two 111s, P(1) and I(3); naming the wrong one keeps the
    # dimension vectors but no map from it onto the middle term is an iso
    expected = enumerate_indecomposables(fixtures.load("skewed")).to_json()
    a = fixtures.load("skewed")
    real_predict = homology._predict_middle
    tampered = []

    def swap(data, x, y, tau_minus_of):
        ids = real_predict(data, x, y, tau_minus_of)
        twins = [i for i, label in enumerate(data.labels) if label in ("111", "111'")]
        if ids is None or len(twins) < 2 or not set(ids) & set(twins):
            return ids
        tampered.append(y)
        other = {twins[0]: twins[1], twins[1]: twins[0]}
        return [other.get(i, i) for i in ids]

    iso_verdicts = []
    real_is_iso = Morphism.is_iso

    def recorded_is_iso(f):
        iso_verdicts.append(real_is_iso(f))
        return iso_verdicts[-1]

    monkeypatch.setattr(homology, "_predict_middle", swap)
    monkeypatch.setattr(Morphism, "is_iso", recorded_is_iso)
    real_certified = homology._middle_certified
    refused = []

    def certified(data, ids, middle):
        before = len(iso_verdicts)
        ok = real_certified(data, ids, middle)
        if not ok:
            assert iso_verdicts[before:] and iso_verdicts[-1] is False
            refused.append(ok)
        return ok

    monkeypatch.setattr(homology, "_middle_certified", certified)
    ar = enumerate_indecomposables(a)
    assert tampered and len(refused) == len(tampered)
    assert ar.to_json() == expected


# AR sequences whose start tau Y no tau- link named in advance, so that
# `index_of` looks it up among all indecomposables
TAU_LOOKUPS = {"a3rel": 0, "d4": 0, "square": 0, "skewed": 1, "wild5": 5, "nakayama_rad3": 2}


@pytest.mark.parametrize("name", sorted(TAU_LOOKUPS))
def test_tau_candidate_from_tau_minus_is_tried_first(monkeypatch, name):
    starts, looked_up = [], []
    real_sequence, real_index_of = homology.ar_sequence, ARQuiverData.index_of

    def sequence(m):
        seq = real_sequence(m)
        starts.append(seq.start)
        return seq

    def index_of(self, m):
        looked_up.append(m)
        return real_index_of(self, m)

    monkeypatch.setattr(homology, "ar_sequence", sequence)
    monkeypatch.setattr(ARQuiverData, "index_of", index_of)
    ar = enumerate_indecomposables(algebra_from_source(KNIT_ALGEBRAS[name]))
    assert len(starts) == len(ar.sequences)
    assert sum(any(m is t for t in starts) for m in looked_up) == TAU_LOOKUPS[name]

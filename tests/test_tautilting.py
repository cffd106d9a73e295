from pathlib import Path

import pytest
from helpers import COMMUTATIVE_SQUARE, DOUBLE_A3_RAD2

import tautilt.tautilting as tt
from tautilt import fixtures
from tautilt.errors import ContractViolation, DomainError
from tautilt.homology import enumerate_indecomposables, projective
from tautilt.rep import decompose, direct_sum, hom_dim, is_isomorphic
from tautilt.tautilting import (
    ModuleClass,
    bongartz_tau,
    bongartz_tilting,
    bricks,
    check_pair,
    complete_pair,
    dagger,
    enumerate_torsion_classes_oracle,
    exchange_sequence,
    ext_injectives,
    ext_injectives_in,
    ext_projectives,
    fbrick_of,
    finiteness_probe,
    gen_class,
    hasse,
    is_tau_rigid,
    is_tau_rigid_indexed,
    is_torsion_class,
    mutate,
    pair_from_ids,
    pair_torsion_class,
    support_tau_tilting_check,
    tilting_checks,
    torsion_theory_of,
)


@pytest.fixture(scope="module")
def a2():
    return fixtures.load("a2")


@pytest.fixture(scope="module")
def ar2(a2):
    return enumerate_indecomposables(a2)


@pytest.fixture(scope="module")
def a3():
    return fixtures.load("a3lin")


@pytest.fixture(scope="module")
def ar3(a3):
    return enumerate_indecomposables(a3)


@pytest.fixture(scope="module")
def a3rel():
    return fixtures.load("a3rel")


@pytest.fixture(scope="module")
def ar3rel(a3rel):
    return enumerate_indecomposables(a3rel)


HEREDITARY_A4 = "algebra a4 { vertices: 1 2 3 4; arrows: a: 1->2, b: 2->3, c: 3->4; }"
HEREDITARY_D4 = "algebra d4 { vertices: 1 2 3 4; arrows: a: 1->4, b: 2->4, c: 3->4; }"


def by_label(ar, *labels):
    return frozenset(ar.labels.index(lbl) for lbl in labels)


def cls(ar, *labels):
    return ModuleClass(ar, by_label(ar, *labels))


# -- tau-rigidity -----------------------------------------------------------------


def test_tau_rigid_examples(a3):
    m = direct_sum(a3, [a3.simple(2), projective(a3, 1)]).total
    assert is_tau_rigid(m)
    for i in a3.quiver.vertices:
        assert is_tau_rigid(projective(a3, i))


def test_injective_111_not_tau_rigid():
    skewed = fixtures.load("skewed")
    over = skewed.injective(3)
    assert over.dims == (1, 1, 1)
    assert not is_tau_rigid(over)


# -- gen / cogen -------------------------------------------------------------------


def test_gen_class_worked_example(ar3, a3):
    g = gen_class([a3.simple(2), projective(a3, 1)], ar3)
    assert set(g.labels()) == {"010", "111", "110", "100"}


def test_gen_of_projective_generator_is_everything(ar3rel, a3rel):
    g = gen_class([projective(a3rel, i) for i in a3rel.quiver.vertices], ar3rel)
    assert g.members == frozenset(range(ar3rel.count))


def test_gen_of_zero_is_empty(ar3, a3):
    from tautilt.rep import zero_rep

    assert gen_class([zero_rep(a3)], ar3).members == frozenset()


# -- torsion classes ----------------------------------------------------------------


def test_is_torsion_class_a2(ar2):
    assert is_torsion_class(cls(ar2, "10"))[0]
    ok, witness = is_torsion_class(cls(ar2, "11"))
    assert not ok
    assert ar2.labels[witness] == "10"
    assert is_torsion_class(ModuleClass(ar2, frozenset()))[0]
    assert is_torsion_class(ModuleClass(ar2, frozenset(range(ar2.count))))[0]


def test_oracle_a2_matches_known_table(ar2):
    classes = [set(c.labels()) for c in enumerate_torsion_classes_oracle(ar2)]
    assert classes == [
        {"01", "11", "10"},
        {"11", "10"},
        {"01"},
        {"10"},
        set(),
    ]


def test_oracle_a3rel_count(ar3rel):
    assert len(enumerate_torsion_classes_oracle(ar3rel)) == 12


def test_oracle_one_vertex():
    k = fixtures.algebra_from_source("algebra k { vertices: 1; arrows: a: 1->1; relations: a*a; }")
    # not semisimple but still local: 2 torsion classes (0 and everything)
    ar = enumerate_indecomposables(k)
    assert len(enumerate_torsion_classes_oracle(ar)) == 2


def test_oracle_refuses_beyond_desk_scale():
    a6 = fixtures.algebra_from_source(
        "algebra a6 { vertices: 1 2 3 4 5 6; "
        "arrows: a: 1->2, b: 2->3, c: 3->4, d: 4->5, e: 5->6; }"
    )
    ar = enumerate_indecomposables(a6)
    assert ar.count == 21
    with pytest.raises(DomainError, match="2\\^n"):
        enumerate_torsion_classes_oracle(ar)


def test_hasse_one_vertex_is_two_node_chain():
    k1 = fixtures.algebra_from_source("algebra k1 { vertices: 1; arrows: ; }")
    hq = hasse(k1)
    assert hq.vertex_count == 2
    assert len(hq.edges) == 1


def test_torsion_theory_of(ar2, a2):
    # T = add{10}, F = add{11, 01}; 11 is torsion-free,
    # so its torsion submodule vanishes: there is no map 10 -> 11
    t = cls(ar2, "10")
    x = projective(a2, 1)  # 11
    tx, quot = torsion_theory_of(t, x)
    assert tx.is_zero()
    assert quot.dims == (1, 1)
    # members stay put
    member = a2.simple(1)
    tx2, quot2 = torsion_theory_of(t, member)
    assert tx2.is_full()
    assert quot2.is_zero()


def test_torsion_theory_of_a3_example(ar3, a3):
    # s = gen(010 + 111): 011 lies in F = {001, 011}, so tX = 0 and X/tX = X;
    # gluing 010 on top (the module 021... here: I(2) + P(3)) gives a mixed case
    s = gen_class([a3.simple(2), projective(a3, 1)], ar3)
    tx, quot = torsion_theory_of(s, projective(a3, 2))
    assert tx.is_zero()
    assert quot.dims == (0, 1, 1)
    mixed = direct_sum(a3, [a3.injective(2), projective(a3, 3)]).total
    tx2, quot2 = torsion_theory_of(s, mixed)
    assert tx2.dims == (1, 1, 0)
    assert quot2.dims == (0, 0, 1)


# -- Ext-projectives ----------------------------------------------------------------


def test_ext_projectives_worked_example(ar3, a3):
    t = gen_class([a3.simple(2), projective(a3, 1)], ar3)
    p = ext_projectives(t)
    assert set(p.labels()) == {"010", "111", "110"}
    f = ModuleClass(ar3, frozenset(range(ar3.count)) - t.members)
    assert set(f.labels()) == {"001", "011"}
    assert set(ext_injectives(f).labels()) == {"001", "011"}
    # Ext-projectives of F and Ext-injectives of T via the generic ext table
    from tautilt.tautilting import ext_projectives_in

    assert set(ext_projectives_in(f).labels()) == {"001", "011"}
    assert set(ext_injectives_in(t).labels()) == {"111", "110", "100"}


def test_ext_projectives_of_everything_is_projectives(ar3rel):
    full = ModuleClass(ar3rel, frozenset(range(ar3rel.count)))
    assert set(ext_projectives(full).labels()) == {"001", "011", "110"}


# -- tilting ------------------------------------------------------------------------


def test_tilting_checks_projective_generator(a3rel):
    gen = direct_sum(a3rel, [projective(a3rel, i) for i in a3rel.quiver.vertices]).total
    res = tilting_checks(gen)
    assert res.partial_tilting and res.tilting


def test_tilting_checks_a2(a2):
    t = direct_sum(a2, [projective(a2, 1), a2.simple(1)]).total  # 11 + 10
    res = tilting_checks(t)
    assert res.tilting


def test_tilting_checks_a3_example(a3):
    t = direct_sum(a3, [a3.simple(2), projective(a3, 1), a3.injective(2)]).total
    res = tilting_checks(t)
    assert res.tilting


def test_bongartz_tilting_a2(a2):
    m = a2.simple(1)  # 10
    t = bongartz_tilting(m)
    factors = decompose(t).factors
    assert sorted(f.dims for f, _ in factors) == [(1, 0), (1, 1)]


def test_bongartz_tilting_of_tilting_is_add_equal(a2):
    t0 = direct_sum(a2, [projective(a2, 1), a2.simple(1)]).total
    t = bongartz_tilting(t0)
    assert sorted(f.dims for f, _ in decompose(t).factors) == [(1, 0), (1, 1)]


def test_bongartz_tilting_of_projective(a3):
    t = bongartz_tilting(projective(a3, 2))
    assert tilting_checks(t).tilting
    assert any(f.dims == (0, 1, 1) for f, _ in decompose(t).factors)


# -- Bongartz tau-completion ------------------------------------------------------------


def test_bongartz_tau_projective_gives_algebra(ar3, a3):
    result = bongartz_tau(projective(a3, 2), ar3)
    assert set(result.labels()) == {"111", "011", "001"}


def test_bongartz_tau_010(ar3, a3):
    result = bongartz_tau(a3.simple(2), ar3)
    assert set(result.labels()) == {"010", "011", "111"}


def test_bongartz_tau_of_tau_tilting_is_add_equal(ar3, a3):
    result = bongartz_tau(
        direct_sum(a3, [a3.simple(2), projective(a3, 1), a3.injective(2)]).total, ar3
    )
    assert set(result.labels()) == {"010", "111", "110"}


# -- support tau-tilting pairs ------------------------------------------------------------


def test_support_check_counts(a3):
    m = direct_sum(a3, [a3.simple(2), projective(a3, 1)]).total
    assert not support_tau_tilting_check(m)  # 2 summands, support rank 3
    p = direct_sum(a3, [a3.simple(2), projective(a3, 1), a3.injective(2)]).total
    assert support_tau_tilting_check(p)


def test_complete_pair_kill_set(ar3, a3):
    p = direct_sum(a3, [a3.simple(2), projective(a3, 1), a3.injective(2)]).total
    pair = complete_pair(p, ar3)
    assert pair.kill == frozenset()
    from tautilt.rep import zero_rep

    zero_pair = complete_pair(zero_rep(a3), ar3)
    assert zero_pair.kill == frozenset({1, 2, 3})


def test_complete_pair_refused(ar3, a3):
    with pytest.raises(DomainError):
        complete_pair(direct_sum(a3, [a3.simple(2), projective(a3, 1)]).total, ar3)


# -- mutation ---------------------------------------------------------------------------


def test_mutate_a2_examples(ar2, a2):
    start = pair_from_ids(ar2, sorted(by_label(ar2, "01", "11")), frozenset())
    at01 = mutate(start, ar2, ("module", ar2.labels.index("01")))
    assert at01.direction == "left"
    assert set(at01.pair.ids) == by_label(ar2, "11", "10")
    assert at01.pair.kill == frozenset()

    at11 = mutate(start, ar2, ("module", ar2.labels.index("11")))
    assert at11.direction == "left"
    assert set(at11.pair.ids) == by_label(ar2, "01")
    assert at11.pair.kill == frozenset({1})

    bottom = pair_from_ids(ar2, [], frozenset({1, 2}))
    up = mutate(bottom, ar2, ("vertex", 1))
    assert up.direction == "right"
    assert set(up.pair.ids) == by_label(ar2, "10")
    assert up.pair.kill == frozenset({2})


def test_mutate_is_involutive(ar3rel):
    hq = hasse(fixtures.load("a3rel"), ar=ar3rel)
    for pair in hq.vertices[:4]:
        for mv in [("module", i) for i in pair.ids] + [("vertex", v) for v in pair.kill]:
            res = mutate(pair, ar3rel, mv)
            if res.direction == "left":
                back_mv = None
                removed = set(pair.ids) - set(res.pair.ids)
                added = set(res.pair.ids) - set(pair.ids)
                if added:
                    back_mv = ("module", next(iter(added)))
                else:
                    new_kill = res.pair.kill - pair.kill
                    back_mv = ("vertex", next(iter(new_kill)))
                back = mutate(res.pair, ar3rel, back_mv)
                assert back.pair.key() == pair.key()
                assert back.direction == "right"


# -- exchange sequences ---------------------------------------------------------------


def test_exchange_drops_to_kill_a2(a2):
    t = direct_sum(a2, [projective(a2, 2), projective(a2, 1)]).total  # 01 + 11
    res = exchange_sequence(t, projective(a2, 1))                     # remove 11
    assert res.y.is_zero()
    assert res.dead_vertices == {1}


def test_exchange_second_a2(a2):
    t = direct_sum(a2, [projective(a2, 1), a2.simple(1)]).total  # 11 + 10
    res = exchange_sequence(t, projective(a2, 1))
    assert res.y.is_zero()
    assert res.dead_vertices == {2}


def test_exchange_with_cokernel_a3(ar3, a3):
    # Bongartz completion of 010 is 010+011+111; exchange at 011
    t = direct_sum(a3, [a3.simple(2), projective(a3, 2), projective(a3, 1)]).total
    res = exchange_sequence(t, projective(a3, 2))
    assert not res.y.is_zero()
    # must agree with class-based mutation
    start_ids = sorted(by_label(ar3, "010", "011", "111"))
    pair = pair_from_ids(ar3, start_ids, frozenset())
    mres = mutate(pair, ar3, ("module", ar3.labels.index("011")))
    expected = {ar3.labels[i] for i in mres.pair.ids}
    got = {p.dim_label() for p in res.new_summands}
    got = {lbl if lbl != "111" or True else lbl for lbl in got}
    assert {x.rstrip("'") for x in expected} == got


# -- Hasse quivers -----------------------------------------------------------------------


def test_hasse_a2(ar2, a2):
    hq = hasse(a2, ar=ar2)
    assert hq.vertex_count == 5
    assert len(hq.edges) == 5
    assert all(hq.degree(i) == 2 for i in range(5))
    # the exact poset diagram
    edges = {
        (hq.vertices[i].label(ar2), hq.vertices[j].label(ar2), lbl)
        for i, j, lbl in hq.edges
    }
    assert edges == {
        ("01+11", "10+11", "01"),
        ("01+11", "01 | kill 1", "11"),
        ("10+11", "10 | kill 2", "11"),
        ("10 | kill 2", "0 | kill 1,2", "10"),
        ("01 | kill 1", "0 | kill 1,2", "01"),
    }


def test_hasse_a3lin_count(ar3, a3):
    hq = hasse(a3, ar=ar3)
    assert hq.vertex_count == 14  # Catalan(4)
    assert len(hq.edges) == 14 * 3 // 2


def test_hasse_a3rel(ar3rel, a3rel):
    hq = hasse(a3rel, ar=ar3rel)
    assert hq.vertex_count == 12
    assert len(hq.edges) == 18
    assert all(hq.degree(i) == 3 for i in range(12))
    src = hq.vertices[hq.source_index()]
    assert src.kill == frozenset()
    sink = hq.vertices[hq.sink_index()]
    assert sink.summands == ()


def test_hasse_matches_oracle_count(ar3rel, a3rel):
    hq = hasse(a3rel, ar=ar3rel)
    assert hq.vertex_count == len(enumerate_torsion_classes_oracle(ar3rel))


# -- dagger ------------------------------------------------------------------------------


def test_dagger_trivial_pairs(ar2, a2):
    top = pair_from_ids(ar2, sorted(by_label(ar2, "01", "11")), frozenset())
    d = dagger(top)
    assert d.summands == ()
    assert d.kill == frozenset({1, 2})
    dd = dagger(d)
    assert dd.kill == frozenset()
    assert len(dd.summands) == 2


def test_dagger_involution_on_a2_pairs(ar2, a2):
    hq = hasse(a2, ar=ar2)
    for pair in hq.vertices:
        d = dagger(pair)
        check_pair(d)
        dd = dagger(d)
        assert dd.kill == pair.kill
        assert len(dd.summands) == len(pair.summands)
        used = [False] * len(pair.summands)
        for x in dd.summands:
            hit = False
            for i, y in enumerate(pair.summands):
                if not used[i] and x.dims == y.dims and is_isomorphic(x, y):
                    used[i] = True
                    hit = True
                    break
            assert hit


# -- bricks ------------------------------------------------------------------------------


def test_simples_are_bricks(ar3rel, a3rel):
    records = {r.module.dim_label(): r for r in bricks(ar3rel)}
    for i in a3rel.quiver.vertices:
        lbl = a3rel.simple(i).dim_label()
        assert records[lbl].is_brick
        assert records[lbl].fbrick_image.dims == records[lbl].module.dims


def test_fbrick_of_non_brick():
    skewed = fixtures.load("skewed")
    from helpers import skewed_121

    x = skewed_121(skewed)
    assert hom_dim(x, x) == 2  # not a brick
    img = fbrick_of(x)
    assert img.total_dim < x.total_dim
    assert hom_dim(img, img) == 1


# -- finiteness probe -------------------------------------------------------------------


def test_probe_a3rel(a3rel):
    res = finiteness_probe(a3rel)
    assert res.tau_tilting_finite is True
    assert res.count == 12
    assert res.oracle_agrees is True


def test_probe_kronecker():
    res = finiteness_probe(fixtures.load("kronecker"), vertex_cap=24, dim_cap=12)
    assert res.tau_tilting_finite is None
    assert "possibly tau-tilting infinite: dim_cap=12 exceeded after" in res.evidence

    res = finiteness_probe(fixtures.load("kronecker"), vertex_cap=4, dim_cap=12)
    assert res.tau_tilting_finite is None
    assert "vertex_cap=4 exceeded after 4 pairs" in res.evidence


def test_probe_stops_oracle_enumeration_at_its_cap():
    # wild5 has 35 indecomposables, beyond the oracle's limit, so the probe's
    # enumeration stops at ORACLE_MAX_INDECS and memoizes nothing
    a = fixtures.algebra_from_source(fixtures.wild_family_source(5))
    res = finiteness_probe(a)
    assert (res.tau_tilting_finite, res.count, res.oracle_agrees) == (True, 230, None)
    assert a.memo("ar_quiver") == {}


def _summandwise_isomorphic(p, q):
    if len(p.summands) != len(q.summands) or p.kill != q.kill:
        return False
    unmatched = list(q.summands)
    for x in p.summands:
        hit = next((y for y in unmatched if x.dims == y.dims and is_isomorphic(x, y)), None)
        if hit is None:
            return False
        unmatched.remove(hit)
    return True


@pytest.mark.parametrize("source,count,same_dims", [
    (fixtures.A3_LINEAR, 14, 0), (fixtures.A3_RELATION, 12, 0),
    (fixtures.WILD_4, 64, 0), (COMMUTATIVE_SQUARE, 46, 0), (DOUBLE_A3_RAD2, 20, 3),
], ids=["a3lin", "a3rel", "wild4", "square", "double_a3"])
def test_probe_pairs_equal_hasse_vertices(monkeypatch, source, count, same_dims):
    # the exchange-sequence closure and the table-driven one reach the same
    # pairs, compared by g-vector key; every new unindexed pair passes
    # check_pair exactly once, so wrapping it collects the probe's pairs
    a = fixtures.algebra_from_source(source)
    probed = []
    real_check = tt.check_pair

    def collect(pair, ar=None):
        if pair.ids is None:
            probed.append(pair)
        return real_check(pair, ar)

    monkeypatch.setattr(tt, "check_pair", collect)
    res = finiteness_probe(a)
    monkeypatch.undo()
    assert res.count == len(probed) == count
    probe_keys = {p.key() for p in probed}
    assert len(probe_keys) == count
    hq = hasse(a)
    assert hq.vertex_count == count
    assert probe_keys == {tt.SupportTauTiltingPair(a, p.summands, p.kill).key()
                          for p in hq.vertices}
    # the iso-based identity the g-vector key replaced: no two interned pairs
    # with the same dimension signature match summand by summand
    by_signature = {}
    for p in probed:
        sig = (tuple(sorted(x.dims for x in p.summands)), tuple(sorted(p.kill)))
        by_signature.setdefault(sig, []).append(p)
    compared = 0
    for group in by_signature.values():
        for i, p in enumerate(group):
            for q in group[i + 1:]:
                assert not _summandwise_isomorphic(p, q), p.label()
                compared += 1
    assert compared == same_dims


def test_probe_confirms_key_hits_by_isomorphism(monkeypatch, a3rel):
    # a g-vector key hit whose summands fail the iso confirmation is an
    # internal fault, not a new pair
    monkeypatch.setattr(tt, "is_isomorphic", lambda m, n: False)
    with pytest.raises(ContractViolation, match="equal g-vectors are not isomorphic"):
        finiteness_probe(a3rel)


def test_hasse_vertex_cap():
    from tautilt.errors import CapExceededError

    wild = fixtures.load("wild4")
    with pytest.raises(CapExceededError, match="possibly tau-tilting infinite") as exc:
        hasse(wild, vertex_cap=10)
    assert "vertex_cap=10 exceeded after 10 pairs" in str(exc.value)
    err = exc.value
    assert (err.cap, err.value, err.progress, err.dim) == ("vertex_cap", 10, 10, None)


def test_commutative_square_triple_agreement():
    # non-monomial relation b*a - d*c: mutation closure, maximal-inclusion
    # scan and the 2^n oracle must all agree
    sq = fixtures.algebra_from_source(COMMUTATIVE_SQUARE)
    assert sq.dim == 9
    assert sq.projective(1).dims == (1, 1, 1, 1)
    ar = enumerate_indecomposables(sq)
    assert ar.count == 11
    hq = hasse(sq, ar=ar)
    res = finiteness_probe(sq)
    assert hq.vertex_count == res.count == 46
    assert res.oracle_agrees is True


def test_hereditary_counts_match_cluster_combinatorics():
    # independent cross-check: for hereditary Dynkin algebras the number of
    # support tau-tilting modules is the cluster number of the type
    a4 = fixtures.algebra_from_source(HEREDITARY_A4)
    ar = enumerate_indecomposables(a4)
    assert ar.count == 10                       # positive roots of A4
    assert hasse(a4, ar=ar).vertex_count == 42  # Catalan number C5

    d4 = fixtures.algebra_from_source(HEREDITARY_D4)
    ar = enumerate_indecomposables(d4)
    assert ar.count == 12                       # positive roots of D4
    hq = hasse(d4, ar=ar)
    assert hq.vertex_count == 50                # type D4 cluster number
    assert len(hq.edges) == 100                 # 4-regular


def test_table_lattice_agrees_with_module_computations():
    # the Hasse closure reads Fac T off the Hom table's double perp and
    # tau-rigidity off hom_to_tau; the trace-based gen_class and tau of the
    # rebuilt direct sum are the independent paths they must agree with
    for src in (HEREDITARY_A4, HEREDITARY_D4, fixtures.WILD_4):
        a = fixtures.algebra_from_source(src)
        ar = enumerate_indecomposables(a)
        hq = hasse(a, ar=ar)
        for pair, members in zip(hq.vertices, hq.classes):
            reps = [ar.indecomposables[i] for i in pair.ids]
            assert gen_class(reps, ar).members == members, pair.label(ar)
            assert pair_torsion_class(pair, ar).members == members
            assert is_tau_rigid_indexed(pair.ids, ar)
            assert is_tau_rigid(direct_sum(a, reps).total)
        # every Hasse vertex is tau-rigid; two-summand sets also reach the
        # non-rigid verdicts
        verdicts = set()
        for i in range(ar.count):
            for j in range(i + 1, ar.count):
                table = is_tau_rigid_indexed((i, j), ar)
                pair_sum = direct_sum(a, [ar.indecomposables[i], ar.indecomposables[j]])
                assert table == is_tau_rigid(pair_sum.total), (ar.labels[i], ar.labels[j])
                verdicts.add(table)
        assert verdicts == {True, False}


def test_check_pair_table_rejects_non_tau_rigid(ar3):
    # 001 and 010 vanish at vertex 1, but Hom(001, tau 010 = 001) != 0
    pair = pair_from_ids(ar3, sorted(by_label(ar3, "001", "010")), frozenset({1}))
    assert not is_tau_rigid(direct_sum(ar3.algebra, list(pair.summands)).total)
    with pytest.raises(DomainError, match="module part is not tau-rigid"):
        check_pair(pair, ar3)
    # the same pair unindexed is decided summand by summand, off the table
    loose = tt.SupportTauTiltingPair(ar3.algebra, pair.summands, pair.kill)
    with pytest.raises(DomainError, match="module part is not tau-rigid"):
        check_pair(loose)


def test_check_pair_refuses_foreign_enumeration(ar2, ar3):
    # the table verdict reads ids against ar, so they must index ar itself
    pair = pair_from_ids(ar2, sorted(by_label(ar2, "01", "11")), frozenset())
    with pytest.raises(ContractViolation, match="not indexed against this enumeration"):
        check_pair(pair, ar3)


@pytest.mark.parametrize("name", ["d4", "wild5"])
def test_closure_builds_and_checks_each_pair_once(monkeypatch, name):
    # every mutation looks both completions up in the enumeration's memo, so
    # each torsion class is turned into a pair (Ext-table cross-check
    # included) and certified by check_pair exactly once
    source = (Path(__file__).resolve().parent.parent / "fixtures" / f"{name}.alg").read_text()
    counts = {"_class_to_pair": 0, "check_pair": 0, "mutate": 0}
    for fn in counts:
        real = getattr(tt, fn)

        def counted(*args, _fn=fn, _real=real, **kwargs):
            counts[_fn] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(tt, fn, counted)
    a = fixtures.algebra_from_source(source)
    hq = hasse(a)
    v = hq.vertex_count
    assert counts == {"_class_to_pair": v, "check_pair": v, "mutate": v * a.vertex_count}
    again = hasse(a)  # same enumeration, same memo: nothing is rebuilt
    assert again.to_json() == hq.to_json()
    assert counts == {"_class_to_pair": v, "check_pair": v, "mutate": 2 * v * a.vertex_count}

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they happen (they are also captured in the summary otherwise).
All comparisons are exact; there are no tolerances anywhere.
"""

import contextlib

import pytest

from tautilt import fixtures
from tautilt.errors import CapExceededError
from tautilt.homology import (
    enumerate_indecomposables,
    ext1,
    g_vector,
    bracket,
    injective_envelope_map,
    minimal_presentation,
    projective,
    tau,
    tau_minus,
)
from tautilt.linalg import Matrix, Subspace
from tautilt.rep import (
    direct_sum,
    hom_basis,
    hom_dim,
    is_isomorphic,
    zero_morphism,
)
from tautilt.tautilting import (
    bongartz_tau,
    bricks,
    dagger,
    enumerate_torsion_classes_oracle,
    exchange_sequence,
    ext_injectives_in,
    ext_projectives,
    ext_projectives_in,
    finiteness_probe,
    gen_class,
    hasse,
    is_tau_rigid,
    mutate,
    perp_right,
)


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d}: FAIL -- {title}")
        raise
    print(f"[acceptance] criterion {number:02d}: PASS -- {title}")


@pytest.fixture(scope="module")
def algebras():
    return {name: fixtures.load(name) for name in ("a2", "a3lin", "a3rel", "skewed", "wild4")}


@pytest.fixture(scope="module")
def ars(algebras):
    return {name: enumerate_indecomposables(a) for name, a in algebras.items()}


def labelset(cls):
    return set(cls.labels())


def tau_rigid_subsets(ar):
    """All basic tau-rigid modules as index subsets (cliques of the pairwise
    compatibility graph), exhaustively."""
    n = ar.count
    ok_single = [i for i in range(n) if ar.hom_to_tau(i, i) == 0]
    compat = {
        (i, j)
        for i in ok_single
        for j in ok_single
        if i < j and ar.hom_to_tau(i, j) == 0 and ar.hom_to_tau(j, i) == 0
    }
    out = []

    def grow(chosen, candidates):
        out.append(tuple(chosen))
        for k, c in enumerate(candidates):
            if all((min(c, x), max(c, x)) in compat for x in chosen):
                grow(chosen + [c], candidates[k + 1:])

    grow([], ok_single)
    return [s for s in out if s]


def test_criterion_01_torsion_table_a2(ars):
    with criterion(1, "torsion-theory table for K(1->2) matches the known list"):
        classes = enumerate_torsion_classes_oracle(ars["a2"])
        table = [(labelset(c), labelset(perp_right(c))) for c in classes]
        assert len(table) == 5
        assert table == [
            ({"01", "11", "10"}, set()),
            ({"11", "10"}, {"01"}),
            ({"01"}, {"10"}),
            ({"10"}, {"11", "01"}),
            (set(), {"01", "11", "10"}),
        ]


def test_criterion_02_ar_data_a3lin(ars):
    with criterion(2, "linear A3 AR data: 6 indecs, tau links, mesh middle at 110"):
        ar = ars["a3lin"]
        assert ar.count == 6
        links = {ar.labels[k]: ar.labels[v] for k, v in ar.tau_links.items()}
        assert links == {"010": "001", "100": "010", "110": "011"}
        at_110 = ar.sequences[ar.labels.index("110")]
        assert sorted(ar.labels[i] for i in at_110.middle) == ["010", "111"]


def test_criterion_03_worked_example_classes(ars, algebras):
    with criterion(3, "gen(010+111), its Ext-projectives/injectives match the lists"):
        a3, ar = algebras["a3lin"], ars["a3lin"]
        t = gen_class([a3.simple(2), projective(a3, 1)], ar)
        assert labelset(t) == {"010", "111", "110", "100"}
        assert labelset(ext_projectives(t)) == {"010", "111", "110"}
        assert labelset(ext_injectives_in(t)) == {"111", "110", "100"}
        f = perp_right(t)
        assert labelset(f) == {"001", "011"}
        assert labelset(ext_projectives_in(f)) == {"001", "011"}


def test_criterion_04_hasse_a3rel(ars, algebras):
    with criterion(4, "A3-with-relation Hasse: 12 vertices, 3-regular, source/sink, "
                      "mutation = maximal inclusion = oracle"):
        ar = ars["a3rel"]
        hq = hasse(algebras["a3rel"], ar=ar)   # asserts mutation = inclusion internally
        assert hq.vertex_count == 12
        assert all(hq.degree(i) == 3 for i in range(hq.vertex_count))
        src = hq.vertices[hq.source_index()]
        assert src.kill == frozenset() and len(src.summands) == 3
        sink = hq.vertices[hq.sink_index()]
        assert sink.summands == () and sink.kill == frozenset({1, 2, 3})
        sources = [i for i in range(hq.vertex_count) if all(e[1] != i for e in hq.edges)]
        sinks = [i for i in range(hq.vertex_count) if all(e[0] != i for e in hq.edges)]
        assert sources == [hq.source_index()] and sinks == [hq.sink_index()]

        # oracle Hasse: cover relations among all torsion classes
        oracle = enumerate_torsion_classes_oracle(ar)
        assert len(oracle) == 12
        members = [c.members for c in oracle]
        oracle_edges = set()
        for i, big in enumerate(members):
            for j, small in enumerate(members):
                if small < big and not any(small < mid < big for mid in members):
                    oracle_edges.add((frozenset(big), frozenset(small)))
        closure_edges = {
            (frozenset(hq.classes[i]), frozenset(hq.classes[j])) for i, j, _ in hq.edges
        }
        assert closure_edges == oracle_edges


def test_criterion_05_skewed_triangle(ars, algebras):
    with criterion(5, "skewed triangle: 9 indecs, two 111s, injective 111 not rigid, "
                      "closure count = oracle count (expected 18)"):
        skewed, ar = algebras["skewed"], ars["skewed"]
        assert ar.count == 9
        one_one_one = [i for i, lbl in enumerate(ar.labels) if lbl.rstrip("'") == "111"]
        assert len(one_one_one) == 2
        x, y = (ar.indecomposables[i] for i in one_one_one)
        assert not is_isomorphic(x, y)
        over = skewed.injective(3)
        assert not is_tau_rigid(over)
        under = skewed.projective(1)
        assert is_tau_rigid(under)

        hq = hasse(skewed, ar=ar)
        oracle_count = len(enumerate_torsion_classes_oracle(ar))
        assert hq.vertex_count == oracle_count
        expected_count = 18
        if hq.vertex_count != expected_count:
            # report the discrepancy rather than suppressing it
            raise AssertionError(
                f"derived count {hq.vertex_count} disagrees with the expected {expected_count}"
            )
        # expected vertex list by P(T)-summand labels; 111 is the tau-rigid
        # one and its twin 111' can never appear in a pair
        expected_vertices = {
            ("001", "011", "111"), ("001", "011"), ("001", "101", "111"),
            ("011", "111", "121"), ("010", "011", "121"), ("110", "111", "121"),
            ("010", "011"), ("001", "101"), ("101", "110", "111"),
            ("010", "110", "121"), ("100", "101", "110"), ("100", "101"),
            ("010", "110"), ("100", "110"), ("001",), ("010",), ("100",), (),
        }
        got = {
            tuple(sorted(ar.labels[i] for i in (p.ids or ()))) for p in hq.vertices
        }
        assert got == expected_vertices
        assert all("111'" not in v for v in got)


def test_criterion_06_kronecker(ars):
    with criterion(6, "Kronecker: cap-exceeded enumeration; tau^- chain 01->23->45->67; "
                      "preprojectives tau-rigid"):
        kron = fixtures.load("kronecker")
        with pytest.raises(CapExceededError,
                           match="not representation-finite within caps: dim_cap=16 exceeded "
                                 r"by a module of dimension \d+ after \d+ indecomposables"):
            enumerate_indecomposables(kron, dim_cap=16)
        m = projective(kron, 2)
        expected = [(2, 3), (4, 5), (6, 7)]
        chain = [m]
        for dims in expected:
            m = tau_minus(m)
            assert m.dims == dims
            chain.append(m)
        assert tau_minus(projective(kron, 1)).dims == (3, 4)   # 12 -> 34
        for x in chain:
            assert is_tau_rigid(x)
            assert len(hom_basis(x, x)) == 1   # preprojectives are bricks


def _stable_hom_into_tau(y, tx):
    """dim of Hom(y, tau x) modulo maps factoring through injectives,
    recomputed here independently of the ext1 internals' result caching."""
    full = hom_dim(y, tx)
    if full == 0:
        return 0
    env = injective_envelope_map(y)
    flat_len = len(zero_morphism(y, tx).flat())
    rows = [list((psi @ env).flat()) for psi in hom_basis(env.target, tx)]
    return full - Subspace.from_rows(flat_len, rows).dim


def _stable_hom_mod_projectives(src, x):
    full = hom_dim(src, x)
    if full == 0:
        return 0
    pres = minimal_presentation(x)
    flat_len = len(zero_morphism(src, x).flat())
    rows = [list((pres.eps @ psi).flat()) for psi in hom_basis(src, pres.p0.rep)]
    return full - Subspace.from_rows(flat_len, rows).dim


def test_criterion_07_ar_formula(ars):
    with criterion(7, "AR formula dim Ext^1(X,Y) = dim stable-Hom(Y, tau X) on all pairs"):
        violations = 0
        for name in ("a2", "a3lin", "a3rel", "skewed"):
            ar = ars[name]
            for i, x in enumerate(ar.indecomposables):
                tx = tau(x)
                for j, y in enumerate(ar.indecomposables):
                    lhs = ext1(x, y).dim
                    rhs = _stable_hom_into_tau(y, tx) if not tx.is_zero() else 0
                    if lhs != rhs:
                        violations += 1
                    # projective-side form on non-injective y
                    if j in ar.tau_inv_links:
                        tminus_y = ar.indecomposables[ar.tau_inv_links[j]]
                        if lhs != _stable_hom_mod_projectives(tminus_y, x):
                            violations += 1
        assert violations == 0


def test_criterion_08_bracket_identity(ars):
    with criterion(8, "bracket identity <g(M), dim N> = dim Hom(M,N) - dim Hom(N, tau M)"):
        violations = 0
        for name in ("a2", "a3lin", "a3rel", "skewed"):
            ar = ars[name]
            for x in ar.indecomposables:
                g = g_vector(x)
                tx = tau(x)
                for y in ar.indecomposables:
                    lhs = bracket(g, y.dims)
                    rhs = hom_dim(x, y) - (hom_dim(y, tx) if not tx.is_zero() else 0)
                    if lhs != rhs:
                        violations += 1
        assert violations == 0


def test_criterion_09_g_vector_independence(ars):
    with criterion(9, "summand g-vectors of every tau-rigid module are independent"):
        for name in ("a2", "a3lin", "a3rel", "skewed", "wild4"):
            ar = ars[name]
            n = ar.algebra.vertex_count
            gs = [g_vector(x) for x in ar.indecomposables]
            subsets = tau_rigid_subsets(ar)
            assert subsets, name
            for s in subsets:
                assert len(s) <= n
                mat = Matrix.from_rows([[x for x in gs[i]] for i in s], cols=n)
                assert mat.rank() == len(s)


def test_criterion_10_bongartz_tau(ars):
    with criterion(10, "Bongartz tau-completion: contains u, #A summands, "
                       "gen = perp(tau); 010 -> 010+011+111"):
        for name in ("a2", "a3lin", "a3rel"):
            ar = ars[name]
            n = ar.algebra.vertex_count
            for s in tau_rigid_subsets(ar):
                u = direct_sum(ar.algebra, [ar.indecomposables[i] for i in s]).total
                result = bongartz_tau(u, ar)   # asserts gen = perp(tau) and u in add internally
                assert len(result.members) == n
                assert set(s) <= result.members
        a3, ar3 = ars["a3lin"].algebra, ars["a3lin"]
        assert labelset(bongartz_tau(a3.simple(2), ar3)) == {"010", "011", "111"}


def test_criterion_11_dagger(ars):
    with criterion(11, "dagger^2 = id on all pairs of fixtures 1, 2, 4; cardinalities agree"):
        for name in ("a2", "a3lin", "a3rel"):
            ar = ars[name]
            a = ar.algebra
            hq = hasse(a, ar=ar)
            op = a.opposite()
            op_count = hasse(op).vertex_count
            assert op_count == hq.vertex_count
            for pair in hq.vertices:
                d = dagger(pair)
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


def test_criterion_12_wild_family(ars, algebras):
    with criterion(12, "wild n=4: probe finite; bricks have X_a = 0 or X_b = 0; "
                       "quotient stability of tau-rigidity"):
        a, ar = algebras["wild4"], ars["wild4"]
        probe = finiteness_probe(a)
        assert probe.tau_tilting_finite is True
        assert probe.oracle_agrees is True

        for record in bricks(ar):
            if record.is_brick:
                x = record.module
                assert x.arrow_maps["a"].is_zero() or x.arrow_maps["b"].is_zero()

        # tau-rigidity over A agrees with tau-rigidity over every A/<e>
        from itertools import combinations

        from tautilt.algebra import quotient_by_vertices
        from tautilt.rep import restrict_to_quotient

        verts = list(a.quiver.vertices)
        for r in (1, 2, 3):
            for kill in combinations(verts, r):
                vq = quotient_by_vertices(a, set(kill))
                local = [
                    (x, restrict_to_quotient(vq, x))
                    for x in ar.indecomposables
                    if all(x.dims[v - 1] == 0 for v in kill)
                ]
                for m_a, m_q in local:
                    for n_a, n_q in local:
                        over_a = hom_dim(n_a, tau(m_a)) == 0
                        over_q = hom_dim(n_q, tau(m_q)) == 0
                        assert over_a == over_q


def test_criterion_13_exchange_vs_mutation(ars):
    with criterion(13, "exchange sequences reproduce torsion-class mutation on "
                       "tau-tilting sources"):
        checked = 0
        for name in ("a2", "a3lin", "a3rel"):
            ar = ars[name]
            a = ar.algebra
            hq = hasse(a, ar=ar)
            for i, j, label in hq.edges:
                source = hq.vertices[i]
                if source.kill:
                    continue   # only tau-tilting sources
                t = direct_sum(a, list(source.summands)).total
                x_id = next(k for k in source.ids if ar.labels[k] == label)
                x = ar.indecomposables[x_id]
                res = exchange_sequence(t, x)
                mres = mutate(source, ar, ("module", x_id))
                assert mres.direction == "left"
                if res.y.is_zero():
                    assert len(mres.pair.summands) == len(source.summands) - 1
                    assert mres.pair.kill - source.kill == frozenset(res.dead_vertices)
                else:
                    got = sorted(r.dims for r in res.new_summands)
                    want = sorted(r.dims for r in mres.pair.summands)
                    assert got == want
                    matched = [False] * len(mres.pair.summands)
                    for r in res.new_summands:
                        ok = False
                        for kk, w in enumerate(mres.pair.summands):
                            if not matched[kk] and r.dims == w.dims and is_isomorphic(r, w):
                                matched[kk] = True
                                ok = True
                                break
                        assert ok
                checked += 1
        assert checked > 0

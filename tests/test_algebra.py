import pytest

from tautilt import fixtures
from tautilt.algebra import (
    Path,
    algebra_from_source,
    compute_basis,
    parse_algebra,
    quotient_by_vertices,
)
from tautilt.errors import CapExceededError, ParseError


def test_parse_minimal():
    src = parse_algebra("algebra q { vertices: 1 2; arrows: a: 1->2; }")
    assert src.quiver.vertex_count == 2
    assert len(src.quiver.arrows) == 1
    assert src.quiver.arrows[0].name == "a"
    assert not src.relations.relations


def test_parse_a3_with_relation():
    src = parse_algebra(fixtures.A3_RELATION)
    assert src.quiver.vertex_count == 3
    assert len(src.quiver.arrows) == 2
    assert len(src.relations.relations) == 1
    rel = src.relations.relations[0]
    assert len(rel) == 1
    coeff, path = rel[0]
    assert coeff == 1
    assert path.length == 2
    # b*a applies a first
    assert path.source == 1
    assert path.label(src.quiver) == "b*a"


def test_parse_rejects_length_one_relation_term():
    text = """
    algebra bad {
      vertices: 1 2 3;
      arrows: a: 1->2, b: 2->3, c: 1->3;
      relations: b*a - c;
    }
    """
    with pytest.raises(ParseError, match="length < 2"):
        parse_algebra(text)


def test_parse_rejects_non_parallel_terms():
    text = """
    algebra bad {
      vertices: 1 2 3;
      arrows: a: 1->2, b: 2->3;
      relations: b*a + a*a;
    }
    """
    with pytest.raises(ParseError):
        parse_algebra(text)


def test_parse_rejects_unknown_arrow():
    with pytest.raises(ParseError, match="unknown arrow"):
        parse_algebra("algebra bad { vertices: 1 2; arrows: a: 1->2; relations: z*a; }")


def test_parse_reports_position():
    try:
        parse_algebra("algebra bad {\n  vertices: 1 2\n}")
    except ParseError as e:
        assert e.line == 3
    else:
        pytest.fail("expected ParseError")


def test_parse_comments_and_coefficients():
    text = """
    # leading comment
    algebra c {
      vertices: 1 2 3;
      arrows: a: 1->2, b: 2->3, c: 1->2;  # parallel arrows allowed
      relations: 2/3*b*a - b*c;
    }
    """
    src = parse_algebra(text)
    rel = src.relations.relations[0]
    assert [str(c) for c, _ in rel] == ["2/3", "-1"]


def test_basis_dims_of_fixtures():
    expected = {"a2": 3, "a3lin": 6, "a3rel": 5, "skewed": 6, "kronecker": 4, "wild4": 10}
    for name, dim in expected.items():
        assert fixtures.load(name).dim == dim, name


def test_a3rel_kills_long_path():
    a = fixtures.load("a3rel")
    labels = {p.label(a.quiver) for p in a.basis}
    assert labels == {"e1", "e2", "e3", "a", "b"}


def test_cap_exceeded_for_cyclic_quiver_without_relations():
    text = "algebra loop { vertices: 1; arrows: a: 1->1; }"
    src = parse_algebra(text)
    with pytest.raises(CapExceededError, match="not finite-dimensional within cap") as exc:
        compute_basis(src.quiver, src.relations, cap=8)
    err = exc.value
    assert (err.cap, err.value, err.progress, err.dim) == ("length_cap", 8, 8, None)


def test_loop_with_relation_is_finite():
    a = algebra_from_source("algebra dual { vertices: 1; arrows: a: 1->1; relations: a*a; }")
    assert a.dim == 2
    assert a.length_bound == 2


def test_structural_dim_vectors_a2():
    a = fixtures.load("a2")
    assert a.projective(1).dims == (1, 1)
    assert a.projective(2).dims == (0, 1)
    assert a.injective(1).dims == (1, 0)
    assert a.injective(2).dims == (1, 1)
    assert a.simple(1).dims == (1, 0)


def test_structural_dim_vectors_a3lin():
    a = fixtures.load("a3lin")
    assert a.projective(1).dims == (1, 1, 1)  # projective-injective
    assert a.injective(3).dims == (1, 1, 1)
    assert a.projective(2).dims == (0, 1, 1)
    assert a.injective(1).dims == (1, 0, 0)


def test_structural_dim_vectors_a3rel():
    a = fixtures.load("a3rel")
    assert a.projective(1).dims == (1, 1, 0)  # relation kills the long path
    assert a.projective(2).dims == (0, 1, 1)
    assert a.injective(2).dims == (1, 1, 0)
    assert a.injective(3).dims == (0, 1, 1)


def test_skewed_projective_has_zero_middle_arrow():
    a = fixtures.load("skewed")
    p1 = a.projective(1)
    assert p1.dims == (1, 1, 1)
    assert p1.arrow_maps["a"].entries == (1,)
    assert p1.arrow_maps["b"].entries == (0,)
    assert p1.arrow_maps["c"].entries == (1,)


def test_dim_algebra_is_sum_of_projectives():
    for name in fixtures.SOURCES:
        a = fixtures.load(name)
        assert a.dim == sum(a.projective(i).total_dim for i in a.quiver.vertices), name


def test_multiplication_table_unital_and_associative():
    for name in ("a3rel", "skewed", "wild4"):
        a = fixtures.load(name)
        n = len(a.basis)
        idemp = {i for i, p in enumerate(a.basis) if p.length == 0}
        index = {p: i for i, p in enumerate(a.basis)}

        def mult(i, j):
            # basis[i] * basis[j] means "first basis[j], then basis[i]"
            p, q = a.basis[i], a.basis[j]
            if q.target(a.quiver) != p.source:
                return {}
            product = a.reduce_path(Path(q.source, q.arrows + p.arrows))
            return {index[r]: c for r, c in product.items()}

        for i in idemp:
            for j in idemp:
                prod = mult(i, j)
                if i == j:
                    assert prod == {i: 1}
                else:
                    assert prod == {}
        # associativity on all basis triples
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    left = {}
                    for x, cx in mult(j, k).items():
                        for y, cy in mult(i, x).items():
                            left[y] = left.get(y, 0) + cx * cy
                    right = {}
                    for x, cx in mult(i, j).items():
                        for y, cy in mult(x, k).items():
                            right[y] = right.get(y, 0) + cx * cy
                    left = {k2: v for k2, v in left.items() if v}
                    right = {k2: v for k2, v in right.items() if v}
                    assert left == right


def test_termination_persists_one_degree_beyond():
    # every path of the termination length is dead, and this persists at L+1
    for name in ("a3rel", "skewed", "wild4"):
        a = fixtures.load(name)
        L = a.length_bound
        q = a.quiver
        arrows_from = {v: [i for i, ar in enumerate(q.arrows) if ar.source == v] for v in q.vertices}

        def paths_of_length(length):
            out = [p for p in a.basis if p.length == 0]
            from tautilt.algebra import Path

            for _ in range(length):
                out = [Path(p.source, p.arrows + (i,)) for p in out for i in arrows_from[p.target(q)]]
            return out

        for ell in (L, L + 1):
            for p in paths_of_length(ell):
                assert a.reduce_path(p) == {}


def test_opposite_involution_and_dims():
    for name in fixtures.SOURCES:
        a = fixtures.load(name)
        op = a.opposite()
        assert op.dim == a.dim, name
        assert op.opposite() is a


def test_opposite_a2():
    a = fixtures.load("a2")
    op = a.opposite()
    assert op.quiver.arrows[0].source == 2
    assert op.quiver.arrows[0].target == 1
    assert op.dim == 3


def test_opposite_reverses_relation():
    a = fixtures.load("a3rel")
    op = a.opposite()
    assert op.dim == 5
    rel = op.relations.relations[0]
    # reversed composition: in the opposite, a comes after b
    assert rel[0][1].label(op.quiver) == "a*b"


def test_quotient_kill_one_vertex():
    a = fixtures.load("a3lin")
    vq = quotient_by_vertices(a, {1})
    assert vq.algebra.vertex_count == 2
    assert vq.algebra.dim == 3  # K(2->3)
    assert vq.kept == (2, 3)


def test_quotient_kill_nothing_is_identity_shaped():
    a = fixtures.load("a3rel")
    vq = quotient_by_vertices(a, set())
    assert vq.algebra.dim == a.dim
    assert vq.algebra.vertex_count == a.vertex_count


def test_quotient_middle_vertex_of_a3rel():
    vq = quotient_by_vertices(fixtures.load("a3rel"), {2})
    assert vq.algebra.vertex_count == 2
    assert vq.algebra.dim == 2  # two isolated vertices, relation vacuous
    assert not vq.algebra.relations.relations


def test_quotient_all_vertices_is_zero_algebra():
    vq = quotient_by_vertices(fixtures.load("a2"), {1, 2})
    assert vq.algebra.is_zero
    assert vq.algebra.dim == 0


def test_quotient_agrees_with_basis_filtering():
    a = fixtures.load("wild4")
    vq = quotient_by_vertices(a, {2})
    killed = set(vq.killed)
    surviving = [
        p for p in a.basis if all(v not in killed for v in p.vertex_sequence(a.quiver))
    ]
    assert len(surviving) == vq.algebra.dim
    # structural modules agree with filtering the parent's projectives
    for old in vq.kept:
        new = vq.old_to_new[old]
        expect = [
            len([p for p in surviving if p.source == old and p.target(a.quiver) == j])
            for j in vq.kept
        ]
        assert list(vq.algebra.projective(new).dims) == expect


def test_content_hash_changes_with_relations():
    plain = fixtures.load("a3lin")
    rel = fixtures.load("a3rel")
    assert plain.content_hash() != rel.content_hash()

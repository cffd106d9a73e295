"""Quivers, admissible relations and finite-dimensional path algebras.

An algebra is presented by the DSL below, e.g.::

    algebra a3rel {
      vertices: 1 2 3;
      arrows: a: 1->2, b: 2->3;
      relations: b*a;     # right-to-left: first a, then b
    }

``compute_basis`` turns the presentation into a concrete basis of residue
paths with an exact multiplication table, working degree by degree: paths of
length L are declared dead once they lie in the span of all products
u*r*v of relations with paths, and the algebra is the quotient of the paths
of length < L by that span.  Non-admissible ideals and too-small caps are
reported as errors instead of looping.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from .errors import CapExceededError, ContractViolation, NotAdmissibleError, ParseError
from .linalg import Matrix

DEFAULT_LENGTH_CAP = 24


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


@dataclass(frozen=True)
class Quiver:
    """Finite quiver with vertices labeled 1..n; parallel arrows and loops OK."""

    vertex_count: int
    arrows: Tuple[Arrow, ...]

    def __post_init__(self):
        names = set()
        for a in self.arrows:
            if not (1 <= a.source <= self.vertex_count and 1 <= a.target <= self.vertex_count):
                raise ContractViolation(f"arrow {a.name}: endpoint out of range")
            if a.name in names:
                raise ContractViolation(f"duplicate arrow name {a.name}")
            names.add(a.name)

    @property
    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)

    def arrow_index(self, name: str) -> int:
        for i, a in enumerate(self.arrows):
            if a.name == name:
                return i
        raise KeyError(name)


@dataclass(frozen=True)
class Path:
    """A path stored as arrow indices in application order (first... last).

    The written form composes right to left ("b*a" applies a first), so the
    label reverses the stored order.
    """

    source: int
    arrows: Tuple[int, ...]

    def target(self, quiver: Quiver) -> int:
        if not self.arrows:
            return self.source
        return quiver.arrows[self.arrows[-1]].target

    @property
    def length(self) -> int:
        return len(self.arrows)

    def label(self, quiver: Quiver) -> str:
        if not self.arrows:
            return f"e{self.source}"
        return "*".join(quiver.arrows[i].name for i in reversed(self.arrows))

    def vertex_sequence(self, quiver: Quiver) -> List[int]:
        seq = [self.source]
        for i in self.arrows:
            seq.append(quiver.arrows[i].target)
        return seq


# a relation is a list of (coefficient, path) terms; parallel, lengths >= 2
Relation = Tuple[Tuple[Fraction, Path], ...]


@dataclass(frozen=True)
class RelationSet:
    relations: Tuple[Relation, ...]

    def validate(self, quiver: Quiver) -> None:
        for rel in self.relations:
            if not rel:
                raise ContractViolation("empty relation")
            s = rel[0][1].source
            t = rel[0][1].target(quiver)
            for coeff, path in rel:
                if coeff == 0:
                    raise ContractViolation("zero coefficient in relation")
                if path.length < 2:
                    raise NotAdmissibleError("path length < 2 in relation")
                if path.source != s or path.target(quiver) != t:
                    raise ContractViolation("relation terms not parallel")


@dataclass(frozen=True)
class AlgebraSource:
    """Parsed DSL, before the basis is computed."""

    name: str
    quiver: Quiver
    relations: RelationSet
    text: str


# --------------------------------------------------------------------------
# DSL parser
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<arrowsym>->)
      | (?P<number>\d+(?:/\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<sym>[{}:;,*+\-])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind if kind != "sym" and kind != "arrowsym" else value, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: Optional[str] = None) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {what or kind}, found {tok.value!r}", tok.line, tok.col)
        return tok

    def expect_keyword(self, word: str) -> None:
        tok = self.next()
        if tok.kind != "ident" or tok.value != word:
            raise ParseError(f"expected '{word}', found {tok.value!r}", tok.line, tok.col)

    def err(self, message: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def parse_int(self) -> int:
        tok = self.expect("number", "integer")
        if "/" in tok.value:
            self.err("expected integer", tok)
        return int(tok.value)

    def parse(self) -> AlgebraSource:
        self.expect_keyword("algebra")
        name = self.expect("ident", "algebra name").value
        self.expect("{")

        self.expect_keyword("vertices")
        self.expect(":")
        labels = []
        while self.peek().kind == "number":
            labels.append(self.parse_int())
        self.expect(";")
        if labels != list(range(1, len(labels) + 1)) or not labels:
            self.err("vertices must be listed as 1..n")
        n = len(labels)

        self.expect_keyword("arrows")
        self.expect(":")
        arrows = []
        # an empty arrow list is tolerated so semisimple algebras are writable
        if self.peek().kind != ";":
            arrows.append(self.parse_arrow(n))
            while self.peek().kind == ",":
                self.next()
                arrows.append(self.parse_arrow(n))
        self.expect(";")
        quiver = Quiver(n, tuple(arrows))

        relations: List[Relation] = []
        if self.peek().kind == "ident" and self.peek().value == "relations":
            self.next()
            self.expect(":")
            relations.append(self.parse_relation(quiver))
            while self.peek().kind == ",":
                self.next()
                relations.append(self.parse_relation(quiver))
            self.expect(";")

        self.expect("}")
        self.expect("eof", "end of input")
        relset = RelationSet(tuple(relations))
        try:
            relset.validate(quiver)
        except (ContractViolation, NotAdmissibleError) as e:
            self.err(str(e), self.tokens[max(self.pos - 1, 0)])
        return AlgebraSource(name, quiver, relset, self.text)

    def parse_arrow(self, n: int) -> Arrow:
        name_tok = self.expect("ident", "arrow name")
        self.expect(":")
        src = self.parse_int()
        self.expect("->")
        tgt = self.parse_int()
        if not (1 <= src <= n and 1 <= tgt <= n):
            self.err(f"arrow {name_tok.value}: unknown vertex", name_tok)
        return Arrow(name_tok.value, src, tgt)

    def parse_relation(self, quiver: Quiver) -> Relation:
        terms = [self.parse_term(quiver, Fraction(1))]
        while self.peek().kind in ("+", "-"):
            sign = Fraction(1) if self.next().kind == "+" else Fraction(-1)
            terms.append(self.parse_term(quiver, sign))
        # semantic checks with position info
        s = terms[0][1].source
        t = terms[0][1].target(quiver)
        for coeff, path in terms:
            if path.length < 2:
                self.err("path length < 2 in relation", self.tokens[self.pos - 1])
            if path.source != s or path.target(quiver) != t:
                self.err("relation terms not parallel", self.tokens[self.pos - 1])
        return tuple(terms)

    def parse_term(self, quiver: Quiver, sign: Fraction) -> Tuple[Fraction, Path]:
        coeff = Fraction(1)
        if self.peek().kind == "number":
            tok = self.next()
            coeff = Fraction(tok.value)
            if coeff == 0:
                self.err("zero coefficient", tok)
            self.expect("*")
        path = self.parse_path(quiver)
        return (sign * coeff, path)

    def parse_path(self, quiver: Quiver) -> Path:
        names = [self.expect("ident", "arrow name")]
        while self.peek().kind == "*" and self.tokens[self.pos + 1].kind == "ident":
            self.next()
            names.append(self.expect("ident", "arrow name"))
        idxs = []
        for tok in names:
            try:
                idxs.append(quiver.arrow_index(tok.value))
            except KeyError:
                self.err(f"unknown arrow {tok.value!r}", tok)
        # written right-to-left; store in application order
        idxs.reverse()
        src = quiver.arrows[idxs[0]].source
        for a, b in zip(idxs, idxs[1:]):
            if quiver.arrows[a].target != quiver.arrows[b].source:
                self.err("path arrows do not compose", names[0])
        return Path(src, tuple(idxs))


def parse_algebra(text: str) -> AlgebraSource:
    """Parse the algebra DSL; raises ParseError with line/column on failure."""
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# Basis computation
# --------------------------------------------------------------------------


class _Block:
    """Linear algebra data for one (source, target) block of KQ/<relations>."""

    __slots__ = ("paths", "index", "red_rows", "pivot_of_col", "residues", "residue_pos")

    def __init__(self, paths: List[Path]):
        self.paths = paths
        self.index = {p: i for i, p in enumerate(paths)}
        self.red_rows: List[List[Fraction]] = []
        self.pivot_of_col: Dict[int, int] = {}
        self.residues: List[Path] = paths
        self.residue_pos: Dict[Path, int] = dict(self.index)

    def set_ideal(self, gen_rows: List[List[Fraction]]) -> None:
        from .linalg import rref_rank

        if gen_rows:
            red, pivots, rank = rref_rank(Matrix.from_rows(gen_rows, cols=len(self.paths)))
            self.red_rows = [list(red.row(i)) for i in range(rank)]
            self.pivot_of_col = {c: r for r, c in enumerate(pivots)}
        self.residues = [p for i, p in enumerate(self.paths) if i not in self.pivot_of_col]
        self.residue_pos = {p: i for i, p in enumerate(self.residues)}

    def reduce_coords(self, vec: List[Fraction]) -> Dict[Path, Fraction]:
        for c, r in self.pivot_of_col.items():
            a = vec[c]
            if a:
                row = self.red_rows[r]
                vec = [x - a * y for x, y in zip(vec, row)]
        out = {}
        for i, p in enumerate(self.paths):
            if vec[i]:
                out[p] = vec[i]
        return out


class Algebra:
    """A finite-dimensional quotient of a path algebra with residue-path basis.

    Immutable after compute_basis; the only mutation afterwards is internal
    memoization, so values can be freely shared.
    """

    def __init__(self, quiver: Quiver, relations: RelationSet, length_bound: int,
                 blocks: Dict[Tuple[int, int], _Block], length_cap: int,
                 name: str = "", source_text: str = ""):
        self.quiver = quiver
        self.relations = relations
        self.length_bound = length_bound  # first length L with R^L inside the ideal
        self.length_cap = length_cap
        self.name = name
        self.source_text = source_text
        self._blocks = blocks
        self.basis: List[Path] = []
        for key in sorted(blocks):
            self.basis.extend(blocks[key].residues)
        self._opposite: Optional[Algebra] = None
        self._opposite_of: Optional[Algebra] = None
        self._memos: Dict[str, dict] = {}

    # -- bookkeeping ---------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return self.quiver.vertex_count

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return self.vertex_count == 0

    def memo(self, namespace: str) -> dict:
        return self._memos.setdefault(namespace, {})

    def block_paths(self, s: int, t: int) -> List[Path]:
        block = self._blocks.get((s, t))
        return block.residues if block else []

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(b"tautilt-algebra-v1\0")
        h.update(str(self.vertex_count).encode())
        for a in self.quiver.arrows:
            h.update(f"|{a.name}:{a.source}->{a.target}".encode())
        for rel in self.relations.relations:
            h.update(b"|rel")
            for coeff, path in rel:
                h.update(f"{coeff}*{path.source}:{','.join(map(str, path.arrows))};".encode())
        return h.hexdigest()

    def __repr__(self):
        return f"Algebra({self.name or 'anonymous'}, dim {self.dim}, {self.vertex_count} vertices)"

    # -- multiplication ------------------------------------------------------

    def reduce_path(self, path: Path) -> Dict[Path, Fraction]:
        """Expand a path exactly over the residue basis (empty dict = zero)."""
        if path.length >= self.length_bound:
            return {}
        block = self._blocks.get((path.source, path.target(self.quiver)))
        if block is None or path not in block.index:
            return {}
        vec = [Fraction(0)] * len(block.paths)
        vec[block.index[path]] = Fraction(1)
        return block.reduce_coords(vec)

    # -- structural modules ---------------------------------------------------

    def projective(self, i: int):
        """P(i): the left module on residue paths with source i."""
        from . import rep

        if not 1 <= i <= self.vertex_count:
            raise ContractViolation(f"vertex {i} out of range")
        paths_at = {j: self.block_paths(i, j) for j in self.quiver.vertices}
        dims = tuple(len(paths_at[j]) for j in self.quiver.vertices)
        maps = {}
        for a_idx, arrow in enumerate(self.quiver.arrows):
            src_paths = paths_at[arrow.source]
            tgt_paths = paths_at[arrow.target]
            tgt_pos = {p: r for r, p in enumerate(tgt_paths)}
            cols = []
            for p in src_paths:
                expansion = self.reduce_path(Path(p.source, p.arrows + (a_idx,)))
                col = [Fraction(0)] * len(tgt_paths)
                for r_path, coeff in expansion.items():
                    col[tgt_pos[r_path]] = coeff
                cols.append(col)
            maps[arrow.name] = Matrix.from_rows(
                [[cols[c][r] for c in range(len(src_paths))] for r in range(len(tgt_paths))],
                cols=len(src_paths),
            )
        return rep.Representation(self, dims, maps)

    def simple(self, i: int):
        from . import rep

        if not 1 <= i <= self.vertex_count:
            raise ContractViolation(f"vertex {i} out of range")
        dims = tuple(1 if j == i else 0 for j in self.quiver.vertices)
        maps = {
            a.name: Matrix.zeros(dims[a.target - 1], dims[a.source - 1])
            for a in self.quiver.arrows
        }
        return rep.Representation(self, dims, maps)

    def injective(self, i: int):
        """I(i): dual of the projective at i over the opposite algebra."""
        from . import rep

        pop = self.opposite().projective(i)
        dims = pop.dims
        maps = {}
        for arrow in self.quiver.arrows:
            # the opposite arrow with the same name runs target -> source
            maps[arrow.name] = pop.arrow_maps[arrow.name].transpose()
        return rep.Representation(self, dims, maps)

    # -- derived algebras ------------------------------------------------------

    def opposite(self) -> "Algebra":
        """The opposite algebra: arrows reversed, relations path-reversed.

        opposite() of opposite() returns the original object.
        """
        if self._opposite_of is not None:
            return self._opposite_of
        if self._opposite is None:
            q = self.quiver
            op_arrows = tuple(Arrow(a.name, a.target, a.source) for a in q.arrows)
            op_quiver = Quiver(q.vertex_count, op_arrows)
            op_rels = []
            for rel in self.relations.relations:
                terms = []
                for coeff, path in rel:
                    terms.append((coeff, Path(path.target(q), tuple(reversed(path.arrows)))))
                op_rels.append(tuple(terms))
            op = compute_basis(op_quiver, RelationSet(tuple(op_rels)), self.length_cap,
                               name=self.name + "_op" if self.name else "")
            op._opposite_of = self
            self._opposite = op
        return self._opposite


def compute_basis(quiver: Quiver, relations: RelationSet, cap: int = DEFAULT_LENGTH_CAP,
                  name: str = "", source_text: str = "") -> Algebra:
    """Compute the residue-path basis of KQ/<relations> degree by degree.

    Terminates at the first length L <= cap at which every path of length L
    lies in the span of the products u*r*v; raises CapExceededError when no
    such L exists below the cap (non-admissible ideal or cap too low).
    """
    if cap < 1:
        raise ContractViolation("cap must be >= 1")
    relations.validate(quiver)

    if quiver.vertex_count == 0:
        return Algebra(quiver, relations, 1, {}, cap, name, source_text)

    arrows_from: Dict[int, List[int]] = {v: [] for v in quiver.vertices}
    for idx, a in enumerate(quiver.arrows):
        arrows_from[a.source].append(idx)

    paths_by_len: List[List[Path]] = [[Path(v, ()) for v in quiver.vertices]]

    def extend(paths: List[Path]) -> List[Path]:
        out = []
        for p in paths:
            for a_idx in arrows_from[p.target(quiver)]:
                out.append(Path(p.source, p.arrows + (a_idx,)))
        return out

    rel_list = list(relations.relations)
    rel_min = [min(path.length for _, path in rel) for rel in rel_list]
    rel_max = [max(path.length for _, path in rel) for rel in rel_list]

    def generators_up_to(limit: int, by_max: bool) -> List[Tuple[Tuple[int, int], Dict[Path, Fraction]]]:
        """All products u*r*v whose longest (by_max) or shortest term has
        length <= limit; vectors carry every term of the product."""
        gens = []
        for rel, lmin, lmax in zip(rel_list, rel_min, rel_max):
            bound = lmax if by_max else lmin
            s_r = rel[0][1].source
            t_r = rel[0][1].target(quiver)
            for lv in range(0, limit - bound + 1):
                for v in paths_by_len[lv]:
                    if v.target(quiver) != s_r:
                        continue
                    for lu in range(0, limit - bound - lv + 1):
                        for u in paths_by_len[lu]:
                            if u.source != t_r:
                                continue
                            vec: Dict[Path, Fraction] = {}
                            for coeff, term in rel:
                                whole = Path(v.source, v.arrows + term.arrows + u.arrows)
                                vec[whole] = vec.get(whole, Fraction(0)) + coeff
                            gens.append(((v.source, u.target(quiver)), vec))
        return gens

    L = None
    l = 0
    while True:
        l += 1
        if l > cap:
            raise CapExceededError(
                "not finite-dimensional within cap (non-admissible ideal or cap too low)",
                cap="length_cap", value=cap, progress=l - 1,
            )
        paths_by_len.append(extend(paths_by_len[l - 1]))
        new_paths = paths_by_len[l]
        if not new_paths:
            L = l
            break
        if not rel_list:
            continue
        # span of all u*r*v with longest term of length <= l, per block
        by_block: Dict[Tuple[int, int], List[Dict[Path, Fraction]]] = {}
        for block, vec in generators_up_to(l, by_max=True):
            by_block.setdefault(block, []).append(vec)
        need: Dict[Tuple[int, int], List[Path]] = {}
        for p in new_paths:
            need.setdefault((p.source, p.target(quiver)), []).append(p)
        ok = True
        for block_key, targets in need.items():
            gens = by_block.get(block_key)
            if not gens:
                ok = False
                break
            coords_paths = [q for ln in range(0, l + 1) for q in paths_by_len[ln]
                            if q.source == block_key[0] and q.target(quiver) == block_key[1]]
            index = {q: i for i, q in enumerate(coords_paths)}
            rows = []
            for vec in gens:
                row = [Fraction(0)] * len(coords_paths)
                for q, c in vec.items():
                    row[index[q]] += c
                rows.append(row)
            blk = _Block(coords_paths)
            blk.set_ideal(rows)
            for p in targets:
                unit = [Fraction(0)] * len(coords_paths)
                unit[index[p]] = Fraction(1)
                if blk.reduce_coords(unit):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            L = l
            break

    # ideal in the truncation KQ / R^L: paths of length < L, generators with
    # surviving terms truncated at length L
    block_paths: Dict[Tuple[int, int], List[Path]] = {}
    for ln in range(0, L):
        for p in paths_by_len[ln]:
            block_paths.setdefault((p.source, p.target(quiver)), []).append(p)

    blocks = {key: _Block(paths) for key, paths in block_paths.items()}

    gen_rows_by_block: Dict[Tuple[int, int], List[List[Fraction]]] = {}
    if rel_list:
        for block, vec in generators_up_to(L - 1, by_max=False):
            blk = blocks.get(block)
            if blk is None:
                continue
            row = [Fraction(0)] * len(blk.paths)
            nonzero = False
            for q, c in vec.items():
                if q.length < L:
                    row[blk.index[q]] += c
                    nonzero = True
            if nonzero and any(row):
                gen_rows_by_block.setdefault(block, []).append(row)

    for key, blk in blocks.items():
        blk.set_ideal(gen_rows_by_block.get(key, []))
        for col in blk.pivot_of_col:
            if blk.paths[col].length < 2:
                raise NotAdmissibleError("ideal not admissible: contains a path of length < 2")

    return Algebra(quiver, relations, L, blocks, cap, name, source_text)


def algebra_from_source(text: str, cap: int = DEFAULT_LENGTH_CAP) -> Algebra:
    src = parse_algebra(text)
    return compute_basis(src.quiver, src.relations, cap, name=src.name, source_text=text)


# --------------------------------------------------------------------------
# Quotients by sets of vertices
# --------------------------------------------------------------------------


@dataclass
class VertexQuotient:
    """A/<e> for e the sum of killed trivial idempotents, with vertex maps."""

    algebra: Algebra
    kept: Tuple[int, ...]          # old labels, ascending
    killed: Tuple[int, ...]
    old_to_new: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.old_to_new:
            self.old_to_new = {old: new for new, old in enumerate(self.kept, start=1)}


def quotient_by_vertices(a: Algebra, kill: Set[int]) -> VertexQuotient:
    """Quotient by the idempotent ideal of a vertex set.

    Vertices, arrows and relation terms meeting killed vertices are removed;
    killing every vertex yields the zero algebra (legal, flagged by is_zero).
    """
    kill = set(kill)
    for v in kill:
        if not 1 <= v <= a.vertex_count:
            raise ContractViolation(f"vertex {v} out of range")
    kept = tuple(v for v in a.quiver.vertices if v not in kill)
    old_to_new = {old: new for new, old in enumerate(kept, start=1)}

    new_arrows = []
    arrow_survives = {}
    for a_idx, arrow in enumerate(a.quiver.arrows):
        if arrow.source in kill or arrow.target in kill:
            arrow_survives[a_idx] = None
        else:
            arrow_survives[a_idx] = len(new_arrows)
            new_arrows.append(Arrow(arrow.name, old_to_new[arrow.source], old_to_new[arrow.target]))
    quiver = Quiver(len(kept), tuple(new_arrows))

    new_rels = []
    for rel in a.relations.relations:
        terms = []
        for coeff, path in rel:
            if any(v in kill for v in path.vertex_sequence(a.quiver)):
                continue
            terms.append((coeff, Path(old_to_new[path.source],
                                      tuple(arrow_survives[i] for i in path.arrows))))
        if terms:
            new_rels.append(tuple(terms))

    alg = compute_basis(quiver, RelationSet(tuple(new_rels)), a.length_cap,
                        name=(a.name + "_mod_" + "".join(map(str, sorted(kill)))) if a.name else "")
    return VertexQuotient(alg, kept, tuple(sorted(kill)))

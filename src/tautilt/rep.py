"""Modules as quiver representations: Hom spaces, submodules, decomposition.

Conventions (fixed once, enforced everywhere): representations are left
modules, an arrow a: i -> j acts as a linear map M_i -> M_j, matrices act on
column vectors.  Equality of representations is per-component data equality;
isomorphism is a separate test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .algebra import Algebra, Path, VertexQuotient
from .errors import ContractViolation, NotCertifiableError
from .linalg import (
    ONE,
    ZERO,
    Matrix,
    Subspace,
    kernel_basis,
    solve_linear,
    subspace_complement,
    subspace_intersection,
    subspace_sum,
)

SPLIT_RANDOM_CANDIDATES = 32


class ModuleKey:
    """The dimension vector and arrow matrices of a module as a memo key.

    Its hash is computed once, so a lookup keyed by module data does not
    rehash every matrix entry."""

    __slots__ = ("data", "_hash")

    def __init__(self, data: tuple):
        self.data = data
        self._hash = hash(data)

    def __hash__(self):
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, ModuleKey) and self._hash == other._hash and self.data == other.data
        )


class Representation:
    """Dimension vector plus one exact matrix per arrow."""

    __slots__ = ("algebra", "dims", "arrow_maps", "_key")

    def __init__(self, algebra: Algebra, dims: Sequence[int], arrow_maps: Dict[str, Matrix]):
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != algebra.vertex_count:
            raise ContractViolation("dims length must match vertex count")
        if any(d < 0 for d in self.dims):
            raise ContractViolation("negative dimension")
        maps = {}
        names = {a.name for a in algebra.quiver.arrows}
        for name in arrow_maps:
            if name not in names:
                raise ContractViolation(f"unknown arrow {name!r}")
        for arrow in algebra.quiver.arrows:
            mat = arrow_maps.get(arrow.name)
            want = (self.dims[arrow.target - 1], self.dims[arrow.source - 1])
            if mat is None:
                mat = Matrix.zeros(*want)
            if (mat.rows, mat.cols) != want:
                raise ContractViolation(
                    f"arrow {arrow.name}: matrix is {mat.rows}x{mat.cols}, expected {want[0]}x{want[1]}"
                )
            maps[arrow.name] = mat
        self.arrow_maps = maps
        self._key = None

    # -- basics ---------------------------------------------------------------

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def dim_label(self) -> str:
        if all(d <= 9 for d in self.dims):
            return "".join(str(d) for d in self.dims)
        return "[" + ",".join(str(d) for d in self.dims) + "]"

    def key(self) -> "ModuleKey":
        if self._key is None:
            self._key = ModuleKey((
                self.dims,
                tuple(
                    (a.name, self.arrow_maps[a.name].entries)
                    for a in self.algebra.quiver.arrows
                ),
            ))
        return self._key

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Representation)
            and self.algebra is other.algebra
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Rep({self.dim_label()})"

    def path_matrix(self, path: Path) -> Matrix:
        """The action of a path: product of arrow maps in application order."""
        q = self.algebra.quiver
        mat = Matrix.identity(self.dims[path.source - 1])
        for idx in path.arrows:
            mat = self.arrow_maps[q.arrows[idx].name] @ mat
        return mat


def zero_rep(algebra: Algebra) -> Representation:
    return Representation(algebra, [0] * algebra.vertex_count, {})


def validate(m: Representation) -> Optional[str]:
    """None when every relation evaluates to the zero matrix, otherwise a
    report naming the first violated relation and its vertex pair."""
    q = m.algebra.quiver
    for rel in m.algebra.relations.relations:
        s = rel[0][1].source
        t = rel[0][1].target(q)
        acc = Matrix.zeros(m.dims[t - 1], m.dims[s - 1])
        for coeff, path in rel:
            acc = acc + m.path_matrix(path).scale(coeff)
        if not acc.is_zero():
            label = " + ".join(f"{c}*{p.label(q)}" for c, p in rel)
            return f"relation {label} violated between vertices ({s}, {t})"
    return None


class Morphism:
    """One matrix per vertex, intertwining every arrow action."""

    __slots__ = ("source", "target", "maps")

    def __init__(self, source: Representation, target: Representation,
                 maps: Sequence[Matrix], verify: bool = True):
        self.source = source
        self.target = target
        self.maps = tuple(maps)
        if len(self.maps) != source.algebra.vertex_count:
            raise ContractViolation("need one matrix per vertex")
        for v in range(source.algebra.vertex_count):
            mat = self.maps[v]
            if (mat.rows, mat.cols) != (target.dims[v], source.dims[v]):
                raise ContractViolation(f"vertex {v + 1}: map shape mismatch")
        if verify:
            for arrow in source.algebra.quiver.arrows:
                s, t = arrow.source - 1, arrow.target - 1
                lhs = self.maps[t] @ source.arrow_maps[arrow.name]
                rhs = target.arrow_maps[arrow.name] @ self.maps[s]
                if lhs != rhs:
                    raise ContractViolation(f"not a morphism: arrow {arrow.name} fails")

    def __matmul__(self, other: "Morphism") -> "Morphism":
        if other.target is not self.source and other.target != self.source:
            raise ContractViolation("composition mismatch")
        return Morphism(other.source, self.target,
                        [a @ b for a, b in zip(self.maps, other.maps)], verify=False)

    def __add__(self, other: "Morphism") -> "Morphism":
        return Morphism(self.source, self.target,
                        [a + b for a, b in zip(self.maps, other.maps)], verify=False)

    def __sub__(self, other: "Morphism") -> "Morphism":
        return Morphism(self.source, self.target,
                        [a - b for a, b in zip(self.maps, other.maps)], verify=False)

    def scale(self, c) -> "Morphism":
        return Morphism(self.source, self.target, [m.scale(c) for m in self.maps], verify=False)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.maps)

    def is_injective(self) -> bool:
        return all(kernel_basis(m).is_zero() for m in self.maps)

    def is_surjective(self) -> bool:
        return all(m.rank() == m.rows for m in self.maps)

    def is_iso(self) -> bool:
        return all(m.rows == m.cols and m.rank() == m.rows for m in self.maps)

    def inverse(self) -> "Morphism":
        if not self.is_iso():
            raise ContractViolation("not invertible")
        inv = []
        for m in self.maps:
            x, _ = solve_linear(m, Matrix.identity(m.rows))
            inv.append(x)
        return Morphism(self.target, self.source, inv, verify=False)

    def flat(self) -> tuple:
        return tuple(x for m in self.maps for x in m.entries)

    def __repr__(self):
        return f"Morphism({self.source.dim_label()} -> {self.target.dim_label()})"


def identity_morphism(m: Representation) -> Morphism:
    return Morphism(m, m, [Matrix.identity(d) for d in m.dims], verify=False)


def zero_morphism(m: Representation, n: Representation) -> Morphism:
    return Morphism(m, n, [Matrix.zeros(dn, dm) for dm, dn in zip(m.dims, n.dims)], verify=False)


def morphism_from_flat(m: Representation, n: Representation, flat: Sequence[Fraction],
                       verify: bool = False) -> Morphism:
    maps = []
    pos = 0
    for dm, dn in zip(m.dims, n.dims):
        size = dm * dn
        maps.append(Matrix(dn, dm, flat[pos:pos + size]))
        pos += size
    return Morphism(m, n, maps, verify=verify)


# -- Hom spaces ---------------------------------------------------------------


def hom_basis(m: Representation, n: Representation) -> List[Morphism]:
    """A basis of Hom(m, n), canonical (rref of the intertwiner kernel)."""
    if m.algebra is not n.algebra:
        raise ContractViolation("different algebras")
    memo = m.algebra.memo("hom_basis")
    cache_key = (m.key(), n.key())
    cached = memo.get(cache_key)
    if cached is not None:
        return cached

    nverts = m.algebra.vertex_count
    sizes = [n.dims[v] * m.dims[v] for v in range(nverts)]
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    total = offsets[-1]

    rows = []
    for arrow in m.algebra.quiver.arrows:
        s, t = arrow.source - 1, arrow.target - 1
        Ma = m.arrow_maps[arrow.name]
        Na = n.arrow_maps[arrow.name]
        for r in range(n.dims[t]):
            for c in range(m.dims[s]):
                row = [Fraction(0)] * total
                for k in range(m.dims[t]):
                    coeff = Ma[k, c]
                    if coeff:
                        row[offsets[t] + r * m.dims[t] + k] += coeff
                for k in range(n.dims[s]):
                    coeff = Na[r, k]
                    if coeff:
                        row[offsets[s] + k * m.dims[s] + c] -= coeff
                if any(row):
                    rows.append(row)

    if total == 0:
        basis: List[Morphism] = []
    else:
        ker = kernel_basis(Matrix.from_rows(rows, cols=total) if rows else Matrix.zeros(0, total))
        basis = [morphism_from_flat(m, n, ker.basis.row(i)) for i in range(ker.dim)]
    memo[cache_key] = basis
    return basis


def hom_dim(m: Representation, n: Representation) -> int:
    return len(hom_basis(m, n))


# -- direct sums ----------------------------------------------------------------


@dataclass
class DirectSum:
    total: Representation
    inclusions: List[Morphism]
    projections: List[Morphism]


def direct_sum(algebra: Algebra, parts: Sequence[Representation]) -> DirectSum:
    """Block-diagonal sum with inclusion and projection morphisms."""
    for p in parts:
        if p.algebra is not algebra:
            raise ContractViolation("different algebras")
    nverts = algebra.vertex_count
    dims = tuple(sum(p.dims[v] for p in parts) for v in range(nverts))
    maps = {}
    for arrow in algebra.quiver.arrows:
        blocks = [p.arrow_maps[arrow.name] for p in parts]
        maps[arrow.name] = Matrix.block_diag(blocks) if blocks else Matrix.zeros(
            dims[arrow.target - 1], dims[arrow.source - 1])
    total = Representation(algebra, dims, maps)

    inclusions = []
    projections = []
    offsets = [[0] * nverts]
    for p in parts:
        offsets.append([offsets[-1][v] + p.dims[v] for v in range(nverts)])
    for k, p in enumerate(parts):
        inc, proj = [], []
        for v in range(nverts):
            # entry (offset + r, r) of the inclusion and (r, offset + r) of the
            # projection are 1, all others 0
            d, total_d, off = p.dims[v], dims[v], offsets[k][v]
            inc_entries = [ZERO] * (total_d * d)
            proj_entries = [ZERO] * (d * total_d)
            for r in range(d):
                inc_entries[(off + r) * d + r] = ONE
                proj_entries[r * total_d + off + r] = ONE
            inc.append(Matrix._of(total_d, d, tuple(inc_entries)))
            proj.append(Matrix._of(d, total_d, tuple(proj_entries)))
        inclusions.append(Morphism(p, total, inc, verify=False))
        projections.append(Morphism(total, p, proj, verify=False))
    return DirectSum(total, inclusions, projections)


# -- subrepresentations and quotients --------------------------------------------


class SubRep:
    """Per-vertex subspaces closed under all arrow actions."""

    __slots__ = ("parent", "spaces")

    def __init__(self, parent: Representation, spaces: Sequence[Subspace], check: bool = True):
        self.parent = parent
        self.spaces = tuple(spaces)
        if len(self.spaces) != parent.algebra.vertex_count:
            raise ContractViolation("need one subspace per vertex")
        for v, sp in enumerate(self.spaces):
            if sp.ambient_dim != parent.dims[v]:
                raise ContractViolation(f"vertex {v + 1}: ambient mismatch")
        if check:
            for arrow in parent.algebra.quiver.arrows:
                s, t = arrow.source - 1, arrow.target - 1
                mat = parent.arrow_maps[arrow.name]
                for i in range(self.spaces[s].dim):
                    image = mat.apply(self.spaces[s].basis.row(i))
                    if not self.spaces[t].contains_vector(image):
                        raise ContractViolation(f"not arrow-closed at {arrow.name}")

    @property
    def dims(self) -> tuple:
        return tuple(sp.dim for sp in self.spaces)

    def is_zero(self) -> bool:
        return all(sp.dim == 0 for sp in self.spaces)

    def is_full(self) -> bool:
        return all(sp.is_full() for sp in self.spaces)

    def __eq__(self, other):
        return (
            isinstance(other, SubRep)
            and self.parent == other.parent
            and self.spaces == other.spaces
        )

    def __hash__(self):
        return hash((self.parent.key(), self.spaces))

    def to_rep(self) -> Tuple[Representation, Morphism]:
        """The induced representation together with its inclusion."""
        parent = self.parent
        incl_mats = [sp.basis.transpose() for sp in self.spaces]
        maps = {}
        for arrow in parent.algebra.quiver.arrows:
            s, t = arrow.source - 1, arrow.target - 1
            rhs = parent.arrow_maps[arrow.name] @ incl_mats[s]
            sol, _ = solve_linear(incl_mats[t], rhs)
            if sol is None:
                raise ContractViolation("subspace not arrow-closed")
            maps[arrow.name] = sol
        rep = Representation(parent.algebra, self.dims, maps)
        return rep, Morphism(rep, parent, incl_mats, verify=False)


def sub_sum(a: SubRep, b: SubRep) -> SubRep:
    return SubRep(a.parent, [subspace_sum(x, y) for x, y in zip(a.spaces, b.spaces)], check=False)


def image_subrep(f: Morphism) -> SubRep:
    return SubRep(f.target, [Subspace.from_matrix(m.transpose()) for m in f.maps], check=False)


def kernel_subrep(f: Morphism) -> SubRep:
    return SubRep(f.source, [kernel_basis(m) for m in f.maps], check=False)


def quotient_rep(parent: Representation, sub: SubRep) -> Tuple[Representation, Morphism]:
    """parent / sub with its projection morphism."""
    nverts = parent.algebra.vertex_count
    comp = [subspace_complement(sub.spaces[v]) for v in range(nverts)]
    proj_mats = []
    for v in range(nverts):
        full = sub.spaces[v].basis.vstack(comp[v].basis)
        inv, _ = solve_linear(full.transpose(), Matrix.identity(parent.dims[v]))
        rows = [inv.row(r) for r in range(sub.spaces[v].dim, parent.dims[v])]
        proj_mats.append(Matrix.from_rows(rows, cols=parent.dims[v]))
    maps = {}
    for arrow in parent.algebra.quiver.arrows:
        s, t = arrow.source - 1, arrow.target - 1
        maps[arrow.name] = proj_mats[t] @ parent.arrow_maps[arrow.name] @ comp[s].basis.transpose()
    rep = Representation(parent.algebra, [c.dim for c in comp], maps)
    return rep, Morphism(parent, rep, proj_mats, verify=False)


def cokernel(f: Morphism) -> Tuple[Representation, Morphism]:
    return quotient_rep(f.target, image_subrep(f))


def restrict_through_inclusion(incl: Morphism, f: Morphism) -> Morphism:
    """Given incl: S -> X and f: X' -> X with image inside S, the induced
    morphism X' -> S."""
    mats = []
    for inc_m, f_m in zip(incl.maps, f.maps):
        sol, _ = solve_linear(inc_m, f_m)
        if sol is None:
            raise ContractViolation("image not contained in the subobject")
        mats.append(sol)
    return Morphism(f.source, incl.source, mats, verify=False)


# -- trace, reject, structural submodules ------------------------------------------


def trace_subrep(generators: Sequence[Representation], y: Representation) -> SubRep:
    """trace = sum of images of all maps from the generators into y."""
    nverts = y.algebra.vertex_count
    tr = [Subspace.zero(y.dims[v]) for v in range(nverts)]
    for g in generators:
        for phi in hom_basis(g, y):
            for v in range(nverts):
                tr[v] = subspace_sum(tr[v], Subspace.from_matrix(phi.maps[v].transpose()))
    return SubRep(y, tr, check=False)


def trace_and_reject(generators: Sequence[Representation], y: Representation) -> Tuple[SubRep, SubRep]:
    """The trace (see trace_subrep) and the reject = intersection of kernels
    of all maps from y into the generators."""
    nverts = y.algebra.vertex_count
    rj = [Subspace.full(y.dims[v]) for v in range(nverts)]
    for g in generators:
        for phi in hom_basis(y, g):
            for v in range(nverts):
                rj[v] = subspace_intersection(rj[v], kernel_basis(phi.maps[v]))
    return trace_subrep(generators, y), SubRep(y, rj, check=False)


def in_gen(generators: Sequence[Representation], y: Representation) -> bool:
    return trace_subrep(generators, y).is_full()


def radical_subrep(m: Representation) -> SubRep:
    """rad m = sum of the images of all arrow actions."""
    nverts = m.algebra.vertex_count
    spaces = [Subspace.zero(m.dims[v]) for v in range(nverts)]
    for arrow in m.algebra.quiver.arrows:
        t = arrow.target - 1
        spaces[t] = subspace_sum(spaces[t], Subspace.from_matrix(m.arrow_maps[arrow.name].transpose()))
    return SubRep(m, spaces, check=False)


def top_of(m: Representation) -> Tuple[Representation, Morphism]:
    return quotient_rep(m, radical_subrep(m))


def socle_subrep(m: Representation) -> SubRep:
    """Largest semisimple submodule: per-vertex intersection of arrow kernels."""
    nverts = m.algebra.vertex_count
    spaces = [Subspace.full(m.dims[v]) for v in range(nverts)]
    for arrow in m.algebra.quiver.arrows:
        s = arrow.source - 1
        spaces[s] = subspace_intersection(spaces[s], kernel_basis(m.arrow_maps[arrow.name]))
    return SubRep(m, spaces, check=False)


def support_rank(m) -> int:
    """Number of vertices where a module (or a class of modules) is nonzero."""
    if isinstance(m, Representation):
        return sum(1 for d in m.dims if d > 0)
    members = list(m)
    if not members:
        return 0
    nverts = members[0].algebra.vertex_count
    return sum(1 for v in range(nverts) if any(x.dims[v] > 0 for x in members))


# -- endomorphism rings, radical, decomposition -------------------------------------


def _trace_of_product(a: Morphism, b: Morphism) -> Fraction:
    total = Fraction(0)
    for ma, mb in zip(a.maps, b.maps):
        for r in range(ma.rows):
            for c in range(ma.cols):
                x = ma[r, c]
                if x:
                    total += x * mb[c, r]
    return total


def end_radical(m: Representation) -> List[Morphism]:
    """Radical of End(m) via the trace form (Dickson; valid in char 0),
    memoized per algebra by m.key(); its elements are combinations of the
    canonical basis `hom_basis(m, m)`."""
    memo = m.algebra.memo("end_radical")
    key = m.key()
    if key not in memo:
        memo[key] = _trace_form_radical(m, hom_basis(m, m))
    return memo[key]


def _trace_form_radical(m: Representation, basis: List[Morphism]) -> List[Morphism]:
    """The kernel of the trace form (x, y) -> tr(xy) on span(basis)."""
    k = len(basis)
    if k == 0:
        return []
    gram = Matrix.from_rows(
        [[_trace_of_product(basis[i], basis[j]) for j in range(k)] for i in range(k)],
        cols=k,
    )
    ker = kernel_basis(gram)
    out = []
    for i in range(ker.dim):
        coords = ker.basis.row(i)
        acc = None
        for c, phi in zip(coords, basis):
            if c:
                term = phi.scale(c)
                acc = term if acc is None else acc + term
        out.append(acc if acc is not None else zero_morphism(m, m))
    return out


def _min_poly(endo: Morphism) -> List[Fraction]:
    """Monic minimal polynomial coefficients [c0, ..., c_{d-1}, 1] of an
    endomorphism acting on the total space."""
    flat_powers = []
    current = identity_morphism(endo.source)
    while True:
        vec = current.flat()
        if flat_powers:
            span = Matrix.from_rows(flat_powers, cols=len(vec))
            sol, _ = solve_linear(span.transpose(), Matrix.from_rows([[x] for x in vec], cols=1))
            if sol is not None:
                coeffs = [-sol[i, 0] for i in range(len(flat_powers))]
                return coeffs + [Fraction(1)]
        flat_powers.append(list(vec))
        current = endo @ current


def _poly_of_endo(coeffs: Sequence[Fraction], endo: Morphism) -> Morphism:
    acc = zero_morphism(endo.source, endo.source)
    power = identity_morphism(endo.source)
    for c in coeffs:
        if c:
            acc = acc + power.scale(c)
        power = power @ endo
    return acc


# -- exact polynomials over Q: Fraction coefficient lists, low -> high ---------------


def _poly_norm(p: Sequence[Fraction]) -> List[Fraction]:
    """Drop zero leading coefficients, keeping at least the constant term."""
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_monic(p: Sequence[Fraction]) -> List[Fraction]:
    return [c / p[-1] for c in p]


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> List[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _poly_norm(out)


def _poly_deriv(p: Sequence[Fraction]) -> List[Fraction]:
    return [i * c for i, c in enumerate(p)][1:] or [Fraction(0)]


def _poly_divmod(num: Sequence[Fraction], den: Sequence[Fraction]):
    """Quotient and remainder of long division by a nonzero den."""
    num, den = _poly_norm(num), _poly_norm(den)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        shift = len(num) - len(den)
        factor = num[-1] / den[-1]
        q[shift] += factor
        for i, d in enumerate(den):
            num[shift + i] -= factor * d
        num = _poly_norm(num)
    return _poly_norm(q), num


def _poly_exact_div(num: Sequence[Fraction], den: Sequence[Fraction]) -> List[Fraction]:
    q, r = _poly_divmod(num, den)
    if any(r):
        raise ContractViolation("internal: polynomial division is not exact")
    return q


def _poly_gcd(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    """Monic gcd, by Euclid without the Bezout cofactors."""
    a, b = _poly_norm(a), _poly_norm(b)
    while any(b):
        a, b = b, _poly_divmod(a, b)[1]
    return _poly_monic(a)


def _square_free_parts(f: List[Fraction]) -> List[Tuple[List[Fraction], int]]:
    """Yun's square-free decomposition of a monic f of positive degree:
    pairs (a_i, i) with f = prod a_i^i, each a_i monic, square-free and of
    positive degree, pairwise coprime."""
    out = []
    df = _poly_deriv(f)
    a = _poly_gcd(f, df)
    b = _poly_exact_div(f, a)
    d = _poly_sub(_poly_exact_div(df, a), _poly_deriv(b))
    i = 1
    while len(b) > 1:
        a = _poly_gcd(b, d)
        b = _poly_exact_div(b, a)
        d = _poly_sub(_poly_exact_div(d, a), _poly_deriv(b))
        if len(a) > 1:
            out.append((a, i))
        i += 1
    return out


def _primitive_int(p: Sequence[Fraction]) -> List[int]:
    """The primitive integer multiple of a monic p (its leading coefficient
    stays positive)."""
    den = math.lcm(*(c.denominator for c in p))
    ints = [c.numerator * (den // c.denominator) for c in p]
    g = math.gcd(*ints)
    return [x // g for x in ints]


def _divisors(n: int) -> List[int]:
    """Positive divisors of a nonzero integer."""
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _rational_roots(p: List[Fraction]) -> List[Fraction]:
    """Rational roots of a square-free p, by the rational root theorem on its
    primitive integer form c_0 + ... + c_n t^n: a root u/v in lowest terms
    has u | c_0 and v | c_n."""
    ints = _primitive_int(p)
    roots = []
    if ints[0] == 0:          # square-free, so 0 is a simple root
        roots.append(Fraction(0))
        ints = ints[1:]
    n = len(ints) - 1
    if n == 0:
        return roots
    for v in _divisors(ints[-1]):
        for u in _divisors(ints[0]):
            if math.gcd(u, v) != 1:
                continue
            for w in (u, -u):
                if sum(c * w ** i * v ** (n - i) for i, c in enumerate(ints)) == 0:
                    roots.append(Fraction(w, v))
    return roots


def _factor_poly(coeffs: List[Fraction]) -> List[Tuple[List[Fraction], int]]:
    """Coprime factorization of a rational polynomial into monic blocks with
    multiplicities: (block coeffs low->high, mult), prod block^mult = the
    monic input.

    Yun's square-free decomposition, then the rational roots of each
    square-free part; what is left of a part after its linear factors is
    one block.  Blocks are sorted as sympy's factor_list sorts its factors:
    by (degree, multiplicity, primitive integer coefficients high->low).  A
    root-free block of degree <= 3 is irreducible, so the output is the
    factorization into irreducibles unless a block has degree >= 4; such a
    block may still be reducible, but it is coprime to every other block,
    which is all a Fitting split (`_fitting_split`) needs."""
    f = _poly_norm([Fraction(c) for c in coeffs])
    if len(f) == 1:
        return []
    blocks = []
    for part, mult in _square_free_parts(_poly_monic(f)):
        for r in _rational_roots(part):
            blocks.append(([-r, Fraction(1)], mult))
            part = _poly_exact_div(part, [-r, Fraction(1)])
        if len(part) > 1:
            blocks.append((part, mult))
    blocks.sort(key=lambda b: (len(b[0]), b[1], _primitive_int(b[0])[::-1]))
    return blocks


@dataclass
class DecompositionResult:
    """Indecomposable factors with multiplicities plus the splitting iso."""

    rep: Representation
    parts: List[Representation]          # flat, discovery order
    inclusions: List[Morphism]           # parts[k] -> rep, injective
    splitting: Morphism                  # rep -> direct sum of parts
    factors: List[Tuple[Representation, int]]  # grouped up to isomorphism

    @property
    def summand_count(self) -> int:
        """#rep: isomorphism classes of indecomposable summands."""
        return len(self.factors)


def _splitting_candidates(end_basis: List[Morphism], rad: List[Morphism]) -> Iterator[Morphism]:
    """Endomorphisms to try for a splitting, in a fixed order and each built
    only when asked for: the basis elements outside rad End, the pairwise
    sums of basis elements, then SPLIT_RANDOM_CANDIDATES combinations with
    coefficients in [-3, 3] from a fixed random.Random(0)."""
    rad_keys = {phi.flat() for phi in rad}
    for phi in end_basis:
        if phi.flat() not in rad_keys:
            yield phi
    for i, phi in enumerate(end_basis):
        for psi in end_basis[i + 1:]:
            yield phi + psi
    rng = random.Random(0)
    for _ in range(SPLIT_RANDOM_CANDIDATES):
        acc = None
        for phi in end_basis:
            c = rng.randint(-3, 3)
            if c:
                term = phi.scale(c)
                acc = term if acc is None else acc + term
        if acc is not None:
            yield acc


def _fitting_split(end_basis: List[Morphism], rad: List[Morphism]) -> Optional[Tuple[SubRep, SubRep]]:
    """Two nonzero submodules of the module m whose End has the basis
    end_basis, with m their direct sum; None if no candidate splits m (then
    End/rad is likely a division algebra).

    For a candidate x, _factor_poly splits the minimal polynomial mu of x
    exactly over Q into pairwise coprime blocks; a candidate whose mu is one
    block is skipped.  With f the first block to its multiplicity and
    g = mu/f, f(x) g(x) = 0 and f, g are coprime, so m = ker f(x) + im f(x)
    with im f(x) = ker g(x) (Fitting's lemma for the endomorphism f(x)).
    Both are nonzero, since neither f(x) nor g(x) is 0 or invertible."""
    for x in _splitting_candidates(end_basis, rad):
        factors = _factor_poly(_min_poly(x))
        if len(factors) < 2:
            continue
        block, mult = factors[0]
        fx = _poly_of_endo(reduce(_poly_mul, [block] * mult), x)
        return kernel_subrep(fx), image_subrep(fx)
    return None


def _join(source: Representation, maps: Sequence[Morphism]) -> Morphism:
    """The morphism from the direct sum `source` of the maps' sources that
    is maps[k] on the k-th summand."""
    target = maps[0].target
    return Morphism(source, target, [
        Matrix.from_blocks([d], [f.source.dims[v] for f in maps],
                           {(0, k): f.maps[v] for k, f in enumerate(maps)})
        for v, d in enumerate(target.dims)], verify=False)


def decompose(m: Representation) -> DecompositionResult:
    """Split into certified indecomposables (Krull-Schmidt).

    End(m) is computed exactly; its radical comes from the trace form; a
    factor is accepted as indecomposable only when dim End/rad = 1, i.e. it is
    absolutely indecomposable.  A residue division algebra of dimension > 1
    raises NotCertifiableError instead of guessing.  Other modules are split
    into Fitting summands (`_fitting_split`) recursively, each part recorded
    with its inclusion into m; the joined inclusions are certified
    invertible once, and `splitting` is their inverse.
    """
    if m.is_zero():
        return DecompositionResult(m, [], [], identity_morphism(m), [])

    parts: List[Representation] = []
    inclusions: List[Morphism] = []

    def split(x: Representation, incl: Morphism) -> None:
        """Append the indecomposable parts of x with their inclusions into
        m, given the inclusion incl: x -> m."""
        basis = hom_basis(x, x)
        rad = end_radical(x)
        if len(basis) - len(rad) == 1:
            parts.append(x)
            inclusions.append(incl)
            return
        halves = _fitting_split(basis, rad)
        if halves is None:
            raise NotCertifiableError(
                "non-split endomorphism ring: residue division algebra of dim > 1 over Q"
            )
        for half in halves:
            y, incl_y = half.to_rep()
            split(y, incl @ incl_y)

    split(m, identity_morphism(m))
    joined = _join(direct_sum(m.algebra, parts).total, inclusions)
    if not joined.is_iso():
        raise NotCertifiableError("internal: the parts' inclusions do not join to an isomorphism")
    splitting = Morphism(m, joined.source, joined.inverse().maps, verify=True)

    factors: List[Tuple[Representation, int]] = []
    for p in parts:
        for i, (q, mult) in enumerate(factors):
            if _indec_iso(p, q) is not None:
                factors[i] = (q, mult + 1)
                break
        else:
            factors.append((p, 1))
    return DecompositionResult(m, parts, inclusions, splitting, factors)


def _indec_iso(p: Representation, q: Representation) -> Optional[Morphism]:
    """Isomorphism p -> q, or None, for p with local End (a certified
    indecomposable); q may be any module.

    Deterministic certificate: p = q iff some composite psi . phi avoids
    rad End(p); such a phi is itself invertible because End(p) is local.
    """
    if p.dims != q.dims:
        return None
    if p == q:
        return identity_morphism(p)
    fwd = hom_basis(p, q)
    bwd = hom_basis(q, p)
    if not fwd or not bwd:
        return None
    rad = end_radical(p)
    rad_space = Subspace.from_rows(
        len(identity_morphism(p).flat()), [list(r.flat()) for r in rad]
    ) if rad else None
    for phi in fwd:
        for psi in bwd:
            comp = psi @ phi
            if comp.is_zero():
                continue
            if rad_space is None or not rad_space.contains_vector(list(comp.flat())):
                if phi.is_iso():
                    return phi
                # local End: comp invertible, so phi is a split mono between
                # equal dimension vectors, hence invertible; assert exactly
                raise NotCertifiableError("internal: certified iso is not invertible")
    # p = q would give id = sum a_i b_j psi_j phi_i outside rad End(p), so some
    # basis composite would have been found above
    return None


def iso_test(m: Representation, n: Representation) -> Optional[Morphism]:
    """An explicit isomorphism m = n, or None.

    When End(m) is local (dim End - dim rad End = 1) the two modules are
    compared directly by `_indec_iso`: a map it finds is checked by `is_iso`,
    and its negative answer is exact because id is not in rad End(m).
    Otherwise both modules are decomposed and their parts matched by
    `_indec_iso`; the map is `dm.splitting` followed by each match and the
    inclusion of the matched part of n, checked by `is_iso`.
    """
    if m.algebra is not n.algebra:
        raise ContractViolation("different algebras")
    if m.dims != n.dims:
        return None
    if m == n:
        return identity_morphism(m)
    if m.is_zero():
        return identity_morphism(m)
    if hom_dim(m, n) != hom_dim(n, m) or hom_dim(m, m) != hom_dim(n, n):
        return None
    if hom_dim(m, n) == 0:
        return None
    if hom_dim(m, m) - len(end_radical(m)) == 1:
        phi = _indec_iso(m, n)
        return None if phi is None else Morphism(m, n, phi.maps, verify=True)

    dm = decompose(m)
    dn = decompose(n)
    if sorted(p.dims for p in dm.parts) != sorted(p.dims for p in dn.parts):
        return None
    used = [False] * len(dn.parts)
    legs: List[Morphism] = []
    for p in dm.parts:
        for j, q in enumerate(dn.parts):
            phi = None if used[j] else _indec_iso(p, q)
            if phi is not None:
                used[j] = True
                legs.append(dn.inclusions[j] @ phi)
                break
        else:
            return None
    iso = _join(dm.splitting.target, legs) @ dm.splitting
    if not iso.is_iso():
        # every summand matched, so the assembled map must be invertible
        raise ContractViolation("internal: assembled isomorphism is not invertible")
    return Morphism(m, n, iso.maps, verify=True)


def is_isomorphic(m: Representation, n: Representation) -> bool:
    return iso_test(m, n) is not None


# -- transport along vertex quotients ------------------------------------------


def restrict_to_quotient(vq: VertexQuotient, m: Representation) -> Representation:
    """View a representation vanishing on the killed vertices as one over A/<e>."""
    for v in vq.killed:
        if m.dims[v - 1] != 0:
            raise ContractViolation(f"module does not vanish at killed vertex {v}")
    dims = [m.dims[old - 1] for old in vq.kept]
    maps = {}
    for arrow in vq.algebra.quiver.arrows:
        maps[arrow.name] = m.arrow_maps[arrow.name]
    return Representation(vq.algebra, dims, maps)


def extend_from_quotient(vq: VertexQuotient, m: Representation, parent: Algebra) -> Representation:
    dims = [0] * parent.vertex_count
    for old, new in vq.old_to_new.items():
        dims[old - 1] = m.dims[new - 1]
    maps = {}
    for arrow in parent.quiver.arrows:
        if arrow.source in vq.killed or arrow.target in vq.killed:
            continue
        maps[arrow.name] = m.arrow_maps[arrow.name]
    return Representation(parent, dims, maps)


# -- JSON serialization -----------------------------------------------------------


def rep_to_json(m: Representation) -> dict:
    return {
        "algebra": m.algebra.content_hash(),
        "dims": list(m.dims),
        "arrows": {
            name: [[str(mat[r, c]) for c in range(mat.cols)] for r in range(mat.rows)]
            for name, mat in sorted(m.arrow_maps.items())
        },
    }


def rep_from_json(algebra: Algebra, data: dict) -> Representation:
    if data.get("algebra") not in (None, algebra.content_hash()):
        raise ContractViolation("representation JSON belongs to a different algebra")
    dims = data["dims"]
    maps = {}
    for name, rows in data.get("arrows", {}).items():
        flat = [Fraction(x) for row in rows for x in row]
        arrow = algebra.quiver.arrows[algebra.quiver.arrow_index(name)]
        maps[name] = Matrix(dims[arrow.target - 1], dims[arrow.source - 1], flat)
    return Representation(algebra, dims, maps)

"""Exact linear algebra over arbitrary-precision rationals.

Scalars are ``fractions.Fraction`` (always in lowest terms, positive
denominator) at the boundary, so every rank, kernel and solve below is exact;
no epsilon appears anywhere in this module.  The public ``Matrix(...)`` and
``Matrix.from_rows`` coerce their entries and check the shape; results built
inside this module (and the 0/1 matrices of ``rep.direct_sum``) go through the
trusted ``Matrix._of``, which does neither.

Row reduction runs on an integer-row core: each row is cleared to a primitive
integer vector with integer operations only, and updated by
cross-multiplication (in the spirit of Bareiss's integer-preserving
elimination), so coefficient growth stays controlled even when path-algebra
structure constants compound.  ``rref_rank`` clears above and below every
pivot and turns the pivot rows into Fractions once, at the end; input that
an exact check finds already reduced (most subspace bases are) skips the
core and comes back as it is.  Rank, containment and complement queries only
need a forward pass (``_insert``): no back substitution, and no Fraction is
built.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import ContractViolation

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(value) -> Fraction:
    """Coerce ints, strings like '2/3' and Fractions to a Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


class Matrix:
    """Immutable dense matrix of Fractions, row-major.

    0 x n and n x 0 matrices are legal and represent zero maps.
    """

    __slots__ = ("rows", "cols", "entries", "_hash")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        self.rows = rows
        self.cols = cols
        ent = tuple(frac(x) for x in entries)
        if len(ent) != rows * cols:
            raise ContractViolation(
                f"matrix {rows}x{cols} needs {rows * cols} entries, got {len(ent)}"
            )
        self.entries = ent
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, rows: int, cols: int, entries: tuple) -> "Matrix":
        """Trusted constructor: ``entries`` must already be a tuple of
        rows * cols Fractions.  Nothing is coerced or checked."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        m._hash = None
        return m

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: Optional[int] = None) -> "Matrix":
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ContractViolation("ragged rows")
        else:
            width = 0 if cols is None else cols
        flat = [x for r in rows for x in r]
        return Matrix(len(rows), width, flat)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._of(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix._of(rows, cols, (ZERO,) * (rows * cols))

    # -- access ------------------------------------------------------------

    def __getitem__(self, idx) -> Fraction:
        i, j = idx
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    # -- structure ---------------------------------------------------------

    def transpose(self) -> "Matrix":
        ent, cols = self.entries, self.cols
        return Matrix._of(self.cols, self.rows, tuple(x for j in range(cols) for x in ent[j::cols]))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ContractViolation("hstack: row mismatch")
        out = []
        for i in range(self.rows):
            out.extend(self.row(i))
            out.extend(other.row(i))
        return Matrix._of(self.rows, self.cols + other.cols, tuple(out))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ContractViolation("vstack: col mismatch")
        return Matrix._of(self.rows + other.rows, self.cols, self.entries + other.entries)

    @staticmethod
    def from_blocks(heights: Sequence[int], widths: Sequence[int],
                    blocks: Dict[Tuple[int, int], "Matrix"]) -> "Matrix":
        """The matrix with blocks[(b, k)] in row block b (of height
        heights[b]) and column block k (of width widths[k]), zero elsewhere."""
        r0, c0 = list(accumulate(heights, initial=0)), list(accumulate(widths, initial=0))
        rows, cols = r0[-1], c0[-1]
        out = [ZERO] * (rows * cols)
        for (b, k), mat in blocks.items():
            for i in range(mat.rows):
                base = (r0[b] + i) * cols + c0[k]
                out[base : base + mat.cols] = mat.row(i)
        return Matrix._of(rows, cols, tuple(out))

    @staticmethod
    def block_diag(blocks: Sequence["Matrix"]) -> "Matrix":
        return Matrix.from_blocks([b.rows for b in blocks], [b.cols for b in blocks],
                                  {(k, k): b for k, b in enumerate(blocks)})

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ContractViolation(
                f"matmul shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        n, m = self.rows, other.cols
        # the nonzero entries of each row of the right factor, with their columns
        orows = [[(j, y) for j, y in enumerate(other.row(t)) if y] for t in range(other.rows)]
        out = []
        for i in range(n):
            acc = [ZERO] * m
            for a, orow in zip(self.row(i), orows):
                if a:
                    for j, y in orow:
                        acc[j] += a * y
            out.extend(acc)
        return Matrix._of(n, m, tuple(out))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ContractViolation("add: shape mismatch")
        return Matrix._of(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ContractViolation("sub: shape mismatch")
        return Matrix._of(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix._of(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix._of(self.rows, self.cols, tuple(c * a for a in self.entries))

    def apply(self, vec: Sequence[Fraction]) -> tuple:
        """Matrix times column vector, returned as a tuple."""
        if len(vec) != self.cols:
            raise ContractViolation("apply: length mismatch")
        return tuple(
            sum((a * v for a, v in zip(self.row(i), vec) if a), ZERO) for i in range(self.rows)
        )

    # -- equality -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self.entries))
        return self._hash

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.to_lists()})"

    def rank(self) -> int:
        return len(_echelon(self))


# -- fraction-free row reduction --------------------------------------------


def _primitive(row: list) -> list:
    """Divide an integer row by the gcd of its entries (sign-normalised)."""
    g = 0
    for x in row:
        if x:
            g = gcd(g, abs(x))
            if g == 1:
                break
    if g > 1:
        row = [x // g for x in row]
    for x in row:
        if x:
            if x < 0:
                row = [-y for y in row]
            break
    return row


def _int_row(row: Sequence[Fraction]) -> list:
    """Clear the denominators of one row of Fractions with integer operations,
    returning a primitive integer row."""
    den = lcm(*(x.denominator for x in row if x.denominator != 1))
    if den == 1:
        return _primitive([x.numerator for x in row])
    return _primitive([x.numerator * (den // x.denominator) for x in row])


def _int_rows(m: Matrix) -> list:
    """Primitive integer rows of m, one per row of m."""
    if m.cols == 0:
        return [[] for _ in range(m.rows)]
    ent, cols = m.entries, m.cols
    return [_int_row(ent[i : i + cols]) for i in range(0, len(ent), cols)]


def _rref_int(rows: list, cols: int) -> tuple:
    """In-place fraction-free Gauss-Jordan on integer rows.

    Returns (rows, pivot column list); pivot rows are scaled to primitive
    integer vectors, fully reduced above and below.
    """
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(cols):
        sel = None
        for i in range(r, nrows):
            if rows[i][c]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        piv = rows[r]
        p = piv[c]
        for i in range(nrows):
            if i == r:
                continue
            a = rows[i][c]
            if a:
                rows[i] = _primitive([p * x - a * y for x, y in zip(rows[i], piv)])
        pivots.append(c)
        r += 1
    return rows, pivots


def _rref_pivots(m: Matrix) -> Optional[list]:
    """The pivot columns of m when m is already in reduced row echelon form,
    else None: zero rows last, leading entries equal to one in strictly
    increasing columns, and every other entry of a pivot column zero."""
    ent, cols = m.entries, m.cols
    pivots = []
    if cols == 0:
        return pivots
    for i in range(0, len(ent), cols):
        lead = next((c for c in range(cols) if ent[i + c]), None)
        if lead is None:
            return pivots if not any(ent[i:]) else None
        if ent[i + lead] != 1 or (pivots and lead <= pivots[-1]):
            return None
        # rows below have later leading entries, so only rows above can
        # meet this pivot column
        if any(ent[j + lead] for j in range(0, i, cols)):
            return None
        pivots.append(lead)
    return pivots


def rref_rank(m: Matrix) -> tuple:
    """Reduced row echelon form with pivot list and rank.

    The returned matrix has the same shape as the input, pivot entries equal
    to one, and is the canonical representative of the row-equivalence class
    (rref of rref = rref).  Input that is already reduced is returned as it
    is; everything else goes through the integer core.
    """
    pivots = _rref_pivots(m)
    if pivots is not None:
        return m, pivots, len(pivots)
    rows, pivots = _rref_int(_int_rows(m), m.cols)
    out = []
    for r, c in enumerate(pivots):
        p = rows[r][c]
        out.extend(Fraction(x, p) if x else ZERO for x in rows[r])
    out.extend([ZERO] * ((m.rows - len(pivots)) * m.cols))
    return Matrix._of(m.rows, m.cols, tuple(out)), pivots, len(pivots)


def _insert(echelon: list, row: list) -> bool:
    """Forward-only elimination step for rank queries: reduce the integer
    ``row`` against the (pivot column, row) pairs of ``echelon`` and keep it
    when something is left, i.e. when it is independent of them.

    A kept row vanishes at the pivot columns kept before it, so its first
    nonzero entry is a new pivot column.  There is no back substitution and
    no Fraction.
    """
    for c, piv in echelon:
        a = row[c]
        if a:
            p = piv[c]
            row = _primitive([p * x - a * y for x, y in zip(row, piv)])
    for c, x in enumerate(row):
        if x:
            echelon.append((c, row))
            return True
    return False


def _echelon(m: Matrix) -> list:
    """The forward-reduced (pivot column, integer row) pairs of m's rows."""
    echelon = []
    for row in _int_rows(m):
        _insert(echelon, row)
    return echelon


def kernel_basis(a: Matrix) -> "Subspace":
    """Basis of the right null space {v : a v = 0} as a Subspace.

    dim kernel = cols - rank(a).
    """
    red, pivots, _ = rref_rank(a)
    return _kernel_of_rref(red, pivots, a.cols)


def _kernel_of_rref(red: Matrix, pivots: list, cols: int) -> "Subspace":
    """The kernel of the first ``cols`` columns of a matrix in rref.

    Those columns are the rref of the left block on their own: a pivot in a
    later column has a zero row there.
    """
    left = [p for p in pivots if p < cols]
    pivot_set = set(left)
    out = []
    for f in range(cols):
        if f in pivot_set:
            continue
        vec = [ZERO] * cols
        vec[f] = ONE
        for r, p in enumerate(left):
            vec[p] = -red[r, f]
        out.extend(vec)
    return Subspace.from_matrix(Matrix._of(cols - len(left), cols, tuple(out)))


def solve_linear(a: Matrix, b: Matrix) -> tuple:
    """Solve a x = b exactly.

    Returns (x, kernel) where x is one particular solution (or None when the
    system is inconsistent) and kernel spans all homogeneous solutions.
    """
    if a.rows != b.rows:
        raise ContractViolation("solve_linear: a.rows must equal b.rows")
    red, pivots, _ = rref_rank(a.hstack(b))
    kernel = _kernel_of_rref(red, pivots, a.cols)
    if any(p >= a.cols for p in pivots):
        return None, kernel
    x = [ZERO] * (a.cols * b.cols)
    for r, p in enumerate(pivots):
        x[p * b.cols : (p + 1) * b.cols] = red.row(r)[a.cols :]
    return Matrix._of(a.cols, b.cols, tuple(x)), kernel


class Subspace:
    """Subspace of Q^n, canonically represented by an rref basis matrix.

    Rows of ``basis`` are linearly independent vectors in reduced row echelon
    form, so equality of subspaces is plain data comparison.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Matrix):
        self.ambient_dim = ambient_dim
        self.basis = basis

    @staticmethod
    def from_rows(ambient_dim: int, rows: Sequence[Sequence]) -> "Subspace":
        return Subspace.from_matrix(Matrix.from_rows(rows, cols=ambient_dim))

    @staticmethod
    def from_matrix(m: Matrix) -> "Subspace":
        red, _, rank = rref_rank(m)
        return Subspace(m.cols, Matrix._of(rank, m.cols, red.entries[: rank * m.cols]))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.zeros(0, ambient_dim))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def contains_vector(self, vec: Sequence) -> bool:
        vec = [frac(x) for x in vec]
        if len(vec) != self.ambient_dim:
            raise ContractViolation("ambient mismatch")
        return not _insert(_echelon(self.basis), _int_row(vec))

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ContractViolation("ambient mismatch")
        echelon = _echelon(self.basis)
        return not any(_insert(echelon, row) for row in _int_rows(other.basis))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    if u.ambient_dim != v.ambient_dim:
        raise ContractViolation("ambient mismatch")
    return Subspace.from_matrix(u.basis.vstack(v.basis))


def subspace_intersection(u: Subspace, v: Subspace) -> Subspace:
    """Zassenhaus: rref [[U U],[V 0]]; rows with zero left half span U n V."""
    if u.ambient_dim != v.ambient_dim:
        raise ContractViolation("ambient mismatch")
    n = u.ambient_dim
    top = u.basis.hstack(u.basis)
    bottom = v.basis.hstack(Matrix.zeros(v.basis.rows, n))
    red, pivots, rank = rref_rank(top.vstack(bottom))
    rows = []
    for r in range(rank):
        row = red.row(r)
        if all(x == 0 for x in row[:n]):
            rows.append(row[n:])
    return Subspace.from_rows(n, rows)


def subspace_complement(u: Subspace, v: Optional[Subspace] = None) -> Subspace:
    """Rows extending u's basis to a basis of v (default: the full space).

    Requires u <= v; the result w satisfies u + w = v and u n w = 0.
    """
    if v is None:
        v = Subspace.full(u.ambient_dim)
    if u.ambient_dim != v.ambient_dim:
        raise ContractViolation("ambient mismatch")
    if not v.contains(u):
        raise ContractViolation("complement requires u <= v")
    echelon = _echelon(u.basis)
    picked = [v.basis.row(i) for i, row in enumerate(_int_rows(v.basis)) if _insert(echelon, row)]
    return Subspace.from_rows(u.ambient_dim, picked)

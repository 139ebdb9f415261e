"""Exact rational dense linear algebra.

Matrices, reduced row echelon form, kernels, linear solves, fraction-free
determinants, determinant pencils and the subspace calculus used by the rest
of the package. Every scalar at the API is a ``fractions.Fraction`` (ints are
accepted as input); no floating point is used anywhere.

All elimination runs on primitive integer rows: a rational row is scaled by
the lcm of its denominators and divided by the gcd of its entries, and a
pivot row clears an entry by ``v <- b*v - a*row`` followed by another gcd
division (fraction-free, after Bareiss 1968). Results are converted back to
Fractions only at the boundary, so ``rref``, ``kernel``, ``solve`` and
``Subspace`` still return the unique reduced row-echelon form over Q.

All values are immutable after construction and every function is pure, so
everything here is safe to share between threads.
"""

from __future__ import annotations

import re
from bisect import bisect
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Q = Fraction
_ZERO = Q(0)

_Q_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def as_q(x) -> Q:
    """Coerce an int or Fraction to Fraction; reject floats."""
    if isinstance(x, Q):
        return x
    if isinstance(x, int):
        return Q(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def qstr(x: Q) -> str:
    """Render a rational as 'p' or 'p/q'."""
    x = as_q(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_q(text: str) -> Q:
    """Parse 'p' or 'p/q' (no decimals accepted)."""
    text = text.strip()
    if not _Q_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Q(text)


class Matrix:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("entries", "_cols")

    def __init__(self, rows: Iterable[Iterable], cols: Optional[int] = None):
        entries = tuple(tuple(x if type(x) is Q else as_q(x) for x in row)
                        for row in rows)
        if entries:
            widths = {len(r) for r in entries}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            width = widths.pop()
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_cols", cols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return self._cols

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[_ZERO] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        one = Q(1)
        return cls([[one if i == j else _ZERO for j in range(n)]
                    for i in range(n)], n)

    @classmethod
    def from_vector(cls, vec: Sequence, rows: int, cols: int) -> "Matrix":
        vec = list(vec)
        if len(vec) != rows * cols:
            raise ValueError("vector length does not match shape")
        return cls([vec[i * cols:(i + 1) * cols] for i in range(rows)], cols)

    def to_vector(self) -> tuple:
        """Row-major flattening."""
        return tuple(x for row in self.entries for x in row)

    def __getitem__(self, i: int) -> tuple:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self._cols == other._cols
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self._cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(qstr(x) for x in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def transpose(self) -> "Matrix":
        return Matrix([[self.entries[i][j] for i in range(self.rows)]
                       for j in range(self.cols)], self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return Matrix([[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)], self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = as_q(c)
        return Matrix([[c * x for x in row] for row in self.entries], self.cols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            # row i of the product is the sum of a * (row k of other) over
            # the nonzero a = self[i][k]; zero factors are skipped
            terms = [[(j, b) for j, b in enumerate(row) if b]
                     for row in other.entries]
            out = []
            for row in self.entries:
                acc = [_ZERO] * other.cols
                for a, row_terms in zip(row, terms):
                    if a:
                        for j, b in row_terms:
                            acc[j] += a * b
                out.append(acc)
            return Matrix(out, other.cols)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix times column vector."""
        vec = [as_q(x) for x in vec]
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.entries)

    def trace(self) -> Q:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), Q(0))

    def commutator(self, other: "Matrix") -> "Matrix":
        return self * other - other * self

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(self.entries[i][j] == self.entries[j][i]
                   for i in range(self.rows) for j in range(i + 1, self.cols))

    def is_nilpotent(self) -> bool:
        """True iff some power (at most the size) vanishes."""
        if self.rows != self.cols:
            raise ValueError("nilpotency of non-square matrix")
        p = self
        for _ in range(self.rows):
            if p.is_zero():
                return True
            p = p * self
        return p.is_zero()


def _primitive(vec: Sequence) -> list:
    """The primitive integer row on the line of a rational row: scaled by the
    lcm of the denominators, divided by the gcd of the entries (sign kept;
    a zero row stays zero)."""
    try:
        den = lcm(*(x.denominator for x in vec))
    except AttributeError:
        for x in vec:
            as_q(x)
        raise
    row = [x.numerator * (den // x.denominator) for x in vec]
    g = gcd(*row)
    if g > 1:
        row = [x // g for x in row]
    return row


def _eliminate(v: list, row: list, p: int) -> list:
    """Clear v[p] with the integer row ``row`` (row[p] > 0):
    v <- b*v - a*row with a/b = v[p]/row[p] in lowest terms, then divided by
    the gcd of its entries. The new row is a positive multiple of the
    rational residual, so leading signs are kept."""
    a, b = v[p], row[p]
    g = gcd(a, b)
    if g > 1:
        a //= g
        b //= g
    w = [b * x - a * y for x, y in zip(v, row)]
    g = gcd(*w)
    if g > 1:
        w = [x // g for x in w]
    return w


def _rref_rows(rows: Iterable[Sequence], cols: int) -> tuple:
    """Gauss-Jordan elimination on primitive integer rows.

    Returns (the nonzero rows of the reduced row-echelon form over Q, as
    Fraction lists, and their pivot columns); each integer pivot row is
    divided by its pivot only here, at the end.
    """
    work = [_primitive(r) for r in rows]
    pivots = []
    r = 0
    for c in range(cols):
        if r == len(work):
            break
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        if prow[c] < 0:
            prow = work[r] = [-x for x in prow]
        for i, other in enumerate(work):
            if i != r and other[c]:
                work[i] = _eliminate(other, prow, c)
        pivots.append(c)
        r += 1
    out = [[Q(x, row[c]) if x else _ZERO for x in row]
           for row, c in zip(work, pivots)]
    return out, pivots


def rref(m: Matrix) -> Matrix:
    """Unique reduced row-echelon form (pivots 1, zeros above and below)."""
    rows, _ = _rref_rows(m.entries, m.cols)
    rows.extend([0] * m.cols for _ in range(m.rows - len(rows)))
    return Matrix(rows, m.cols)


def rank(m: Matrix) -> int:
    _, pivots = _rref_rows(m.entries, m.cols)
    return len(pivots)


def kernel(m: Matrix) -> "Subspace":
    """Right null space {v : Mv = 0} as a canonical Subspace."""
    return _kernel(m.entries, m.cols)


def _kernel(rows: Iterable[Sequence], cols: int) -> "Subspace":
    """kernel() of the matrix with these rows, given as int or Fraction
    sequences."""
    rows, pivots = _rref_rows(rows, cols)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * cols
        v[f] = 1
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(v)
    return Subspace.span(cols, basis)


def solve(m: Matrix, b: Sequence) -> Optional[tuple]:
    """One solution of Mx = b, or None when the system is inconsistent.

    The general solution is the returned x plus kernel(m).
    """
    b = [as_q(x) for x in b]
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    rows = [list(r) + [x] for r, x in zip(m.entries, b)]
    rows, pivots = _rref_rows(rows, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [Q(0)] * m.cols
    for r, p in enumerate(pivots):
        x[p] = rows[r][m.cols]
    return tuple(x)


def det(m: Matrix) -> Q:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return Q(1)
    # each row is scale_i times its primitive integer row
    scale = Q(1)
    a = []
    for row in m.entries:
        ints = _primitive(row)
        lead = next((j for j, x in enumerate(ints) if x), None)
        if lead is None:
            return Q(0)
        scale *= row[lead] / ints[lead]
        a.append(ints)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return Q(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1] * scale


class RowSpace:
    """Mutable echelon accumulator for incremental span building.

    Internal helper. Vectors may hold ints or Fractions; each accepted one is
    stored as its forward-reduced primitive integer row with a positive
    pivot, in ascending pivot order. Use Subspace for canonical, immutable
    spans.
    """

    def __init__(self, width: int):
        self.width = width
        self._pivots = []
        self._rows = []

    def _residual(self, vec: Sequence) -> list:
        if len(vec) != self.width:
            raise ValueError("vector width mismatch")
        v = _primitive(vec)
        for p, row in zip(self._pivots, self._rows):
            if v[p]:
                v = _eliminate(v, row, p)
        return v

    def add(self, vec: Sequence) -> bool:
        """Add a vector; True iff it increased the dimension."""
        v = self._residual(vec)
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            return False
        if v[lead] < 0:
            v = [-x for x in v]
        k = bisect(self._pivots, lead)
        self._pivots.insert(k, lead)
        self._rows.insert(k, v)
        return True

    def contains(self, vec: Sequence) -> bool:
        return not any(self._residual(vec))

    @property
    def dim(self) -> int:
        return len(self._rows)

    def subspace(self) -> "Subspace":
        if len(self._rows) == self.width:
            return Subspace.full(self.width)
        return Subspace.span(self.width, self._rows)


class Subspace:
    """Subspace of Q^n, canonically represented by its RREF basis.

    Two subspaces are equal iff their canonical matrices coincide entrywise,
    so equality, hashing and set membership are all purely syntactic.
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, basis: Matrix):
        if basis.cols != ambient:
            raise ValueError("basis width does not match ambient dimension")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, ambient: int, vectors: Iterable[Sequence]) -> "Subspace":
        vectors = list(vectors)
        if any(len(v) != ambient for v in vectors):
            raise ValueError("vector width does not match ambient dimension")
        rows, _ = _rref_rows(vectors, ambient)
        return cls(ambient, Matrix(rows, ambient))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, Matrix([], ambient))

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, Matrix.identity(ambient))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient

    def vectors(self) -> tuple:
        return self.basis.entries

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash((self.ambient, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient})"

    def contains_vector(self, vec: Sequence) -> bool:
        rs = RowSpace(self.ambient)
        for row in self.basis.entries:
            rs.add(row)
        return rs.contains(vec)

    def contains(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        rs = RowSpace(self.ambient)
        for row in self.basis.entries:
            rs.add(row)
        return all(rs.contains(v) for v in other.basis.entries)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        return Subspace.span(self.ambient,
                             list(self.basis.entries) + list(other.basis.entries))

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient)
        # kernel method: coefficient pairs (a, b) with a.U = b.V
        cols = []
        for v in self.basis.entries:
            cols.append(list(v))
        for v in other.basis.entries:
            cols.append([-x for x in v])
        m = Matrix(cols, self.ambient).transpose()
        ker = kernel(m)
        k = self.dim
        vecs = []
        for coeff in ker.basis.entries:
            vec = [Q(0)] * self.ambient
            for i in range(k):
                if coeff[i] != 0:
                    for j, x in enumerate(self.basis.entries[i]):
                        vec[j] += coeff[i] * x
            vecs.append(vec)
        return Subspace.span(self.ambient, vecs)

    def annihilator(self) -> "Subspace":
        """Vectors orthogonal to this space under the standard dot product."""
        if self.is_zero():
            return Subspace.full(self.ambient)
        return kernel(self.basis)


def greedy_extension(sub: Subspace, candidates: Iterable[Sequence]) -> list:
    """Positions of the candidates that enlarge the span of sub together with
    the candidates chosen before them, scanning in order."""
    rs = RowSpace(sub.ambient)
    for row in sub.basis.entries:
        rs.add(row)
    chosen = []
    for j, v in enumerate(candidates):
        if rs.dim == sub.ambient:
            break
        if rs.add(v):
            chosen.append(j)
    return chosen


def greedy_complement(sub: Subspace) -> tuple:
    """Indices of the lexicographically first standard vectors completing sub."""
    n = sub.ambient
    units = ([Q(1) if i == j else Q(0) for i in range(n)] for j in range(n))
    return tuple(greedy_extension(sub, units))


class Poly:
    """Multivariate polynomial over the rationals (exponent-vector dict)."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        object.__setattr__(self, "nvars", nvars)
        clean = {}
        for expo, coeff in (terms or {}).items():
            coeff = as_q(coeff)
            if coeff != 0:
                clean[tuple(expo)] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {tuple([0] * nvars): as_q(c)})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Poly":
        expo = [0] * nvars
        expo[i] = 1
        return cls(nvars, {tuple(expo): Q(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Q(0)) + c
        return Poly(self.nvars, terms)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Q(0)) + c1 * c2
        return Poly(self.nvars, terms)

    def scale(self, c) -> "Poly":
        c = as_q(c)
        return Poly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def evaluate(self, point: Sequence) -> Q:
        point = [as_q(x) for x in point]
        total = Q(0)
        for expo, coeff in self.terms.items():
            val = coeff
            for x, e in zip(point, expo):
                val *= x ** e
            total += val
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, reverse=True):
            coeff = self.terms[expo]
            factors = [f"t{i + 1}" + (f"^{e}" if e > 1 else "")
                       for i, e in enumerate(expo) if e > 0]
            body = "*".join(factors)
            if not body:
                parts.append(qstr(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{qstr(coeff)}*{body}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


class PencilTooLarge(ValueError):
    """Raised when a symbolic pencil determinant exceeds the supported size."""


DET_PENCIL_MAX_SIZE = 12
DET_PENCIL_MAX_PARAMS = 12


def det_pencil(mats: Sequence[Matrix]) -> Poly:
    """det(t1*B1 + ... + tm*Bm) as an exact polynomial in m variables.

    Symbolic expansion (subset dynamic programming over column sets) is only
    attempted up to 12x12 with at most 12 parameters; beyond that raise
    PencilTooLarge and let callers fall back to sampling.
    """
    if not mats:
        raise ValueError("empty pencil")
    m = len(mats)
    n = mats[0].rows
    for b in mats:
        if b.rows != n or b.cols != n:
            raise ValueError("pencil matrices must be square and equally sized")
    if n > DET_PENCIL_MAX_SIZE or m > DET_PENCIL_MAX_PARAMS:
        raise PencilTooLarge(f"{n}x{n} pencil with {m} parameters")
    if n == 0:
        return Poly.const(m, 1)
    zero = Poly(m, {})

    def entry(i: int, j: int) -> Poly:
        terms = {}
        for r in range(m):
            c = mats[r].entries[i][j]
            if c != 0:
                expo = [0] * m
                expo[r] = 1
                terms[tuple(expo)] = c
        return Poly(m, terms)

    dp = {0: Poly.const(m, 1)}
    for i in range(n):
        ndp = {}
        for mask, p in dp.items():
            pos = 0
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    pos += 1
                    continue
                e = entry(i, j)
                if e.is_zero():
                    continue
                term = p * e
                if (pos + i) % 2:
                    term = -term
                key = mask | bit
                ndp[key] = ndp.get(key, zero) + term
        dp = ndp
        if not dp:
            return zero
    return dp.get((1 << n) - 1, zero)


def eval_pencil_det(mats: Sequence[Matrix], point: Sequence) -> Q:
    """det(sum_i point_i * B_i) evaluated exactly at one coefficient point."""
    m = len(mats)
    point = [as_q(x) for x in point]
    if len(point) != m:
        raise ValueError("point length mismatch")
    n = mats[0].rows
    acc = [[Q(0)] * n for _ in range(n)]
    for t, b in zip(point, mats):
        if t == 0:
            continue
        for i in range(n):
            row = b.entries[i]
            arow = acc[i]
            for j in range(n):
                if row[j] != 0:
                    arow[j] += t * row[j]
    return det(Matrix(acc, n))

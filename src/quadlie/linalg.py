"""Exact rational linear algebra.

Matrices, reduced row echelon form, kernels, linear solves, fraction-free
determinants, determinant pencils and the subspace calculus used by the rest
of the package. Every scalar at the API is a ``fractions.Fraction`` (ints are
accepted as input); no floating point is used anywhere.

All elimination runs on one sparse row format, the engine row
``{column: int}``: the nonzero entries of a rational row scaled to coprime
integers, with a positive lead (the entry in the smallest column); ``_row``
makes one. One echelon step, ``_insert``, reduces a row at its leading
column against a ``lead -> row`` map, each step ``v <- b*v - a*row`` then a
gcd division (fraction-free, after Bareiss 1968, on sparse rows as in
LaMacchia and Odlyzko 1990), and stores what is left under its lead.
``RowSpace`` keeps such a map; ``_rref_rows`` fills one and back-substitutes.
Rows are divided by their pivots only at the boundary, so ``rref``,
``kernel``, ``solve`` and ``Subspace`` still return the unique reduced
row-echelon form over Q. A ``Subspace`` keeps the engine rows of its basis,
so loading it back into the engine costs no conversion. ``det`` runs
Bareiss on dense integer rows.

All values are immutable after construction and every function is pure, so
everything here is safe to share between threads.
"""

from __future__ import annotations

import re
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


def _row(terms: Iterable[tuple]) -> dict:
    """The engine row on the line of a rational row given by its (column,
    value) pairs: the nonzero values as coprime integers with a positive
    lead, {column: int}. Pass ``enumerate(vec)`` for a dense vector."""
    row = {k: x for k, x in terms if x}
    if not row:
        return row
    ints = _primitive(list(row.values()))
    if row[min(row)] < 0:
        ints = [-x for x in ints]
    return dict(zip(row, ints))


def _combine(v: dict, row: dict, c: int) -> dict:
    """Clear v[c] with the engine row ``row`` (row[c] > 0):
    v <- b*v - a*row with a/b = v[c]/row[c] in lowest terms, then divided by
    the gcd of its entries. The new row is a positive multiple of the
    rational residual, so signs are kept."""
    a, b = v[c], row[c]
    g = gcd(a, b)
    if g > 1:
        a //= g
        b //= g
    w = {k: b * x for k, x in v.items()}
    for k, y in row.items():
        x = w.get(k, 0) - a * y
        if x:
            w[k] = x
        else:
            del w[k]
    g = gcd(*w.values())
    if g > 1:
        w = {k: x // g for k, x in w.items()}
    return w


def _reduce(row: dict, piv: dict) -> dict:
    """What is left of an engine row after reducing it at its leading column
    by the rows of the lead -> row map ``piv`` until its lead is no pivot;
    empty exactly when the row lies in their span."""
    while row:
        c = min(row)
        prow = piv.get(c)
        if prow is None:
            break
        row = _combine(row, prow, c)
    return row


def _insert(piv: dict, row: dict) -> bool:
    """The echelon step: reduce an engine row by ``piv`` and store what is
    left under its lead, with a positive lead; False when nothing is left."""
    row = _reduce(row, piv)
    if not row:
        return False
    lead = min(row)
    piv[lead] = row if row[lead] > 0 else {k: -x for k, x in row.items()}
    return True


def _rref_rows(rows: Iterable[dict]) -> dict:
    """Gauss-Jordan elimination on engine rows.

    Returns the lead -> row map of the reduced row-echelon form over Q, each
    row a primitive integer multiple of the Q-RREF row (zero in every other
    pivot column). Rows are inserted by ``_insert``; the back-substitution
    then clears the other pivot columns, largest lead first, so each row is
    cleared only by rows that are already reduced.
    """
    piv = {}
    for row in rows:
        _insert(piv, row)
    for lead in sorted(piv, reverse=True):
        row = piv[lead]
        for c in [k for k in row if k != lead and k in piv]:
            row = _combine(row, piv[c], c)
        piv[lead] = row
    return piv


def _subspace(ambient: int, rows: Iterable[dict]) -> "Subspace":
    """The span of engine rows, as its canonical Subspace: the reduced rows
    are divided by their pivots only here, and the Subspace keeps them as
    its engine rows."""
    piv = _rref_rows(rows)
    leads = sorted(piv)
    basis = []
    for p in leads:
        row = piv[p]
        vec = [_ZERO] * ambient
        for k, x in row.items():
            vec[k] = Q(x, row[p])
        basis.append(vec)
    sub = Subspace(ambient, Matrix(basis, ambient))
    object.__setattr__(sub, "_rows", tuple(piv[p] for p in leads))
    return sub


def _dense_rows(m: Matrix):
    return (_row(enumerate(r)) for r in m.entries)


def rref(m: Matrix) -> Matrix:
    """Unique reduced row-echelon form (pivots 1, zeros above and below)."""
    rows = list(_subspace(m.cols, _dense_rows(m)).vectors())
    rows.extend([_ZERO] * m.cols for _ in range(m.rows - len(rows)))
    return Matrix(rows, m.cols)


def rank(m: Matrix) -> int:
    return len(_rref_rows(_dense_rows(m)))


def kernel(m: Matrix) -> "Subspace":
    """Right null space {v : Mv = 0} as a canonical Subspace."""
    return _kernel(_dense_rows(m), m.cols)


def _kernel(rows: Iterable[dict], cols: int) -> "Subspace":
    """kernel() of the matrix with these engine rows. The vector of a free
    column f is e_f - sum_p (row_p[f] / row_p[p]) e_p over the reduced rows."""
    piv = _rref_rows(rows)
    basis = {f: {f: 1} for f in range(cols) if f not in piv}
    for p, row in piv.items():
        for f, x in row.items():
            if f != p:
                basis[f][p] = Q(-x, row[p])
    return _subspace(cols, (_row(v.items()) for v in basis.values()))


def solve(m: Matrix, b: Sequence) -> Optional[tuple]:
    """One solution of Mx = b, or None when the system is inconsistent.

    The general solution is the returned x plus kernel(m).
    """
    b = [as_q(x) for x in b]
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    piv = _rref_rows(_row(enumerate(list(r) + [x]))
                     for r, x in zip(m.entries, b))
    if m.cols in piv:
        return None
    x = [_ZERO] * m.cols
    for p, row in piv.items():
        x[p] = Q(row.get(m.cols, 0), row[p])
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

    Internal helper. Vectors may hold ints or Fractions; each is turned into
    an engine row and reduced by ``_insert``, and an accepted one is kept in
    the lead -> row map under its leading column. Use Subspace for
    canonical, immutable spans.
    """

    def __init__(self, width: int):
        self.width = width
        self._piv = {}

    @classmethod
    def of(cls, sub: "Subspace") -> "RowSpace":
        """An accumulator holding sub, loaded from its engine rows with no
        elimination: the rows of a reduced row-echelon basis already have
        distinct leads. The rows are shared, which is safe because no
        elimination step changes a stored row in place."""
        rs = cls(sub.ambient)
        rs._piv = {min(row): row for row in sub.engine_rows()}
        return rs

    def _as_row(self, vec: Sequence) -> dict:
        if len(vec) != self.width:
            raise ValueError("vector width mismatch")
        return _row(enumerate(vec))

    def add(self, vec: Sequence) -> bool:
        """Add a vector; True iff it increased the dimension."""
        return _insert(self._piv, self._as_row(vec))

    def contains(self, vec: Sequence) -> bool:
        # the residual is a dict: test it for emptiness, not with any(),
        # which would read its keys and miss column 0
        return not _reduce(self._as_row(vec), self._piv)

    def contains_space(self, sub: "Subspace") -> bool:
        """True iff every vector of sub lies in this span."""
        if sub.ambient != self.width:
            raise ValueError("ambient dimension mismatch")
        return all(not _reduce(row, self._piv) for row in sub.engine_rows())

    @property
    def dim(self) -> int:
        return len(self._piv)

    def subspace(self) -> "Subspace":
        if len(self._piv) == self.width:
            return Subspace.full(self.width)
        return _subspace(self.width, self._piv.values())


class Subspace:
    """Subspace of Q^n, canonically represented by its RREF basis.

    Two subspaces are equal iff their canonical matrices coincide entrywise,
    so equality, hashing and set membership are all purely syntactic.
    """

    __slots__ = ("ambient", "basis", "_rows")

    def __init__(self, ambient: int, basis: Matrix):
        if basis.cols != ambient:
            raise ValueError("basis width does not match ambient dimension")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_rows", None)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, ambient: int, vectors: Iterable[Sequence]) -> "Subspace":
        vectors = list(vectors)
        if any(len(v) != ambient for v in vectors):
            raise ValueError("vector width does not match ambient dimension")
        return _subspace(ambient, (_row(enumerate(v)) for v in vectors))

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

    def engine_rows(self) -> tuple:
        """The basis vectors as engine rows, in basis order: each scaled to
        coprime integers with a positive lead, as ``{column: int}``. A
        Subspace made by elimination keeps the rows it came from; any other
        computes them once. The rows are shared: never change one in place.
        """
        if self._rows is None:
            object.__setattr__(self, "_rows", tuple(
                _row(enumerate(v)) for v in self.basis.entries))
        return self._rows

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash((self.ambient, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient})"

    def contains_vector(self, vec: Sequence) -> bool:
        return RowSpace.of(self).contains(vec)

    def contains(self, other: "Subspace") -> bool:
        return RowSpace.of(self).contains_space(other)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        return _subspace(self.ambient,
                         self.engine_rows() + other.engine_rows())

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
        return _kernel(self.engine_rows(), self.ambient)


def greedy_extension(sub: Subspace, candidates: Iterable[Sequence]) -> list:
    """Positions of the candidates that enlarge the span of sub together with
    the candidates chosen before them, scanning in order."""
    rs = RowSpace.of(sub)
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
# det_pencil packs an exponent vector into one int, 4 bits per variable: a
# term of a determinant of size n <= 12 has total degree n < 16
_EXP_BITS = 4


def det_pencil(mats: Sequence[Matrix]) -> Poly:
    """det(t1*B1 + ... + tm*Bm) as an exact polynomial in m variables.

    Integer expansion: every B_r is scaled by the lcm d of the denominators
    of all their entries, a subset dynamic program over column sets (row i
    picks a free column j, with the sign of the columns it passes) expands
    det(d*(t1*B1 + ... + tm*Bm)) on integer polynomials, and the
    coefficients are divided by d^n once at the end. Only attempted up to
    12x12 with at most 12 parameters; beyond that raise PencilTooLarge and
    let callers fall back to sampling.
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
    d = lcm(*(x.denominator for b in mats for row in b.entries for x in row))
    # entries[i][j]: the (packed t_r, integer coefficient) pairs of the
    # nonzero terms of entry (i, j) of d*(t1*B1 + ... + tm*Bm)
    entries = [[[(1 << (_EXP_BITS * r), x.numerator * (d // x.denominator))
                 for r, b in enumerate(mats) if (x := b.entries[i][j])]
                for j in range(n)] for i in range(n)]
    dp = {0: {0: 1}}
    for i, row in enumerate(entries):
        ndp = {}
        for mask, poly in dp.items():
            pos = 0
            for j, entry in enumerate(row):
                bit = 1 << j
                if mask & bit:
                    pos += 1
                    continue
                if not entry:
                    continue
                sign = -1 if (pos + i) % 2 else 1
                acc = ndp.setdefault(mask | bit, {})
                for unit, a in entry:
                    a *= sign
                    for expo, c in poly.items():
                        acc[expo + unit] = acc.get(expo + unit, 0) + a * c
        dp = {}
        for mask, poly in ndp.items():
            poly = {e: c for e, c in poly.items() if c}
            if poly:
                dp[mask] = poly
        if not dp:
            return Poly(m, {})
    field = (1 << _EXP_BITS) - 1
    scale = d ** n
    return Poly(m, {tuple((e >> (_EXP_BITS * r)) & field for r in range(m)):
                    Q(c, scale) for e, c in dp[(1 << n) - 1].items()})


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

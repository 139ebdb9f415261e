"""Lie algebras as structure-constant tables.

A LieAlgebra stores the nonzero brackets [e_i, e_j] for i < j; antisymmetry
is built into the representation and the Jacobi identity is checked by
``validate``. On top of the bracket sit the characteristic subspaces
(centre, derived and central series, radical, nilradical, Jacobson radical)
and the structural predicates used throughout the package.

Every linear system over the bracket table, here and in the solvers, is
built from the integer table of ``LieAlgebra._int_table`` (the structure
constants over one common denominator) as the sparse engine rows
``{column: int}`` that ``sparse_kernel`` and ``linalg._kernel`` take: most
through the columns of ``_bracket_columns``, the upper central series and
the Jacobi check in one walk over the table's nonzero entries. The
nilradical's associative envelope multiplies sparse integer matrices and
eliminates them as the same rows.

Values are immutable once built; lazily computed reports are cached on the
instance, and recomputing them concurrently is harmless because every
computation is deterministic and side-effect free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .linalg import (Matrix, Q, RowSpace, Subspace, _insert, _kernel,
                     _primitive, _row, as_q, det, greedy_complement, kernel,
                     solve)

BracketTable = Dict[Tuple[int, int], Dict[int, Fraction]]


@dataclass(frozen=True)
class TypePair:
    """(dim of the derived algebra, dim of the centre)."""
    r: int
    s: int


@dataclass(frozen=True)
class SeriesReport:
    """Derived, lower central and upper central series, each to stabilization.

    ``derived[t]`` is the (t+1)-st derived term starting at the algebra,
    ``lower_central[t]`` likewise starts at the algebra, and
    ``upper_central[t]`` starts at the zero subspace (so index t holds the
    t-th upper-central term).
    """
    derived: Tuple[Subspace, ...]
    lower_central: Tuple[Subspace, ...]
    upper_central: Tuple[Subspace, ...]


def _normalize_table(dim: int, table) -> BracketTable:
    clean: BracketTable = {}
    for (i, j), comp in table.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"bracket index out of range: ({i}, {j})")
        if i == j:
            if any(as_q(c) != 0 for c in comp.values()):
                raise ValueError(f"nonzero self-bracket at index {i}")
            continue
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        if (i, j) in clean:
            raise ValueError(f"duplicate bracket for pair ({i}, {j})")
        entry = {}
        for k, c in comp.items():
            if not 0 <= k < dim:
                raise ValueError(f"bracket target out of range: {k}")
            c = as_q(c) * sign
            if c != 0:
                entry[k] = c
        if entry:
            clean[(i, j)] = entry
    return clean


class LieAlgebra:
    """Finite-dimensional Lie algebra over the rationals."""

    __slots__ = ("labels", "table", "levi_hint", "provenance", "_cache")

    def __init__(self, labels: Sequence[str], table,
                 levi_hint: Optional[Subspace] = None,
                 provenance: Optional[str] = None):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be distinct")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "table", _normalize_table(len(labels), table))
        if levi_hint is not None and levi_hint.ambient != len(labels):
            raise ValueError("levi_hint ambient dimension mismatch")
        object.__setattr__(self, "levi_hint", levi_hint)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        tag = f", {self.provenance}" if self.provenance else ""
        return f"LieAlgebra(dim {self.dim}{tag})"

    def with_metadata(self, levi_hint=None, provenance=None) -> "LieAlgebra":
        return LieAlgebra(self.labels, self.table,
                          levi_hint if levi_hint is not None else self.levi_hint,
                          provenance if provenance is not None else self.provenance)

    def bracket_basis(self, i: int, j: int) -> Dict[int, Q]:
        """[e_i, e_j] as a sparse {index: coefficient} map."""
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        return {k: -c for k, c in self.table.get((j, i), {}).items()}

    def bracket(self, x: Sequence, y: Sequence) -> tuple:
        """[x, y] for coordinate vectors x, y."""
        x = [as_q(v) for v in x]
        y = [as_q(v) for v in y]
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length mismatch")
        out = [Q(0)] * self.dim
        for (i, j), comp in self.table.items():
            f = x[i] * y[j] - x[j] * y[i]
            if f != 0:
                for k, c in comp.items():
                    out[k] += f * c
        return tuple(out)

    def ad_basis(self, i: int) -> Matrix:
        """Matrix of ad(e_i) acting on column coordinate vectors."""
        cache = self._cache.setdefault("ad", {})
        if i not in cache:
            n = self.dim
            rows = [[Q(0)] * n for _ in range(n)]
            for j in range(n):
                for k, c in self.bracket_basis(i, j).items():
                    rows[k][j] = c
            cache[i] = Matrix(rows, n)
        return cache[i]

    def ad(self, x: Sequence) -> Matrix:
        """Matrix of ad(x) = [x, -]."""
        x = [as_q(v) for v in x]
        if len(x) != self.dim:
            raise ValueError("vector length mismatch")
        n = self.dim
        rows = [[Q(0)] * n for _ in range(n)]
        for (i, j), comp in self.table.items():
            if x[i] != 0:
                for k, c in comp.items():
                    rows[k][j] += x[i] * c
            if x[j] != 0:
                for k, c in comp.items():
                    rows[k][i] -= x[j] * c
        return Matrix(rows, n)

    def _int_table(self) -> tuple:
        """The bracket table scaled once per algebra to integer constants
        over a common denominator: (i, j, ((k, c), ...)) for each nonzero
        [e_i, e_j], i < j."""
        if "int_table" not in self._cache:
            den = lcm(*(c.denominator for comp in self.table.values()
                        for c in comp.values()))
            self._cache["int_table"] = tuple(
                (i, j, tuple((k, c.numerator * (den // c.denominator))
                             for k, c in comp.items()))
                for (i, j), comp in self.table.items())
        return self._cache["int_table"]

    def _bracket_columns(self, x: Sequence) -> list:
        """The n brackets [x, e_i] as integer vectors, all scaled by one
        common positive factor, in a single walk of the integer table.

        x is scaled to its primitive integer row. Vector i is column i of
        ad(x): every linear system over the table reads it here.
        """
        x = _primitive(x)
        cols = [[0] * self.dim for _ in range(self.dim)]
        for i, j, comp in self._int_table():
            if x[i]:
                xi, col = x[i], cols[j]
                for k, c in comp:
                    col[k] += xi * c
            if x[j]:
                xj, col = x[j], cols[i]
                for k, c in comp:
                    col[k] -= xj * c
        return cols

    def basis_vector(self, i: int) -> tuple:
        return tuple(Q(1) if j == i else Q(0) for j in range(self.dim))

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim)

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.dim)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> list:
        """Diagnostics for the Lie axioms; an empty list means valid.

        Antisymmetry is structural in the pair table, so the diagnostics
        are the basis triples (i, j, k), i < j < k, violating the Jacobi
        identity, in sorted order.

        Only a triple with a nonzero bracket among its pairs can fail, so the
        Jacobi sums are accumulated from the nonzero products of the integer
        table: for [e_a, e_b] = sum_m c_m e_m (a < b) and every nonzero
        [e_m, e_c] with c outside {a, b}, the term [[e_a, e_b], e_c] adds
        into the triple {a, b, c}, negated when a < c < b (then (a, b, c) is
        an odd permutation of the sorted triple).
        """
        table = self._int_table()
        # nbrs[m] lists (c, [e_m, e_c]) over the nonzero brackets of e_m
        nbrs = {}
        for i, j, comp in table:
            nbrs.setdefault(i, []).append((j, comp))
            nbrs.setdefault(j, []).append((i, tuple((k, -c) for k, c in comp)))
        acc = {}
        for a, b, comp in table:
            for m, x in comp:
                for c, bracket in nbrs.get(m, ()):
                    if c == a or c == b:
                        continue
                    if a < c < b:
                        key, s = (a, c, b), -x
                    else:
                        key, s = tuple(sorted((a, b, c))), x
                    out = acc.setdefault(key, {})
                    for p, y in bracket:
                        out[p] = out.get(p, 0) + s * y
        return [("jacobi",) + key for key in sorted(acc)
                if any(acc[key].values())]

    # ------------------------------------------------------------------
    # subspace operations
    # ------------------------------------------------------------------

    def product_subspace(self, u: Subspace, v: Subspace) -> Subspace:
        """[U, V], each [a, b] = sum_i b_i [a, e_i] with a on the smaller side."""
        if u.ambient != self.dim or v.ambient != self.dim:
            raise ValueError("ambient dimension mismatch")
        if u.dim > v.dim:
            u, v = v, u
        others = [list(row.items()) for row in v.engine_rows()]
        vecs = []
        for a in u.vectors():
            cols = self._bracket_columns(a)
            for b in others:
                w = [0] * self.dim
                for i, x in b:
                    w = [p + x * q for p, q in zip(w, cols[i])]
                if any(w):
                    vecs.append(w)
        return Subspace.span(self.dim, vecs)

    def derived_subalgebra(self) -> Subspace:
        if "derived1" not in self._cache:
            full = self.full_space()
            self._cache["derived1"] = self.product_subspace(full, full)
        return self._cache["derived1"]

    def center(self) -> Subspace:
        if "center" not in self._cache:
            self._cache["center"] = self.centralizer(self.full_space())
        return self._cache["center"]

    def centralizer(self, u: Subspace) -> Subspace:
        """{x : [x, U] = 0}, the kernel of the stacked ad(v), v in U."""
        if u.ambient != self.dim:
            raise ValueError("ambient dimension mismatch")
        return _kernel((_row(enumerate(row)) for v in u.vectors()
                        for row in zip(*self._bracket_columns(v))), self.dim)

    def series(self) -> SeriesReport:
        if "series" not in self._cache:
            full = self.full_space()
            derived = [full]
            while True:
                nxt = self.product_subspace(derived[-1], derived[-1])
                if nxt == derived[-1]:
                    break
                derived.append(nxt)
                if nxt.is_zero():
                    break
            lower = [full]
            while True:
                nxt = self.product_subspace(full, lower[-1])
                if nxt == lower[-1]:
                    break
                lower.append(nxt)
                if nxt.is_zero():
                    break
            upper = [self.zero_space()]
            while True:
                nxt = self._upper_step(upper[-1])
                if nxt == upper[-1]:
                    break
                upper.append(nxt)
                if nxt.is_full():
                    break
            self._cache["series"] = SeriesReport(tuple(derived), tuple(lower),
                                                 tuple(upper))
        return self._cache["series"]

    def _upper_step(self, z: Subspace) -> Subspace:
        """{x : [x, g] in z}, the kernel of the rows phi([e_i, x]) = 0, one
        for each i and each phi among the engine rows of ann(z).

        Row (i, phi) has phi([e_i, e_j]) in column j, so one walk over the
        nonzero entries of the integer table fills every row: the entry
        [e_i, e_j] (i < j) puts phi([e_i, e_j]) into row (i, phi), column j,
        and its negative into row (j, phi), column i.
        """
        ann = z.annihilator().engine_rows()
        rows = {}
        for i, j, comp in self._int_table():
            for t, phi in enumerate(ann):
                s = sum(phi.get(k, 0) * c for k, c in comp)
                if s:
                    rows.setdefault((i, t), {})[j] = s
                    rows.setdefault((j, t), {})[i] = -s
        return _kernel((_row(r.items()) for r in rows.values()), self.dim)

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------

    def is_abelian(self) -> bool:
        return not self.table

    def is_solvable(self) -> bool:
        return self.series().derived[-1].is_zero()

    def is_nilpotent(self) -> bool:
        return self.series().lower_central[-1].is_zero()

    def is_perfect(self) -> bool:
        return self.derived_subalgebra().is_full()

    # ------------------------------------------------------------------
    # trace form and radicals
    # ------------------------------------------------------------------

    def killing_gram(self) -> Matrix:
        """Gram matrix K(e_i, e_j) = trace(ad e_i * ad e_j), summed over the
        nonzero products of the bracket table only."""
        if "killing" not in self._cache:
            # at[(p, q)] lists (i, (ad e_i)[p][q]) over the nonzero entries
            at = {}
            for (i, j), comp in self.table.items():
                for k, c in comp.items():
                    at.setdefault((k, j), []).append((i, c))
                    at.setdefault((k, i), []).append((j, -c))
            n = self.dim
            rows = [[Q(0)] * n for _ in range(n)]
            for (p, q), left in at.items():
                for j, d in at.get((q, p), ()):
                    for i, c in left:
                        rows[i][j] += c * d
            self._cache["killing"] = Matrix(rows, n)
        return self._cache["killing"]

    def killing_form(self):
        """The Killing form wrapped as a BilinearForm."""
        from .forms import BilinearForm
        return BilinearForm(self, self.killing_gram())

    def radical(self) -> Subspace:
        """Solvable radical: Killing-orthogonal of the derived algebra."""
        if "radical" not in self._cache:
            d = self.derived_subalgebra()
            if d.is_zero():
                self._cache["radical"] = self.full_space()
            else:
                m = d.basis * self.killing_gram()
                self._cache["radical"] = kernel(m)
        return self._cache["radical"]

    def nilradical(self) -> Subspace:
        """Largest nilpotent ideal, via the trace form on the associative
        envelope of ad(radical)."""
        if "nilradical" in self._cache:
            return self._cache["nilradical"]
        rad = self.radical()
        if rad.is_zero():
            self._cache["nilradical"] = rad
            return rad
        n = self.dim
        # generator r is D ad(p_r), p_r the primitive integer row of radical
        # vector r and D the table's denominator, as {row: {column: int}};
        # envelope members are engine rows over the row-major n*n entries
        prims = [_primitive(v) for v in rad.vectors()]
        gens = [{k: {j: c for j, c in enumerate(row) if c}
                 for k, row in enumerate(zip(*self._bracket_columns(p)))}
                for p in prims]

        def times(b: dict, g: dict) -> dict:
            out = {}
            for key, x in b.items():
                p, q = divmod(key, n)
                for r, y in g[q].items():
                    out[p * n + r] = out.get(p * n + r, 0) + x * y
            return _row(out.items())

        piv = {}
        flat = (_row((k * n + j, c) for k, row in g.items()
                     for j, c in row.items()) for g in gens)
        envelope = [b for b in flat if _insert(piv, b)]
        for b in envelope:  # grows while it is walked: a breadth-first closure
            for g in gens:
                bg = times(b, g)
                if _insert(piv, bg):
                    envelope.append(bg)
                if len(envelope) > n * n:
                    raise RuntimeError("envelope closure exceeded dimension bound")
        # x = sum t_r p_r is in the nilradical iff trace(ad(x) b) = 0 for
        # every b in the envelope
        rows = [_row((r, sum(x * g[key % n].get(key // n, 0)
                             for key, x in b.items()))
                     for r, g in enumerate(gens))
                for b in envelope]
        vecs = []
        for coeff in _kernel(rows, rad.dim).vectors():
            vec = [Q(0)] * n
            for c, p in zip(coeff, prims):
                if c:
                    for idx, x in enumerate(p):
                        vec[idx] += c * x
            vecs.append(vec)
        result = Subspace.span(n, vecs)
        self._cache["nilradical"] = result
        return result

    def nilradical_powers(self) -> tuple:
        """Powers nil^2, nil^3, ... of the nilradical, nil^(k+1) = [nil, nil^k],
        up to the first zero or repeated term; empty when nil is zero."""
        if "nil_powers" not in self._cache:
            nil = self.nilradical()
            powers = []
            power = nil
            while not power.is_zero():
                nxt = self.product_subspace(nil, power)
                if nxt == power:
                    break
                power = nxt
                powers.append(power)
            self._cache["nil_powers"] = tuple(powers)
        return self._cache["nil_powers"]

    def jacobson_radical(self) -> Subspace:
        """[g, radical]; equals the intersection of all maximal ideals."""
        if "jacobson" not in self._cache:
            self._cache["jacobson"] = self.product_subspace(self.full_space(),
                                                            self.radical())
        return self._cache["jacobson"]

    def is_semisimple(self) -> bool:
        return det(self.killing_gram()) != 0

    def centroid(self) -> list:
        """Basis of {M : M ad(x) = ad(x) M for all x}."""
        n = self.dim
        rows = []
        for t in range(n):
            # cols[q][m] is the (m, q) entry of ad(e_t), scaled to an integer
            cols = self._bracket_columns(self.basis_vector(t))
            for p in range(n):
                for q in range(n):
                    row = {}
                    for m in range(n):
                        if cols[q][m]:
                            row[p * n + m] = row.get(p * n + m, 0) + cols[q][m]
                        if cols[m][p]:
                            row[m * n + q] = row.get(m * n + q, 0) - cols[m][p]
                    rows.append(row)
        ker = sparse_kernel(rows, n * n)
        return [Matrix.from_vector(v, n, n) for v in ker.vectors()]

    def is_simple(self) -> bool:
        """Semisimple with one-dimensional centroid.

        Over the rationals a simple algebra whose centroid is a proper field
        extension would be misjudged; every algebra built here is central.
        """
        return self.dim > 0 and self.is_semisimple() and len(self.centroid()) == 1

    # ------------------------------------------------------------------
    # ideals, quotients, sums
    # ------------------------------------------------------------------

    def is_ideal(self, u: Subspace) -> bool:
        """True iff [g, U] lies in U; stops at the first bracket outside."""
        if u.ambient != self.dim:
            raise ValueError("ambient dimension mismatch")
        rs = RowSpace.of(u)
        return all(rs.contains(col) for v in u.vectors()
                   for col in self._bracket_columns(v) if any(col))

    def ideal_closure(self, s: Subspace) -> Subspace:
        """Smallest ideal containing s (fixed point of U -> U + [g, U]).

        Worklist form: only vectors that enlarged the span are bracketed
        against the basis again, which reaches the same fixed point.
        """
        rs = RowSpace(self.dim)
        work = [v for v in s.vectors() if rs.add(v)]
        while work and rs.dim < self.dim:
            for col in self._bracket_columns(work.pop()):
                if any(col) and rs.add(col):
                    work.append(col)
        return rs.subspace()

    def quotient(self, ideal: Subspace, check: bool = True) -> "LieAlgebra":
        """Quotient by an ideal, on the lexicographically first complement of
        standard basis vectors."""
        if check and not self.is_ideal(ideal):
            raise ValueError("quotient by a subspace that is not an ideal")
        comp = greedy_complement(ideal)
        m = len(comp)
        n = self.dim
        # columns: complement unit vectors then ideal basis rows
        cols = []
        for j in comp:
            e = [Q(0)] * n
            e[j] = Q(1)
            cols.append(e)
        cols.extend(list(v) for v in ideal.vectors())
        tmat = Matrix(cols, n).transpose()

        def project(vec):
            x = solve(tmat, vec)
            return x[:m]

        table = {}
        for a in range(m):
            for b in range(a + 1, m):
                w = self.bracket(self.basis_vector(comp[a]),
                                 self.basis_vector(comp[b]))
                coeffs = project(w)
                entry = {k: c for k, c in enumerate(coeffs) if c != 0}
                if entry:
                    table[(a, b)] = entry
        labels = tuple(self.labels[j] for j in comp)
        return LieAlgebra(labels, table, provenance="quotient")

    def subalgebra(self, u: Subspace, labels: Optional[Sequence[str]] = None
                   ) -> "LieAlgebra":
        """Restrict the bracket to a subspace closed under it."""
        if labels is None:
            labels = tuple(f"u{i + 1}" for i in range(u.dim))
        return span_algebra(u.vectors(), self.dim, self.bracket, labels,
                            "subalgebra")

    def type_pair(self) -> TypePair:
        return TypePair(self.derived_subalgebra().dim, self.center().dim)


def sparse_kernel(rows: Iterable[dict], width: int) -> Subspace:
    """Kernel of a sparse constraint system of {column: value} rows. Each
    row becomes its engine row (primitive, positive lead), scalar multiples
    are taken once, and the engine eliminates the sparse rows as they are."""
    unique = {}
    for row in rows:
        row = _row(row.items())
        unique.setdefault(frozenset(row.items()), row)
    return _kernel(unique.values(), width)


def span_algebra(vectors: Sequence[Sequence], width: int, bracket,
                 labels: Sequence[str], provenance: str) -> LieAlgebra:
    """Abstract algebra on linearly independent vectors of Q^width whose span
    is closed under ``bracket``; raises ValueError when it is not."""
    k = len(vectors)
    tmat = Matrix([list(v) for v in vectors], width).transpose()
    table = {}
    for a in range(k):
        for b in range(a + 1, k):
            coeffs = solve(tmat, bracket(vectors[a], vectors[b]))
            if coeffs is None:
                raise ValueError("span is not closed under the bracket")
            entry = {t: c for t, c in enumerate(coeffs) if c != 0}
            if entry:
                table[(a, b)] = entry
    return LieAlgebra(labels, table, provenance=provenance)


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """Direct sum of Lie algebras (blockwise brackets)."""
    if set(a.labels) & set(b.labels):
        labels = tuple(f"{lbl}_1" for lbl in a.labels) + \
            tuple(f"{lbl}_2" for lbl in b.labels)
    else:
        labels = a.labels + b.labels
    table = {}
    for (i, j), comp in a.table.items():
        table[(i, j)] = dict(comp)
    off = a.dim
    for (i, j), comp in b.table.items():
        table[(i + off, j + off)] = {k + off: c for k, c in comp.items()}
    return LieAlgebra(labels, table, provenance="direct_sum")

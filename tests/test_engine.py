"""The integer-row elimination engine against a plain Fraction reference.

The reference below is textbook Gauss-Jordan elimination over Fraction rows.
It lives only here: the library eliminates on primitive integer rows, and
every result it returns at the API must equal the reference entry for entry.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import quadlie as ql
from quadlie.lie import span_algebra
from quadlie.linalg import (Matrix, Q, RowSpace, Subspace, det, kernel, rank,
                            rref, solve)

ENGINE = settings(max_examples=100, deadline=None, derandomize=True,
                  database=None)


# ----------------------------------------------------------------------
# Fraction reference
# ----------------------------------------------------------------------

def ref_rref(rows, cols):
    """(all rows in reduced row-echelon form, pivot columns) over Fraction."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def ref_span_basis(vectors, cols):
    rows, pivots = ref_rref(vectors, cols)
    return [tuple(row) for row in rows[:len(pivots)]]


def ref_kernel_vectors(rows, cols):
    red, pivots = ref_rref(rows, cols)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return ref_span_basis(basis, cols)


def ref_solve(rows, cols, b):
    red, pivots = ref_rref([list(r) + [x] for r, x in zip(rows, b)], cols + 1)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, p in enumerate(pivots):
        x[p] = red[r][cols]
    return tuple(x)


def ref_det(rows):
    """Determinant by Gaussian elimination over Fraction."""
    rows = [[Fraction(x) for x in row] for row in rows]
    n = len(rows)
    value = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            value = -value
        value *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return value


def ref_closure(algebra, vectors):
    """Smallest ideal containing the vectors, by brute-force iteration of
    U -> U + [e_i, U] until the span stops growing."""
    n = algebra.dim
    basis = ref_span_basis(vectors, n)
    while True:
        brackets = [algebra.bracket(algebra.basis_vector(i), u)
                    for i in range(n) for u in basis]
        grown = ref_span_basis(basis + brackets, n)
        if len(grown) == len(basis):
            return basis
        basis = grown


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-4, 4).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)


@st.composite
def matrices(draw, max_rows=7, max_cols=7):
    """Rational matrices with mixed denominators, some rows and columns
    forced to zero and, now and then, a row repeated as a multiple."""
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    for i in draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=2)):
        if i < nrows:
            rows[i] = [Fraction(0)] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[j] = Fraction(0)
    if nrows >= 2 and draw(st.booleans()):
        c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
        rows[-1] = [c * x for x in rows[0]]
    return rows, ncols


# ----------------------------------------------------------------------
# linalg against the reference
# ----------------------------------------------------------------------

class TestEliminationMatchesReference:
    @ENGINE
    @given(matrices())
    def test_rref_and_rank(self, case):
        rows, cols = case
        m = Matrix(rows, cols)
        red, pivots = ref_rref(rows, cols)
        assert rref(m) == Matrix(red, cols)
        assert rank(m) == len(pivots)

    @ENGINE
    @given(matrices())
    def test_kernel(self, case):
        rows, cols = case
        got = kernel(Matrix(rows, cols))
        assert got.vectors() == tuple(ref_kernel_vectors(rows, cols))

    @ENGINE
    @given(matrices(), st.data())
    def test_solve(self, case, data):
        rows, cols = case
        b = [data.draw(entries) for _ in rows]
        got = solve(Matrix(rows, cols), b)
        assert got == ref_solve(rows, cols, b)
        if got is not None:
            assert Matrix(rows, cols).apply(got) == tuple(b)

    @ENGINE
    @given(matrices())
    def test_span(self, case):
        rows, cols = case
        got = Subspace.span(cols, rows)
        assert got.vectors() == tuple(ref_span_basis(rows, cols))

    @ENGINE
    @given(matrices())
    def test_span_of_integer_rows(self, case):
        rows, cols = case
        ints = [[int(x * 60) for x in row] for row in rows]
        assert (Subspace.span(cols, ints).vectors()
                == tuple(ref_span_basis(ints, cols)))

    @ENGINE
    @given(matrices(max_rows=6, max_cols=6))
    def test_det(self, case):
        rows, cols = case
        rows = (rows + [[Fraction(1)] * cols] * cols)[:cols]
        assert det(Matrix(rows, cols)) == ref_det(rows)


class TestRowSpaceMatchesReference:
    @ENGINE
    @given(matrices(max_rows=9), matrices(max_rows=4))
    def test_add_subspace_contains(self, case, probes):
        rows, cols = case
        rs = RowSpace(cols)
        seen = []
        for row in rows:
            before = len(ref_span_basis(seen, cols)) if seen else 0
            seen.append(row)
            grew = len(ref_span_basis(seen, cols)) > before
            assert rs.add(row) is grew
        assert rs.dim == (len(ref_span_basis(seen, cols)) if seen else 0)
        assert rs.subspace().vectors() == tuple(ref_span_basis(seen, cols))
        probe_rows, _ = probes
        for v in probe_rows:
            v = (list(v) + [Fraction(0)] * cols)[:cols]
            inside = (len(ref_span_basis(seen + [v], cols))
                      == len(ref_span_basis(seen, cols)))
            assert rs.contains(v) is inside
        for v in seen:
            assert rs.contains(v)


# ----------------------------------------------------------------------
# ideal closure against brute force, on non-integer structure constants
# ----------------------------------------------------------------------

def _rebased(quad, shift):
    """The algebra on the basis f_i = e_i + c_i e_{i+1} (f_last = e_last), a
    unitriangular rational change of basis, so that its structure constants
    have denominators."""
    L = quad.algebra
    n = L.dim
    vectors = []
    for i in range(n):
        v = [Q(0)] * n
        v[i] = Q(1)
        if i + 1 < n:
            v[i + 1] = Fraction(shift + i, 3 + i % 4)
        vectors.append(v)
    return span_algebra(vectors, n, L.bracket, L.labels, "rebased")


CLOSURE_ALGEBRAS = [
    ql.generalized_oscillator([Fraction(3, 2), Fraction(-5, 3)]).algebra,
    ql.generalized_oscillator([Fraction(7, 4), Fraction(1, 6),
                               Fraction(-2, 5)]).algebra,
    _rebased(ql.generalized_oscillator([Fraction(2, 3)]), 1),
    _rebased(ql.tstar_extension(ql.heisenberg(1)), 2),
    _rebased(ql.sl2_killing_quadratic(), 1),
]


def test_closure_algebras_have_non_integer_constants():
    for L in CLOSURE_ALGEBRAS:
        assert any(c.denominator > 1
                   for comp in L.table.values() for c in comp.values())


class TestIdealClosureMatchesBruteForce:
    @ENGINE
    @given(st.sampled_from(range(len(CLOSURE_ALGEBRAS))), st.data())
    def test_closure(self, which, data):
        L = CLOSURE_ALGEBRAS[which]
        count = data.draw(st.integers(1, 2))
        vectors = [[data.draw(entries) for _ in range(L.dim)]
                   for _ in range(count)]
        got = L.ideal_closure(Subspace.span(L.dim, vectors))
        assert got.vectors() == tuple(ref_closure(L, vectors))
        assert L.is_ideal(got)

    def test_product_with_full_space_matches_brackets(self):
        for L in CLOSURE_ALGEBRAS:
            full = L.full_space()
            brackets = [L.bracket(L.basis_vector(i), L.basis_vector(j))
                        for i in range(L.dim) for j in range(L.dim)]
            expected = tuple(ref_span_basis(brackets, L.dim))
            assert L.product_subspace(full, full).vectors() == expected
            assert L.derived_subalgebra().vectors() == expected

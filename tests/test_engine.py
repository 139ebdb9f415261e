"""The integer-row elimination engine against a plain Fraction reference.

The reference below is textbook Gauss-Jordan elimination over Fraction rows.
It lives only here: the library eliminates on primitive integer rows, and
every result it returns at the API must equal the reference entry for entry.
The same holds for the linear systems that the library reads off the integer
bracket table (subspace products, centralizers, upper central series steps,
derivations, centroid, invariant forms): each is rebuilt here from the
Fraction ``bracket``. The Jacobi check is compared with the dense triple
scan it replaced.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import quadlie as ql
from quadlie.derivations import derivations, skew_derivations
from quadlie.forms import (BilinearForm, QuadraticAlgebra, invariant_forms,
                           orthogonal_complement)
from quadlie.lie import span_algebra, sparse_kernel
from quadlie.linalg import (Matrix, Q, RowSpace, Subspace, _row, det, kernel,
                            rank, rref, solve)

ENGINE = settings(max_examples=100, deadline=None, derandomize=True,
                  database=None)
# for tests whose examples are wide or rebuild algebra-sized systems
BRACKETS = settings(max_examples=30, deadline=None, derandomize=True,
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


nonzero = st.builds(lambda p, q, sign: Fraction(sign * p, q),
                    st.integers(1, 9), st.integers(1, 12),
                    st.sampled_from([1, -1]))


@st.composite
def sparse_blocks(draw):
    """Small blocks whose rows hold one or two nonzero entries."""
    ncols = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = [Fraction(0)] * ncols
        for j in draw(st.sets(st.integers(0, ncols - 1), min_size=1,
                              max_size=2)):
            row[j] = draw(nonzero)
        rows.append(row)
    return rows, ncols


@st.composite
def wide_sparse(draw):
    """Block-diagonal systems of width >= 200: a few sparse blocks at
    random column offsets, their rows interleaved. Returns (rows, width,
    blocks), each block given as (offset, rows, cols)."""
    blocks = []
    width = 0
    for rows, ncols in draw(st.lists(sparse_blocks(), min_size=1,
                                     max_size=4)):
        width += draw(st.integers(0, 40))
        blocks.append((width, rows, ncols))
        width += ncols
    width = max(width, 200) + draw(st.integers(0, 4))
    rows = [[Fraction(0)] * off + row + [Fraction(0)] * (width - off - ncols)
            for off, block, ncols in blocks for row in block]
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], width, blocks


def systems():
    """Small dense matrices, read as one block, and wide sparse systems."""
    return st.one_of(matrices().map(lambda c: (c[0], c[1],
                                               [(0, c[0], c[1])])),
                     wide_sparse())


def nonzeros(vectors):
    """Each vector as its (column, value) pairs with a nonzero value. For
    vectors of one width this is equality entry for entry."""
    return [[(j, x) for j, x in enumerate(v) if x] for v in vectors]


def ref_blockwise(case, ref):
    """The canonical basis that ``ref(rows, cols)`` gives for a
    block-diagonal system, as ``nonzeros`` rows, without running ``ref`` at
    full width: each block's basis is shifted to its columns, and a column
    in no block is a one-column block without rows. The shifted bases have
    disjoint supports, so in order of their leading columns they are already
    canonical."""
    _, width, blocks = case
    pieces = [(off, ref(rows, ncols)) for off, rows, ncols in blocks]
    covered = {off + j for off, _, ncols in blocks for j in range(ncols)}
    pieces += [(c, ref([], 1)) for c in range(width) if c not in covered]
    return sorted(([(off + j, x) for j, x in row]
                   for off, basis in pieces for row in nonzeros(basis)),
                  key=lambda row: row[0][0])


def ref_solve_blockwise(case, b):
    """ref_solve on each block of a block-diagonal system, a row going to
    the block of its first nonzero column (a zero row to the first block);
    None when some block is inconsistent, else the blocks' solutions in
    their columns and zeros elsewhere."""
    rows, width, blocks = case
    x = [Fraction(0)] * width
    for off, _, ncols in blocks:
        mine = [(row[off:off + ncols], y) for row, y in zip(rows, b)
                if next((j for j, v in enumerate(row) if v), 0) - off
                in range(ncols)]
        part = ref_solve([r for r, _ in mine], ncols, [y for _, y in mine])
        if part is None:
            return None
        x[off:off + ncols] = part
    return tuple(x)


# ----------------------------------------------------------------------
# linalg against the reference
# ----------------------------------------------------------------------

class TestEliminationMatchesReference:
    @ENGINE
    @given(systems())
    def test_rref_and_rank(self, case):
        rows, cols, _ = case
        m = Matrix(rows, cols)
        basis = ref_blockwise(case, ref_span_basis)
        got = rref(m)
        assert (got.rows, got.cols) == (len(rows), cols)
        assert nonzeros(got) == basis + [[]] * (len(rows) - len(basis))
        assert rank(m) == len(basis)

    @ENGINE
    @given(systems())
    def test_kernel(self, case):
        rows, cols, _ = case
        got = kernel(Matrix(rows, cols))
        assert nonzeros(got.vectors()) == ref_blockwise(case,
                                                        ref_kernel_vectors)
        assert sparse_kernel([dict(row) for row in nonzeros(rows)],
                             cols) == got

    @ENGINE
    @given(systems(), st.data())
    def test_solve(self, case, data):
        rows, cols, _ = case
        b = [data.draw(entries) for _ in rows]
        got = solve(Matrix(rows, cols), b)
        assert got == ref_solve_blockwise(case, b)
        if got is not None:
            assert Matrix(rows, cols).apply(got) == tuple(b)

    @ENGINE
    @given(systems())
    def test_span(self, case):
        rows, cols, _ = case
        got = Subspace.span(cols, rows)
        assert nonzeros(got.vectors()) == ref_blockwise(case, ref_span_basis)

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
        sub = rs.subspace()
        assert sub.vectors() == tuple(ref_span_basis(seen, cols))
        # the same span loaded from its canonical basis, with no elimination
        loaded = RowSpace.of(sub)
        assert loaded.dim == rs.dim
        assert loaded.subspace() == sub
        probe_rows, _ = probes
        for v in probe_rows:
            v = (list(v) + [Fraction(0)] * cols)[:cols]
            inside = (len(ref_span_basis(seen + [v], cols))
                      == len(ref_span_basis(seen, cols)))
            assert rs.contains(v) is inside
            assert loaded.contains(v) is inside
            assert sub.contains_vector(v) is inside
        for v in seen:
            assert rs.contains(v)

    @BRACKETS
    @given(wide_sparse(), st.data())
    def test_wide_sparse(self, case, data):
        rows, cols, _ = case
        rs = RowSpace(cols)
        for row in rows:
            rs.add(row)
        expected = ref_blockwise(case, ref_span_basis)
        assert rs.dim == len(expected)
        assert nonzeros(rs.subspace().vectors()) == expected
        assert all(rs.contains(row) for row in rows)
        # a unit vector lies in the span iff it is a canonical basis row
        c = data.draw(st.integers(0, cols - 1))
        unit = [Fraction(0)] * cols
        unit[c] = Fraction(1)
        assert rs.contains(unit) is ([(c, 1)] in expected)

    def test_residual_only_in_column_zero(self):
        # the residual of (3, 0, 0) is nonzero in column 0 alone; testing it
        # with any() would read the residual's keys and miss column 0
        rs = RowSpace(3)
        rs.add([0, 1, 0])
        rs.add([0, 0, 2])
        for probe in ([3, 0, 0], [Fraction(-1, 2), 0, 0]):
            assert not rs.contains(probe)
            assert not RowSpace.of(rs.subspace()).contains(probe)
            assert not rs.subspace().contains_vector(probe)
        assert rs.add([1, 5, 7])
        assert rs.contains([Fraction(1, 3), 0, 0])


# ----------------------------------------------------------------------
# ideal closure against brute force, on non-integer structure constants
# ----------------------------------------------------------------------

def _rebased(quad, shift):
    """The quadratic algebra on the basis f_i = e_i + c_i e_{i+1}
    (f_last = e_last), a unitriangular rational change of basis, so that its
    structure constants have denominators."""
    L = quad.algebra
    n = L.dim
    vectors = []
    for i in range(n):
        v = [Q(0)] * n
        v[i] = Q(1)
        if i + 1 < n:
            v[i + 1] = Fraction(shift + i, 3 + i % 4)
        vectors.append(v)
    alg = span_algebra(vectors, n, L.bracket, L.labels, "rebased")
    p = Matrix(vectors, n)
    return QuadraticAlgebra(
        alg, BilinearForm(alg, p * quad.form.gram * p.transpose()))


QUADRATIC = [
    ql.generalized_oscillator([Fraction(3, 2), Fraction(-5, 3)]),
    ql.generalized_oscillator([Fraction(7, 4), Fraction(1, 6),
                               Fraction(-2, 5)]),
    _rebased(ql.generalized_oscillator([Fraction(2, 3)]), 1),
    _rebased(ql.tstar_extension(ql.heisenberg(1)), 2),
    _rebased(ql.sl2_killing_quadratic(), 1),
]
CLOSURE_ALGEBRAS = [q.algebra for q in QUADRATIC]


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


# ----------------------------------------------------------------------
# systems read off the integer bracket table against Fraction brackets
# ----------------------------------------------------------------------

def _table(L):
    """c[i][j] = [e_i, e_j] as a Fraction tuple."""
    e = [L.basis_vector(i) for i in range(L.dim)]
    return [[L.bracket(x, y) for y in e] for x in e]


def _dense(width, terms):
    row = [Fraction(0)] * width
    for k, c in terms:
        row[k] += c
    return row


def ref_leibniz_rows(c, n):
    """d([e_i, e_j]) - [d e_i, e_j] - [e_i, d e_j], d row-major."""
    return [_dense(n * n, [(p * n + k, c[i][j][k]) for k in range(n)]
                   + [(q * n + i, -c[q][j][p]) for q in range(n)]
                   + [(q * n + j, -c[i][q][p]) for q in range(n)])
            for i in range(n) for j in range(i + 1, n) for p in range(n)]


def ref_skew_rows(gram, n):
    """G d + d^T G."""
    g = gram.entries
    return [_dense(n * n, [(q * n + j, g[i][q]) for q in range(n)]
                   + [(q * n + i, g[q][j]) for q in range(n)])
            for i in range(n) for j in range(n)]


def ref_centroid_rows(c, n):
    """M [e_t, e_x] - [e_t, M e_x], M row-major."""
    return [_dense(n * n, [(p * n + k, c[t][x][k]) for k in range(n)]
                   + [(q * n + x, -c[t][q][p]) for q in range(n)])
            for t in range(n) for x in range(n) for p in range(n)]


def ref_invariance_rows(c, n, pos):
    """B([e_t, e_a], e_b) + B(e_a, [e_t, e_b]) for symmetric B, whose entry
    (a, b) is the unknown pos[min(a, b), max(a, b)]."""
    def at(a, b):
        return pos[(min(a, b), max(a, b))]
    return [_dense(len(pos), [(at(k, b), c[t][a][k]) for k in range(n)]
                   + [(at(a, k), c[t][b][k]) for k in range(n)])
            for t in range(n) for a in range(n) for b in range(n)]


def _lead_one(v):
    lead = next(x for x in v if x)
    return tuple(x / lead for x in v)


def _subspaces(L, data, count):
    """``count`` random subspaces of L, each spanned by 1 to dim - 1 vectors."""
    out = []
    for _ in range(count):
        k = data.draw(st.integers(1, max(L.dim - 1, 1)))
        out.append(Subspace.span(L.dim, [[data.draw(entries)
                                          for _ in range(L.dim)]
                                         for _ in range(k)]))
    return out


def ref_upper_step(L, z):
    """{x : [x, e_i] in z for all i}: phi([x, e_i]) = sum_j x_j phi([e_j, e_i])
    vanishes for every i and every phi in the dense annihilator of z."""
    c, n = _table(L), L.dim
    ann = ref_kernel_vectors(list(z.vectors()), n)
    rows = [[sum(f * c[j][i][k] for k, f in enumerate(phi)) for j in range(n)]
            for i in range(n) for phi in ann]
    return tuple(ref_kernel_vectors(rows, n))


class TestBracketSystemsMatchFraction:
    @BRACKETS
    @given(st.sampled_from(range(len(QUADRATIC))), st.data())
    def test_product_of_proper_subspaces(self, which, data):
        L = CLOSURE_ALGEBRAS[which]
        u, v = _subspaces(L, data, 2)
        brackets = [L.bracket(a, b) for a in u.vectors() for b in v.vectors()]
        expected = tuple(ref_span_basis(brackets, L.dim))
        assert L.product_subspace(u, v).vectors() == expected
        assert L.product_subspace(v, u).vectors() == expected

    @BRACKETS
    @given(st.sampled_from(range(len(QUADRATIC))), st.data())
    def test_centralizer(self, which, data):
        L = CLOSURE_ALGEBRAS[which]
        (u,) = _subspaces(L, data, 1)
        stacked = [row for v in u.vectors() for row in L.ad(v).entries]
        assert (L.centralizer(u).vectors()
                == tuple(ref_kernel_vectors(stacked, L.dim)))

    @BRACKETS
    @given(st.sampled_from(range(len(QUADRATIC))), st.data())
    def test_upper_step(self, which, data):
        L = CLOSURE_ALGEBRAS[which]
        cases = _subspaces(L, data, 2) + [L.zero_space(), L.full_space(),
                                          L.center(), L.derived_subalgebra()]
        for z in cases:
            assert L._upper_step(z).vectors() == ref_upper_step(L, z)

    @BRACKETS
    @given(st.sampled_from(range(len(QUADRATIC))), matrices(max_rows=5),
           st.data())
    def test_engine_rows(self, which, case, data):
        L = CLOSURE_ALGEBRAS[which]
        n = L.dim
        rows, cols = case
        u, v = _subspaces(L, data, 2)
        total = u.sum(v)
        assert total.vectors() == tuple(
            ref_span_basis(list(u.vectors()) + list(v.vectors()), n))
        spaces = [u, v, total, kernel(Matrix(rows, cols)),
                  Subspace.span(cols, rows), L.center(),
                  L._upper_step(L.center()), Subspace.full(n),
                  Subspace.zero(n), Subspace.full(n).annihilator()]
        for sub in spaces:
            got = sub.engine_rows()
            assert got == tuple(_row(enumerate(vec)) for vec in sub.vectors())
            assert sub.engine_rows() is got
            assert RowSpace.of(sub).subspace() == sub

    def test_center(self):
        for L in CLOSURE_ALGEBRAS:
            stacked = [row for i in range(L.dim)
                       for row in L.ad(L.basis_vector(i)).entries]
            assert L.center().vectors() == tuple(
                ref_kernel_vectors(stacked, L.dim))

    def test_derivations_and_skew_derivations(self):
        for q in QUADRATIC:
            L, n = q.algebra, q.algebra.dim
            rows = ref_leibniz_rows(_table(L), n)
            got = tuple(m.to_vector() for m in derivations(L).basis)
            assert got == tuple(ref_kernel_vectors(rows, n * n))
            rows += ref_skew_rows(q.form.gram, n)
            got = tuple(m.to_vector()
                        for m in skew_derivations(L, q.form).basis)
            assert got == tuple(ref_kernel_vectors(rows, n * n))

    def test_centroid(self):
        for L in CLOSURE_ALGEBRAS:
            rows = ref_centroid_rows(_table(L), L.dim)
            assert (tuple(m.to_vector() for m in L.centroid())
                    == tuple(ref_kernel_vectors(rows, L.dim ** 2)))

    def test_invariant_forms(self):
        for L in CLOSURE_ALGEBRAS:
            n = L.dim
            pairs = [(a, b) for a in range(n) for b in range(a, n)]
            pos = {pair: k for k, pair in enumerate(pairs)}
            rows = ref_invariance_rows(_table(L), n, pos)
            got = [[f.gram.entries[a][b] for a, b in pairs]
                   for f in invariant_forms(L)]
            assert all(x.denominator == 1 for g in got for x in g)
            assert (tuple(_lead_one(g) for g in got)
                    == tuple(ref_kernel_vectors(rows, len(pairs))))


def ref_validate(L):
    """The Jacobi scan ``LieAlgebra.validate`` made before it walked the
    integer table: every triple i < j < k, with a dense Fraction
    accumulator."""
    bad = []
    n = L.dim
    for i in range(n):
        for j in range(i + 1, n):
            bij = L.bracket_basis(i, j)
            for k in range(j + 1, n):
                acc = [Q(0)] * n
                for m, c in bij.items():
                    for p, d in L.bracket_basis(m, k).items():
                        acc[p] += c * d
                for m, c in L.bracket_basis(j, k).items():
                    for p, d in L.bracket_basis(m, i).items():
                        acc[p] += c * d
                for m, c in L.bracket_basis(k, i).items():
                    for p, d in L.bracket_basis(m, j).items():
                        acc[p] += c * d
                if any(v != 0 for v in acc):
                    bad.append(("jacobi", i, j, k))
    return bad


class TestValidate:
    def test_matches_triple_loop(self):
        for L in CLOSURE_ALGEBRAS:
            assert L.validate() == ref_validate(L) == []
            # every table with one structure constant moved by 1/2, and with
            # one bracket that was zero made nonzero
            tables = []
            for pair, comp in L.table.items():
                moved = dict(comp)
                moved[min(comp)] += Fraction(1, 2)
                tables.append({**L.table, pair: moved})
            zero = next(((i, j) for i in range(L.dim)
                         for j in range(i + 1, L.dim)
                         if (i, j) not in L.table), None)
            if zero is not None:
                tables.append({**L.table, zero: {zero[0]: Fraction(2, 3)}})
            broken = 0
            for table in tables:
                M = ql.LieAlgebra(L.labels, table)
                expected = ref_validate(M)
                assert M.validate() == expected
                broken += bool(expected)
            assert broken

    def test_random_rational_tables(self):
        rng = random.Random(20)
        for _ in range(40):
            n = rng.randint(3, 6)
            table = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.4:
                        entry = {k: Fraction(rng.randint(-3, 3),
                                             rng.randint(1, 3))
                                 for k in range(n) if rng.random() < 0.4}
                        table[(i, j)] = entry
            L = ql.LieAlgebra(tuple(f"b{i}" for i in range(n)), table)
            assert L.validate() == ref_validate(L)


class TestTraceForms:
    def test_killing_gram(self):
        for L in CLOSURE_ALGEBRAS:
            n = L.dim
            expected = [[(L.ad_basis(i) * L.ad_basis(j)).trace()
                         for j in range(n)] for i in range(n)]
            assert L.killing_gram() == Matrix(expected, n)

    def test_nilradical(self):
        for L in CLOSURE_ALGEBRAS:
            nil, rad = L.nilradical(), L.radical()
            assert all(L.ad(v).is_nilpotent() for v in nil.vectors())
            if L.is_nilpotent():
                assert nil.is_full()
                continue
            # rad is 0 or g and [g, rad] has codimension <= 1 in it; nil lies
            # between them and is not rad, which is not nilpotent unless 0
            jac = L.product_subspace(L.full_space(), rad)
            assert rad.is_zero() or rad.is_full()
            assert rad.dim - jac.dim <= 1
            assert nil == jac


class TestIsInvariant:
    def test_matches_dense_check(self):
        for q in QUADRATIC:
            L, gram = q.algebra, q.form.gram
            n = L.dim
            grams = [gram, L.killing_gram(), Matrix.zeros(n, n)]
            # the true Gram with one entry (and its mirror) moved
            for i in range(n):
                for j in range(i, n):
                    rows = [list(r) for r in gram.entries]
                    rows[i][j] += Fraction(1, 2)
                    rows[j][i] = rows[i][j]
                    grams.append(Matrix(rows, n))
            verdicts = []
            for g in grams:
                expected = all(
                    (g * a + a.transpose() * g).is_zero()
                    for a in (L.ad_basis(i) for i in range(n)))
                assert ql.is_invariant(L, BilinearForm(L, g)) is expected
                verdicts.append(expected)
            assert verdicts[:3] == [True] * 3 and not all(verdicts)


class TestIsIdeal:
    @BRACKETS
    @given(st.sampled_from(range(len(QUADRATIC))), st.data())
    def test_matches_product_containment(self, which, data):
        q = QUADRATIC[which]
        L = q.algebra
        s, t = _subspaces(L, data, 2)
        ideal = L.ideal_closure(s)
        cases = [ideal, orthogonal_complement(ideal, q.form), s, t,
                 L.zero_space(), L.full_space()]
        for u in cases:
            expected = u.contains(L.product_subspace(L.full_space(), u))
            assert L.is_ideal(u) is expected
        assert L.is_ideal(ideal)

    def test_no_canonical_span(self, monkeypatch):
        cases = []
        for q in QUADRATIC:
            L = q.algebra
            ideal = L.derived_subalgebra()
            line = Subspace.span(L.dim, [[1] * L.dim])
            cases.append((L, ideal, L.is_ideal(ideal)))
            cases.append((L, line, L.is_ideal(line)))
        calls = []
        original = Subspace.span.__func__

        def spy(cls, ambient, vectors):
            calls.append(ambient)
            return original(cls, ambient, vectors)
        monkeypatch.setattr(Subspace, "span", classmethod(spy))
        for L, u, verdict in cases:
            assert L.is_ideal(u) is verdict
        assert calls == []
        assert any(v for *_, v in cases) and not all(v for *_, v in cases)

import random
from fractions import Fraction

import pytest

from quadlie.linalg import (Matrix, PencilTooLarge, Poly, Q, RowSpace, Subspace,
                            det, det_pencil, eval_pencil_det, greedy_complement,
                            kernel, parse_q, qstr, rank, rref, solve)


def rand_matrix(rng, rows, cols, lo=-5, hi=5):
    return Matrix([[Fraction(rng.randint(lo, hi), rng.randint(1, 3))
                    for _ in range(cols)] for _ in range(rows)], cols)


def det_cofactor(m):
    """Independent oracle: recursive cofactor expansion."""
    n = m.rows
    if n == 0:
        return Q(1)
    if n == 1:
        return m.entries[0][0]
    total = Q(0)
    for j in range(n):
        if m.entries[0][j] == 0:
            continue
        minor = Matrix([[m.entries[i][k] for k in range(n) if k != j]
                        for i in range(1, n)], n - 1)
        term = m.entries[0][j] * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


class TestRref:
    def test_identity_fixed_point(self):
        m = Matrix.identity(3)
        assert rref(m) == m

    def test_rank_one_forced(self):
        m = Matrix([[2, 4], [1, 2]])
        assert rref(m) == Matrix([[1, 2], [0, 0]])

    def test_idempotent_and_rowspace_preserved(self):
        rng = random.Random(0)
        for _ in range(1000):
            m = rand_matrix(rng, 5, 5)
            r = rref(m)
            assert rref(r) == r
            # mutual containment of row spaces
            u = Subspace.span(5, m.entries)
            v = Subspace.span(5, r.entries)
            assert u == v


class TestKernel:
    def test_zero_matrix_full_space(self):
        assert kernel(Matrix.zeros(2, 3)) == Subspace.full(3)

    def test_identity_zero_space(self):
        assert kernel(Matrix.identity(4)) == Subspace.zero(4)

    def test_substitute_back(self):
        m = Matrix([[1, 1, 0]])
        ker = kernel(m)
        assert ker.dim == 2
        for v in ker.vectors():
            assert all(x == 0 for x in m.apply(v))

    def test_random_substitution(self):
        rng = random.Random(1)
        for _ in range(200):
            m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            ker = kernel(m)
            assert ker.dim == m.cols - rank(m)
            for v in ker.vectors():
                assert all(x == 0 for x in m.apply(v))


class TestSolve:
    def test_identity(self):
        m = Matrix.identity(3)
        assert solve(m, [1, 2, 3]) == (Q(1), Q(2), Q(3))

    def test_underdetermined_residual(self):
        x = solve(Matrix([[1, 1]]), [2])
        assert x is not None and x[0] + x[1] == 2

    def test_inconsistent(self):
        assert solve(Matrix([[1], [1]]), [1, 2]) is None

    def test_random_residual(self):
        rng = random.Random(2)
        for _ in range(200):
            m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            b = [Fraction(rng.randint(-5, 5)) for _ in range(m.rows)]
            x = solve(m, b)
            if x is not None:
                assert list(m.apply(x)) == list(b)
            else:
                aug = Matrix([list(r) + [v] for r, v in zip(m.entries, b)],
                             m.cols + 1)
                assert rank(aug) > rank(m)


class TestSubspaces:
    def test_sum_with_zero_and_full_intersection(self):
        rng = random.Random(3)
        u = Subspace.span(4, [[1, 2, 0, 1], [0, 0, 1, 1]])
        assert u.sum(Subspace.zero(4)) == u
        assert u.intersect(Subspace.full(4)) == u

    def test_axis_intersection_trivial(self):
        e1 = Subspace.span(2, [[1, 0]])
        e2 = Subspace.span(2, [[0, 1]])
        assert e1.intersect(e2) == Subspace.zero(2)

    def test_dimension_law_random(self):
        rng = random.Random(4)
        for _ in range(300):
            u = Subspace.span(6, [[rng.randint(-3, 3) for _ in range(6)]
                                  for _ in range(rng.randint(0, 6))])
            v = Subspace.span(6, [[rng.randint(-3, 3) for _ in range(6)]
                                  for _ in range(rng.randint(0, 6))])
            assert u.sum(v).dim + u.intersect(v).dim == u.dim + v.dim

    def test_containment(self):
        u = Subspace.span(3, [[1, 0, 0], [0, 1, 0]])
        v = Subspace.span(3, [[1, 1, 0]])
        assert u.contains(v) and not v.contains(u)

    def test_ambient_mismatch_raises(self):
        with pytest.raises(ValueError):
            Subspace.full(2).sum(Subspace.full(3))

    def test_annihilator_dims(self):
        u = Subspace.span(5, [[1, 2, 3, 4, 5], [0, 1, 0, 1, 0]])
        a = u.annihilator()
        assert a.dim == 3
        for v in a.vectors():
            for w in u.vectors():
                assert sum(x * y for x, y in zip(v, w)) == 0

    def test_greedy_complement_lex_first(self):
        # pivot column of the span is index 0, and e1 is still independent,
        # so the lex-first completion picks index 0
        u = Subspace.span(2, [[1, 1]])
        assert greedy_complement(u) == (0,)

    def test_rowspace_accumulator(self):
        rs = RowSpace(3)
        assert rs.add([1, 1, 0])
        assert not rs.add([2, 2, 0])
        assert rs.add([0, 0, 5])
        assert rs.dim == 2
        assert rs.contains([3, 3, 7])
        assert not rs.contains([0, 1, 0])


class TestDet:
    def test_identity(self):
        assert det(Matrix.identity(3)) == 1

    def test_singular_rank_one(self):
        m = Matrix([[1, 2, 3], [2, 4, 6], [3, 6, 9]])
        assert det(m) == 0

    def test_matches_cofactor_oracle(self):
        rng = random.Random(5)
        for n in range(1, 6):
            for _ in range(40):
                m = rand_matrix(rng, n, n)
                assert det(m) == det_cofactor(m)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            det(Matrix.zeros(2, 3))


def ref_det_pencil(mats):
    """det(t1*B1 + ... + tm*Bm) by a plain Fraction subset DP: row i picks
    an unused column j, with sign -1 for each used column right of j."""
    m, n = len(mats), mats[0].rows
    units = [tuple(int(r == s) for s in range(m)) for r in range(m)]
    dp = {frozenset(): {tuple([0] * m): Fraction(1)}}
    for i in range(n):
        nxt = {}
        for used, poly in dp.items():
            for j in range(n):
                if j in used:
                    continue
                sign = (-1) ** sum(1 for k in used if k > j)
                acc = nxt.setdefault(used | {j}, {})
                for unit, b in zip(units, mats):
                    for expo, c in poly.items():
                        key = tuple(a + u for a, u in zip(expo, unit))
                        acc[key] = (acc.get(key, Fraction(0))
                                    + sign * c * b.entries[i][j])
        dp = nxt
    return Poly(m, dp.get(frozenset(range(n)), {}))


class TestDetPencil:
    def test_two_by_two_split(self):
        b1 = Matrix([[1, 0], [0, 0]])
        b2 = Matrix([[0, 0], [0, 1]])
        p = det_pencil([b1, b2])
        assert p == Poly(2, {(1, 1): 1})
        assert str(p) == "t1*t2"

    def test_matches_pointwise_evaluation(self):
        rng = random.Random(6)
        for _ in range(30):
            n, m = rng.randint(1, 4), rng.randint(1, 3)
            mats = []
            for _ in range(m):
                raw = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        raw[j][i] = raw[i][j]
                mats.append(Matrix(raw, n))
            p = det_pencil(mats)
            for _ in range(5):
                point = [rng.randint(-3, 3) for _ in range(m)]
                assert p.evaluate(point) == eval_pencil_det(mats, point)

    def test_size_limit(self):
        mats = [Matrix.identity(13)]
        with pytest.raises(PencilTooLarge):
            det_pencil(mats)
        with pytest.raises(PencilTooLarge):
            det_pencil([Matrix.identity(2)] * 13)

    def test_largest_degrees_at_the_cap(self):
        zero = Matrix.zeros(12, 12)
        last = det_pencil([zero] * 11 + [Matrix.identity(12).scale(Q(1, 2))])
        assert last == Poly(12, {tuple([0] * 11 + [12]): Q(1, 4096)})
        units = [Matrix([[Q(r + 1, 3) if i == j == r else 0
                          for j in range(12)] for i in range(12)], 12)
                 for r in range(12)]
        coeff = Q(1)
        for r in range(12):
            coeff *= Q(r + 1, 3)
        assert det_pencil(units) == Poly(12, {tuple([1] * 12): coeff})

    def test_rational_matches_fraction_reference(self):
        rng = random.Random(19)
        for _ in range(40):
            n, m = rng.randint(1, 5), rng.randint(1, 4)
            mats = []
            for _ in range(m):
                den = rng.choice((1, 2, 3, 4, 6, 9))
                mats.append(Matrix(
                    [[Fraction(rng.randint(-3, 3), den * rng.randint(1, 2))
                      if rng.random() < 0.6 else 0 for _ in range(n)]
                     for _ in range(n)], n))
            p = det_pencil(mats)
            assert p == ref_det_pencil(mats)
            for _ in range(3):
                point = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                         for _ in range(m)]
                assert p.evaluate(point) == eval_pencil_det(mats, point)

    def test_zero_pencils(self):
        # a rank-one pencil, and a 2x2 whose two expansion terms cancel
        rank_one = [Matrix([[1, 0], [0, 0]]), Matrix([[Q(1, 2), 0], [0, 0]])]
        cancel = [Matrix([[Q(1, 2), Q(1, 3)], [Q(3, 2), 1]])]
        for mats in (rank_one, cancel):
            p = det_pencil(mats)
            assert p.is_zero() and p == ref_det_pencil(mats)
            assert eval_pencil_det(mats, [2] * len(mats)) == 0


class TestScalars:
    def test_qstr_and_parse(self):
        assert qstr(Fraction(3, 2)) == "3/2"
        assert qstr(Fraction(4)) == "4"
        assert parse_q("-7/3") == Fraction(-7, 3)
        with pytest.raises(ValueError):
            parse_q("1.5")

    def test_poly_arithmetic(self):
        t1 = Poly.variable(0, 2)
        t2 = Poly.variable(1, 2)
        p = (t1 + t2) * (t1 - t2)
        assert p == t1 * t1 - t2 * t2
        assert p.evaluate([3, 2]) == 5
        assert (p - p).is_zero()

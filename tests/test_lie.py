import random
from fractions import Fraction

import pytest

import quadlie as ql
from quadlie.lie import LieAlgebra, direct_sum
from quadlie.linalg import Matrix, Subspace

from conftest import jacobi_violations_oracle, random_vector


def flipped_d4():
    """d4 with the sign of [x1,x3] flipped to +x2, everything else kept."""
    table = {
        (0, 1): {2: 1},
        (0, 2): {1: 1},
        (1, 2): {3: 1},
    }
    return LieAlgebra(("x1", "x2", "x3", "z"), table)


class TestValidate:
    def test_d4_valid(self):
        assert ql.oscillator_d4().algebra.validate() == []

    def test_abelian_valid(self):
        assert ql.abelian(5).validate() == []

    def test_flipped_d4_matches_brute_force_oracle(self):
        L = flipped_d4()
        diagnostics = L.validate()
        oracle = jacobi_violations_oracle(L)
        # both agree: either both flag violations or both certify validity
        assert bool(diagnostics) == bool(oracle)
        assert {tuple(sorted(t[1:])) for t in diagnostics} == \
            {tuple(sorted(t)) for t in oracle}

    def test_broken_table_matches_oracle(self):
        # [x1,x2]=x3, [x1,x3]=x1 breaks Jacobi on (x1,x2,x3)
        L = LieAlgebra(("x1", "x2", "x3"), {(0, 1): {2: 1}, (0, 2): {0: 1}})
        diagnostics = L.validate()
        oracle = jacobi_violations_oracle(L)
        assert diagnostics and oracle
        assert {t[1:] for t in diagnostics} == \
            {t for t in oracle if t[0] < t[1] < t[2]}

    def test_random_tables_match_oracle(self):
        # random antisymmetric tables usually violate Jacobi; the structured
        # checker and the brute-force scan must flag exactly the same triples
        rng = random.Random(60)
        for _ in range(50):
            n = rng.randint(2, 4)
            table = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.6:
                        entry = {k: Fraction(rng.randint(-2, 2))
                                 for k in range(n) if rng.random() < 0.5}
                        entry = {k: c for k, c in entry.items() if c != 0}
                        if entry:
                            table[(i, j)] = entry
            L = LieAlgebra(tuple(f"b{i}" for i in range(n)), table)
            got = {t[1:] for t in L.validate()}
            expected = {t for t in jacobi_violations_oracle(L)
                        if t[0] < t[1] < t[2]}
            assert got == expected

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError):
            LieAlgebra(("a", "b"), {(0, 1): {0: 1}, (1, 0): {0: 1}})

    def test_self_bracket_rejected(self):
        with pytest.raises(ValueError):
            LieAlgebra(("a", "b"), {(0, 0): {1: 1}})


class TestBracketAndAd:
    def test_abelian_ad_zero(self):
        L = ql.abelian(3)
        for i in range(3):
            assert L.ad_basis(i).is_zero()

    def test_d4_bracket_x2_x3(self):
        L = ql.oscillator_d4().algebra
        assert L.bracket(L.basis_vector(1), L.basis_vector(2)) == \
            (0, 0, 0, Fraction(1))

    def test_ad_matches_bracket_randomized(self, corpus):
        rng = random.Random(10)
        for name in ("d4", "n23q", "tstar_sl2", "a_sl2_1"):
            L = corpus[name].algebra
            for _ in range(20):
                x = random_vector(rng, L.dim)
                y = random_vector(rng, L.dim)
                assert L.ad(x).apply(y) == L.bracket(x, y)
                assert L.bracket(x, y) == tuple(-v for v in L.bracket(y, x))

    def test_length_mismatch(self):
        L = ql.sl2()
        with pytest.raises(ValueError):
            L.bracket([1, 0], [0, 1, 0])


class TestProductSubspace:
    def test_product_with_zero(self):
        L = ql.oscillator_d4().algebra
        assert L.product_subspace(L.full_space(), L.zero_space()).is_zero()

    def test_d4_derived_is_heisenberg(self):
        L = ql.oscillator_d4().algebra
        expected = Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        assert L.derived_subalgebra() == expected

    def test_n23_derived_dim(self):
        assert ql.free_nilpotent(2, 3).derived_subalgebra().dim == 3


class TestCenterAndCentralizer:
    def test_abelian_center_full(self):
        L = ql.abelian(4)
        assert L.center().is_full()

    def test_d4_center_is_z_by_joint_kernel_oracle(self):
        L = ql.oscillator_d4().algebra
        # independent oracle: stack the four ad matrices and intersect kernels
        from quadlie.linalg import kernel
        oracle = kernel(Matrix([row for i in range(4)
                                for row in L.ad_basis(i).entries], 4))
        assert L.center() == oracle
        assert L.center() == Subspace.span(4, [[0, 0, 0, 1]])

    def test_n32_center_equals_derived(self):
        L = ql.free_nilpotent(3, 2)
        assert L.center() == L.derived_subalgebra()
        assert L.center().dim == 3

    def test_centralizer_of_zero_is_full(self):
        L = ql.sl2()
        assert L.centralizer(L.zero_space()).is_full()

    def test_d4_centralizer_of_x2(self):
        # {x : [x, x2] = 0}: writing x = a x1 + b x2 + c x3 + d z gives
        # [x, x2] = a x3 - c z, so the centralizer is span{x2, z}
        L = ql.oscillator_d4().algebra
        u = Subspace.span(4, [[0, 1, 0, 0]])
        assert L.centralizer(u) == Subspace.span(4, [[0, 1, 0, 0],
                                                     [0, 0, 0, 1]])


class TestSeries:
    def test_n23_nilindex(self):
        L = ql.free_nilpotent(2, 3)
        lower = L.series().lower_central
        assert len(lower) == 4 and lower[-1].is_zero()
        assert [s.dim for s in lower] == [5, 3, 2, 0]

    def test_abelian_derived_two_steps(self):
        L = ql.abelian(3)
        derived = L.series().derived
        assert len(derived) == 2 and derived[-1].is_zero()

    def test_d4_derived_chain(self):
        L = ql.oscillator_d4().algebra
        assert [s.dim for s in L.series().derived] == [4, 3, 1, 0]

    def test_monotonicity_and_derived_below_lower(self, corpus):
        for q in corpus.values():
            s = q.algebra.series()
            n = q.algebra.dim
            # strict monotonicity forces stabilization within dim steps
            assert len(s.derived) <= n + 1
            assert len(s.lower_central) <= n + 1
            assert len(s.upper_central) <= n + 1
            for a, b in zip(s.derived, s.derived[1:]):
                assert a.contains(b)
            for a, b in zip(s.lower_central, s.lower_central[1:]):
                assert a.contains(b)
            for a, b in zip(s.upper_central, s.upper_central[1:]):
                assert b.contains(a)
            for t in range(len(s.derived)):
                lower_t = s.lower_central[min(t, len(s.lower_central) - 1)]
                assert lower_t.contains(s.derived[t])

    def test_predicates(self):
        d4 = ql.oscillator_d4().algebra
        assert d4.is_solvable() and not d4.is_nilpotent()
        assert ql.free_nilpotent(2, 3).is_nilpotent()
        assert ql.free_nilpotent(3, 2).is_nilpotent()
        assert ql.n23s().algebra.is_perfect()
        assert ql.abelian(2).is_abelian()


class TestKillingForm:
    def test_abelian_zero(self):
        assert ql.abelian(3).killing_gram().is_zero()

    def test_sl2_against_hand_trace_oracle(self):
        L = ql.sl2()
        # oracle: build ad matrices from the table by hand and take traces
        n = 3
        ads = []
        for i in range(n):
            cols = [L.bracket(L.basis_vector(i), L.basis_vector(j))
                    for j in range(n)]
            ads.append(Matrix([[cols[j][k] for j in range(n)]
                               for k in range(n)], n))
        expected = [[(ads[i] * ads[j]).trace() for j in range(n)]
                    for i in range(n)]
        assert L.killing_gram() == Matrix(expected, 3)
        # frozen values: K(e,f) = 4, K(h,h) = 8, all others zero
        assert L.killing_gram() == Matrix([[0, 4, 0], [4, 0, 0], [0, 0, 8]])

    def test_nilpotent_zero(self):
        assert ql.free_nilpotent(2, 3).killing_gram().is_zero()
        assert ql.heisenberg(2).killing_gram().is_zero()

    def test_killing_form_invariant(self, corpus):
        for name in ("d4", "n23s", "tensor_2"):
            L = corpus[name].algebra
            assert ql.is_invariant(L, L.killing_form())


class TestRadicals:
    def test_semisimple_radical_zero(self):
        assert ql.sl2().radical().is_zero()

    def test_solvable_radical_full(self):
        for L in (ql.oscillator_d4().algebra, ql.split_h3_extension(),
                  ql.heisenberg(1)):
            assert L.radical().is_full()

    def test_n23s_radical_is_nilpotent_part(self):
        q = ql.n23s()
        L = q.algebra
        rad = L.radical()
        expected = Subspace.span(11, [L.basis_vector(i) for i in range(3, 11)])
        assert rad == expected
        quotient = L.quotient(rad)
        assert quotient.dim == 3 and quotient.is_semisimple()

    def test_radical_postconditions(self, corpus):
        for name in ("d4", "tstar_sl2", "n23s", "a_sl2_1", "tensor_2"):
            L = corpus[name].algebra
            rad = L.radical()
            assert L.is_ideal(rad)
            if not rad.is_zero():
                assert L.subalgebra(rad).is_solvable()
            if rad.dim < L.dim:
                assert L.quotient(rad).is_semisimple()

    def test_nilpotent_algebra_is_its_own_nilradical(self):
        L = ql.free_nilpotent(2, 3)
        assert L.nilradical().is_full()

    def test_d4_nilradical(self):
        L = ql.oscillator_d4().algebra
        nil = L.nilradical()
        assert nil == Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0],
                                        [0, 0, 0, 1]])
        # maximality probe: enlarging by any missing basis vector breaks
        # nilpotency of the generated ideal
        for i in range(4):
            if nil.contains_vector(L.basis_vector(i)):
                continue
            bigger = L.ideal_closure(nil.sum(
                Subspace.span(4, [L.basis_vector(i)])))
            assert not L.subalgebra(bigger).is_nilpotent()

    def test_split_h3_nilradical(self):
        L = ql.split_h3_extension()
        assert L.nilradical() == Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0],
                                                   [0, 0, 1, 0]])

    def test_nilradical_properties(self, corpus):
        for name in ("d4", "tstar_sl2", "n23s", "a_sl2_1", "gen_osc_2"):
            L = corpus[name].algebra
            nil = L.nilradical()
            assert L.is_ideal(nil)
            if not nil.is_zero():
                assert L.subalgebra(nil).is_nilpotent()
            assert nil.contains(L.jacobson_radical())
            assert L.radical().contains(nil)

    def test_nilradical_ad_nilpotent_for_solvable(self, corpus):
        rng = random.Random(20)
        for name in ("d4", "gen_osc_2", "tstar_h1"):
            L = corpus[name].algebra
            assert L.is_solvable()
            nil = L.nilradical()
            for v in nil.vectors():
                assert L.ad(v).is_nilpotent()
            for _ in range(100):
                coeffs = [rng.randint(-3, 3) for _ in range(nil.dim)]
                x = [sum(Fraction(c) * row[i] for c, row in
                         zip(coeffs, nil.vectors())) for i in range(L.dim)]
                assert L.ad(x).is_nilpotent()

    def test_jacobson_solvable_is_derived(self):
        for L in (ql.oscillator_d4().algebra, ql.split_h3_extension()):
            assert L.jacobson_radical() == L.derived_subalgebra()

    def test_jacobson_semisimple_zero(self):
        assert ql.sl2().jacobson_radical().is_zero()

    def test_jacobson_tstar_simple_is_dual_copy(self):
        q = ql.tstar_extension(ql.sl2())
        L = q.algebra
        dual = Subspace.span(6, [L.basis_vector(i) for i in range(3, 6)])
        assert L.jacobson_radical() == dual

    def test_jacobson_equals_derived_meet_radical(self, corpus):
        for name in ("d4", "tstar_sl2", "n23s", "a_sl2_2", "tensor_2"):
            L = corpus[name].algebra
            expected = L.derived_subalgebra().intersect(L.radical())
            assert L.jacobson_radical() == expected


class TestSimplicity:
    def test_sl2_simple(self):
        L = ql.sl2()
        assert L.is_semisimple() and L.is_simple()
        assert len(L.centroid()) == 1

    def test_sl2_plus_sl2(self):
        L = direct_sum(ql.sl2(), ql.sl2())
        assert L.is_semisimple() and not L.is_simple()
        assert len(L.centroid()) == 2

    def test_one_dim_not_semisimple(self):
        assert not ql.abelian(1).is_semisimple()


class TestQuotientsAndIdeals:
    def test_quotient_by_zero_is_identity(self):
        L = ql.oscillator_d4().algebra
        q = L.quotient(L.zero_space())
        assert q.table == L.table and q.labels == L.labels

    def test_d4_mod_center(self):
        L = ql.oscillator_d4().algebra
        q = L.quotient(Subspace.span(4, [[0, 0, 0, 1]]))
        assert q.dim == 3
        # induced table is the Euclidean algebra: [x1,x2]=x3, [x1,x3]=-x2
        assert q.table == {(0, 1): {2: Fraction(1)}, (0, 2): {1: Fraction(-1)}}
        assert q.center().dim == 0

    def test_quotient_by_non_ideal_raises(self):
        L = ql.oscillator_d4().algebra
        with pytest.raises(ValueError):
            L.quotient(Subspace.span(4, [[1, 0, 0, 0]]))

    def test_quotient_is_valid(self, corpus):
        L = corpus["n23s"].algebra
        q = L.quotient(L.radical())
        assert q.validate() == []

    def test_subalgebra_of_unclosed_span_raises(self):
        L = ql.oscillator_d4().algebra
        with pytest.raises(ValueError, match="not closed"):
            L.subalgebra(Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0]]))

    def test_ideal_closure_minimal_dual(self):
        q = ql.n23s()
        L = q.algebra
        closure = L.ideal_closure(Subspace.span(11, [L.basis_vector(8)]))
        dual = Subspace.span(11, [L.basis_vector(i) for i in range(8, 11)])
        assert closure == dual

    def test_is_ideal(self):
        L = ql.oscillator_d4().algebra
        assert L.is_ideal(L.derived_subalgebra())
        assert not L.is_ideal(Subspace.span(4, [[1, 0, 0, 0]]))

    def test_direct_sum_blocks(self):
        L = direct_sum(ql.sl2(), ql.abelian(2))
        assert L.dim == 5 and L.validate() == []
        assert L.center().dim == 2
        assert L.derived_subalgebra().dim == 3

    def test_type_pairs(self):
        assert ql.abelian(4).type_pair() == ql.TypePair(0, 4)
        assert ql.oscillator_d4().algebra.type_pair() == ql.TypePair(3, 1)
        assert ql.free_nilpotent(2, 3).type_pair() == ql.TypePair(3, 2)

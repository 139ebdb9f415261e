import pytest

import quadlie as ql
from quadlie.derivations import (bracket_closed, derivations, inner_derivations,
                                 is_derivation, is_skew, matrix_span_algebra,
                                 n23_inner_basis, n23_levi_basis,
                                 n23_levi_generator, n32_inner_basis,
                                 n32_levi_basis, n32_skew_report,
                                 skew_derivations)
from quadlie.linalg import Matrix, Subspace


class TestDerivationSolver:
    def test_abelian_everything(self):
        L = ql.abelian(3)
        assert derivations(L).dim == 9
        assert inner_derivations(L).dim == 0

    def test_inner_dim_is_codim_of_center(self, corpus):
        for name in ("d4", "n23q", "tstar_sl2"):
            L = corpus[name].algebra
            assert inner_derivations(L).dim == L.dim - L.center().dim
        assert inner_derivations(ql.oscillator_d4().algebra).dim == 3

    def test_inner_inside_derivations(self, corpus):
        for name in ("d4", "n23q", "n32q"):
            L = corpus[name].algebra
            der = derivations(L)
            for m in inner_derivations(L).basis:
                assert der.contains_matrix(m)

    def test_ad_is_derivation(self, corpus):
        for name in ("d4", "n23q", "a_sl2_1"):
            L = corpus[name].algebra
            for i in range(L.dim):
                assert is_derivation(L, L.ad_basis(i))

    def test_identity_matrix_derivation_iff_abelian(self):
        assert is_derivation(ql.abelian(3), Matrix.identity(3))
        assert not is_derivation(ql.oscillator_d4().algebra,
                                 Matrix.identity(4))


class TestSkewDerivations:
    def test_n23_dimension_six(self):
        q = ql.n23_quadratic()
        assert skew_derivations(q.algebra, q.form).dim == 6

    def test_d4_skew_equals_inner(self):
        q = ql.oscillator_d4()
        skew = skew_derivations(q.algebra, q.form)
        inner = inner_derivations(q.algebra)
        assert skew.dim == 3
        assert skew.span() == inner.span()

    def test_degenerate_form_rejected(self):
        L = ql.heisenberg(1)
        from quadlie.forms import BilinearForm
        with pytest.raises(ValueError):
            skew_derivations(L, BilinearForm(L, Matrix.zeros(3, 3)))

    def test_skew_space_closed_and_inner_is_ideal(self, corpus):
        for name in ("d4", "n23q", "n32q", "tstar_h1"):
            q = corpus[name]
            skew = skew_derivations(q.algebra, q.form)
            assert bracket_closed(skew)
            inner = inner_derivations(q.algebra)
            inner_span = inner.span()
            assert all(skew.contains_matrix(m) for m in inner.basis)
            for d in skew.basis:
                for a in inner.basis:
                    assert inner_span.contains_vector(
                        d.commutator(a).to_vector())


class TestClosedFormGenerators:
    def test_n23_generators_validate_and_span_solver_space(self):
        q = ql.n23_quadratic()
        gens = n23_levi_basis() + n23_inner_basis()
        for m in gens:
            assert is_derivation(q.algebra, m)
            assert is_skew(q.form, m)
        solver = skew_derivations(q.algebra, q.form)
        span = Subspace.span(25, [m.to_vector() for m in gens])
        assert span == solver.span()

    def test_n23_levi_block_is_simple(self):
        alg = matrix_span_algebra(list(n23_levi_basis()))
        assert alg.dim == 3
        assert alg.is_simple()
        assert len(alg.centroid()) == 1

    def test_unclosed_matrix_span_raises(self):
        e, f = Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]])
        with pytest.raises(ValueError, match="not closed"):
            matrix_span_algebra([e, f])

    def test_n32_report(self):
        q = ql.n32_quadratic()
        report = n32_skew_report(q.algebra, q.form)
        assert report["display_matrices_validate"]
        assert report["display_matrices_in_solver_space"]
        assert report["contains_inner"]
        assert report["inner_dim"] == 3
        assert report["levi_block_closes"]
        assert report["levi_block_killing_nondegenerate"]
        # solver is ground truth: 8 block parameters + 3 inner = 11, and the
        # quoted dimension of 10 is flagged as disagreeing
        assert report["solver_dim"] == 11
        assert report["display_params"] == 11
        assert report["quoted_dim"] == 10
        assert not report["quoted_dim_matches_solver"]

    def test_n32_levi_block_structure(self):
        alg = matrix_span_algebra(list(n32_levi_basis()))
        assert alg.dim == 8
        assert alg.is_semisimple()

    def test_n32_inner_matches_adjoints(self):
        q = ql.n32_quadratic()
        inner = inner_derivations(q.algebra)
        span = inner.span()
        for m in n32_inner_basis():
            assert span.contains_vector(m.to_vector())

    def test_levi_generator_parametrization(self):
        a = n23_levi_generator(1, 2, 3)
        b = (n23_levi_generator(1, 0, 0) + n23_levi_generator(0, 2, 0)
             + n23_levi_generator(0, 0, 3))
        assert a == b

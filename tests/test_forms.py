import random
from fractions import Fraction

import pytest

import quadlie as ql
from quadlie.forms import (BilinearForm, QuadraticAlgebra, invariant_forms,
                           orthogonal_complement, pattern_report, restrict_gram,
                           validate_quadratic)
from quadlie.linalg import Matrix, Subspace, det

from conftest import invariance_violations_oracle, random_ideal, random_subspace


class TestInvariance:
    def test_d4_form_invariant(self):
        q = ql.oscillator_d4()
        assert ql.is_invariant(q.algebra, q.form)
        assert invariance_violations_oracle(q.algebra, q.form) == []

    def test_killing_always_invariant(self, corpus):
        for name in ("d4", "n23q", "tstar_sl2", "tensor_2"):
            L = corpus[name].algebra
            assert ql.is_invariant(L, L.killing_form())

    def test_perturbed_d4_matches_brute_force_oracle(self):
        q = ql.oscillator_d4()
        # adding a (x1, x1) entry keeps invariance (no bracket has an x1
        # component), and the brute-force triple scan agrees with the solver
        rows = [list(r) for r in q.form.gram.entries]
        rows[0][0] = Fraction(1)
        still_ok = BilinearForm(q.algebra, Matrix(rows, 4))
        assert ql.is_invariant(q.algebra, still_ok)
        assert invariance_violations_oracle(q.algebra, still_ok) == []
        # a (x2, x3) entry does break invariance, on both routes
        rows = [list(r) for r in q.form.gram.entries]
        rows[1][2] = rows[2][1] = Fraction(1)
        bad = BilinearForm(q.algebra, Matrix(rows, 4))
        assert not ql.is_invariant(q.algebra, bad)
        assert invariance_violations_oracle(q.algebra, bad) != []


class TestValidateQuadratic:
    def test_hyperbolic_tstar_nondegenerate(self):
        q = ql.tstar_extension(ql.heisenberg(1))
        assert q.form.is_nondegenerate()
        assert validate_quadratic(q.algebra, q.form) == []

    def test_zero_form_degenerate(self):
        L = ql.abelian(2)
        zero = BilinearForm(L, Matrix.zeros(2, 2))
        assert not zero.is_nondegenerate()
        assert "form is degenerate" in validate_quadratic(L, zero)

    def test_n23_solved_form_passes(self):
        q = ql.n23_quadratic()
        assert validate_quadratic(q.algebra, q.form) == []

    def test_asymmetric_gram_rejected(self):
        L = ql.abelian(2)
        with pytest.raises(ValueError):
            BilinearForm(L, Matrix([[0, 1], [0, 0]]))

    def test_quadratic_algebra_rejects_degenerate(self):
        L = ql.heisenberg(1)
        with pytest.raises(ValueError):
            QuadraticAlgebra(L, BilinearForm(L, Matrix.zeros(3, 3)))


class TestOrthogonalComplement:
    def test_full_and_zero(self):
        q = ql.oscillator_d4()
        assert orthogonal_complement(q.algebra.full_space(), q.form).is_zero()
        assert orthogonal_complement(q.algebra.zero_space(), q.form).is_full()

    def test_derived_perp_is_center(self, corpus):
        for q in corpus.values():
            d2 = q.algebra.derived_subalgebra()
            assert orthogonal_complement(d2, q.form) == q.algebra.center()

    def test_d4_center_perp_is_derived(self):
        q = ql.oscillator_d4()
        z = Subspace.span(4, [[0, 0, 0, 1]])
        assert orthogonal_complement(z, q.form) == q.algebra.derived_subalgebra()

    def test_dim_law_and_double_perp(self):
        rng = random.Random(30)
        q = ql.n23_quadratic()
        for _ in range(50):
            u = random_subspace(rng, 5)
            perp = orthogonal_complement(u, q.form)
            assert u.dim + perp.dim == 5
            assert orthogonal_complement(perp, q.form) == u

    def test_nondegenerate_subspace_splits(self, corpus):
        rng = random.Random(33)
        for name in ("d4", "tstar_h1", "n32q"):
            q = corpus[name]
            n = q.dim
            for _ in range(60):
                u = random_subspace(rng, n)
                if u.dim == 0 or det(restrict_gram(q.form, u)) == 0:
                    continue
                perp = orthogonal_complement(u, q.form)
                assert u.sum(perp).is_full()
                assert u.intersect(perp).is_zero()

    def test_degenerate_form_rejected(self):
        L = ql.abelian(2)
        degenerate = BilinearForm(L, Matrix([[1, 0], [0, 0]]))
        with pytest.raises(ValueError):
            orthogonal_complement(Subspace.full(2), degenerate)


class TestInvariantForms:
    def test_abelian_full_symmetric_space(self):
        for n in (2, 3, 4):
            assert len(invariant_forms(ql.abelian(n))) == n * (n + 1) // 2

    def test_sl2_killing_line(self):
        forms = invariant_forms(ql.sl2())
        assert len(forms) == 1
        killing = ql.sl2().killing_gram()
        # proportional to the Killing form
        g = forms[0].gram
        ratio = None
        for i in range(3):
            for j in range(3):
                if killing.entries[i][j] != 0:
                    r = g.entries[i][j] / killing.entries[i][j]
                    assert ratio is None or r == ratio
                    ratio = r
                else:
                    assert g.entries[i][j] == 0
        assert ratio is not None and ratio != 0

    def test_heisenberg_all_degenerate(self):
        for n in (1, 2):
            for f in invariant_forms(ql.heisenberg(n)):
                assert not f.is_nondegenerate()

    def test_every_member_invariant(self, corpus):
        for name in ("d4", "n23q", "tstar_h1"):
            L = corpus[name].algebra
            for f in invariant_forms(L):
                assert ql.is_invariant(L, f)

    def test_solver_space_contains_builder_form(self, corpus):
        for name, q in corpus.items():
            if q.dim > 14:
                continue
            L = q.algebra
            forms = invariant_forms(L)
            span = Subspace.span(L.dim ** 2,
                                 [f.gram.to_vector() for f in forms])
            assert span.contains_vector(q.form.gram.to_vector()), name


class TestFindQuadraticStructure:
    def test_heisenberg_certificates(self):
        for n in (1, 2):
            r = ql.find_quadratic_structure(ql.heisenberg(n))
            assert r.status == "none"
            assert "identically zero" in r.reason

    def test_split_h3_certificate(self):
        r = ql.find_quadratic_structure(ql.split_h3_extension())
        assert r.status == "none"

    def test_n23_found_and_valid(self):
        r = ql.find_quadratic_structure(ql.free_nilpotent(2, 3))
        assert r.status == "found"
        assert validate_quadratic(r.quadratic.algebra, r.quadratic.form) == []

    def test_deterministic(self):
        a = ql.find_quadratic_structure(ql.free_nilpotent(3, 2))
        b = ql.find_quadratic_structure(ql.free_nilpotent(3, 2))
        assert a.witness == b.witness

    def test_abelian_found(self):
        r = ql.find_quadratic_structure(ql.abelian(4))
        assert r.status == "found"


class TestOmegaDuality:
    def test_trivial_duals(self):
        q = ql.oscillator_d4()
        L = q.algebra
        assert ql.omega_dual(L, q.form, L.zero_space()).is_full()
        assert ql.omega_dual(L, q.form, L.full_space()).is_zero()

    def test_non_ideal_rejected(self):
        q = ql.oscillator_d4()
        with pytest.raises(ValueError):
            ql.omega_dual(q.algebra, q.form, Subspace.span(4, [[1, 0, 0, 0]]))

    def test_truncated_current_chain_reversed(self, corpus):
        q = corpus["tensor_3"]
        L = q.algebra
        layers = [L.zero_space()]
        for k in (2, 1, 0):
            layers.append(Subspace.span(9, [L.basis_vector(j * 3 + i)
                                            for j in range(k, 3)
                                            for i in range(3)]))
        assert all(L.is_ideal(I) for I in layers)
        for i, ideal in enumerate(layers):
            assert ql.omega_dual(L, q.form, ideal) == layers[len(layers) - 1 - i]

    def test_random_involution_n23(self):
        rng = random.Random(31)
        q = ql.n23_quadratic()
        L = q.algebra
        for _ in range(100):
            ideal = random_ideal(L, rng)
            dual = ql.omega_dual(L, q.form, ideal)
            assert L.is_ideal(dual)
            assert ql.omega_dual(L, q.form, dual) == ideal

    def test_duality_report_clean(self, corpus):
        rng = random.Random(32)
        q = corpus["n23s"]
        ideals = [random_ideal(q.algebra, rng) for _ in range(10)]
        report = ql.duality_report(q.algebra, q.form, ideals)
        assert report.involution_ok and report.order_reversal_ok
        assert report.series_orthogonality_ok and report.dim_identity_ok
        assert report.failures == ()

    def test_duality_report_checks_series_once(self, monkeypatch):
        import quadlie.forms as forms_mod
        rng = random.Random(33)
        q = ql.a_sl2(2)
        ideals = [random_ideal(q.algebra, rng) for _ in range(3)]
        first = ql.duality_report(q.algebra, q.form, ideals)
        perps = []
        original = forms_mod.orthogonal_complement

        def spy(u, form):
            perps.append(u)
            return original(u, form)

        monkeypatch.setattr(forms_mod, "orthogonal_complement", spy)
        assert ql.duality_report(q.algebra, q.form, ideals) == first
        # what is left: one perp per ideal and one per dual (involution)
        assert len(perps) == 2 * len(ideals)
        perps.clear()
        report = ql.duality_report(q.algebra, q.form, [])
        assert perps == []
        assert report.series_orthogonality_ok and report.dim_identity_ok
        assert report.failures == ()

class TestPatternReport:
    def test_d4(self):
        q = ql.oscillator_d4()
        rep = pattern_report(q.algebra, q.form)
        assert rep.eq5_holds and rep.eq6_holds
        assert rep.is_reduced
        assert rep.reduced_part.is_full()
        assert rep.abelian_part.is_zero()
        assert rep.type_pair == ql.TypePair(3, 1)
        assert rep.solvable_center_ok is True

    def test_abelian(self):
        q = ql.abelian_quadratic(3)
        rep = pattern_report(q.algebra, q.form)
        assert rep.abelian_part.is_full()
        assert rep.reduced_part.is_zero()
        assert not rep.is_reduced

    def test_direct_sum_recovers_abelian_part(self):
        q = ql.quadratic_direct_sum(ql.oscillator_d4(), ql.abelian_quadratic(2))
        rep = pattern_report(q.algebra, q.form)
        assert rep.abelian_part.dim == 2
        assert rep.reduced_part.dim == 4
        # the split is orthogonal, direct, and the abelian part is central
        # and nondegenerate
        assert rep.abelian_part.sum(rep.reduced_part).is_full()
        assert rep.abelian_part.intersect(rep.reduced_part).is_zero()
        assert q.algebra.center().contains(rep.abelian_part)
        assert det(restrict_gram(q.form, rep.abelian_part)) != 0
        assert rep.is_decomposable_witnessed

    def test_split_properties_across_corpus(self, corpus):
        for name in ("d4", "tstar_h1", "n23q", "a_sl2_1"):
            q = corpus[name]
            rep = pattern_report(q.algebra, q.form, witness_trials=10)
            assert rep.abelian_part.sum(rep.reduced_part).is_full()
            assert rep.abelian_part.intersect(rep.reduced_part).is_zero()
            if rep.abelian_part.dim:
                assert det(restrict_gram(q.form, rep.abelian_part)) != 0

    def test_rejects_non_quadratic(self):
        L = ql.heisenberg(1)
        with pytest.raises(ValueError):
            pattern_report(L, BilinearForm(L, Matrix.zeros(3, 3)))

    def test_solvable_members_have_nonzero_center(self, corpus):
        for name, q in corpus.items():
            if q.dim > 0 and q.algebra.is_solvable():
                assert q.algebra.center().dim > 0, name


class TestDecomposability:
    def test_direct_sum_witnessed(self):
        q = ql.quadratic_direct_sum(ql.oscillator_d4(),
                                    ql.tstar_extension(ql.heisenberg(1)))
        w = ql.find_nondegenerate_proper_ideal(q.algebra, q.form)
        assert w is not None
        assert q.algebra.is_ideal(w)
        assert det(restrict_gram(q.form, w)) != 0
        assert 0 < w.dim < q.dim

    def test_inner_extension_of_d4_witnessed(self):
        q = ql.oscillator_d4()
        delta = q.algebra.ad_basis(0)
        ext = ql.double_extension_by_derivation(q, delta)
        w = ql.find_nondegenerate_proper_ideal(ext.algebra, ext.form)
        assert w is not None

    def test_n23s_not_found(self, corpus):
        q = corpus["n23s"]
        assert ql.find_nondegenerate_proper_ideal(q.algebra, q.form) is None

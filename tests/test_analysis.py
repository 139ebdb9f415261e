import random
from fractions import Fraction

import pytest

import quadlie as ql
from quadlie.analysis import (analyze, chain_dot, chain_nodes, is_chain,
                              classify_local_quadratic, is_local,
                              levi_cross_check)
from quadlie.fileio import ParseError, parse, serialize
from quadlie.lie import LieAlgebra, direct_sum
from quadlie.linalg import Matrix


class TestIsLocal:
    def test_one_dimensional(self):
        assert is_local(ql.abelian(1))

    def test_simple(self):
        assert is_local(ql.sl2())

    def test_d4_local(self):
        assert is_local(ql.oscillator_d4().algebra)

    def test_reductive_not_local(self):
        osc = ql.generalized_oscillator([1]).algebra
        d4 = ql.oscillator_d4().algebra
        two_lines = LieAlgebra(("d1", "d2", "v1", "v2"),
                               {(0, 2): {2: 1}, (1, 3): {3: 1}})
        for L in (direct_sum(ql.sl2(), ql.abelian(1)),
                  direct_sum(ql.sl2(), ql.sl2()), direct_sum(d4, d4),
                  direct_sum(osc, osc),
                  direct_sum(ql.split_h3_extension(), osc), two_lines):
            assert not is_local(L), L.labels

    def test_direct_sum_never_local(self):
        pool = (ql.abelian(1), ql.sl2(), ql.oscillator_d4().algebra,
                ql.heisenberg(1), ql.split_h3_extension(),
                ql.free_nilpotent(2, 3))
        for i, a in enumerate(pool):
            for b in pool[i:]:
                assert not is_local(direct_sum(a, b)), (a, b)

    def test_abelian_not_local(self):
        assert not is_local(ql.abelian(2))

    def test_flagships_local(self, corpus):
        for name in ("n23s", "n32s", "a_sl2_1", "gen_osc_2", "tstar_sl2"):
            assert is_local(corpus[name].algebra), name

    def test_levi_cross_check_consistent(self, corpus):
        for name in ("n23s", "n32s", "a_sl2_1", "tstar_sl2"):
            check = levi_cross_check(corpus[name].algebra)
            assert check is not None and check["consistent"], name
        assert levi_cross_check(ql.oscillator_d4().algebra) is None


class TestClassification:
    def test_type_a(self):
        q = ql.abelian_quadratic(1)
        assert classify_local_quadratic(q.algebra, q.form) == "a"

    def test_type_b(self):
        q = ql.sl2_killing_quadratic()
        assert classify_local_quadratic(q.algebra, q.form) == "b"

    def test_type_c(self, corpus):
        q = corpus["tstar_sl2"]
        assert classify_local_quadratic(q.algebra, q.form) == "c"

    def test_type_d(self, corpus):
        for name in ("d4", "gen_osc_1", "gen_osc_2", "gen_osc_3"):
            q = corpus[name]
            assert classify_local_quadratic(q.algebra, q.form) == "d", name

    def test_type_e(self, corpus):
        for name in ("n23s", "n32s", "a_sl2_1", "a_sl2_2"):
            q = corpus[name]
            assert classify_local_quadratic(q.algebra, q.form) == "e", name

    def test_non_local_rejected(self):
        q = ql.abelian_quadratic(3)
        with pytest.raises(ValueError, match="local"):
            classify_local_quadratic(q.algebra, q.form)

    def test_common_patterns_types_d_e(self, corpus):
        for name in ("d4", "gen_osc_2", "n23s", "a_sl2_1"):
            q = corpus[name]
            L = q.algebra
            nil = L.nilradical()
            nil_perp = ql.orthogonal_complement(nil, q.form)
            nil_sq = L.product_subspace(nil, nil)
            assert nil != nil_perp
            assert not nil_perp.is_zero()
            assert nil_sq.contains(nil_perp)


class TestAnalyze:
    def test_d4_report(self):
        q = ql.oscillator_d4()
        report = analyze(q.algebra, q.form)
        assert report.dims == {"dim": 4, "derived": 3, "center": 1,
                               "radical": 4, "nilradical": 3, "jacobson": 3}
        assert report.predicates["solvable"]
        assert not report.predicates["nilpotent"]
        assert report.predicates["local"]
        assert report.predicates["reduced"]
        assert report.type_pair == ql.TypePair(3, 1)
        assert report.classification == "d"
        assert report.quadratic_status == "given"
        assert report.pattern["derived_perp_equals_center"]
        assert report.pattern["dim_identity"]
        assert not report.pattern["dim_identity_printed_variant"]

    def test_formless_heisenberg_certificate(self):
        report = analyze(ql.heisenberg(1))
        assert report.quadratic_status.startswith("not quadratic")
        assert not report.predicates["quadratic"]

    def test_formless_witnessed(self):
        report = analyze(ql.free_nilpotent(2, 3))
        assert report.quadratic_status == "quadratic-witnessed"
        assert report.predicates["quadratic"]

    def test_locality_and_validation_decided_once(self, monkeypatch):
        import quadlie.analysis as analysis_mod
        import quadlie.forms as forms_mod
        calls = {"is_local": 0, "validate_quadratic": 0}

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(analysis_mod, "is_local",
                            spy("is_local", analysis_mod.is_local))
        validate = spy("validate_quadratic", forms_mod.validate_quadratic)
        monkeypatch.setattr(forms_mod, "validate_quadratic", validate)
        monkeypatch.setattr(analysis_mod, "validate_quadratic", validate)
        quads = (ql.oscillator_d4(), ql.tstar_extension(ql.sl2()), ql.a_sl2(1))
        for q in quads:
            calls.update(is_local=0, validate_quadratic=0)
            report = analyze(q.algebra, q.form)
            assert report.predicates["local"]
            assert report.classification != "unclassified"
            assert calls == {"is_local": 1, "validate_quadratic": 1}
        assert any(analyze(q.algebra, q.form).levi_check for q in quads)

    def test_jsonable(self):
        import json
        q = ql.oscillator_d4()
        text = json.dumps(analyze(q.algebra, q.form).to_jsonable(),
                          sort_keys=True)
        assert '"classification": "d"' in text

    def test_builder_expectations_table(self, corpus):
        """Every builder output matches the committed expectations table
        (dims, predicates, type pair, classification)."""
        import json
        from pathlib import Path
        table = json.loads((Path(__file__).parent / "data"
                            / "builder_expectations.json").read_text())
        fresh = {
            "abelian(3)": ql.abelian_quadratic(3),
            "heisenberg(1)": ql.heisenberg(1),
            "free_nilpotent(2,3)": ql.free_nilpotent(2, 3),
            "gen_oscillator(1,1/2)":
                ql.generalized_oscillator([1, Fraction(1, 2)]),
            "sl2": ql.sl2_killing_quadratic(),
            "split_h3": ql.split_h3_extension(),
        }
        from_corpus = {
            "n23q": "n23q", "n32q": "n32q", "oscillator": "d4",
            "tstar0(heisenberg(1))": "tstar_h1", "tstar0(sl2)": "tstar_sl2",
            "tensor_trunc(3)": "tensor_3", "a_sl2(1)": "a_sl2_1",
            "n23s": "n23s", "n32s": "n32s",
        }
        for name, expected in table.items():
            obj = fresh.get(name) or corpus[from_corpus[name]]
            if isinstance(obj, ql.QuadraticAlgebra):
                report = analyze(obj.algebra, obj.form)
            else:
                report = analyze(obj)
            got = report.to_jsonable()
            assert got["dims"] == expected["dims"], name
            assert got["predicates"] == expected["predicates"], name
            assert got["type_pair"] == expected["type_pair"], name
            assert got["classification"] == expected["classification"], name
            status = got["quadratic_status"].split("(")[0].strip()
            assert status == expected["quadratic_status"], name


class TestChains:
    def test_abelian_line(self):
        q = ql.abelian_quadratic(1)
        nodes = chain_nodes(q.algebra, q.form)
        assert [s.dim for _, s in nodes] == [0, 1]
        assert is_chain(nodes)

    def test_d4_four_chain(self):
        q = ql.oscillator_d4()
        nodes = chain_nodes(q.algebra, q.form)
        assert [s.dim for _, s in nodes] == [0, 1, 3, 4]
        assert is_chain(nodes)

    def test_truncated_current_four_chain(self, corpus):
        nodes = chain_nodes(corpus["tensor_3"].algebra, corpus["tensor_3"].form)
        assert len(nodes) == 4 and is_chain(nodes)

    def test_n23s_six_chain(self, corpus):
        q = corpus["n23s"]
        nodes = chain_nodes(q.algebra, q.form)
        assert [s.dim for _, s in nodes] == [0, 3, 5, 6, 8, 11]
        assert is_chain(nodes)

    def test_dot_deterministic_and_well_formed(self):
        q = ql.oscillator_d4()
        a = chain_dot(q.algebra, q.form)
        b = chain_dot(q.algebra, q.form)
        assert a == b
        assert a.startswith("digraph ideals {")
        assert a.count("->") == 3
        assert 'label="dim 0:' in a

    def test_dot_edges_match_pairwise_containment(self, corpus):
        for name, q in corpus.items():
            n = q.algebra.dim
            # two coordinate subspaces, so that some nodes are incomparable
            extra = [("e0", ql.Subspace.span(n, [[1] + [0] * (n - 1)])),
                     ("e1", ql.Subspace.span(n, [[0, 1] + [0] * (n - 2)]))]
            nodes = chain_nodes(q.algebra, q.form, extra)
            contained = [[b.contains(a) and a != b for _, b in nodes]
                         for _, a in nodes]
            idx = range(len(nodes))
            edges = [f"  n{i} -> n{j};" for i in idx for j in idx
                     if contained[i][j]
                     and not any(contained[i][k] and contained[k][j]
                                 for k in idx)]
            text = chain_dot(q.algebra, q.form, extra)
            assert [ln for ln in text.splitlines() if "->" in ln] == edges, name

    def test_dot_without_form(self):
        text = chain_dot(ql.sl2())
        assert "digraph" in text

    def test_extra_nodes_included(self):
        q = ql.oscillator_d4()
        extra = [("probe", ql.Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0],
                                                [0, 0, 0, 1]]))]
        text = chain_dot(q.algebra, q.form, extra=extra)
        assert "probe" in text


class TestFileFormat:
    D4_TEXT = """\
# the smallest solvable non-abelian quadratic algebra
dim 4
basis x1 x2 x3 z
bracket x1 x2 = 1 x3
bracket x1 x3 = -1 x2
bracket x2 x3 = 1 z
form x1 z = 1
form x2 x2 = 1
form x3 x3 = 1
"""

    def test_d4_file_parses_to_reference_table(self):
        L, form = parse(self.D4_TEXT)
        ref = ql.oscillator_d4()
        assert L.table == ref.algebra.table
        assert L.labels == ref.algebra.labels
        assert form.gram == ref.form.gram

    def test_empty_bracket_section_is_abelian(self):
        L, form = parse("dim 3\nbasis a b c\n")
        assert L.is_abelian() and form is None

    def test_round_trip_random(self):
        rng = random.Random(50)
        for _ in range(200):
            n = rng.randint(1, 5)
            labels = tuple(f"b{i}" for i in range(n))
            table = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.4:
                        entry = {k: Fraction(rng.randint(-3, 3),
                                             rng.randint(1, 3))
                                 for k in range(n) if rng.random() < 0.5}
                        entry = {k: c for k, c in entry.items() if c != 0}
                        if entry:
                            table[(i, j)] = entry
            L = LieAlgebra(labels, table)
            form = None
            if rng.random() < 0.5:
                rows = [[Fraction(0)] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        val = Fraction(rng.randint(-2, 2))
                        rows[i][j] = rows[j][i] = val
                from quadlie.forms import BilinearForm
                form = BilinearForm(L, Matrix(rows, n))
            text = serialize(L, form)
            L2, form2 = parse(text)
            assert L2.table == L.table and L2.labels == L.labels
            if form is None or form.gram.is_zero():
                assert form2 is None
            else:
                assert form2.gram == form.gram
            # a second serialize pass is byte-identical
            assert serialize(L2, form2) == text

    def test_error_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse("dim 2\nbasis a b\nbracket a c = 1 a\n")
        assert err.value.lineno == 3

    def test_duplicate_bracket_rejected(self):
        with pytest.raises(ParseError, match="duplicate bracket"):
            parse("dim 2\nbasis a b\nbracket a b = 1 a\nbracket b a = 1 b\n")

    def test_conflicting_form_rejected(self):
        with pytest.raises(ParseError, match="conflicting"):
            parse("dim 2\nbasis a b\nform a b = 1\nform b a = 2\n")

    def test_consistent_duplicate_form_accepted(self):
        _, form = parse("dim 2\nbasis a b\nform a b = 1\nform b a = 1\n")
        assert form.gram == Matrix([[0, 1], [1, 0]])

    def test_bad_coefficient_rejected(self):
        with pytest.raises(ParseError):
            parse("dim 2\nbasis a b\nbracket a b = 0.5 a\n")

    def test_missing_dim_rejected(self):
        with pytest.raises(ParseError):
            parse("basis a b\n")

    def test_basis_before_dim_rejected(self):
        with pytest.raises(ParseError, match="before dim"):
            parse("basis a b\ndim 2\n")

    def test_bracket_before_basis_rejected(self):
        with pytest.raises(ParseError, match="before basis"):
            parse("dim 2\nbracket a b = 1 a\nbasis a b\n")

    def test_unknown_keyword_rejected(self):
        with pytest.raises(ParseError, match="unknown keyword"):
            parse("dim 1\nbasis a\ncommutator a a = 0 a\n")

    def test_duplicate_dim_rejected(self):
        with pytest.raises(ParseError, match="duplicate dim"):
            parse("dim 1\ndim 1\nbasis a\n")

    def test_label_count_mismatch(self):
        with pytest.raises(ParseError, match="expected 3 labels"):
            parse("dim 3\nbasis a b\n")

    def test_zero_dimensional_file(self):
        L, form = parse("dim 0\n")
        assert L.dim == 0 and form is None
        assert serialize(L) == "dim 0\n"
        report = analyze(L)
        assert report.dims["dim"] == 0
        assert not report.predicates["local"]

    def test_explicit_zero_bracket(self):
        L, _ = parse("dim 2\nbasis a b\nbracket a b =\n")
        assert L.is_abelian()


class TestDeterminism:
    def test_analyze_json_byte_identical(self):
        import json
        q = ql.n23_quadratic()
        first = json.dumps(analyze(q.algebra, q.form).to_jsonable(),
                           sort_keys=True)
        second = json.dumps(analyze(ql.n23_quadratic().algebra,
                                    ql.n23_quadratic().form).to_jsonable(),
                            sort_keys=True)
        assert first == second

    def test_witness_search_byte_identical(self):
        a = ql.find_quadratic_structure(ql.abelian(4))
        b = ql.find_quadratic_structure(ql.abelian(4))
        assert a.witness == b.witness
        assert a.quadratic.form.gram == b.quadratic.form.gram

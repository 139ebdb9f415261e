import argparse
import json

from quadlie import cli, forms
from quadlie.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestBuildAnalyzePipeline:
    def test_oscillator_pipeline(self, tmp_path, capsys):
        target = str(tmp_path / "d4.alg")
        rc, out, _ = run(capsys, "build", "oscillator", "-o", target)
        assert rc == 0
        rc, out, _ = run(capsys, "check", target)
        assert rc == 0 and "valid" in out
        rc, out, _ = run(capsys, "analyze", target)
        assert rc == 0
        assert "solvable" in out and "local" in out
        assert "type pair (r, s) = (3, 1)" in out
        assert "classification: d" in out

    def test_analyze_formless_quadratic_witnessed(self, tmp_path, capsys):
        target = str(tmp_path / "n23.alg")
        run(capsys, "build", "free-nilpotent", "2", "3", "-o", target)
        rc, out, _ = run(capsys, "analyze", target)
        assert rc == 0 and "quadratic-witnessed" in out

    def test_analyze_json(self, tmp_path, capsys):
        target = str(tmp_path / "d4.alg")
        run(capsys, "build", "oscillator", "-o", target)
        rc, out, _ = run(capsys, "analyze", target, "--json")
        assert rc == 0
        data = json.loads(out)
        assert data["classification"] == "d"
        assert data["type_pair"] == [3, 1]
        assert data["dims"]["nilradical"] == 3

    def test_all_families_build_and_check(self, tmp_path, capsys):
        cases = [
            ("abelian", ["3"]),
            ("heisenberg", ["2"]),
            ("free-nilpotent", ["2", "3"]),
            ("n23q", []),
            ("n32q", []),
            ("oscillator", []),
            ("gen-oscillator", ["1", "3/2"]),
            ("tstar0", ["heisenberg", "1"]),
            ("tensor-trunc", ["2"]),
            ("sl2", []),
            ("a-sl2", ["1"]),
            ("n23s", []),
            ("n32s", []),
            ("split-h3", []),
        ]
        for family, params in cases:
            target = str(tmp_path / f"{family}.alg")
            rc, _, _ = run(capsys, "build", family, *params, "-o", target)
            assert rc == 0, family
            rc, _, _ = run(capsys, "check", target)
            assert rc == 0, family


class TestParserReuse:
    def test_no_state_leaks_between_calls(self, tmp_path, capsys,
                                          monkeypatch):
        target = str(tmp_path / "d4.alg")
        run(capsys, "build", "oscillator", "-o", target)
        seeds = []
        original = cli.analyze

        def spy(algebra, form, seed):
            seeds.append(seed)
            return original(algebra, form, seed=seed)
        monkeypatch.setattr(cli, "analyze", spy)
        calls = (["analyze", target, "--json", "--seed", "3"],
                 ["analyze", target])
        fresh = []
        for argv in calls:
            cli._make_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert seeds == [3, 0]
        # one parser for all three: a usage error, then the same two calls
        cli._make_parser.cache_clear()
        rc, _, err = run(capsys, "analyze", target, "--seed", "x")
        assert rc == 2 and "invalid int value" in err
        assert [run(capsys, *argv) for argv in calls] == fresh
        assert seeds == [3, 0, 3, 0]
        assert fresh[0][0] == 0 and json.loads(fresh[0][1])
        assert fresh[1][0] == 0 and fresh[1][1].startswith("dim = 4")

    def test_parser_built_once(self, tmp_path, capsys, monkeypatch):
        target = str(tmp_path / "d4.alg")
        run(capsys, "build", "oscillator", "-o", target)
        built = []
        original = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            original(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        cli._make_parser.cache_clear()
        try:
            for argv in (["check", target], ["analyze", target, "--json"],
                         ["forms", target], ["check"]):
                run(capsys, *argv)
            assert built.count("quadlie") == 1
            assert len(built) == 8  # the top parser and its 7 sub-commands
        finally:
            cli._make_parser.cache_clear()


class TestModuleExecution:
    def test_python_dash_m_entry_point(self, tmp_path):
        import os
        import subprocess
        import sys
        import quadlie
        # the subprocess imports quadlie from the same src directory
        src = os.path.dirname(os.path.dirname(quadlie.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        target = tmp_path / "d4.alg"
        proc = subprocess.run(
            [sys.executable, "-m", "quadlie", "build", "oscillator",
             "-o", str(target)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0 and target.exists()


class TestForms:
    def test_heisenberg_certificate(self, tmp_path, capsys):
        target = str(tmp_path / "h1.alg")
        run(capsys, "build", "heisenberg", "1", "-o", target)
        rc, out, _ = run(capsys, "forms", target)
        assert rc == 1
        assert "no nondegenerate invariant form (certificate)" in out

    def test_found_form(self, tmp_path, capsys):
        target = str(tmp_path / "n23.alg")
        run(capsys, "build", "free-nilpotent", "2", "3", "-o", target)
        rc, out, _ = run(capsys, "forms", target)
        assert rc == 0 and "nondegenerate invariant form found" in out

    def test_solves_the_form_space_once(self, tmp_path, capsys, monkeypatch):
        target = str(tmp_path / "n23.alg")
        run(capsys, "build", "free-nilpotent", "2", "3", "-o", target)
        calls = []
        original = forms.invariant_forms

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        monkeypatch.setattr(forms, "invariant_forms", spy)
        monkeypatch.setattr(cli, "invariant_forms", spy, raising=False)
        rc, out, _ = run(capsys, "forms", target)
        assert rc == 0
        assert out.splitlines()[0] == "invariant symmetric forms: dim 4"
        assert len(calls) == 1


class TestDer:
    def test_skew_dimension_n23(self, tmp_path, capsys):
        target = str(tmp_path / "n23.alg")
        run(capsys, "build", "n23q", "-o", target)
        rc, out, _ = run(capsys, "der", target, "--skew")
        assert rc == 0 and "dim der_phi = 6" in out

    def test_full_derivations(self, tmp_path, capsys):
        target = str(tmp_path / "ab.alg")
        run(capsys, "build", "abelian", "2", "-o", target)
        rc, out, _ = run(capsys, "der", target)
        assert rc == 0 and "dim der = 4" in out

    def test_skew_without_form_is_usage_error(self, tmp_path, capsys):
        target = str(tmp_path / "h1.alg")
        run(capsys, "build", "heisenberg", "1", "-o", target)
        rc, _, err = run(capsys, "der", target, "--skew")
        assert rc == 2 and "form" in err


class TestDotAndDualcheck:
    def test_dot_output(self, tmp_path, capsys):
        target = str(tmp_path / "d4.alg")
        dot = str(tmp_path / "d4.dot")
        run(capsys, "build", "oscillator", "-o", target)
        rc, _, _ = run(capsys, "dot", target, "-o", dot)
        assert rc == 0
        text = open(dot).read()
        assert text.startswith("digraph") and text.count("->") == 3

    def test_dot_deterministic(self, tmp_path, capsys):
        target = str(tmp_path / "n23.alg")
        run(capsys, "build", "n23q", "-o", target)
        d1, d2 = str(tmp_path / "a.dot"), str(tmp_path / "b.dot")
        run(capsys, "dot", target, "-o", d1)
        run(capsys, "dot", target, "-o", d2)
        assert open(d1).read() == open(d2).read()

    def test_dualcheck_passes(self, tmp_path, capsys):
        target = str(tmp_path / "d4.alg")
        run(capsys, "build", "oscillator", "-o", target)
        rc, out, _ = run(capsys, "dualcheck", target, "--trials", "25")
        assert rc == 0 and "all 25 trials passed" in out

    def test_dualcheck_needs_form(self, tmp_path, capsys):
        target = str(tmp_path / "h1.alg")
        run(capsys, "build", "heisenberg", "1", "-o", target)
        rc, _, err = run(capsys, "dualcheck", target)
        assert rc == 2


class TestErrorPaths:
    def test_invalid_jacobi_fails_check(self, tmp_path, capsys):
        bad = tmp_path / "bad.alg"
        bad.write_text("dim 3\nbasis a b c\n"
                       "bracket a b = 1 c\nbracket a c = 1 a\n")
        rc, out, _ = run(capsys, "check", str(bad))
        assert rc == 1 and "jacobi" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.alg"
        bad.write_text("dim 2\nbasis a b\nbracket a q = 1 a\n")
        rc, _, err = run(capsys, "check", str(bad))
        assert rc == 2 and "line 3" in err

    def test_unknown_family(self, tmp_path, capsys):
        rc, _, _ = run(capsys, "build", "octonions",
                       "-o", str(tmp_path / "x.alg"))
        assert rc == 2

    def test_bad_parameter_count(self, tmp_path, capsys):
        rc, _, err = run(capsys, "build", "a-sl2", "-o",
                         str(tmp_path / "x.alg"))
        assert rc == 2 and "parameter" in err

    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, "check", "/nonexistent/path.alg")
        assert rc == 2

"""The metrizability search: recorded outputs and how much work it does.

``data/search_expectations.json`` holds, for every input of ``cases()``, the
(status, reason, form_space_dim, witness, Gram) that ``find_quadratic_structure``
returned before it evaluated its candidate points ahead of the symbolic
pencil. The search must keep returning them byte for byte. To regenerate the
file, only when an output is meant to change, run from the repository root

    PYTHONPATH=src python tests/test_search.py --write
"""

import json
import pathlib
import random
import sys

import quadlie as ql
from quadlie import forms
from quadlie.linalg import qstr

from conftest import corpus_members, seeded_lambdas

DATA = pathlib.Path(__file__).parent / "data" / "search_expectations.json"


def d4_extension(rng):
    """Double extension of d4 by a seeded nonzero inner derivation."""
    d4 = ql.oscillator_d4()
    delta = None
    for m in ql.inner_derivations(d4.algebra).basis:
        term = m.scale(rng.choice((-1, 1)))
        delta = term if delta is None else delta + term
    return ql.double_extension_by_derivation(d4, delta)


def osc_plus_ext():
    """osc ⊕ (d4 extension): no candidate point has a nonzero determinant,
    so the search goes on to the pencil and the random batches."""
    ext = d4_extension(random.Random(19))
    osc = ql.generalized_oscillator(seeded_lambdas(1, 23))
    return ql.quadratic_direct_sum(osc, ext).algebra


def cases(corpus):
    """name -> algebra, covering every path of the search."""
    out = {f"corpus_{name}": q.algebra for name, q in corpus.items()}
    for m in (1, 2, 3):
        out[f"osc_{m}"] = ql.generalized_oscillator(
            seeded_lambdas(m, 19 + m)).algebra
    rng = random.Random(19)
    for k in range(2):
        out[f"d4_ext_{k}"] = d4_extension(rng).algebra
    out["osc_plus_ext"] = osc_plus_ext()
    # zero pencil with the dimension identity holding (12x12, 7 parameters)
    out["split_h3_plus_fn_2_4"] = ql.direct_sum(ql.split_h3_extension(),
                                                ql.free_nilpotent(2, 4))
    # zero pencil and a failed dimension identity
    out["heisenberg_2"] = ql.heisenberg(2)
    # dimension obstruction after PencilTooLarge (7x7, 21 parameters)
    out["heisenberg_3"] = ql.heisenberg(3)
    return out


def record(search) -> dict:
    gram = None
    if search.quadratic is not None:
        gram = [",".join(qstr(x) for x in row)
                for row in search.quadratic.form.gram.entries]
    return {"status": search.status, "reason": search.reason,
            "form_space_dim": search.form_space_dim,
            "witness": None if search.witness is None else list(search.witness),
            "gram": gram}


def test_outputs_match_recorded(corpus):
    expected = json.loads(DATA.read_text())
    algebras = cases(corpus)
    assert sorted(algebras) == sorted(expected)
    for name, algebra in algebras.items():
        assert record(ql.find_quadratic_structure(algebra)) == expected[name], \
            name


def test_recorded_cases_cover_every_path():
    expected = json.loads(DATA.read_text())
    reasons = [e["reason"] or "" for e in expected.values()]
    assert any(e["status"] == "found" for e in expected.values())
    assert any(r.startswith("pencil determinant identically zero")
               and "dimension" not in r for r in reasons)
    assert any(r.startswith("pencil determinant identically zero")
               and "dimension check also fails" in r for r in reasons)
    assert any(r.startswith("dimension obstruction") for r in reasons)
    assert expected["heisenberg_3"]["form_space_dim"] > \
        ql.linalg.DET_PENCIL_MAX_PARAMS


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(forms, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(forms, name, spy)
    return calls


class TestWitnessFirst:
    def test_d4_extension_needs_no_pencil(self, monkeypatch):
        calls = _count_calls(monkeypatch, "det_pencil")
        result = ql.find_quadratic_structure(
            d4_extension(random.Random(5)).algebra)
        assert result.status == "found"
        assert calls == []

    def test_batches_stop_at_first_witness(self, monkeypatch):
        calls = _count_calls(monkeypatch, "eval_pencil_det")
        pencil = _count_calls(monkeypatch, "det_pencil")
        result = ql.find_quadratic_structure(osc_plus_ext())
        assert result.status == "found"
        # 13 candidates, then the first batch's points in order of size
        assert len(pencil) == 1
        assert 13 < len(calls) < 50

    def test_dimension_failure_skips_candidates(self, monkeypatch):
        calls = _count_calls(monkeypatch, "eval_pencil_det")
        result = ql.find_quadratic_structure(ql.heisenberg(3))
        assert result.status == "none"
        assert calls == []


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    DATA.write_text(json.dumps(
        {name: record(ql.find_quadratic_structure(algebra))
         for name, algebra in cases(corpus_members()).items()}, indent=1, sort_keys=True) + "\n")

"""The three benchmark workloads.

Each workload generates its inputs from the seed in ``setup`` (timed as
set-up), lists one round of tasks, and runs a task with ``execute``, which is
the only timed call into quadlie. ``prepare`` builds a task's arguments
before its timer starts; ``render`` turns an output into the text the digest
covers; ``check`` verifies an output with the exact brute-force checks of
``checks.py``.

duality    one long session on a few large quadratic algebras (warm caches;
           incremental elimination under ideal_closure)
solvers    one solver call per task on a fresh algebra object (wide sparse
           constraint systems, determinant pencils)
cli_fresh  one CLI command per task on a generated algebra file, so every
           per-algebra cache starts cold (many small dense products)
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from fractions import Fraction

import quadlie as ql
from quadlie import cli, hall
from quadlie.forms import BilinearForm
from quadlie.lie import LieAlgebra
from quadlie.linalg import Subspace, qstr

import checks

Q = Fraction


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------

class Input:
    """A generated algebra, kept as plain data plus the built objects."""

    def __init__(self, name, algebra, gram=None, quadratic=None):
        self.name = name
        self.algebra = algebra
        self.form = BilinearForm(algebra, gram) if gram is not None else None
        self.n = algebra.dim
        self.table = algebra.table
        self.gram = [list(r) for r in gram.entries] if gram is not None else None
        # whether a nondegenerate invariant form exists, when known
        self.quadratic = (gram is not None) if quadratic is None else quadratic
        self.text = ql.serialize(algebra, self.form)

    def fresh(self):
        """New objects with cold caches for the same algebra and form."""
        alg = LieAlgebra(self.algebra.labels, self.table)
        form = BilinearForm(alg, self.form.gram) if self.form else None
        return alg, form


def quad_input(name, q) -> Input:
    return Input(name, q.algebra, q.form.gram)


def plain_input(name, algebra) -> Input:
    return Input(name, algebra, None, quadratic=False)


def rational_lambdas(rng, m) -> list:
    """Oscillator frequencies p/q with q <= 4, so not all entries are
    integers."""
    return [Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
            for _ in range(m)]


def d4_inner_extension(rng):
    """Double extension of d4 by a seeded nonzero inner derivation."""
    d4 = ql.oscillator_d4()
    inner = ql.inner_derivations(d4.algebra).basis
    coeffs = [rng.choice((-1, 1)) for _ in inner]
    delta = None
    for c, m in zip(coeffs, inner):
        term = m.scale(c)
        delta = term if delta is None else delta + term
    return ql.double_extension_by_derivation(d4, delta)


# bound at import, before a tracer can wrap the module attribute
_free_nilpotent_cache = hall.free_nilpotent


def clear_global_caches() -> None:
    """Make each set-up start cold: the free nilpotent builder memoizes."""
    _free_nilpotent_cache.cache_clear()


def render_basis(sub: Subspace) -> str:
    return ";".join(",".join(qstr(x) for x in row) for row in sub.vectors())


def render_matrix(m) -> str:
    return ";".join(",".join(qstr(x) for x in row) for row in m.entries)


def vectors(sub: Subspace) -> list:
    return [list(v) for v in sub.vectors()]


def random_vector(rng, n) -> list:
    while True:
        v = [Q(rng.randint(-3, 3)) for _ in range(n)]
        if any(v):
            return v


class Workload:
    """Defaults shared by the workloads."""

    # True when every round repeats the first round's tasks exactly, so
    # outputs must repeat too and a check can be reused
    repeats = True
    # True when every task builds new algebra objects
    fresh_per_task = True

    def __init__(self, smoke=False):
        self.smoke = smoke

    def finish(self, prepared, out):
        return out


# ----------------------------------------------------------------------
# duality
# ----------------------------------------------------------------------

class Duality(Workload):
    """dualcheck trials (acceptance criterion 7) and decomposability
    witnesses on double extensions of d4 (criterion 8), in one session."""

    name = "duality"
    # each round draws new random vectors, so a run averages over many
    repeats = False
    fresh_per_task = False
    # trials per round on each algebra, cheapest kind first, and searches
    # per round. The counts put the median inside the a_sl2(3) trials and
    # p90 inside the n32s trials, so that neither quantile sits on the step
    # between two kinds of task.
    FULL = (("tstar_fn23", 6), ("tensor_sl2_3", 8), ("n23s", 6),
            ("a_sl2_3", 10), ("n32s", 8))
    SMOKE = (("tstar_fn23", 1), ("tensor_sl2_2", 1))
    FNPI_PER_ROUND = 12
    EXTENSIONS = 3
    # random closures per search (the library default is 200); a witness on
    # these extensions turns up among the first candidates
    FNPI_TRIALS = 50

    def setup(self, seed):
        rng = random.Random(seed)
        sq = ql.sl2_killing_quadratic()
        makers = {
            "n23s": ql.n23s,
            "a_sl2_3": lambda: ql.a_sl2(3),
            "tensor_sl2_3": lambda: ql.tensor_truncated(sq, 3),
            "tensor_sl2_2": lambda: ql.tensor_truncated(sq, 2),
            "tstar_fn23": lambda: ql.tstar_extension(ql.free_nilpotent(2, 3)),
            "n32s": ql.n32s,
        }
        plan = self.SMOKE if self.smoke else self.FULL
        inputs = {name: quad_input(name, makers[name]()) for name, _ in plan}
        for k in range(1 if self.smoke else self.EXTENSIONS):
            inputs[f"d4_ext_{k}"] = quad_input(f"d4_ext_{k}",
                                               d4_inner_extension(rng))
        return inputs

    def round(self, inputs):
        plan = self.SMOKE if self.smoke else self.FULL
        specs = []
        for name, count in plan:
            specs.extend(("trial", name) for _ in range(count))
        exts = sorted(k for k in inputs if k.startswith("d4_ext_"))
        fnpi = 1 if self.smoke else self.FNPI_PER_ROUND
        specs.extend(("fnpi", exts[k % len(exts)]) for k in range(fnpi))
        # interleave so that every algebra recurs throughout the round
        return specs[::2] + specs[1::2]

    def prepare(self, inputs, spec, seed, index):
        kind, name = spec
        inp = inputs[name]
        rng = random.Random(seed * 1_000_003 + index)
        if kind == "trial":
            return kind, inp, random_vector(rng, inp.n), random_vector(rng, inp.n)
        return kind, inp, rng.randrange(1 << 30)

    def execute(self, prepared):
        kind, inp = prepared[:2]
        L, form, n = inp.algebra, inp.form, inp.n
        if kind == "fnpi":
            return ql.find_nondegenerate_proper_ideal(
                L, form, trials=self.FNPI_TRIALS, seed=prepared[2])
        v, w = prepared[2:]
        ideal = L.ideal_closure(Subspace.span(n, [v]))
        dual = ql.omega_dual(L, form, ideal)
        dual_is_ideal = L.is_ideal(dual)
        back = ql.orthogonal_complement(dual, form)
        bigger = ideal.sum(L.ideal_closure(Subspace.span(n, [w])))
        bigger_is_ideal = L.is_ideal(bigger)
        bigger_perp = ql.orthogonal_complement(bigger, form)
        return {"ideal": ideal, "dual": dual, "back": back, "bigger": bigger,
                "bigger_perp": bigger_perp, "dual_is_ideal": dual_is_ideal,
                "involution": back == ideal,
                "bigger_is_ideal": bigger_is_ideal,
                "reversal": dual.contains(bigger_perp)}

    def render(self, spec, out):
        if spec[0] == "fnpi":
            return "none" if out is None else render_basis(out)
        parts = [render_basis(out[k]) for k in
                 ("ideal", "dual", "back", "bigger", "bigger_perp")]
        parts += [str(out[k]) for k in ("dual_is_ideal", "involution",
                                        "bigger_is_ideal", "reversal")]
        return "|".join(parts)

    def check(self, prepared, out):
        kind, inp = prepared[:2]
        n, t, g = inp.n, inp.table, inp.gram
        if kind == "fnpi":
            if out is None:
                return ["no nondegenerate proper ideal found"]
            basis = vectors(out)
            if not 0 < len(basis) < n:
                return ["witness is not proper"]
            problems = checks.ideal_problems(t, n, basis, "witness")
            if not problems and checks.restricted_det(g, basis) == 0:
                problems.append("form restricted to the witness is degenerate")
            return problems
        v, w = prepared[2:]
        ideal, dual = vectors(out["ideal"]), vectors(out["dual"])
        bigger, bigger_perp = vectors(out["bigger"]), vectors(out["bigger_perp"])
        problems = []
        # the closures must be the smallest ideals containing the vectors
        closure = checks.ideal_closure(t, n, [v])
        if not checks.same_space(ideal, closure, n):
            return ["closure is not the ideal generated by v"]
        if not checks.same_space(
                bigger, checks.ideal_closure(t, n, [w], closure), n):
            problems.append("sum is not the ideal generated by v and w")
        # with the form invariant and nondegenerate (checked on the inputs),
        # the perp of an ideal is an ideal, so this pins the perp down
        problems += checks.perp_problems(g, n, ideal, dual, "perp")
        if not checks.same_space(vectors(out["back"]), ideal, n):
            problems.append("perp is not involutive")
        problems += checks.perp_problems(g, n, bigger, bigger_perp, "sum perp")
        problems += checks.contained_problems(bigger_perp, dual, n,
                                              "order reversal")
        for key in ("dual_is_ideal", "involution", "bigger_is_ideal",
                    "reversal"):
            if out[key] is not True:
                problems.append(f"library verdict {key} is {out[key]}")
        return problems

    def check_inputs(self, inputs):
        return [p for inp in inputs.values() for p in input_problems(inp)]


# ----------------------------------------------------------------------
# solvers
# ----------------------------------------------------------------------

ALL_SOLVERS = ("invariant_forms", "find_quadratic_structure", "derivations",
               "skew_derivations")
NO_DER = ("invariant_forms", "find_quadratic_structure", "skew_derivations")
PLAIN = ("invariant_forms", "find_quadratic_structure", "derivations")


class Solvers(Workload):
    """One solver call per task, on a fresh algebra object each time."""

    name = "solvers"

    def __init__(self, smoke=False):
        super().__init__(smoke)
        self.dims = ExpectedDims()

    def setup(self, seed):
        rng = random.Random(seed)
        sq = ql.sl2_killing_quadratic()
        inputs = {}

        def add(inp, solvers):
            inputs[inp.name] = (inp, solvers)

        if self.smoke:
            add(quad_input("d4", ql.oscillator_d4()), ALL_SOLVERS)
            add(quad_input("gen_osc_1", ql.generalized_oscillator(
                rational_lambdas(rng, 1))), ALL_SOLVERS)
            add(plain_input("heisenberg_1", ql.heisenberg(1)), PLAIN)
            return inputs
        corpus = (
            ("d4", ql.oscillator_d4, ALL_SOLVERS),
            ("tstar_h1", lambda: ql.tstar_extension(ql.heisenberg(1)),
             ALL_SOLVERS),
            ("tstar_sl2", lambda: ql.tstar_extension(ql.sl2()), ALL_SOLVERS),
            ("tstar_fn23", lambda: ql.tstar_extension(ql.free_nilpotent(2, 3)),
             ALL_SOLVERS),
            ("n23q", ql.n23_quadratic, ALL_SOLVERS),
            ("n32q", ql.n32_quadratic, ALL_SOLVERS),
            ("n23s", ql.n23s, ALL_SOLVERS),
            ("a_sl2_1", lambda: ql.a_sl2(1), ALL_SOLVERS),
            # the full derivation algebra of a_sl2(2), a_sl2(3) is left out
            # to keep a round near 8 s; their skew solves stay in
            ("a_sl2_2", lambda: ql.a_sl2(2), NO_DER),
            ("a_sl2_3", lambda: ql.a_sl2(3), NO_DER),
            ("tensor_sl2_1", lambda: ql.tensor_truncated(sq, 1), ALL_SOLVERS),
            ("tensor_sl2_2", lambda: ql.tensor_truncated(sq, 2), ALL_SOLVERS),
            ("tensor_sl2_3", lambda: ql.tensor_truncated(sq, 3), ALL_SOLVERS),
        )
        for name, make, solvers in corpus:
            add(quad_input(name, make()), solvers)
        # seeded quadratic algebras; the many small oscillators fill the
        # cheap end, so that p90 falls inside the dense band of fixed corpus
        # tasks near 80 ms rather than between two lone heavy tasks
        for m, copies in ((1, 4), (2, 2), (3, 4)):
            for c in range(copies):
                add(quad_input(f"gen_osc_{m}_{c}", ql.generalized_oscillator(
                    rational_lambdas(rng, m))), ALL_SOLVERS)
        for k in range(4):
            add(quad_input(f"d4_ext_{k}", d4_inner_extension(rng)), ALL_SOLVERS)
        add(quad_input("osc_sum", ql.quadratic_direct_sum(
            ql.generalized_oscillator(rational_lambdas(rng, 1)),
            ql.generalized_oscillator(rational_lambdas(rng, 1)))), ALL_SOLVERS)
        split = ql.split_h3_extension()
        add(plain_input("split_h3_plus_osc", ql.direct_sum(
            split, ql.generalized_oscillator(rational_lambdas(rng, 1)).algebra)),
            PLAIN)
        for name, alg in (
                ("heisenberg_1", ql.heisenberg(1)),
                ("heisenberg_2", ql.heisenberg(2)),
                ("heisenberg_3", ql.heisenberg(3)),
                ("fn_2_4", ql.free_nilpotent(2, 4)),
                ("fn_3_3", ql.free_nilpotent(3, 3)),
                ("split_h3", split),
                ("split_h3_plus_fn_2_4",
                 ql.direct_sum(split, ql.free_nilpotent(2, 4)))):
            add(plain_input(name, alg), PLAIN)
        return inputs

    def round(self, inputs):
        return [(name, solver) for name, (_, solvers) in inputs.items()
                for solver in solvers]

    def prepare(self, inputs, spec, seed, index):
        name, solver = spec
        inp = inputs[name][0]
        alg, form = inp.fresh()
        return solver, inp, alg, form

    def execute(self, prepared):
        solver, _, alg, form = prepared
        if solver == "invariant_forms":
            return ql.invariant_forms(alg)
        if solver == "find_quadratic_structure":
            return ql.find_quadratic_structure(alg)
        if solver == "derivations":
            return ql.derivations(alg)
        return ql.skew_derivations(alg, form)

    def render(self, spec, out):
        solver = spec[1]
        if solver == "invariant_forms":
            return "|".join(render_matrix(f.gram) for f in out)
        if solver == "find_quadratic_structure":
            gram = render_matrix(out.quadratic.form.gram) if out.quadratic else ""
            return "|".join([out.status, str(out.reason), str(out.form_space_dim),
                             str(out.witness), gram])
        return out.tag + "|" + "|".join(render_matrix(m) for m in out.basis)

    def check(self, prepared, out):
        solver, inp = prepared[:2]
        n, t = inp.n, inp.table
        if solver == "invariant_forms":
            grams = [[list(r) for r in f.gram.entries] for f in out]
            problems = checks.invariant_form_problems(t, n, grams, solver)
            if len(grams) != self.dims.forms(inp):
                problems.append(f"{len(grams)} forms, the space has dimension "
                                f"{self.dims.forms(inp)}")
            return problems
        if solver == "find_quadratic_structure":
            problems = search_problems(inp, out)
            if out.form_space_dim != self.dims.forms(inp):
                problems.append(f"form space dimension {out.form_space_dim}, "
                                f"expected {self.dims.forms(inp)}")
            return problems
        mats = [[list(r) for r in m.entries] for m in out.basis]
        problems = checks.leibniz_problems(t, n, mats, solver)
        if solver == "skew_derivations" and not problems:
            problems = checks.skew_problems(inp.gram, n, mats, solver)
        want = (self.dims.skew(inp) if solver == "skew_derivations"
                else self.dims.derivations(inp))
        if len(mats) != want:
            problems.append(f"basis of {len(mats)}, the space has dimension "
                            f"{want}")
        return problems

    def check_inputs(self, inputs):
        return [p for inp, _ in inputs.values() for p in input_problems(inp)]


class ExpectedDims:
    """Dimensions of the solution spaces, by brute-force elimination of
    the constraint systems in checks.py, once per input."""

    def __init__(self):
        self._memo = {}

    def _get(self, kind, inp, fn, *args):
        key = (kind, inp.name)
        if key not in self._memo:
            self._memo[key] = fn(inp.table, *args, inp.n)
        return self._memo[key]

    def forms(self, inp) -> int:
        return self._get("forms", inp, checks.invariant_form_dim)

    def derivations(self, inp) -> int:
        return self._get("derivations", inp, checks.derivation_dim)

    def skew(self, inp) -> int:
        return self._get("skew", inp, checks.skew_derivation_dim, inp.gram)


def search_problems(inp, out) -> list:
    """A found form must be invariant and nondegenerate; 'none' must be
    reported exactly for the inputs known not to be quadratic, and a cited
    dimension obstruction must hold."""
    n, t = inp.n, inp.table
    if out.status == "found":
        gram = [list(r) for r in out.quadratic.form.gram.entries]
        problems = checks.quadratic_problems(t, n, gram)
        if not inp.quadratic:
            problems.append("form found on an algebra built as non-quadratic")
        return problems
    if inp.quadratic:
        return [f"status {out.status} on a quadratic algebra"]
    if out.status != "none":
        return [f"status {out.status}, expected a certificate"]
    if "dimension obstruction" in (out.reason or ""):
        if checks.derived_dim(t, n) + checks.center_dim(t, n) == n:
            return ["cited dimension obstruction does not hold"]
    return []


def input_problems(inp) -> list:
    problems = checks.jacobi_problems(inp.table, inp.n)
    if inp.gram is not None:
        problems += checks.quadratic_problems(inp.table, inp.n, inp.gram)
    return [f"{inp.name}: {p}" for p in problems]


# ----------------------------------------------------------------------
# cli_fresh
# ----------------------------------------------------------------------

COMMANDS = ("check", "analyze", "forms", "dot")


class CliFresh(Workload):
    """CLI commands on generated algebra files, in-process through
    quadlie.cli.main; every command parses its file anew."""

    name = "cli_fresh"
    # batches of nine generated files; with the three fixed files they give
    # 156 tasks a round, which puts the median inside the band of cheap
    # commands near 25 ms instead of on the step above it
    BATCHES = 4

    def __init__(self, workdir, smoke=False):
        super().__init__(smoke)
        self.workdir = workdir
        self._setups = 0
        self.dims = ExpectedDims()

    def setup(self, seed):
        rng = random.Random(seed)
        files = []

        def add(inp, keep_form=True):
            files.append((inp, keep_form))

        if self.smoke:
            add(quad_input("gen_osc_1", ql.generalized_oscillator(
                rational_lambdas(rng, 1))))
            add(plain_input("split_h3", ql.split_h3_extension()))
        else:
            split = ql.split_h3_extension()
            for b in range(self.BATCHES):
                for m, keep in ((1, True), (2, False), (3, True)):
                    add(quad_input(f"gen_osc_{m}_{b}", ql.generalized_oscillator(
                        rational_lambdas(rng, m))), keep)
                exts = [d4_inner_extension(rng) for _ in range(2)]
                add(quad_input(f"d4_ext_0_{b}", exts[0]), True)
                add(quad_input(f"d4_ext_1_{b}", exts[1]), False)
                osc = ql.generalized_oscillator(rational_lambdas(rng, 1))
                add(quad_input(f"osc_plus_ext_{b}",
                               ql.quadratic_direct_sum(osc, exts[0])), True)
                osc2 = ql.generalized_oscillator(rational_lambdas(rng, 2))
                add(plain_input(f"split_h3_plus_osc_{b}",
                                ql.direct_sum(split, osc2.algebra)))
                add(plain_input(f"heisenberg_1_plus_ext_{b}",
                                ql.direct_sum(ql.heisenberg(1),
                                              d4_inner_extension(rng).algebra)))
                add(plain_input(f"heisenberg_{b % 3 + 1}_{b}",
                                ql.heisenberg(b % 3 + 1)))
            add(plain_input("fn_2_4", ql.free_nilpotent(2, 4)))
            add(plain_input("split_h3", split))
            add(plain_input("split_h3_plus_fn_2_4",
                            ql.direct_sum(split, ql.free_nilpotent(2, 4))))
        self._setups += 1
        folder = os.path.join(self.workdir, f"setup{self._setups}")
        os.makedirs(folder)
        inputs = {}
        for inp, keep_form in files:
            keep_form = keep_form and inp.form is not None
            text = inp.text if keep_form else ql.serialize(inp.algebra)
            path = os.path.join(folder, f"{inp.name}.alg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            inputs[inp.name] = (inp, keep_form, path)
        return inputs

    def round(self, inputs):
        return [(name, cmd) for name in inputs for cmd in COMMANDS]

    def prepare(self, inputs, spec, seed, index):
        name, cmd = spec
        inp, keep_form, path = inputs[name]
        if cmd == "dot" and os.path.exists(path + ".dot"):
            # so that a failing command cannot leave an earlier file to read
            os.remove(path + ".dot")
        argv = {"check": ["check", path],
                "analyze": ["analyze", path, "--json"],
                "forms": ["forms", path],
                "dot": ["dot", path, "-o", path + ".dot"]}[cmd]
        return cmd, inp, keep_form, path, argv

    def execute(self, prepared):
        argv = prepared[4]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def finish(self, prepared, out):
        """Read what a command wrote to disk (outside the timer)."""
        cmd, path = prepared[0], prepared[3]
        if cmd != "dot":
            return out
        if out[0] != 0:
            return out + ("",)
        with open(path + ".dot", encoding="utf-8") as fh:
            return out + (fh.read(),)

    def render(self, spec, out):
        # file paths differ between runs; the digest covers the text only
        return "|".join([str(out[0])] + [re.sub(r"\S*\.alg(\.dot)?", "<file>", s)
                                          for s in out[1:]])

    def check(self, prepared, out):
        cmd, inp, keep_form = prepared[:3]
        code, stdout, stderr = out[:3]
        n, t = inp.n, inp.table
        if stderr:
            return [f"stderr: {stderr.strip()[:200]}"]
        if cmd == "check":
            expect_ok = not checks.jacobi_problems(t, n) and (
                not keep_form or not checks.quadratic_problems(t, n, inp.gram))
            if (code == 0) != expect_ok or not stdout.startswith(
                    "valid:" if expect_ok else "FAIL"):
                return [f"check verdict {code} disagrees with brute force"]
            return []
        if cmd == "analyze":
            return analyze_problems(inp, keep_form, code, stdout)
        if cmd == "forms":
            return forms_problems(inp, code, stdout, self.dims.forms(inp))
        return dot_problems(n, code, out[3])

    def check_inputs(self, inputs):
        return [p for inp, _, _ in inputs.values() for p in input_problems(inp)]


def analyze_problems(inp, keep_form, code, stdout) -> list:
    if code != 0:
        return [f"analyze exit code {code}"]
    report = json.loads(stdout)
    n, t = inp.n, inp.table
    dims = report["dims"]
    problems = []
    if dims["dim"] != n:
        problems.append("dim")
    if dims["derived"] != checks.derived_dim(t, n):
        problems.append("derived dimension disagrees with brute force")
    if dims["center"] != checks.center_dim(t, n):
        problems.append("centre dimension disagrees with brute force")
    status = report["quadratic_status"]
    if keep_form:
        want = status == "given"
    elif inp.quadratic:
        want = status == "quadratic-witnessed"
    else:
        want = status.startswith("not quadratic")
    if not want:
        problems.append(f"quadratic status {status!r}")
    if report["predicates"]["quadratic"] != inp.quadratic:
        problems.append("quadratic predicate")
    if report["predicates"]["abelian"] != (not t):
        problems.append("abelian predicate")
    return problems


def forms_problems(inp, code, stdout, form_dim) -> list:
    lines = stdout.splitlines()
    if not lines or lines[0] != f"invariant symmetric forms: dim {form_dim}":
        return [f"forms output header, expected dim {form_dim}"]
    if not inp.quadratic:
        if code != 1 or "certificate" not in stdout:
            return ["expected a certificate of non-metrizability"]
        return []
    if code != 0:
        return [f"forms exit code {code} on a quadratic algebra"]
    index = {lbl: i for i, lbl in enumerate(inp.algebra.labels)}
    n = inp.n
    gram = [[Q(0)] * n for _ in range(n)]
    for line in lines[2:]:
        _, a, b, _, value = line.split()
        i, j = index[a], index[b]
        gram[i][j] = gram[j][i] = Q(value)
    return checks.quadratic_problems(inp.table, n, gram)


def dot_problems(n, code, text) -> list:
    if code != 0:
        return [f"dot exit code {code}"]
    lines = text.splitlines()
    if lines[:3] != ["digraph ideals {", "  rankdir=BT;",
                     "  node [shape=box];"] or lines[-1] != "}":
        return ["DOT frame"]
    nodes = {}
    for line in lines[3:-1]:
        m = re.match(r'^  n(\d+) \[label="dim (\d+): (.*)"\];$', line)
        if m:
            nodes[int(m.group(1))] = (int(m.group(2)), m.group(3).split(" = "))
            continue
        m = re.match(r"^  n(\d+) -> n(\d+);$", line)
        if not m:
            return [f"DOT line {line!r}"]
        a, b = int(m.group(1)), int(m.group(2))
        if a not in nodes or b not in nodes or nodes[a][0] >= nodes[b][0]:
            return ["DOT edge does not go up in dimension"]
    dims = [d for d, _ in nodes.values()]
    names = [name for _, group in nodes.values() for name in group]
    if not dims or dims != sorted(dims) or dims[0] != 0 or dims[-1] != n:
        return ["DOT node dimensions"]
    if "0" not in names or "g" not in names:
        return ["DOT nodes 0 and g"]
    return []


def make(name, workdir, smoke=False):
    if name == "duality":
        return Duality(smoke)
    if name == "solvers":
        return Solvers(smoke)
    if name == "cli_fresh":
        return CliFresh(workdir, smoke)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("duality", "solvers", "cli_fresh")

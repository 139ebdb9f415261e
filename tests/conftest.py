import random
from fractions import Fraction

import pytest

import quadlie as ql


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for entry in sorted(RESULTS, key=lambda e: e["n"]):
        status = "PASS" if entry["ok"] else "FAIL"
        terminalreporter.write_line(
            f"criterion {entry['n']:2d}: {status} - {entry['desc']}")


def seeded_lambdas(length, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < length:
        lam = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if lam != 0:
            out.append(lam)
    return out


def corpus_members():
    """Every quadratic algebra exercised by the pattern suite, keyed by name."""
    sq = ql.sl2_killing_quadratic()
    members = {
        "d4": ql.oscillator_d4(),
        "gen_osc_1": ql.generalized_oscillator(seeded_lambdas(1, 11)),
        "gen_osc_2": ql.generalized_oscillator(seeded_lambdas(2, 12)),
        "gen_osc_3": ql.generalized_oscillator(seeded_lambdas(3, 13)),
        "tstar_h1": ql.tstar_extension(ql.heisenberg(1)),
        "tstar_sl2": ql.tstar_extension(ql.sl2()),
        "tstar_n23": ql.tstar_extension(ql.free_nilpotent(2, 3)),
        "n23q": ql.n23_quadratic(),
        "n32q": ql.n32_quadratic(),
        "n23s": ql.n23s(),
        "n32s": ql.n32s(),
        "a_sl2_1": ql.a_sl2(1),
        "a_sl2_2": ql.a_sl2(2),
        "a_sl2_3": ql.a_sl2(3),
        "tensor_1": ql.tensor_truncated(sq, 1),
        "tensor_2": ql.tensor_truncated(sq, 2),
        "tensor_3": ql.tensor_truncated(sq, 3),
    }
    return members


@pytest.fixture(scope="session")
def corpus():
    return corpus_members()


def random_vector(rng, n, lo=-3, hi=3):
    while True:
        v = [Fraction(rng.randint(lo, hi)) for _ in range(n)]
        if any(v):
            return v


def random_subspace(rng, n, max_dim=None):
    k = rng.randint(0, max_dim if max_dim is not None else n)
    return ql.Subspace.span(n, [random_vector(rng, n) for _ in range(k)]
                            if k else [])


def random_ideal(algebra, rng):
    return algebra.ideal_closure(
        ql.Subspace.span(algebra.dim, [random_vector(rng, algebra.dim)]))


def jacobi_violations_oracle(algebra):
    """Independent brute-force Jacobi scan over all ordered basis triples."""
    n = algebra.dim
    basis = [algebra.basis_vector(i) for i in range(n)]
    bad = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t1 = algebra.bracket(algebra.bracket(basis[i], basis[j]), basis[k])
                t2 = algebra.bracket(algebra.bracket(basis[j], basis[k]), basis[i])
                t3 = algebra.bracket(algebra.bracket(basis[k], basis[i]), basis[j])
                if any(a + b + c != 0 for a, b, c in zip(t1, t2, t3)):
                    bad.append((i, j, k))
    return bad


def invariance_violations_oracle(algebra, form):
    """Brute-force scan of phi([x,y],z) = phi(x,[y,z]) over basis triples."""
    n = algebra.dim
    basis = [algebra.basis_vector(i) for i in range(n)]
    bad = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = form.evaluate(algebra.bracket(basis[i], basis[j]), basis[k])
                rhs = form.evaluate(basis[i], algebra.bracket(basis[j], basis[k]))
                if lhs != rhs:
                    bad.append((i, j, k))
    return bad

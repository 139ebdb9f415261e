"""Builders for the concrete algebra families and the two extension machines.

Everything here returns either a plain LieAlgebra or a QuadraticAlgebra whose
form was validated at construction. The two generic machines are the
T*-extension (hyperbolic doubling by the dual space, optionally twisted by a
cyclic 2-cocycle) and the double extension of a quadratic algebra by an
algebra acting through skew derivations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .linalg import Matrix, Q, Subspace, as_q
from .lie import LieAlgebra, span_algebra
from .forms import BilinearForm, QuadraticAlgebra, _invariant_grams
from .hall import free_nilpotent, layer_dims, mobius, witt_dim  # noqa: F401
from . import derivations as deriv


def abelian(n: int, prefix: str = "v") -> LieAlgebra:
    if n < 0:
        raise ValueError("negative dimension")
    return LieAlgebra(tuple(f"{prefix}{i + 1}" for i in range(n)), {},
                      provenance="abelian")


def abelian_quadratic(n: int) -> QuadraticAlgebra:
    """Abelian algebra with the identity Gram matrix."""
    alg = abelian(n)
    return QuadraticAlgebra(alg, BilinearForm(alg, Matrix.identity(n)))


def heisenberg(n: int) -> LieAlgebra:
    """2n+1 dimensional Heisenberg algebra: [e_i, e_{n+i}] = z."""
    if n < 1:
        raise ValueError("heisenberg needs n >= 1")
    labels = tuple(f"e{i + 1}" for i in range(2 * n)) + ("z",)
    table = {(i, n + i): {2 * n: Q(1)} for i in range(n)}
    return LieAlgebra(labels, table, provenance=f"heisenberg({n})")


def sl2() -> LieAlgebra:
    """Basis e, f, h with [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    table = {
        (0, 1): {2: Q(1)},
        (0, 2): {0: Q(-2)},
        (1, 2): {1: Q(2)},
    }
    return LieAlgebra(("e", "f", "h"), table, provenance="sl2")


def sl2_killing_quadratic() -> QuadraticAlgebra:
    alg = sl2()
    return QuadraticAlgebra(alg, alg.killing_form())


def oscillator_d4() -> QuadraticAlgebra:
    """The 4-dim oscillator algebra with its invariant Lorentz-type form."""
    table = {
        (0, 1): {2: Q(1)},
        (0, 2): {1: Q(-1)},
        (1, 2): {3: Q(1)},
    }
    alg = LieAlgebra(("x1", "x2", "x3", "z"), table, provenance="oscillator")
    gram = Matrix([
        [0, 0, 0, 1],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [1, 0, 0, 0],
    ])
    return QuadraticAlgebra(alg, BilinearForm(alg, gram))


def split_h3_extension() -> LieAlgebra:
    """Heisenberg h3 extended by the grading derivation d.

    [x,y] = z, [d,x] = x, [d,y] = y, [d,z] = 2z; solvable and centreless,
    with h3 the unique maximal ideal.
    """
    table = {
        (0, 1): {2: Q(1)},
        (0, 3): {0: Q(-1)},
        (1, 3): {1: Q(-1)},
        (2, 3): {2: Q(-2)},
    }
    return LieAlgebra(("x", "y", "z", "d"), table, provenance="split_h3")


# ----------------------------------------------------------------------
# quadratic free nilpotent algebras
# ----------------------------------------------------------------------

def _antidiagonal_quadratic(d: int, t: int, provenance: str) -> QuadraticAlgebra:
    from .forms import invariant_forms
    alg = free_nilpotent(d, t)
    n = alg.dim
    support = {(i, n - 1 - i) for i in range(n)}
    forms = invariant_forms(alg, support=support)
    if len(forms) != 1:
        raise RuntimeError(
            f"expected a unique antidiagonal invariant form, got {len(forms)}")
    form = forms[0]
    if not form.is_nondegenerate():
        raise RuntimeError("antidiagonal invariant form is degenerate")
    tagged = alg.with_metadata(provenance=provenance)
    return QuadraticAlgebra(tagged, BilinearForm(tagged, form.gram))


def n23_quadratic() -> QuadraticAlgebra:
    """The 5-dim free nilpotent algebra on 2 generators, nilpotency class 3,
    with its unique antidiagonal invariant form (normalized primitive, so
    phi(a1, a5) = 1, phi(a2, a4) = -1, phi(a3, a3) = 1)."""
    return _antidiagonal_quadratic(2, 3, "n23_quadratic")


def n32_quadratic() -> QuadraticAlgebra:
    """The 6-dim free nilpotent algebra on 3 generators, nilpotency class 2,
    with its unique antidiagonal invariant form."""
    return _antidiagonal_quadratic(3, 2, "n32_quadratic")


# ----------------------------------------------------------------------
# representations and cocycles
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Representation:
    """Linear action of a Lie algebra: one matrix per source basis element."""
    source: LieAlgebra
    target_dim: int
    matrices: Tuple[Matrix, ...]

    def __post_init__(self):
        if len(self.matrices) != self.source.dim:
            raise ValueError("one matrix per source basis element required")
        for m in self.matrices:
            if m.rows != self.target_dim or m.cols != self.target_dim:
                raise ValueError("representation matrix size mismatch")

    def matrix(self, x: Sequence) -> Matrix:
        out = Matrix.zeros(self.target_dim, self.target_dim)
        for c, m in zip(x, self.matrices):
            c = as_q(c)
            if c != 0:
                out = out + m.scale(c)
        return out

    def homomorphism_violations(self) -> list:
        bad = []
        s = self.source
        for i in range(s.dim):
            for j in range(i + 1, s.dim):
                lhs = Matrix.zeros(self.target_dim, self.target_dim)
                for k, c in s.bracket_basis(i, j).items():
                    lhs = lhs + self.matrices[k].scale(c)
                rhs = self.matrices[i].commutator(self.matrices[j])
                if not (lhs - rhs).is_zero():
                    bad.append((i, j))
        return bad


@dataclass(frozen=True)
class Cocycle2:
    """Antisymmetric table of dual-space values omega(e_i, e_j).

    Used by the T*-extension, where the cyclicity condition
    omega(x,y)(z) = omega(y,z)(x) is required.
    """
    base: LieAlgebra
    values: Dict[Tuple[int, int], Tuple[Fraction, ...]]

    def value(self, i: int, j: int) -> tuple:
        n = self.base.dim
        if i == j:
            return tuple([Q(0)] * n)
        if i < j:
            raw = self.values.get((i, j))
            return tuple(as_q(x) for x in raw) if raw else tuple([Q(0)] * n)
        raw = self.values.get((j, i))
        return tuple(-as_q(x) for x in raw) if raw else tuple([Q(0)] * n)

    def cyclicity_violations(self) -> list:
        n = self.base.dim
        bad = []
        for i in range(n):
            for j in range(i + 1, n):
                v = self.value(i, j)
                if v[i] != 0 or v[j] != 0:
                    bad.append((i, j))
                for k in range(j + 1, n):
                    if v[k] != self.value(j, k)[i]:
                        bad.append((i, j, k))
        return bad


# ----------------------------------------------------------------------
# T*-extension
# ----------------------------------------------------------------------

def tstar_extension(base: LieAlgebra, omega: Optional[Cocycle2] = None
                    ) -> QuadraticAlgebra:
    """Hyperbolic extension of base by its dual space.

    Bracket [a+b, a'+b'] = [a,a'] + omega(a,a') + b o ad a' - b' o ad a,
    with the hyperbolic form q(a+b, a'+b') = b'(a) + b(a'). The dual copy is
    an abelian isotropic ideal equal to its own perp.
    """
    if omega is not None:
        if omega.base is not base:
            raise ValueError("cocycle base mismatch")
        bad = omega.cyclicity_violations()
        if bad:
            raise ValueError(f"cocycle is not cyclic at {bad[:3]}")
    n = base.dim
    labels = base.labels + tuple(f"{lbl}_star" for lbl in base.labels)
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            entry = dict(base.bracket_basis(i, j))
            if omega is not None:
                for k, c in enumerate(omega.value(i, j)):
                    if c != 0:
                        entry[n + k] = entry.get(n + k, Q(0)) + c
            if entry:
                table[(i, j)] = entry
    for i in range(n):
        for j in range(n):
            # [e_i, f^j] = -(f^j o ad e_i)
            entry = {}
            for k in range(n):
                c = base.bracket_basis(i, k).get(j)
                if c:
                    entry[n + k] = -c
            if entry:
                table[(i, n + j)] = entry
    hint = None
    if base.is_simple():
        hint = Subspace.span(2 * n, [[Q(1) if t == i else Q(0)
                                      for t in range(2 * n)] for i in range(n)])
    alg = LieAlgebra(labels, table, levi_hint=hint,
                     provenance="tstar_extension")
    bad = alg.validate()
    if bad:
        raise ValueError(f"cocycle does not satisfy Jacobi: {bad[:3]}")
    rows = [[Q(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][n + i] = Q(1)
        rows[n + i][i] = Q(1)
    return QuadraticAlgebra(alg, BilinearForm(alg, Matrix(rows, 2 * n)))


# ----------------------------------------------------------------------
# double extension
# ----------------------------------------------------------------------

def double_extension(aq: QuadraticAlgebra, g: LieAlgebra,
                     rho: Representation,
                     provenance: str = "double_extension",
                     labels: Optional[Sequence[str]] = None
                     ) -> QuadraticAlgebra:
    """Double extension of the quadratic algebra aq by (g, rho).

    Basis order is (g, a, g*). rho must be a homomorphism of g into the
    skew derivations of aq; the cocycle is
    omega(a, a')(x) = phi_a(rho(x)(a), a') and the form pairs g with g*
    hyperbolically on top of phi_a. ``labels`` replaces the default basis
    labels (those of g, then of a, then of g with a ``_star`` suffix).
    """
    a_alg = aq.algebra
    if rho.source is not g and rho.source.table != g.table:
        raise ValueError("representation source does not match g")
    if rho.target_dim != a_alg.dim:
        raise ValueError("representation target does not match a")
    for idx, m in enumerate(rho.matrices):
        if not deriv.is_derivation(a_alg, m):
            raise ValueError(f"rho(e_{idx}) is not a derivation of a")
        if not deriv.is_skew(aq.form, m):
            raise ValueError(f"rho(e_{idx}) is not skew for the form on a")
    bad = rho.homomorphism_violations()
    if bad:
        raise ValueError(f"rho is not a homomorphism at pairs {bad[:3]}")

    ng, na = g.dim, a_alg.dim
    total = 2 * ng + na
    ga = aq.form.gram.entries
    if labels is None:
        labels = g.labels + a_alg.labels + tuple(f"{lbl}_star"
                                                 for lbl in g.labels)
    table: dict = {}
    for (i, j), comp in g.table.items():
        table[(i, j)] = dict(comp)
    for i in range(ng):
        m = rho.matrices[i].entries
        for j in range(na):
            entry = {ng + p: m[p][j] for p in range(na) if m[p][j] != 0}
            if entry:
                table[(i, ng + j)] = entry
    for i in range(ng):
        for j in range(ng):
            # [g_i, dual_j] = -(dual_j o ad_g e_i)
            entry = {}
            for k in range(ng):
                c = g.bracket_basis(i, k).get(j)
                if c:
                    entry[ng + na + k] = -c
            if entry:
                table[(i, ng + na + j)] = entry
    for p in range(na):
        for q in range(p + 1, na):
            entry = dict(a_alg.bracket_basis(p, q))
            entry = {ng + k: c for k, c in entry.items()}
            for r in range(ng):
                m = rho.matrices[r].entries
                # omega(a_p, a_q)(e_r) = phi_a(rho(e_r) a_p, a_q)
                val = sum((m[s][p] * ga[s][q] for s in range(na)
                           if m[s][p] != 0), Q(0))
                if val != 0:
                    entry[ng + na + r] = val
            if entry:
                table[(ng + p, ng + q)] = entry
    hint = None
    if g.dim > 0 and g.is_simple():
        hint = Subspace.span(total, [[Q(1) if t == i else Q(0)
                                      for t in range(total)]
                                     for i in range(ng)])
    alg = LieAlgebra(labels, table, levi_hint=hint, provenance=provenance)
    rows = [[Q(0)] * total for _ in range(total)]
    for i in range(ng):
        rows[i][ng + na + i] = Q(1)
        rows[ng + na + i][i] = Q(1)
    for p in range(na):
        for q in range(na):
            rows[ng + p][ng + q] = ga[p][q]
    return QuadraticAlgebra(alg, BilinearForm(alg, Matrix(rows, total)))


def double_extension_by_derivation(aq: QuadraticAlgebra, delta: Matrix,
                                   label: str = "d") -> QuadraticAlgebra:
    """Double extension by a one-dimensional algebra acting through one
    skew derivation."""
    g = LieAlgebra((label,), {}, provenance="line")
    rho = Representation(g, aq.algebra.dim, (delta,))
    return double_extension(aq, g, rho)


def generalized_oscillator(lambdas: Sequence) -> QuadraticAlgebra:
    """Double extension of the even orthogonal abelian space by the block
    rotation delta(e_{2i-1}) = l_i e_{2i}, delta(e_{2i}) = -l_i e_{2i-1}.

    Basis is e0 (the extending line), e1..e2m, e{2m+1} (the dual line);
    generalized_oscillator([1]) carries exactly the oscillator_d4 table
    under the relabeling e0, e1, e2, e3 -> x1, x2, x3, z.
    """
    lambdas = [as_q(x) for x in lambdas]
    if not lambdas:
        raise ValueError("need at least one frequency")
    if any(x == 0 for x in lambdas):
        raise ValueError("frequencies must be nonzero")
    m = len(lambdas)
    va = abelian_quadratic(2 * m)
    rows = [[Q(0)] * (2 * m) for _ in range(2 * m)]
    for i, lam in enumerate(lambdas):
        rows[2 * i + 1][2 * i] = lam
        rows[2 * i][2 * i + 1] = -lam
    g = LieAlgebra(("d",), {}, provenance="line")
    rho = Representation(g, 2 * m, (Matrix(rows, 2 * m),))
    return double_extension(va, g, rho, provenance="generalized_oscillator",
                            labels=tuple(f"e{k}" for k in range(2 * m + 2)))


# ----------------------------------------------------------------------
# sl2 modules and the mixed extensions
# ----------------------------------------------------------------------

def sl2_module(n: int) -> Representation:
    """The irreducible (n+1)-dim module V(n) on the weight basis v0..vn,
    as matrices for the basis (e, f, h)."""
    if n < 0:
        raise ValueError("highest weight must be nonnegative")
    dim = n + 1
    e_rows = [[Q(0)] * dim for _ in range(dim)]
    f_rows = [[Q(0)] * dim for _ in range(dim)]
    h_rows = [[Q(0)] * dim for _ in range(dim)]
    for k in range(dim):
        h_rows[k][k] = Q(n - 2 * k)
        if k + 1 < dim:
            f_rows[k + 1][k] = Q(1)
        if k >= 1:
            e_rows[k - 1][k] = Q(k * (n - k + 1))
    return Representation(sl2(), dim,
                          (Matrix(e_rows, dim), Matrix(f_rows, dim),
                           Matrix(h_rows, dim)))


def sl2_module_form(n: int) -> Matrix:
    """The invariant symmetric Gram matrix on V(n); exists only for even n."""
    rep = sl2_module(n)
    grams = matrix_skew_invariant_forms(rep.matrices, rep.target_dim)
    if not grams:
        raise ValueError(
            f"V({n}) carries no invariant symmetric form (odd highest weight)")
    if len(grams) != 1:
        raise RuntimeError("invariant form on an irreducible module must be "
                           "unique up to scale")
    return grams[0]


def matrix_skew_invariant_forms(mats: Sequence[Matrix], dim: int) -> list:
    """Symmetric G with M^T G + G M = 0 for every M, primitive-normalized."""
    return _invariant_grams([m.entries for m in mats], dim)


def a_sl2(m: int) -> QuadraticAlgebra:
    """Double extension of (V(2m), its invariant form) by sl2; dim 2m+7."""
    if m < 1:
        raise ValueError("a_sl2 needs m >= 1")
    rep = sl2_module(2 * m)
    gram = sl2_module_form(2 * m)
    va = abelian(2 * m + 1, prefix="v").with_metadata(provenance="module")
    vaq = QuadraticAlgebra(va, BilinearForm(va, gram))
    return double_extension(vaq, rep.source, rep, provenance=f"a_sl2({m})")


def n23s() -> QuadraticAlgebra:
    """The 11-dim perfect local quadratic extension of the 5-dim quadratic
    free nilpotent algebra by its sl2 block of skew derivations."""
    aq = n23_quadratic()
    g = sl2()
    rho = Representation(g, 5, (deriv.n23_levi_generator(0, 1, 0),
                                deriv.n23_levi_generator(0, 0, 1),
                                deriv.n23_levi_generator(1, 0, 0)))
    return double_extension(aq, g, rho, provenance="n23s")


def n32s() -> QuadraticAlgebra:
    """The 22-dim perfect local quadratic extension of the 6-dim quadratic
    free nilpotent algebra by its 8-dim simple block of skew derivations."""
    aq = n32_quadratic()
    mats = deriv.n32_levi_basis()
    g = span_algebra([m.to_vector() for m in mats], 36, deriv._commutator,
                     [f"s{i + 1}" for i in range(8)], "sl3_block")
    rho = Representation(g, 6, tuple(mats))
    return double_extension(aq, g, rho, provenance="n32s")


# ----------------------------------------------------------------------
# truncated current algebras
# ----------------------------------------------------------------------

def tensor_truncated(sq: QuadraticAlgebra, n: int) -> QuadraticAlgebra:
    """Tensor product with the truncated polynomial algebra K[t]/(t^n).

    Basis x_i t^j with bracket [x t^j, y t^l] = [x,y] t^{j+l} truncated at
    degree n, and form phi(x,y) when the degrees satisfy j + l = n - 1.
    """
    if n < 1:
        raise ValueError("truncation order must be at least 1")
    s = sq.algebra
    ds = s.dim
    total = n * ds
    labels = tuple(f"{lbl}_{j}" for j in range(n) for lbl in s.labels)
    table = {}
    for j in range(n):
        for l in range(j, n):
            if j + l >= n:
                continue
            for i in range(ds):
                start_k = i + 1 if j == l else 0
                for k in range(start_k, ds):
                    comp = s.bracket_basis(i, k)
                    if not comp:
                        continue
                    p, q = j * ds + i, l * ds + k
                    if p == q:
                        continue
                    entry = {(j + l) * ds + r: c for r, c in comp.items()}
                    table[(p, q)] = entry
    hint = None
    if s.is_simple():
        hint = Subspace.span(total, [[Q(1) if t == i else Q(0)
                                      for t in range(total)]
                                     for i in range(ds)])
    alg = LieAlgebra(labels, table, levi_hint=hint if n > 1 else None,
                     provenance=f"tensor_truncated({n})")
    gs = sq.form.gram.entries
    rows = [[Q(0)] * total for _ in range(total)]
    for j in range(n):
        l = n - 1 - j
        for i in range(ds):
            for k in range(ds):
                rows[j * ds + i][l * ds + k] = gs[i][k]
    return QuadraticAlgebra(alg, BilinearForm(alg, Matrix(rows, total)))

"""Derivation algebras as exact linear systems.

der(g) is the solution space of the Leibniz condition, inner derivations are
the span of the adjoint maps, and the skew derivations der_phi(g) intersect
the Leibniz space with the skewness condition G d + d^T G = 0. Closed-form
generator families are provided for the two quadratic free nilpotent
algebras; the solver is the ground truth against which they are checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Sequence

from .linalg import Matrix, Q, RowSpace, Subspace, _primitive
from .lie import LieAlgebra, span_algebra, sparse_kernel
from .forms import BilinearForm


@dataclass(frozen=True)
class DerivationSpace:
    """A space of derivations given by a canonical matrix basis."""
    algebra: LieAlgebra
    basis: tuple
    tag: str

    @property
    def dim(self) -> int:
        return len(self.basis)

    def span(self) -> Subspace:
        n2 = self.algebra.dim ** 2
        return Subspace.span(n2, [m.to_vector() for m in self.basis])

    def contains_matrix(self, m: Matrix) -> bool:
        return self.span().contains_vector(m.to_vector())


def _canonical_matrices(vectors, n: int) -> tuple:
    return tuple(Matrix.from_vector(v, n, n) for v in vectors)


def _leibniz_rows(algebra: LieAlgebra) -> list:
    """Sparse constraint rows for d([ei,ej]) = [d ei, ej] + [ei, d ej].

    Unknown d is vectorized row-major: entry (p, q) at index p*n + q.
    """
    n = algebra.dim
    cols = [algebra._bracket_columns(algebra.basis_vector(t))
            for t in range(n)]
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for p in range(n):
                row = {p * n + k: c for k, c in enumerate(cols[i][j]) if c}
                for q in range(n):
                    # [e_q, e_j]_p = -[e_j, e_q]_p
                    if cols[j][q][p]:
                        row[q * n + i] = row.get(q * n + i, 0) + cols[j][q][p]
                    if cols[i][q][p]:
                        row[q * n + j] = row.get(q * n + j, 0) - cols[i][q][p]
                rows.append(row)
    return rows


def _skew_rows(form: BilinearForm) -> list:
    """Sparse rows for G d + d^T G = 0 (entries i <= j), on the integer G."""
    n = form.gram.rows
    flat = _primitive([x for row in form.gram.entries for x in row])
    g = [flat[i * n:(i + 1) * n] for i in range(n)]
    rows = []
    for i in range(n):
        for j in range(i, n):
            row = {}
            for q in range(n):
                if g[i][q]:
                    row[q * n + j] = row.get(q * n + j, 0) + g[i][q]
                if g[q][j]:
                    row[q * n + i] = row.get(q * n + i, 0) + g[q][j]
            rows.append(row)
    return rows


def derivations(algebra: LieAlgebra) -> DerivationSpace:
    """All derivations, from the Leibniz linear system."""
    n = algebra.dim
    space = sparse_kernel(_leibniz_rows(algebra), n * n)
    return DerivationSpace(algebra, _canonical_matrices(space.vectors(), n),
                           "all")


def inner_derivations(algebra: LieAlgebra) -> DerivationSpace:
    """span{ad e_i}; its dimension is dim g - dim Z(g)."""
    n = algebra.dim
    span = Subspace.span(n * n, [
        [c for row in zip(*algebra._bracket_columns(algebra.basis_vector(i)))
         for c in row] for i in range(n)])
    return DerivationSpace(algebra, _canonical_matrices(span.vectors(), n),
                           "inner")


def skew_derivations(algebra: LieAlgebra, form: BilinearForm
                     ) -> DerivationSpace:
    """Derivations d with phi(d x, y) + phi(x, d y) = 0."""
    if not form.is_nondegenerate():
        raise ValueError("skew derivations need a nondegenerate form")
    n = algebra.dim
    rows = _leibniz_rows(algebra) + _skew_rows(form)
    space = sparse_kernel(rows, n * n)
    return DerivationSpace(algebra, _canonical_matrices(space.vectors(), n),
                           "skew")


def is_derivation(algebra: LieAlgebra, m: Matrix) -> bool:
    if m.rows != algebra.dim or m.cols != algebra.dim:
        raise ValueError("matrix size does not match the algebra")
    n = algebra.dim
    cols = [tuple(m.entries[p][q] for p in range(n)) for q in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = [Q(0)] * n
            for k, c in algebra.bracket_basis(i, j).items():
                for p in range(n):
                    lhs[p] += c * m.entries[p][k]
            rhs = list(algebra.bracket(cols[i], algebra.basis_vector(j)))
            for p, x in enumerate(algebra.bracket(algebra.basis_vector(i),
                                                  cols[j])):
                rhs[p] += x
            if lhs != rhs:
                return False
    return True


def is_skew(form: BilinearForm, m: Matrix) -> bool:
    if m.rows != form.gram.rows or m.cols != form.gram.cols:
        raise ValueError("matrix size does not match the form")
    return (form.gram * m + m.transpose() * form.gram).is_zero()


def bracket_closed(space: DerivationSpace) -> bool:
    """True iff commutators of basis members stay inside the space."""
    span = RowSpace.of(space.span())
    return all(span.contains(a.commutator(b).to_vector())
               for i, a in enumerate(space.basis) for b in space.basis[i + 1:])


# ----------------------------------------------------------------------
# closed-form skew-derivation generators of the quadratic free nilpotent
# algebras (5-dim on 2 generators, 6-dim on 3 generators)
# ----------------------------------------------------------------------

def n23_levi_generator(m1, m2, m3) -> Matrix:
    """Traceless 2x2 block acting diagonally on span{a1,a2} and span{a4,a5}."""
    z = Q(0)
    return Matrix([
        [m1, m2, z, z, z],
        [m3, -Q(m1), z, z, z],
        [z, z, z, z, z],
        [z, z, z, m1, m2],
        [z, z, z, m3, -Q(m1)],
    ])


def n23_inner_generator(v1, v2, v3) -> Matrix:
    """Inner derivation family of the 5-dim quadratic free nilpotent algebra."""
    z = Q(0)
    return Matrix([
        [z, z, z, z, z],
        [z, z, z, z, z],
        [v2, v1, z, z, z],
        [v3, z, v1, z, z],
        [z, v3, -Q(v2), z, z],
    ])


def n32_levi_generator(m1, m2, m3, m4, m5, m6, m7, m8) -> Matrix:
    """Traceless 3x3 block and its induced action on the weight-2 layer."""
    z = Q(0)
    return Matrix([
        [m1, m2, m3, z, z, z],
        [m4, m5, m6, z, z, z],
        [m7, m8, -Q(m1) - Q(m5), z, z, z],
        [z, z, z, Q(m1) + Q(m5), m6, -Q(m3)],
        [z, z, z, m8, -Q(m5), m2],
        [z, z, z, -Q(m7), m4, -Q(m1)],
    ])


def n32_inner_generator(v1, v2, v3) -> Matrix:
    """Inner derivation family of the 6-dim quadratic free nilpotent algebra."""
    z = Q(0)
    return Matrix([
        [z, z, z, z, z, z],
        [z, z, z, z, z, z],
        [z, z, z, z, z, z],
        [v1, v2, z, z, z, z],
        [v3, z, v2, z, z, z],
        [z, v3, -Q(v1), z, z, z],
    ])


def n23_levi_basis() -> tuple:
    return (n23_levi_generator(1, 0, 0), n23_levi_generator(0, 1, 0),
            n23_levi_generator(0, 0, 1))


def n23_inner_basis() -> tuple:
    return (n23_inner_generator(1, 0, 0), n23_inner_generator(0, 1, 0),
            n23_inner_generator(0, 0, 1))


def n32_levi_basis() -> tuple:
    units = []
    for i in range(8):
        args = [0] * 8
        args[i] = 1
        units.append(n32_levi_generator(*args))
    return tuple(units)


def n32_inner_basis() -> tuple:
    return (n32_inner_generator(1, 0, 0), n32_inner_generator(0, 1, 0),
            n32_inner_generator(0, 0, 1))


# A dimension of 10 is sometimes quoted for the skew derivations of the
# 6-dim quadratic free nilpotent algebra, while the closed-form display
# above carries 11 parameters. The solver result is authoritative; the
# report below flags any mismatch instead of reconciling it by hand.
N32_SKEW_QUOTED_DIM = 10
N32_SKEW_DISPLAY_PARAMS = 11


def n32_skew_report(algebra: LieAlgebra, form: BilinearForm) -> dict:
    """Cross-check the closed-form generators against the solver."""
    levi = n32_levi_basis()
    inner_gens = n32_inner_basis()
    solver = skew_derivations(algebra, form)
    span = RowSpace.of(solver.span())
    all_validate = all(is_derivation(algebra, m) and is_skew(form, m)
                       for m in levi + inner_gens)
    in_space = all(span.contains(m.to_vector()) for m in levi + inner_gens)
    inner = inner_derivations(algebra)
    contains_inner = all(span.contains(m.to_vector()) for m in inner.basis)
    # the closed-form block must close into an algebra with nondegenerate
    # Killing form
    try:
        levi_alg = matrix_span_algebra(levi)
    except ValueError:
        levi_alg = None
    closes = levi_alg is not None
    killing_nondeg = closes and levi_alg.is_semisimple()
    return {
        "solver_dim": solver.dim,
        "display_params": N32_SKEW_DISPLAY_PARAMS,
        "quoted_dim": N32_SKEW_QUOTED_DIM,
        "quoted_dim_matches_solver": solver.dim == N32_SKEW_QUOTED_DIM,
        "display_matrices_validate": all_validate,
        "display_matrices_in_solver_space": in_space,
        "contains_inner": contains_inner,
        "inner_dim": inner.dim,
        "levi_block_closes": closes,
        "levi_block_killing_nondegenerate": killing_nondeg,
    }


def _commutator(x: Sequence, y: Sequence) -> tuple:
    """Commutator of two square matrices flattened row-major."""
    n = isqrt(len(x))
    a, b = Matrix.from_vector(x, n, n), Matrix.from_vector(y, n, n)
    return a.commutator(b).to_vector()


def matrix_span_algebra(mats: Sequence[Matrix]) -> LieAlgebra:
    """Abstract Lie algebra of the span of matrices, on the canonical basis
    of that span; raises ValueError when the span is not commutator-closed."""
    if not mats:
        raise ValueError("empty matrix family")
    n = mats[0].rows
    basis = Subspace.span(n * n, [m.to_vector() for m in mats]).vectors()
    return span_algebra(basis, n * n, _commutator,
                        [f"s{i + 1}" for i in range(len(basis))], "matrix_span")

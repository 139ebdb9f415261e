"""Invariant symmetric bilinear forms on Lie algebras.

Validation of invariance and nondegeneracy, the solver for the full space of
invariant symmetric forms, the metrizability search with exact certificates,
orthogonal complements, the perp duality on ideals, and the structural
pattern report for quadratic algebras.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .linalg import (Matrix, PencilTooLarge, Q, Subspace, _primitive, as_q,
                     det, det_pencil, eval_pencil_det, greedy_extension,
                     kernel)
from .lie import LieAlgebra, TypePair, sparse_kernel


class BilinearForm:
    """Symmetric bilinear form on a Lie algebra, given by its Gram matrix."""

    __slots__ = ("algebra", "gram", "_cache")

    def __init__(self, algebra: LieAlgebra, gram: Matrix):
        if gram.rows != algebra.dim or gram.cols != algebra.dim:
            raise ValueError("Gram matrix size does not match the algebra")
        if not gram.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("BilinearForm is immutable")

    def evaluate(self, x: Sequence, y: Sequence) -> Q:
        gx = self.gram.apply(y)
        return sum((as_q(a) * b for a, b in zip(x, gx)), Q(0))

    def determinant(self) -> Q:
        if "det" not in self._cache:
            self._cache["det"] = det(self.gram)
        return self._cache["det"]

    def is_nondegenerate(self) -> bool:
        return self.determinant() != 0

    def __repr__(self) -> str:
        return f"BilinearForm(dim {self.gram.rows})"


def is_invariant(algebra: LieAlgebra, form: BilinearForm) -> bool:
    """phi([x,y],z) = phi(x,[y,z]); equivalently every ad(e_i) is skew.

    One walk over the nonzero structure constants builds the trilinear form
    t(i, j, k) = phi([e_i, e_j], e_k) for i < j. It is skew in (i, j) by
    construction, and phi is invariant iff it is skew in (j, k) too, that is
    iff t is alternating: each nonzero value recurs, up to the sign of the
    permutation, at all three places of its triple a < b < c. A triple with
    a repeated index has one place only, so a nonzero value there fails.
    """
    support = [[(k, x) for k, x in enumerate(row) if x]
               for row in form.gram.entries]
    t = {}
    for (i, j), comp in algebra.table.items():
        for m, c in comp.items():
            for k, x in support[m]:
                t[i, j, k] = t.get((i, j, k), 0) + c * x
    triples = {}
    for (i, j, k), v in t.items():
        if not v:
            continue
        # (i, j, k) -> sorted: k > j and k < i are even permutations
        if k > j:
            triples.setdefault((i, j, k), []).append(v)
        elif k < i:
            triples.setdefault((k, i, j), []).append(v)
        else:
            triples.setdefault((i, k, j), []).append(-v)
    return all(len(vs) == 3 and vs[0] == vs[1] == vs[2]
               for vs in triples.values())


def validate_quadratic(algebra: LieAlgebra, form: BilinearForm) -> list:
    """Diagnostics aggregating symmetry, invariance and nondegeneracy."""
    problems = []
    if not form.gram.is_symmetric():
        problems.append("gram matrix is not symmetric")
    if not is_invariant(algebra, form):
        problems.append("form is not invariant")
    if not form.is_nondegenerate():
        problems.append("form is degenerate")
    return problems


class QuadraticAlgebra:
    """A Lie algebra together with a validated invariant nondegenerate form."""

    __slots__ = ("algebra", "form")

    def __init__(self, algebra: LieAlgebra, form: BilinearForm):
        problems = validate_quadratic(algebra, form)
        if problems:
            raise ValueError("not a quadratic structure: " + "; ".join(problems))
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "form", form)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticAlgebra is immutable")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def __repr__(self) -> str:
        tag = self.algebra.provenance or "quadratic"
        return f"QuadraticAlgebra(dim {self.dim}, {tag})"


def orthogonal_complement(u: Subspace, form: BilinearForm) -> Subspace:
    """U^perp = {x : phi(x, u) = 0 for all u in U}; requires phi nondegenerate."""
    if not form.is_nondegenerate():
        raise ValueError("orthogonal complement needs a nondegenerate form")
    if u.ambient != form.gram.rows:
        raise ValueError("ambient dimension mismatch")
    if u.is_zero():
        return Subspace.full(u.ambient)
    return kernel(u.basis * form.gram)


def restrict_gram(form: BilinearForm, u: Subspace) -> Matrix:
    """Gram matrix of the form restricted to the basis of u."""
    b = u.basis
    return b * form.gram * b.transpose()


def _symmetric_index(n: int):
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    pos = {p: i for i, p in enumerate(pairs)}
    return pairs, pos


def _primitive_gram(vec: Sequence[Q], n: int, pairs) -> Matrix:
    ints = _primitive(vec)
    if next((x for x in ints if x), 1) < 0:
        ints = [-x for x in ints]
    rows = [[Q(0)] * n for _ in range(n)]
    for (a, b), x in zip(pairs, ints):
        rows[a][b] = Q(x)
        rows[b][a] = Q(x)
    return Matrix(rows, n)


def _invariant_grams(mats: Sequence[Sequence[Sequence]], n: int,
                     support: Optional[set] = None) -> list:
    """Primitive basis of {symmetric G : G M + M^T G = 0 for every M in mats},
    with entries outside ``support`` (when given) constrained to zero. Each M
    is given by its rows and read as its primitive integer form."""
    pairs, pos = _symmetric_index(n)
    rows = []
    for mat in mats:
        flat = _primitive([x for row in mat for x in row])
        a = [flat[m * n:(m + 1) * n] for m in range(n)]
        for i in range(n):
            for j in range(i, n):
                row = {}
                for m in range(n):
                    if a[m][j]:
                        key = pos[(i, m) if i <= m else (m, i)]
                        row[key] = row.get(key, 0) + a[m][j]
                    if a[m][i]:
                        key = pos[(m, j) if m <= j else (j, m)]
                        row[key] = row.get(key, 0) + a[m][i]
                rows.append(row)
    if support is not None:
        support = {(min(a, b), max(a, b)) for a, b in support}
        for p in pairs:
            if p not in support:
                rows.append({pos[p]: 1})
    space = sparse_kernel(rows, len(pairs))
    return [_primitive_gram(v, n, pairs) for v in space.vectors()]


def invariant_forms(algebra: LieAlgebra,
                    support: Optional[set] = None) -> list:
    """Basis of the space of invariant symmetric bilinear forms.

    Solves {symmetric G : G ad(e_k) + ad(e_k)^T G = 0 for all k}. When
    ``support`` is given, entries outside that set of (i, j) pairs (i <= j)
    are constrained to zero. Members are scaled to primitive integer Gram
    matrices with positive leading entry.
    """
    # the rows of ad(e_k) are the transposed integer bracket columns
    mats = [list(zip(*algebra._bracket_columns(algebra.basis_vector(t))))
            for t in range(algebra.dim)]
    return [BilinearForm(algebra, g)
            for g in _invariant_grams(mats, algebra.dim, support)]


@dataclass(frozen=True)
class QuadraticSearch:
    """Outcome of the metrizability search.

    status is one of 'found', 'none', 'undecided'. For 'none' the reason is
    an exact certificate; for 'undecided' it describes the sampling fallback.
    """
    status: str
    quadratic: Optional[QuadraticAlgebra]
    reason: Optional[str]
    form_space_dim: int
    witness: Optional[tuple]


def _candidates(m: int):
    """All ones, then the unit points."""
    yield tuple([1] * m)
    for j in range(m):
        yield tuple(1 if i == j else 0 for i in range(m))


def _first_witness(grams, points) -> Optional[tuple]:
    return next((p for p in points if eval_pencil_det(grams, p) != 0), None)


def _random_witness(grams, rng, rounds) -> Optional[tuple]:
    """Seeded batches of 200 points in [-r, r]^m, r = 1, 2, 4, ...: the
    smallest point, by (max |x|, sum |x|, x), with a nonzero determinant in
    the first batch that has one. Each batch is evaluated in that order up
    to its first hit."""
    m = len(grams)
    radius = 1
    for _ in range(rounds):
        batch = set()
        for _ in range(200):
            point = tuple(rng.randint(-radius, radius) for _ in range(m))
            if any(point):
                batch.add(point)
        hit = _first_witness(grams, sorted(
            batch, key=lambda p: (max(abs(x) for x in p),
                                  sum(abs(x) for x in p), p)))
        if hit is not None:
            return hit
        radius *= 2
    return None


def find_quadratic_structure(algebra: LieAlgebra, seed: int = 0) -> QuadraticSearch:
    """Find an invariant nondegenerate symmetric form, or certify none exists.

    The search is exact and runs in this order:

    1. An empty invariant-form space certifies non-metrizability.
    2. When dim g = dim g^2 + dim Z(g) holds, the candidate points of the
       pencil t1*B1 + ... + tm*Bm over the basis of that space (all ones,
       then the unit points) are evaluated; the first with a nonzero
       determinant is the witness.
    3. Otherwise the pencil determinant is expanded symbolically (up to
       12x12 with 12 parameters): identically zero certifies that every
       invariant form is degenerate.
    4. A failed dimension identity certifies non-metrizability.
    5. Seeded batches of random points (``_random_witness``) look for a
       witness. A nonzero symbolic pencil that yields none reports a spent
       budget; a pencil too large to expand reports 'undecided'.

    Step 2 returns what steps 3-5 would: a nonzero point proves the pencil
    nonzero, and the sampling tried the same points first, in the same order.
    """
    forms = invariant_forms(algebra)
    m = len(forms)
    if m == 0:
        return QuadraticSearch("none", None,
                               "no nonzero invariant symmetric form exists",
                               0, None)
    d2 = algebra.derived_subalgebra().dim
    z = algebra.center().dim
    dim_ok = d2 + z == algebra.dim
    grams = [f.gram for f in forms]
    witness = _first_witness(grams, _candidates(m)) if dim_ok else None
    symbolic = None
    if witness is None:
        try:
            symbolic = det_pencil(grams)
        except PencilTooLarge:
            pass
        if symbolic is not None and symbolic.is_zero():
            reason = ("pencil determinant identically zero (verified "
                      "symbolically); every invariant symmetric form is "
                      "degenerate")
            if not dim_ok:
                reason += (f"; dimension check also fails "
                           f"(dim g^2 + dim Z = {d2} + {z} != {algebra.dim})")
            return QuadraticSearch("none", None, reason, m, None)
        if not dim_ok:
            reason = (f"dimension obstruction: dim g^2 + dim Z = {d2} + {z} "
                      f"!= {algebra.dim}; no invariant nondegenerate form "
                      f"exists")
            return QuadraticSearch("none", None, reason, m, None)
        witness = _random_witness(grams, random.Random(seed),
                                  rounds=12 if symbolic is not None else 8)
    if witness is not None:
        gram = Matrix([[sum((t * g.entries[i][j] for t, g in zip(witness, grams)),
                            Q(0)) for j in range(algebra.dim)]
                       for i in range(algebra.dim)], algebra.dim)
        quad = QuadraticAlgebra(algebra, BilinearForm(algebra, gram))
        return QuadraticSearch("found", quad, None, m, witness)
    if symbolic is not None:
        # nonzero polynomial: the seeded search is guaranteed to end, so
        # reaching this point means the round budget was too small
        return QuadraticSearch("undecided", None,
                               "nonzero pencil but witness search budget "
                               "exhausted", m, None)
    return QuadraticSearch("undecided", None,
                           "pencil too large for symbolic expansion and "
                           "degree-bound sampling found no witness", m, None)


# ----------------------------------------------------------------------
# duality
# ----------------------------------------------------------------------

def omega_dual(algebra: LieAlgebra, form: BilinearForm, ideal: Subspace
               ) -> Subspace:
    """The perp of an ideal; an ideal again, and an involution on ideals."""
    if not algebra.is_ideal(ideal):
        raise ValueError("omega duality is defined on ideals only")
    return orthogonal_complement(ideal, form)


@dataclass(frozen=True)
class DualityReport:
    involution_ok: bool
    ideal_image_ok: bool
    order_reversal_ok: bool
    series_orthogonality_ok: bool
    dim_identity_ok: bool
    failures: tuple


def duality_report(algebra: LieAlgebra, form: BilinearForm,
                   ideals: Sequence[Subspace]) -> DualityReport:
    """Check the perp duality on the supplied ideals and on the central series."""
    failures = []
    involution = True
    image_ideal = True
    duals = [omega_dual(algebra, form, ideal) for ideal in ideals]
    for i, (ideal, dual) in enumerate(zip(ideals, duals)):
        if not algebra.is_ideal(dual):
            image_ideal = False
            failures.append(f"perp of ideal #{i} is not an ideal")
        if orthogonal_complement(dual, form) != ideal:
            involution = False
            failures.append(f"perp is not involutive on ideal #{i}")
    order = True
    for i, a in enumerate(ideals):
        for j, b in enumerate(ideals):
            if i != j and b.contains(a) and not duals[i].contains(duals[j]):
                order = False
                failures.append(f"order reversal fails on #{i} <= #{j}")
    series_ok, dims_ok, series_failures = _series_duality(algebra, form)
    return DualityReport(involution, image_ideal, order, series_ok, dims_ok,
                         tuple(failures) + series_failures)


def _series_duality(algebra: LieAlgebra, form: BilinearForm) -> tuple:
    """(perps of the lower central series equal the upper central series,
    the dimensions add up to dim g, failure messages); depends only on the
    algebra and the form, so it is cached on the form, keyed by the algebra."""
    cached = form._cache.get("series_duality")
    if cached is None or cached[0] is not algebra:
        series = algebra.series()
        lower = list(series.lower_central)
        upper = list(series.upper_central)
        depth = max(len(lower), len(upper))
        lower += [lower[-1]] * (depth - len(lower))
        upper += [upper[-1]] * (depth - len(upper))
        series_ok = True
        dims_ok = True
        failures = []
        for t in range(depth):
            perp = orthogonal_complement(lower[t], form)
            if perp != upper[t]:
                series_ok = False
                failures.append(f"(g^{t + 1})^perp != Z_{t}")
            if lower[t].dim + upper[t].dim != algebra.dim:
                dims_ok = False
                failures.append(f"dim g^{t + 1} + dim Z_{t} != dim g")
        cached = (algebra, (series_ok, dims_ok, tuple(failures)))
        form._cache["series_duality"] = cached
    return cached[1]


# ----------------------------------------------------------------------
# pattern report and decomposability
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PatternReport:
    eq5_holds: bool
    eq6_holds: bool
    eq6_printed_variant_holds: bool
    reduced_part: Subspace
    abelian_part: Subspace
    is_reduced: bool
    is_decomposable_witnessed: bool
    witness_ideal: Optional[Subspace]
    type_pair: TypePair
    solvable_center_ok: Optional[bool]


def _complement_inside(inner: Subspace, outer: Subspace) -> Subspace:
    """Canonical complement of inner within outer, greedy over outer's
    canonical basis rows."""
    vecs = outer.vectors()
    return Subspace.span(outer.ambient,
                         [vecs[j] for j in greedy_extension(inner, vecs)])


def pattern_report(algebra: LieAlgebra, form: BilinearForm,
                   witness_trials: int = 50, seed: int = 0) -> PatternReport:
    """Structural patterns of a quadratic algebra.

    Splits the algebra as reduced perp abelian: the abelian part is the
    canonical complement of Z(g) intersect g^2 inside Z(g), which is
    automatically nondegenerate, and the reduced part is its perp.
    """
    problems = validate_quadratic(algebra, form)
    if problems:
        raise ValueError("pattern report needs a quadratic algebra: "
                         + "; ".join(problems))
    z = algebra.center()
    d2 = algebra.derived_subalgebra()
    perp_d2 = orthogonal_complement(d2, form)
    eq5 = perp_d2 == z
    eq6 = d2.dim + z.dim == algebra.dim
    eq6_printed = perp_d2.dim + z.dim == algebra.dim
    z_meet_d2 = z.intersect(d2)
    abelian_part = _complement_inside(z_meet_d2, z)
    reduced_part = orthogonal_complement(abelian_part, form)
    reduced = d2.contains(z)
    witness = find_nondegenerate_proper_ideal(algebra, form,
                                              trials=witness_trials, seed=seed)
    solvable_ok = None
    if algebra.dim > 0 and algebra.is_solvable():
        solvable_ok = z.dim > 0
    return PatternReport(eq5, eq6, eq6_printed, reduced_part, abelian_part,
                         reduced, witness is not None, witness,
                         algebra.type_pair(), solvable_ok)


def _random_vector(rng: random.Random, n: int) -> list:
    while True:
        v = [Q(rng.randint(-3, 3)) for _ in range(n)]
        if any(x != 0 for x in v):
            return v


def find_nondegenerate_proper_ideal(algebra: LieAlgebra, form: BilinearForm,
                                    trials: int = 200, seed: int = 0
                                    ) -> Optional[Subspace]:
    """Semi-decision witness search for decomposability.

    Scans a deterministic candidate pool (series terms, radicals, centre
    pieces, ideal closures of basis and seeded random vectors, and perps of
    all of these) for a proper ideal on which the form restricts
    nondegenerately. 'None' is not a proof of indecomposability.
    """
    n = algebra.dim
    series = algebra.series()
    pool = []
    pool.extend(series.derived[1:])
    pool.extend(series.lower_central[1:])
    pool.extend(series.upper_central[1:])
    z = algebra.center()
    d2 = algebra.derived_subalgebra()
    pool.extend([algebra.radical(), algebra.nilradical(),
                 algebra.jacobson_radical(), z,
                 _complement_inside(z.intersect(d2), z)])
    pool.extend(algebra.nilradical_powers())
    for i in range(n):
        pool.append(algebra.ideal_closure(
            Subspace.span(n, [algebra.basis_vector(i)])))
    rng = random.Random(seed)
    for _ in range(trials):
        pool.append(algebra.ideal_closure(
            Subspace.span(n, [_random_vector(rng, n)])))
    with_perps = []
    seen = set()
    for cand in pool:
        for item in (cand, orthogonal_complement(cand, form)):
            if item not in seen:
                seen.add(item)
                with_perps.append(item)
    for cand in with_perps:
        if cand.dim == 0 or cand.dim == n:
            continue
        if not algebra.is_ideal(cand):
            continue
        if det(restrict_gram(form, cand)) != 0:
            return cand
    return None


def quadratic_direct_sum(a: QuadraticAlgebra, b: QuadraticAlgebra
                         ) -> QuadraticAlgebra:
    """Orthogonal direct sum of quadratic algebras (block Gram)."""
    from .lie import direct_sum
    algebra = direct_sum(a.algebra, b.algebra)
    n = algebra.dim
    na = a.dim
    rows = [[Q(0)] * n for _ in range(n)]
    for i in range(na):
        for j in range(na):
            rows[i][j] = a.form.gram.entries[i][j]
    for i in range(b.dim):
        for j in range(b.dim):
            rows[na + i][na + j] = b.form.gram.entries[i][j]
    return QuadraticAlgebra(algebra, BilinearForm(algebra, Matrix(rows, n)))

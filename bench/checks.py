"""Exact brute-force checks for benchmark outputs.

Everything here works from the bracket table ``{(i, j): {k: c}}`` (i < j)
and the Gram matrix as plain lists of Fractions, with its own elimination,
so a fault in quadlie's linear algebra cannot hide itself. Each check
returns a list of problem strings; an empty list means the output is right.
"""

from __future__ import annotations

from fractions import Fraction

Q = Fraction


def bracket(table, n, x, y) -> list:
    out = [Q(0)] * n
    for (i, j), comp in table.items():
        f = x[i] * y[j] - x[j] * y[i]
        if f:
            for k, c in comp.items():
                out[k] += f * c
    return out


def basis_bracket(table, i, j) -> dict:
    if i == j:
        return {}
    if i < j:
        return table.get((i, j), {})
    return {k: -c for k, c in table.get((j, i), {}).items()}


def ad_matrix(table, n, i) -> list:
    """Column j of ad(e_i) is [e_i, e_j]."""
    rows = [[Q(0)] * n for _ in range(n)]
    for j in range(n):
        for k, c in basis_bracket(table, i, j).items():
            rows[k][j] = c
    return rows


def echelon(vectors, width) -> list:
    """Reduced rows (pivot 1) spanning the given vectors, keyed by pivot."""
    rows = {}
    for v in vectors:
        reduce_into(rows, v, width)
    return rows


def reduce_into(rows, vec, width) -> bool:
    """Add vec to the echelon dict rows; True when the span grew."""
    v = [Q(x) for x in vec]
    for p in sorted(rows):
        if v[p]:
            f = v[p]
            v = [a - f * b for a, b in zip(v, rows[p])]
    lead = next((i for i in range(width) if v[i]), None)
    if lead is None:
        return False
    inv = 1 / v[lead]
    v = [x * inv for x in v]
    for p, row in rows.items():
        if row[lead]:
            f = row[lead]
            rows[p] = [a - f * b for a, b in zip(row, v)]
    rows[lead] = v
    return True


def in_span(rows, vec) -> bool:
    v = [Q(x) for x in vec]
    for p in sorted(rows):
        if v[p]:
            f = v[p]
            v = [a - f * b for a, b in zip(v, rows[p])]
    return not any(v)


def rank(vectors, width) -> int:
    return len(echelon(vectors, width))


def sparse_rank(rows) -> int:
    """Rank of rows given as {column: value} dicts (echelon on the lowest
    column), for the wide, sparse constraint systems below."""
    pivots = {}
    for row in rows:
        row = {k: v for k, v in row.items() if v}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = 1 / row[lead]
                pivots[lead] = {k: v * inv for k, v in row.items()}
                break
            f = row[lead]
            for k, v in pivot.items():
                x = row.get(k, 0) - f * v
                if x:
                    row[k] = x
                else:
                    row.pop(k, None)
    return len(pivots)


def det(matrix) -> Q:
    n = len(matrix)
    a = [[Q(x) for x in row] for row in matrix]
    out = Q(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return Q(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        out *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return out


def matmul(a, b) -> list:
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Q(0)) for col in bt]
            for row in a]


def transpose(a) -> list:
    return [list(col) for col in zip(*a)]


# ----------------------------------------------------------------------
# algebra-level checks
# ----------------------------------------------------------------------

def jacobi_problems(table, n) -> list:
    for i in range(n):
        for j in range(i + 1, n):
            bij = basis_bracket(table, i, j)
            for k in range(j + 1, n):
                acc = [Q(0)] * n
                terms = ((bij, k), (basis_bracket(table, j, k), i),
                         (basis_bracket(table, k, i), j))
                for comp, b in terms:
                    for m, coeff in comp.items():
                        for p, d in basis_bracket(table, m, b).items():
                            acc[p] += coeff * d
                if any(acc):
                    return [f"jacobi fails on ({i}, {j}, {k})"]
    return []


def invariance_problems(table, n, gram) -> list:
    """phi([e_i, e_j], e_k) = phi(e_i, [e_j, e_k]) on every basis triple."""
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(n)):
        return ["gram matrix is not symmetric"]
    for i in range(n):
        for j in range(n):
            bij = basis_bracket(table, i, j)
            for k in range(n):
                lhs = sum((c * gram[m][k] for m, c in bij.items()), Q(0))
                rhs = sum((c * gram[i][m]
                           for m, c in basis_bracket(table, j, k).items()), Q(0))
                if lhs != rhs:
                    return [f"form not invariant on ({i}, {j}, {k})"]
    return []


def quadratic_problems(table, n, gram) -> list:
    problems = invariance_problems(table, n, gram)
    if not problems and det(gram) == 0:
        problems.append("form is degenerate")
    return problems


def derived_dim(table, n) -> int:
    vecs = []
    for comp in table.values():
        v = [Q(0)] * n
        for k, c in comp.items():
            v[k] = c
        vecs.append(v)
    return rank(vecs, n)


def center_dim(table, n) -> int:
    # x is central iff ad(e_j) x = -[x, e_j] = 0 for every j
    rows = []
    for j in range(n):
        rows.extend(ad_matrix(table, n, j))
    return n - rank(rows, n)


# ----------------------------------------------------------------------
# subspace-level checks
# ----------------------------------------------------------------------

def ideal_closure(table, n, vectors, ideal=()) -> list:
    """The smallest ideal containing the vectors and the given ideal: span
    them, then add [e_i, b] for every e_i and every vector b that grew the
    span, until nothing grows. The ideal's own vectors are not bracketed."""
    rows = echelon(ideal, n)
    queue = [list(v) for v in vectors if reduce_into(rows, v, n)]
    while queue:
        b = queue.pop()
        for i in range(n):
            x = [Q(0)] * n
            for j, bj in enumerate(b):
                if bj:
                    for k, c in basis_bracket(table, i, j).items():
                        x[k] += bj * c
            if reduce_into(rows, x, n):
                queue.append(x)
    return list(rows.values())


def ideal_problems(table, n, basis, label) -> list:
    """[e_i, b] lies in span(basis) for every basis vector e_i and b."""
    if len(basis) in (0, n):
        return []
    rows = echelon(basis, n)
    if len(rows) != len(basis):
        return [f"{label}: basis is not linearly independent"]
    for b in basis:
        for i in range(n):
            e = [Q(0)] * n
            e[i] = Q(1)
            if not in_span(rows, bracket(table, n, e, b)):
                return [f"{label}: not an ideal"]
    return []


def perp_problems(gram, n, u, w, label) -> list:
    """w is the orthogonal complement of u: dim u + dim w = n and
    u^T G w = 0 (with G nondegenerate this pins w down)."""
    if rank(u, n) + rank(w, n) != n:
        return [f"{label}: dim U + dim U^perp != n"]
    gw = [[sum((gram[r][c] * x for c, x in enumerate(v)), Q(0))
           for r in range(n)] for v in w]
    for a in u:
        for gv in gw:
            if sum((x * y for x, y in zip(a, gv)), Q(0)):
                return [f"{label}: U^perp is not orthogonal to U"]
    return []


def contained_problems(inner, outer, n, label) -> list:
    rows = echelon(outer, n)
    if all(in_span(rows, v) for v in inner):
        return []
    return [f"{label}: containment fails"]


def same_space(a, b, n) -> bool:
    return (rank(a, n) == rank(b, n) == rank(list(a) + list(b), n))


def restricted_det(gram, basis) -> Q:
    g = matmul(matmul(basis, gram), transpose(basis))
    return det(g)


# ----------------------------------------------------------------------
# derivation and form checks
# ----------------------------------------------------------------------

def leibniz_problems(table, n, mats, label) -> list:
    """D[e_i, e_j] = [D e_i, e_j] + [e_i, D e_j] for every returned D."""
    if rank([[x for row in m for x in row] for m in mats], n * n) != len(mats):
        return [f"{label}: basis is not linearly independent"]
    for idx, m in enumerate(mats):
        cols = [[m[p][q] for p in range(n)] for q in range(n)]
        for i in range(n):
            ei = [Q(0)] * n
            ei[i] = Q(1)
            for j in range(i + 1, n):
                ej = [Q(0)] * n
                ej[j] = Q(1)
                lhs = [Q(0)] * n
                for k, c in basis_bracket(table, i, j).items():
                    for p in range(n):
                        lhs[p] += c * m[p][k]
                r1 = bracket(table, n, cols[i], ej)
                r2 = bracket(table, n, ei, cols[j])
                if any(a != b + c for a, b, c in zip(lhs, r1, r2)):
                    return [f"{label}: basis matrix {idx} is not a derivation"]
    return []


def _leibniz_rows(table, n) -> list:
    """Constraints on the entries D[p][q] (column p*n + q) of a derivation:
    component p of D[e_i, e_j] - [D e_i, e_j] - [e_i, D e_j], i < j."""
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            eqs = [{} for _ in range(n)]
            for k, c in basis_bracket(table, i, j).items():
                for p in range(n):
                    eqs[p][p * n + k] = eqs[p].get(p * n + k, 0) + c
            for q in range(n):
                # D e_i has D[q][i] on e_q; [e_q, e_j] and [e_i, e_q]
                for p, c in basis_bracket(table, q, j).items():
                    eqs[p][q * n + i] = eqs[p].get(q * n + i, 0) - c
                for p, c in basis_bracket(table, i, q).items():
                    eqs[p][q * n + j] = eqs[p].get(q * n + j, 0) - c
            rows.extend(eqs)
    return rows


def derivation_dim(table, n) -> int:
    return n * n - sparse_rank(_leibniz_rows(table, n))


def skew_derivation_dim(table, gram, n) -> int:
    """Leibniz plus (D^T G + G D)[a][b] = 0 for a <= b."""
    rows = _leibniz_rows(table, n)
    for a in range(n):
        for b in range(a, n):
            row = {}
            for q in range(n):
                for col, g in ((q * n + a, gram[q][b]),
                               (q * n + b, gram[a][q])):
                    if g:
                        row[col] = row.get(col, 0) + g
            rows.append(row)
    return n * n - sparse_rank(rows)


def invariant_form_dim(table, n) -> int:
    """Dimension of the symmetric S with S([e_i, e_j], e_k) =
    S(e_i, [e_j, e_k]) on every basis triple."""
    index = {}
    for c, (a, b) in enumerate((a, b) for a in range(n)
                               for b in range(a, n)):
        index[a, b] = index[b, a] = c
    rows = []
    for i in range(n):
        for j in range(n):
            bij = basis_bracket(table, i, j)
            for k in range(n):
                row = {}
                for m, c in bij.items():
                    row[index[m, k]] = row.get(index[m, k], 0) + c
                for m, c in basis_bracket(table, j, k).items():
                    row[index[i, m]] = row.get(index[i, m], 0) - c
                rows.append(row)
    return n * (n + 1) // 2 - sparse_rank(rows)


def skew_problems(gram, n, mats, label) -> list:
    """phi(D x, y) + phi(x, D y) = 0, i.e. D^T G + G D = 0."""
    for idx, m in enumerate(mats):
        a = matmul(transpose(m), gram)
        b = matmul(gram, m)
        if any(a[i][j] + b[i][j] for i in range(n) for j in range(n)):
            return [f"{label}: basis matrix {idx} is not skew"]
    return []


def invariant_form_problems(table, n, grams, label) -> list:
    flat = [[x for row in g for x in row] for g in grams]
    if rank(flat, n * n) != len(grams):
        return [f"{label}: forms are not linearly independent"]
    for idx, g in enumerate(grams):
        problems = invariance_problems(table, n, g)
        if problems:
            return [f"{label}: form {idx}: {problems[0]}"]
    return []

"""Locality, the local-quadratic classifier, analysis reports and chain
diagrams of characteristic ideals.

A Lie algebra is local when it has exactly one maximal ideal. The maximal
ideals of g are those of g/J, where J = [g, rad] is the Jacobson radical, and
g/J is reductive; a reductive algebra has one maximal ideal exactly when it
is one-dimensional or simple, which is the operative test here. When a
constructor supplied a designated Levi subalgebra, a structural cross-check
is run and disagreement is surfaced as a flag instead of being silently
resolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .linalg import RowSpace, Subspace, qstr
from .lie import LieAlgebra, TypePair
from .forms import (BilinearForm, find_quadratic_structure,
                    orthogonal_complement, validate_quadratic)


def is_local(algebra: LieAlgebra) -> bool:
    """Exactly one maximal ideal: g/J is one-dimensional or simple, with
    J = [g, rad] the Jacobson radical.

    g/J is the Levi factor times the centre rad/J, so when J != rad the
    quotient has a nonzero centre and is local only when it is that centre,
    of dimension one; when J = rad it is semisimple and local only when
    simple.
    """
    if algebra.dim == 0:
        return False
    jac = algebra.jacobson_radical()
    if jac != algebra.radical():
        return algebra.dim - jac.dim == 1
    return algebra.quotient(jac, check=False).is_simple()


def levi_cross_check(algebra: LieAlgebra, local: Optional[bool] = None
                     ) -> Optional[dict]:
    """Structural check of a designated Levi subalgebra against locality.

    Returns None when no levi_hint is present. Checks that the hint plus the
    nilradical decomposes the algebra and that the hint is one-dimensional
    or simple as a subalgebra; ``consistent`` compares the combined verdict
    with the radical-based locality test, whose result may be passed in as
    ``local`` when the caller already has it.
    """
    hint = algebra.levi_hint
    if hint is None:
        return None
    nil = algebra.nilradical()
    splits = (hint.sum(nil).is_full()
              and hint.intersect(nil).is_zero())
    hint_kind = None
    if hint.dim == 1:
        hint_kind = "one-dimensional"
    else:
        try:
            sub = algebra.subalgebra(hint)
            if sub.is_simple():
                hint_kind = "simple"
        except ValueError:
            hint_kind = None
    structural = splits and hint_kind is not None
    return {
        "splits_with_nilradical": splits,
        "hint_kind": hint_kind,
        "structural_local": structural,
        "consistent": structural == (is_local(algebra) if local is None
                                     else local),
    }


def _center_of(algebra: LieAlgebra, u: Subspace) -> Subspace:
    """Centre of the subspace u viewed inside the algebra: u ∩ centralizer(u)."""
    return u.intersect(algebra.centralizer(u))


def classify_local_quadratic(algebra: LieAlgebra, form: BilinearForm) -> str:
    """One of 'a'..'e' per the local quadratic structure theorem, or
    'unclassified'; each letter is only assigned when its defining
    predicates verifiably hold. Raises when the input is not quadratic or
    not local."""
    problems = validate_quadratic(algebra, form)
    if problems:
        raise ValueError("classification needs a quadratic algebra: "
                         + "; ".join(problems))
    if not is_local(algebra):
        raise ValueError("classification needs a local algebra")
    return _classify(algebra, form)


def _classify(algebra: LieAlgebra, form: BilinearForm) -> str:
    """classify_local_quadratic on an algebra already known to be local and
    quadratic under form."""
    if algebra.dim == 1:
        return "a"
    if algebra.is_simple():
        return "b"
    jac = algebra.jacobson_radical()
    nil = algebra.nilradical()
    # central split extension of a simple algebra by its dual module
    if (jac.dim * 2 == algebra.dim
            and algebra.product_subspace(jac, jac).is_zero()
            and orthogonal_complement(jac, form) == jac
            and algebra.quotient(jac, check=False).is_simple()):
        return "c"
    nil_perp = orthogonal_complement(nil, form)
    # nil contains J, and J != 0 for a local algebra that is neither simple
    # nor one-dimensional, so the powers are not empty
    nil_sq = algebra.nilradical_powers()[0]
    if algebra.is_solvable():
        z = algebra.center()
        if (nil == algebra.derived_subalgebra()
                and nil.dim == algebra.dim - 1
                and nil_perp == z and z.dim == 1
                and nil_sq.contains(z)):
            return "d"
    else:
        zn = _center_of(algebra, nil)
        if (algebra.is_perfect()
                and not algebra.is_semisimple()
                and nil_perp == zn
                and nil_sq.contains(nil_perp)
                and nil.contains(nil_sq) and nil != nil_sq
                and algebra.product_subspace(algebra.full_space(), nil) == nil):
            return "e"
    return "unclassified"


@dataclass(frozen=True)
class AnalysisReport:
    dims: dict
    predicates: dict
    type_pair: TypePair
    classification: str
    quadratic_status: str
    pattern: dict
    levi_check: Optional[dict]

    def to_jsonable(self) -> dict:
        return {
            "dims": dict(self.dims),
            "predicates": dict(self.predicates),
            "type_pair": [self.type_pair.r, self.type_pair.s],
            "classification": self.classification,
            "quadratic_status": self.quadratic_status,
            "pattern": dict(self.pattern),
            "levi_check": dict(self.levi_check) if self.levi_check else None,
        }


def analyze(algebra: LieAlgebra, form: Optional[BilinearForm] = None,
            seed: int = 0) -> AnalysisReport:
    """Full structural report; when no form is supplied, a quadratic
    structure is searched for and the outcome recorded."""
    quadratic_status = "given"
    if form is None:
        search = find_quadratic_structure(algebra, seed=seed)
        if search.status == "found":
            form = search.quadratic.form
            quadratic_status = "quadratic-witnessed"
        elif search.status == "none":
            quadratic_status = f"not quadratic ({search.reason})"
        else:
            quadratic_status = f"undecided ({search.reason})"
    else:
        problems = validate_quadratic(algebra, form)
        if problems:
            raise ValueError("supplied form is not a quadratic structure: "
                             + "; ".join(problems))
    z = algebra.center()
    d2 = algebra.derived_subalgebra()
    dims = {
        "dim": algebra.dim,
        "derived": d2.dim,
        "center": z.dim,
        "radical": algebra.radical().dim,
        "nilradical": algebra.nilradical().dim,
        "jacobson": algebra.jacobson_radical().dim,
    }
    predicates = {
        "abelian": algebra.is_abelian(),
        "nilpotent": algebra.is_nilpotent(),
        "solvable": algebra.is_solvable(),
        "perfect": algebra.is_perfect(),
        "semisimple": algebra.is_semisimple(),
        "simple": algebra.is_simple(),
        "reduced": d2.contains(z),
        "local": is_local(algebra),
        "quadratic": form is not None,
    }
    pattern = {}
    classification = "unclassified"
    if form is not None:
        perp_d2 = orthogonal_complement(d2, form)
        pattern = {
            "derived_perp_equals_center": perp_d2 == z,
            "dim_identity": d2.dim + z.dim == algebra.dim,
            "dim_identity_printed_variant": perp_d2.dim + z.dim == algebra.dim,
        }
        if predicates["local"]:
            classification = _classify(algebra, form)
    return AnalysisReport(dims, predicates, algebra.type_pair(),
                          classification, quadratic_status, pattern,
                          levi_cross_check(algebra, predicates["local"]))


# ----------------------------------------------------------------------
# chain diagrams
# ----------------------------------------------------------------------

def chain_nodes(algebra: LieAlgebra, form: Optional[BilinearForm] = None,
                extra: Sequence[Tuple[str, Subspace]] = ()) -> list:
    """Named characteristic ideals, deduplicated by subspace equality.

    Returns [(names, subspace)] sorted by dimension then basis entries;
    perps of every named ideal are included when a form is supplied.
    """
    named = [("0", algebra.zero_space()), ("g", algebra.full_space()),
             ("Z", algebra.center())]
    series = algebra.series()
    for t, term in enumerate(series.lower_central[1:], start=2):
        named.append((f"g^{t}", term))
    for t, term in enumerate(series.derived[1:], start=2):
        named.append((f"g^({t})", term))
    for t, term in enumerate(series.upper_central[2:], start=2):
        named.append((f"Z_{t}", term))
    named.append(("rad", algebra.radical()))
    named.append(("nilrad", algebra.nilradical()))
    named.append(("jac", algebra.jacobson_radical()))
    for t, power in enumerate(algebra.nilradical_powers(), start=2):
        named.append((f"nilrad^{t}", power))
    named.extend(extra)
    if form is not None:
        for name, sub in list(named):
            named.append((f"perp({name})", orthogonal_complement(sub, form)))
    groups = {}
    for name, sub in named:
        groups.setdefault(sub, []).append(name)
    items = []
    for sub, names in groups.items():
        uniq = sorted(set(names))
        items.append((uniq, sub))
    items.sort(key=lambda it: (it[1].dim,
                               tuple(tuple(qstr(x) for x in row)
                                     for row in it[1].basis.entries)))
    return items


def is_chain(nodes: Sequence[Tuple[list, Subspace]]) -> bool:
    """True when the deduplicated nodes are totally ordered by containment."""
    for (_, a), (_, b) in zip(nodes, nodes[1:]):
        if not b.contains(a):
            return False
    return True


def chain_dot(algebra: LieAlgebra, form: Optional[BilinearForm] = None,
              extra: Sequence[Tuple[str, Subspace]] = (),
              graph_name: str = "ideals") -> str:
    """DOT digraph of the named characteristic ideals with covering edges.

    Output is deterministic: nodes are sorted by dimension and canonical
    basis, and only covering containments are drawn. Each node is loaded
    into one RowSpace, and a containment is tested only from a smaller
    dimension to a larger one: the nodes are distinct subspaces, so two of
    equal dimension never contain each other.
    """
    nodes = chain_nodes(algebra, form, extra)
    lines = [f"digraph {graph_name} {{", "  rankdir=BT;", "  node [shape=box];"]
    for idx, (names, sub) in enumerate(nodes):
        label = f"dim {sub.dim}: " + " = ".join(names)
        lines.append(f'  n{idx} [label="{label}"];')
    spaces = [RowSpace.of(sub) for _, sub in nodes]
    contained = [[sub.dim < rs.dim and rs.contains_space(sub) for rs in spaces]
                 for (_, sub) in nodes]
    for i in range(len(nodes)):
        for j in range(len(nodes)):
            if not contained[i][j]:
                continue
            if any(contained[i][k] and contained[k][j]
                   for k in range(len(nodes))):
                continue
            lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"

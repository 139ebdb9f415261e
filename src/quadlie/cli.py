"""Command-line surface.

    quadlie build <family> [params ...] -o FILE
    quadlie check FILE
    quadlie analyze FILE [--json]
    quadlie forms FILE
    quadlie der FILE [--skew]
    quadlie dot FILE -o FILE.dot
    quadlie dualcheck FILE [--seed N] [--trials K]

Exit codes: 0 success or affirmative verdict, 1 negative verdict, 2 usage or
parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import Optional

from . import build as builders
from .analysis import analyze, chain_dot
from .derivations import derivations, skew_derivations
from .fileio import ParseError, parse, serialize
from .forms import (QuadraticAlgebra, duality_report, find_quadratic_structure,
                    validate_quadratic)
from .linalg import Subspace, parse_q, qstr


class UsageError(ValueError):
    pass


def _build_family(family: str, params: list):
    """Build a named family; returns LieAlgebra or QuadraticAlgebra."""

    def want(n, kinds):
        if len(params) != n:
            raise UsageError(f"family {family!r} takes {n} parameter(s), "
                             f"got {len(params)}")
        out = []
        for p, kind in zip(params, kinds):
            try:
                out.append(int(p) if kind == "int" else parse_q(p))
            except ValueError:
                raise UsageError(f"bad {kind} parameter {p!r}") from None
        return out

    if family == "abelian":
        (n,) = want(1, ["int"])
        return builders.abelian_quadratic(n)
    if family == "heisenberg":
        (n,) = want(1, ["int"])
        return builders.heisenberg(n)
    if family == "free-nilpotent":
        d, t = want(2, ["int", "int"])
        return builders.free_nilpotent(d, t)
    if family == "n23q":
        want(0, [])
        return builders.n23_quadratic()
    if family == "n32q":
        want(0, [])
        return builders.n32_quadratic()
    if family == "oscillator":
        want(0, [])
        return builders.oscillator_d4()
    if family == "gen-oscillator":
        if not params:
            raise UsageError("gen-oscillator needs at least one frequency")
        try:
            lams = [parse_q(p) for p in params]
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        return builders.generalized_oscillator(lams)
    if family == "tstar0":
        if not params:
            raise UsageError("tstar0 needs a base family, e.g. "
                             "'tstar0 heisenberg 1'")
        base = _build_family(params[0], params[1:])
        if isinstance(base, QuadraticAlgebra):
            base = base.algebra
        return builders.tstar_extension(base)
    if family == "tensor-trunc":
        (n,) = want(1, ["int"])
        return builders.tensor_truncated(builders.sl2_killing_quadratic(), n)
    if family == "sl2":
        want(0, [])
        return builders.sl2()
    if family == "a-sl2":
        (m,) = want(1, ["int"])
        return builders.a_sl2(m)
    if family == "n23s":
        want(0, [])
        return builders.n23s()
    if family == "n32s":
        want(0, [])
        return builders.n32s()
    if family == "split-h3":
        want(0, [])
        return builders.split_h3_extension()
    raise UsageError(f"unknown family {family!r}")


FAMILIES = ("abelian", "heisenberg", "free-nilpotent", "n23q", "n32q",
            "oscillator", "gen-oscillator", "tstar0", "tensor-trunc", "sl2",
            "a-sl2", "n23s", "n32s", "split-h3")


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _cmd_build(args) -> int:
    result = _build_family(args.family, args.params)
    if isinstance(result, QuadraticAlgebra):
        text = serialize(result.algebra, result.form)
    else:
        text = serialize(result)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.output}")
    return 0


def _cmd_check(args) -> int:
    algebra, form = _load(args.file)
    problems = [f"jacobi fails on basis triple {t[1:]}"
                for t in algebra.validate()]
    if form is not None:
        problems.extend(validate_quadratic(algebra, form))
    if problems:
        for p in problems:
            print(f"FAIL: {p}")
        return 1
    print(f"valid: dim {algebra.dim}"
          + (", quadratic form valid" if form is not None else ""))
    return 0


def _cmd_analyze(args) -> int:
    algebra, form = _load(args.file)
    report = analyze(algebra, form, seed=args.seed)
    if args.json:
        print(json.dumps(report.to_jsonable(), indent=2, sort_keys=True))
        return 0
    print(f"dim = {report.dims['dim']}")
    for key in ("derived", "center", "radical", "nilradical", "jacobson"):
        print(f"dim {key} = {report.dims[key]}")
    preds = ", ".join(k for k, v in report.predicates.items() if v)
    print(f"predicates: {preds or 'none'}")
    print(f"type pair (r, s) = ({report.type_pair.r}, {report.type_pair.s})")
    print(f"quadratic: {report.quadratic_status}")
    if report.pattern:
        for key, val in report.pattern.items():
            print(f"pattern {key}: {'yes' if val else 'NO'}")
    print(f"classification: {report.classification}")
    if report.levi_check is not None:
        flag = "consistent" if report.levi_check["consistent"] else "DISAGREES"
        print(f"levi cross-check: {flag}")
    return 0


def _cmd_forms(args) -> int:
    algebra, _ = _load(args.file)
    search = find_quadratic_structure(algebra, seed=args.seed)
    print(f"invariant symmetric forms: dim {search.form_space_dim}")
    if search.status == "found":
        print("nondegenerate invariant form found:")
        g = search.quadratic.form.gram
        for i in range(algebra.dim):
            for j in range(i, algebra.dim):
                if g.entries[i][j] != 0:
                    print(f"  form {algebra.labels[i]} {algebra.labels[j]} = "
                          f"{qstr(g.entries[i][j])}")
        return 0
    if search.status == "none":
        print(f"no nondegenerate invariant form (certificate): {search.reason}")
        return 1
    print(f"undecided: {search.reason}")
    return 1


def _cmd_der(args) -> int:
    algebra, form = _load(args.file)
    if args.skew:
        if form is None:
            raise UsageError("--skew needs a form in the algebra file")
        space = skew_derivations(algebra, form)
        print(f"dim der_phi = {space.dim}")
    else:
        space = derivations(algebra)
        print(f"dim der = {space.dim}")
    return 0


def _cmd_dot(args) -> int:
    algebra, form = _load(args.file)
    text = chain_dot(algebra, form)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.output}")
    return 0


def _cmd_dualcheck(args) -> int:
    algebra, form = _load(args.file)
    if form is None:
        raise UsageError("dualcheck needs a form in the algebra file")
    problems = validate_quadratic(algebra, form)
    if problems:
        print("FAIL: " + "; ".join(problems))
        return 1
    rng = random.Random(args.seed)
    n = algebra.dim
    failures = 0
    for trial in range(args.trials):
        vec = [rng.randint(-3, 3) for _ in range(n)]
        if not any(vec):
            continue
        ideal = algebra.ideal_closure(Subspace.span(n, [vec]))
        bigger = ideal.sum(algebra.ideal_closure(
            Subspace.span(n, [[rng.randint(-3, 3) for _ in range(n)]])))
        report = duality_report(algebra, form, [ideal, bigger])
        for failure in report.failures:
            failures += 1
            print(f"trial {trial}: {failure}")
    if failures:
        print(f"dualcheck: {failures} failure(s) in {args.trials} trials")
        return 1
    print(f"dualcheck: all {args.trials} trials passed")
    return 0


@functools.lru_cache(maxsize=None)
def _make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused: parsing
    leaves the parser unchanged, and every call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="quadlie",
        description="exact toolkit for quadratic Lie algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a named family and write it")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("check", help="validate an algebra file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("analyze", help="structural analysis report")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("forms", help="invariant forms and metrizability")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_forms)

    p = sub.add_parser("der", help="derivation algebra dimension")
    p.add_argument("file")
    p.add_argument("--skew", action="store_true")
    p.set_defaults(func=_cmd_der)

    p = sub.add_parser("dot", help="DOT diagram of characteristic ideals")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("dualcheck", help="randomized perp-duality checks")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=_cmd_dualcheck)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

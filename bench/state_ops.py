#!/usr/bin/env python3
"""Time the four single operations on n32s (dim 22) that ROADMAP's "State"
section quotes, once each, so they can be set beside the benchmark.

    python3 bench/state_ops.py [--seed 1]

n32s build; ``quadlie analyze`` on an n32s file with its form; skew
derivations of n32s; 20 ideal closures of seeded random vectors in n32s.
Prints one JSON object with each time raw and scaled to the reference host
speed the way run.py scales its times.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys
import tempfile

from run import ROOT, Clock, import_quadlie


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    ql = import_quadlie()
    from quadlie import cli
    from quadlie.linalg import Subspace

    with Clock() as clock:
        out = {}

        def timed(name, fn, *args):
            result, raw, scaled = clock.time(fn, *args)
            if isinstance(result, Exception):
                raise result
            out[name] = {"raw_s": raw, "scaled_s": scaled}
            return result

        q = timed("n32s_build", ql.n32s)
        work = ROOT / ".bench_work"
        work.mkdir(exist_ok=True)
        fd, path = tempfile.mkstemp(suffix=".alg", dir=work)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(ql.serialize(q.algebra, q.form))
            with contextlib.redirect_stdout(io.StringIO()):
                code = timed("cli_analyze_with_form", cli.main,
                             ["analyze", path])
            if code != 0:
                raise SystemExit(f"analyze exited with {code}")
        finally:
            os.unlink(path)
            with contextlib.suppress(OSError):
                work.rmdir()
        skew = timed("skew_derivations", ql.skew_derivations, q.algebra,
                     q.form)
        out["skew_derivations_dim"] = skew.dim

        rng = random.Random(args.seed)
        n = q.dim
        vecs = []
        while len(vecs) < 20:
            v = [rng.randint(-3, 3) for _ in range(n)]
            if any(v):
                vecs.append(v)

        def closures():
            for v in vecs:
                q.algebra.ideal_closure(Subspace.span(n, [v]))

        timed("ideal_closure_x20", closures)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

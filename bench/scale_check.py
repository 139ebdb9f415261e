#!/usr/bin/env python3
"""Check that run.py's host-speed scaling holds for long calls.

    python3 bench/scale_check.py [--repeats 30]

Times the same call (skew derivations of a_sl2(3), about 1 s) many times and
prints, for each way of reading its time, the median and the spread
(distance between the quartiles / median): the raw wall time; the time
scaled with probes inside the call, as run.py reports it; and the time
scaled only by the mean of one probe just before and one just after the
call. The call's work never changes, so the spread that remains is
measurement error.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from run import Clock, import_quadlie


def spread(values) -> str:
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (f"median {med:.4f} s, spread {(q[2] - q[0]) / med:.3f}, "
            f"max/min {max(values) / min(values):.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args()
    ql = import_quadlie()
    from quadlie.forms import BilinearForm
    from quadlie.lie import LieAlgebra

    q = ql.a_sl2(3)

    def call():
        alg = LieAlgebra(q.algebra.labels, q.algebra.table)
        return ql.skew_derivations(alg, BilinearForm(alg, q.form.gram))

    raw, in_span, ends = [], [], []
    with Clock() as clock:
        for _ in range(args.repeats):
            clock.tick()
            before = clock.speeds[-1]
            _, r, scaled = clock.time(call)
            clock.tick()
            after = clock.speeds[-1]
            raw.append(r)
            in_span.append(scaled)
            ends.append(r / ((before + after) / 2))
    print(f"raw               {spread(raw)}")
    print(f"probes inside     {spread(in_span)}")
    print(f"probes at ends    {spread(ends)}")
    print(f"host slowness     {spread(clock.speeds)}".replace(" s,", ","))
    return 0


if __name__ == "__main__":
    sys.exit(main())

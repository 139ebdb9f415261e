#!/usr/bin/env python3
"""quadlie benchmark: closed loop, one client, one process, no threads.

    python3 bench/run.py --workload duality --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --smoke

Run from the root of a checkout; quadlie is imported from its ``src/``.
With ``--trace 0`` the run builds the workload's inputs several times
(``setup_s`` is the median), then runs whole rounds of tasks until
``--seconds`` of task time have passed, and reports the end-to-end metrics.
Rounds repeat the same tasks (in duality with fresh random vectors). With
``--trace 1`` it runs one round untraced, then sets up again and runs the
round with every layer entry point wrapped, and reports the per-layer
metrics. Every task output is checked exactly outside the timer. The last
line of standard output is one JSON object.

Times are scaled to a reference host speed. The host this runs on changes
speed by 2 to 3x, for seconds to minutes at a time, so a fixed probe (exact
determinant of one 10x10 rational matrix, benchmark code only) is timed
before every task and set-up and every TICK_S of wall time inside them, from
a SIGALRM handler in the same thread. Each stretch of wall time between two
probes is scaled by REFERENCE_PROBE_S / p, where p is the mean of the last
two probes, and the probes' own time is left out. A change to quadlie moves
the measured time and not the probe. The raw times and the host speed are
printed as well.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 1
SETUP_REPS = 3
# at least ten samples beyond p90
MIN_SAMPLES = 100
# the probe's time on the host the baseline was taken on, in its fast state
REFERENCE_PROBE_S = 0.00135
# wall time between probes inside a long task or set-up
TICK_S = 0.1
# a run never measures longer than this, whatever --seconds says, so that it
# ends well within its three-minute limit on a slow machine
WALL_CAP_S = 100.0

END_TO_END = (("setup_s", "s"), ("tasks_per_s", "1/s"), ("task_ms.p50", "ms"),
              ("task_ms.p90", "ms"), ("peak_rss_mb", "MB"))

# builders whose cost shows in set-up; the rest of quadlie.build is trivial
REPORTED_BUILDERS = (
    "build.n32s", "build.n23s", "build.a_sl2", "build.tensor_truncated",
    "build.tstar_extension", "build.double_extension",
    "build.double_extension_by_derivation", "build.generalized_oscillator",
    "build.n23_quadratic", "build.n32_quadratic",
    "build.matrix_skew_invariant_forms", "hall.free_nilpotent")

LAYER_COUNTS = (
    ("linalg.kernel.cells_in", "count"),
    ("linalg.Matrix.mul.mults", "count"),
    ("linalg.RowSpace.add.accept_ratio", "ratio"),
    ("linalg.eval_pencil_det.hit_ratio", "ratio"),
    ("lie.sparse_kernel.rows_in", "count"),
    ("lie.sparse_kernel.unique_ratio", "ratio"),
    ("lie.cache.hit_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
)


def fail(message: str) -> "NoReturn":
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_quadlie():
    """Import quadlie from this checkout's src/ and nowhere else."""
    src = (ROOT / "src").resolve()
    if not (src / "quadlie" / "__init__.py").is_file():
        fail(f"no quadlie sources under {src}")
    sys.path.insert(0, str(src))
    try:
        import quadlie
    except ImportError as exc:
        fail(f"cannot import quadlie: {exc}")
    if src not in Path(quadlie.__file__).resolve().parents:
        fail(f"quadlie was imported from {quadlie.__file__}, not {src}")
    return quadlie


def per_layer_names(tracer_mod) -> list:
    names = []
    for span in tracer_mod.SPAN_NAMES + REPORTED_BUILDERS:
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    return names + list(LAYER_COUNTS)


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------

def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _probe_matrix() -> list:
    state = 12345
    rows = []
    for _ in range(10):
        row = []
        for _ in range(10):
            state = (state * 1103515245 + 12345) % 2 ** 31
            row.append(Fraction(state % 19 - 9, state // 19 % 5 + 1))
        rows.append(row)
    return rows


PROBE_MATRIX = _probe_matrix()


def _det(rows) -> Fraction:
    """Plain fraction elimination; kept here, apart from checks.py, so that
    the probe's cost never changes with the checks."""
    a = [list(r) for r in rows]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return Fraction(0)
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


def probe() -> float:
    """Seconds for the fixed probe: the better of two, so that a single
    interrupt does not count as a slow host. The collector is held off, so
    that garbage quadlie left behind is not collected on the probe's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            _det(PROBE_MATRIX)
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Time at the reference host speed, with the probes' own time left out.

    Use it as a context manager: while inside, SIGALRM probes the host
    every TICK_S of wall time. ``now()`` never goes backwards, whenever the
    alarm interrupts it."""

    def __init__(self):
        self.speeds = []          # probe / reference, one per probe
        self.probe_s = 0.0        # wall time spent probing
        self._last = probe()
        self._busy = False
        # (scaled seconds so far, wall time they run to, scale from there on)
        self._state = (0.0, time.perf_counter(),
                       REFERENCE_PROBE_S / self._last)

    def __enter__(self):
        signal.signal(signal.SIGALRM, lambda signum, frame: self.tick())
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        t = time.perf_counter()
        scaled, since, factor = self._state
        return scaled + max(0.0, t - since) * factor

    def tick(self) -> None:
        """Close the current stretch at the current scale, then probe."""
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            scaled, since, factor = self._state
            scaled += max(0.0, t0 - since) * factor
            p = probe()
            mean = (self._last + p) / 2
            self._last = p
            self.speeds.append(p / REFERENCE_PROBE_S)
            t1 = time.perf_counter()
            self.probe_s += t1 - t0
            self._state = (scaled, t1, REFERENCE_PROBE_S / mean)
        finally:
            self._busy = False

    def time(self, fn, *args):
        """(result or exception, raw seconds, scaled seconds); raw seconds
        leave the probes out too."""
        self.tick()
        s0, w0, p0 = self.now(), time.perf_counter(), self.probe_s
        try:
            result = fn(*args)
        except Exception as exc:  # a failing task is a result, not a crash
            result = exc
        s1, w1 = self.now(), time.perf_counter()
        return result, (w1 - w0) - (self.probe_s - p0), s1 - s0


class Loop:
    """Runs rounds of the same tasks one after another. Keeps the scaled
    latency of every execution, the digests and the problems the exact
    checks found."""

    def __init__(self, wl, inputs, seed, clock, tracer=None):
        self.wl = wl
        self.inputs = inputs
        self.seed = seed
        self.clock = clock
        self.tracer = tracer
        self.specs = wl.round(inputs)
        self.latencies = []
        self.raw = []
        self.slot_digests = [None] * len(self.specs)
        self.rounds = 0
        self.failed = 0
        self.problems = []
        self._checked = {}
        self.first_round = hashlib.sha256()

    def run(self, seconds=None, rounds=None):
        """Whole rounds until `rounds` are done, or until `seconds` of scaled
        task time have passed and MIN_SAMPLES tasks have run."""
        start = time.perf_counter()
        while True:
            for slot, spec in enumerate(self.specs):
                self._task(slot, spec, self.rounds * len(self.specs) + slot)
            self.rounds += 1
            if rounds is not None:
                if self.rounds >= rounds:
                    return
            elif (sum(self.latencies) >= seconds
                  and len(self.latencies) >= MIN_SAMPLES):
                return
            if time.perf_counter() - start > WALL_CAP_S:
                return

    def _task(self, slot, spec, index) -> None:
        """Execution number `index`, in position `slot` of its round; the
        workload's inputs for it depend on the index unless rounds repeat."""
        wl = self.wl
        prepared = wl.prepare(self.inputs, spec, self.seed,
                              slot if wl.repeats else index)
        if self.tracer is not None:
            if wl.fresh_per_task:
                self.tracer.forget_instances()
            out, raw, scaled = self.clock.time(self.tracer.root, index,
                                               wl.execute, prepared)
        else:
            out, raw, scaled = self.clock.time(wl.execute, prepared)
        self.raw.append(raw)
        self.latencies.append(scaled)
        error = None
        if isinstance(out, Exception):
            error = f"{type(out).__name__}: {out}"
        else:
            try:
                out = wl.finish(prepared, out)
                rendered = wl.render(spec, out)
            except Exception as exc:  # output the workload cannot read
                error = f"reading the output: {type(exc).__name__}: {exc}"
        if error:
            rendered = f"error: {error}"
        digest = sha(rendered)
        if self.rounds == 0:
            self.slot_digests[slot] = digest
            self.first_round.update(f"{spec}\n{rendered}\n".encode("utf-8"))
        if error:
            problems = [error]
        elif wl.repeats and digest != self.slot_digests[slot]:
            problems = ["output differs from the same task in round 1"]
        elif not wl.repeats:
            problems = self._check(prepared, out)
        else:
            # a repeated task with the same output needs no second check
            key = (slot, digest)
            if key not in self._checked:
                self._checked[key] = self._check(prepared, out)
            problems = self._checked[key]
        if problems:
            self.failed += 1
            self.problems.append(f"round {self.rounds + 1} slot {slot} {spec}: "
                                 f"{problems[0]}")

    def _check(self, prepared, out) -> list:
        try:
            return self.wl.check(prepared, out)
        except Exception as exc:  # a malformed output can break a check
            return [f"check raised {type(exc).__name__}: {exc}"]

    @property
    def attempted(self) -> int:
        return len(self.latencies)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": args.seed,
        "reproduce": (f"python3 bench/run.py --workload {args.workload} "
                      f"--seed {args.seed} --seconds {args.seconds:g} "
                      f"--trace {args.trace}"),
    }


def reference_note(workload, seed, digest, smoke) -> str:
    if smoke or seed != DEFAULT_SEED:
        return f"digest {digest} (no reference for seed {seed})"
    try:
        ref = json.loads(REFERENCE.read_text()).get(workload)
    except (OSError, ValueError):
        ref = None
    if ref is None:
        return f"digest {digest} (no reference stored)"
    if ref == digest:
        return f"digest {digest} matches the reference"
    return (f"WARNING digest-mismatch workload={workload} seed={seed} "
            f"expected={ref} got={digest}")


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


def summary_lines(wl, loop, inputs_desc) -> list:
    lat = loop.latencies
    speeds = loop.clock.speeds
    return [
        f"workload {wl.name}: {loop.rounds} rounds of {len(loop.specs)} tasks, "
        f"task time {sum(lat):.3f} s scaled, {sum(loop.raw):.3f} s raw",
        f"inputs: {inputs_desc}",
        f"samples {len(lat)}, beyond p90 {sum(1 for x in lat if x > p90(lat))}",
        f"host slowness (probe / reference): median "
        f"{statistics.median(speeds):.3f}, min {min(speeds):.3f}, "
        f"max {max(speeds):.3f}",
    ]


def describe_inputs(inputs) -> str:
    parts = []
    for key, value in inputs.items():
        inp = value[0] if isinstance(value, tuple) else value
        parts.append(f"{key}(dim {inp.n})")
    return " ".join(parts)


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------

def timed_setup(wl, seed, workloads_mod, clock, tracer=None):
    workloads_mod.clear_global_caches()
    if tracer is None:
        inputs, raw, scaled = clock.time(wl.setup, seed)
    else:
        inputs, raw, scaled = clock.time(tracer.root, "setup", wl.setup, seed)
    if isinstance(inputs, Exception):
        raise inputs
    return inputs, raw, scaled


def run_untraced(args, wl, workloads_mod) -> dict:
    raws, times = [], []
    with Clock() as clock:
        for _ in range(SETUP_REPS):
            inputs, raw, scaled = timed_setup(wl, args.seed, workloads_mod,
                                              clock)
            raws.append(raw)
            times.append(scaled)
        loop = Loop(wl, inputs, args.seed, clock)
        loop.run(seconds=args.seconds, rounds=1 if args.smoke else None)
    input_problems = wl.check_inputs(inputs)
    lat = loop.latencies
    for line in summary_lines(wl, loop, describe_inputs(inputs)):
        print(line)
    metrics = {
        "setup_s": metric(statistics.median(times), "s"),
        "tasks_per_s": metric(len(lat) / sum(lat), "1/s"),
        "task_ms.p50": metric(statistics.median(lat) * 1000, "ms"),
        "task_ms.p90": metric(p90(lat) * 1000, "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print("set-up runs (s, scaled): " + " ".join(f"{t:.4f}" for t in times)
          + "; raw: " + " ".join(f"{t:.4f}" for t in raws))
    print(f"raw: tasks_per_s {len(lat) / sum(loop.raw):.6g} 1/s, task_ms.p50 "
          f"{statistics.median(loop.raw) * 1000:.6g} ms, task_ms.p90 "
          f"{p90(loop.raw) * 1000:.6g} ms")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_frac {loop.failed / loop.attempted:.6g} ratio "
          f"({loop.failed} failed of {loop.attempted} attempted)")
    report_problems(loop, input_problems)
    print(reference_note(wl.name, args.seed, loop.first_round.hexdigest(),
                         args.smoke))
    return {"correct": not loop.failed and not input_problems,
            "attempted": loop.attempted, "failed": loop.failed,
            "metrics": metrics}


def run_traced(args, wl, workloads_mod, tracer_mod) -> dict:
    with Clock() as clock:
        inputs, _, setup_a = timed_setup(wl, args.seed, workloads_mod, clock)
        plain = Loop(wl, inputs, args.seed, clock)
        plain.run(rounds=1)
        del inputs
        # spans are timed on the same scaled clock as the tasks
        tracer = tracer_mod.Tracer(clock.now, keep_spans=args.smoke)
        workloads_mod.clear_global_caches()
        tracer.install()
        try:
            inputs, _, setup_b = timed_setup(wl, args.seed, workloads_mod,
                                             clock, tracer)
            traced = Loop(wl, inputs, args.seed, clock, tracer)
            traced.run(rounds=1)
        finally:
            tracer.uninstall()
    input_problems = wl.check_inputs(inputs)
    mismatched = sum(1 for a, b in zip(plain.slot_digests, traced.slot_digests)
                     if a != b)
    for line in summary_lines(wl, traced, describe_inputs(inputs)):
        print(line)
    # over the tasks only: the first set-up in a process also pays one-off
    # costs that would hide the wrappers' cost
    overhead = sum(traced.latencies) / sum(plain.latencies) - 1
    print(f"task time (scaled) untraced {sum(plain.latencies):.4f} s, traced "
          f"{sum(traced.latencies):.4f} s; set-up untraced {setup_a:.4f} s, "
          f"traced {setup_b:.4f} s")
    metrics = layer_metrics(tracer, tracer_mod, overhead)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"traced digest {traced.first_round.hexdigest()} "
          f"untraced digest {plain.first_round.hexdigest()}: "
          + ("equal" if not mismatched else f"{mismatched} tasks DIFFER"))
    report_problems(traced, input_problems)
    failed = traced.failed + mismatched
    return {"correct": not failed and not input_problems,
            "attempted": traced.attempted, "failed": failed,
            "metrics": metrics, "tracer": tracer}


def layer_metrics(tracer, tracer_mod, overhead) -> dict:
    def ratio(num, den):
        return num / den if den else 0.0

    c = tracer.counts
    metrics = {}
    for span in tracer_mod.SPAN_NAMES + REPORTED_BUILDERS:
        metrics[f"{span}.calls"] = metric(tracer.calls.get(span, 0), "count")
        metrics[f"{span}.self_s"] = metric(
            tracer.self_s.get(span, 0.0), "s")
    values = {
        "linalg.kernel.cells_in": c.get("linalg.kernel.cells_in", 0),
        "linalg.Matrix.mul.mults": c.get("linalg.Matrix.mul.mults", 0),
        "linalg.RowSpace.add.accept_ratio": ratio(
            c.get("linalg.RowSpace.add.accepted", 0),
            tracer.calls.get("linalg.RowSpace.add", 0)),
        "linalg.eval_pencil_det.hit_ratio": ratio(
            c.get("linalg.eval_pencil_det.nonzero", 0),
            tracer.calls.get("linalg.eval_pencil_det", 0)),
        "lie.sparse_kernel.rows_in": c.get("lie.sparse_kernel.rows_in", 0),
        "lie.sparse_kernel.unique_ratio": ratio(
            c.get("lie.sparse_kernel.unique", 0),
            c.get("lie.sparse_kernel.rows_in", 0)),
        "lie.cache.hit_ratio": ratio(c.get("lie.cache.hits", 0),
                                     c.get("lie.cache.calls", 0)),
        "trace.overhead_frac": overhead,
        "trace.unattributed_frac": 1 - ratio(tracer.covered, tracer.root_s),
    }
    for name, unit in LAYER_COUNTS:
        metrics[name] = metric(values[name], unit)
    return metrics


def report_problems(loop, input_problems) -> None:
    for p in input_problems:
        print(f"INPUT PROBLEM {p}")
    for p in loop.problems[:20]:
        print(f"FAILED {p}")
    if len(loop.problems) > 20:
        print(f"... and {len(loop.problems) - 20} more failed tasks")


# ----------------------------------------------------------------------
# smoke mode
# ----------------------------------------------------------------------

def smoke(args, workloads_mod, tracer_mod) -> int:
    """Tiny inputs, one round per pass, every workload in both modes;
    asserts every declared metric and every span field is emitted."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    declared_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads_mod.WORKLOADS), "workload list"
    assert declared_e2e == list(END_TO_END), "end_to_end list"
    assert declared_layer == per_layer_names(tracer_mod), "per_layer list"
    seen = set()
    for name in workloads_mod.WORKLOADS:
        args.workload = name
        for trace in (0, 1):
            args.trace = trace
            result = run_one(args, workloads_mod, tracer_mod)
            want = declared_layer if trace else declared_e2e
            got = [(k, v["unit"]) for k, v in result["metrics"].items()]
            assert got == want, f"{name} trace {trace}: metric names"
            assert all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values())
            assert result["correct"], f"{name} trace {trace}: not correct"
            if trace:
                seen |= check_spans(result["tracer"])
    for expected in ("task", "cli.main", "fileio.parse", "linalg.kernel",
                     "forms.invariant_forms", "lie.ideal_closure"):
        assert expected in seen, f"span {expected} never recorded"
    print("smoke: every workload emits every declared metric and span field")
    return 0


def check_spans(tracer) -> set:
    """Assert the fields of every kept span; return the span names."""
    spans = tracer.spans
    assert spans, "no spans recorded"
    by_index = {s[0]: s for s in spans}
    for index, name, start, end, parent, task in spans:
        assert isinstance(name, str) and name
        assert isinstance(start, float) and isinstance(end, float)
        assert end >= start
        assert task == "setup" or isinstance(task, int)
        if parent is not None:
            p = by_index[parent]
            assert p[2] <= start and end <= p[3], "child outside its parent"
            assert p[5] == task, "child in another task"
    assert set(tracer.builder_names) >= set(REPORTED_BUILDERS)
    return {s[1] for s in spans}


# ----------------------------------------------------------------------

def run_one(args, workloads_mod, tracer_mod) -> dict:
    workdir_root = ROOT / ".bench_work"
    workdir_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workdir_root)
    try:
        wl = workloads_mod.make(args.workload, workdir, smoke=args.smoke)
        if args.trace:
            return run_traced(args, wl, workloads_mod, tracer_mod)
        return run_untraced(args, wl, workloads_mod)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir_root.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("duality", "solvers",
                                               "cli_fresh"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; assert every metric and span field")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    import_quadlie()
    import tracer as tracer_mod
    import workloads as workloads_mod
    if args.smoke:
        return smoke(args, workloads_mod, tracer_mod)
    result = run_one(args, workloads_mod, tracer_mod)
    print("stamp " + json.dumps(stamp(args), sort_keys=True))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in layer trace for quadlie.

``Tracer.install()`` replaces the public entry points of each quadlie module
with recording wrappers, in every module namespace that binds them (names
imported with ``from .linalg import kernel`` are separate bindings) and on
the classes that define methods. ``uninstall()`` puts the originals back.
Nothing inside quadlie is edited; the spans are taken at the calls into each
layer.

A span has a name, a start, an end, the index of the span that caused it and
the id of the benchmark task it belongs to. Aggregates are kept online
(calls, self time) so a long traced run needs no memory per span; full span
records are kept only when ``keep_spans`` is set.
"""

from __future__ import annotations

import functools
import importlib
from fractions import Fraction

MODULES = ("linalg", "lie", "forms", "hall", "build", "derivations",
           "analysis", "fileio", "cli")

# (module, attribute) of module-level functions, traced as spans
FUNCTIONS = (
    ("linalg", "kernel"), ("linalg", "solve"), ("linalg", "det"),
    ("linalg", "det_pencil"), ("linalg", "eval_pencil_det"),
    ("lie", "sparse_kernel"),
    ("forms", "is_invariant"), ("forms", "invariant_forms"),
    ("forms", "find_quadratic_structure"), ("forms", "orthogonal_complement"),
    ("forms", "omega_dual"), ("forms", "find_nondegenerate_proper_ideal"),
    ("derivations", "derivations"), ("derivations", "skew_derivations"),
    ("analysis", "analyze"), ("analysis", "is_local"),
    ("analysis", "classify_local_quadratic"), ("analysis", "chain_dot"),
    ("fileio", "parse"), ("fileio", "serialize"),
    ("cli", "main"),
)

# (module, class, attribute, span name) of methods traced as spans
METHODS = (
    ("linalg", "Subspace", "span", "linalg.Subspace.span"),
    ("linalg", "Subspace", "contains", "linalg.Subspace.contains"),
    ("linalg", "Subspace", "intersect", "linalg.Subspace.intersect"),
    ("linalg", "RowSpace", "add", "linalg.RowSpace.add"),
    ("linalg", "Matrix", "__mul__", "linalg.Matrix.mul"),
    ("lie", "LieAlgebra", "ad", "lie.ad"),
    ("lie", "LieAlgebra", "bracket", "lie.bracket"),
    ("lie", "LieAlgebra", "product_subspace", "lie.product_subspace"),
    ("lie", "LieAlgebra", "ideal_closure", "lie.ideal_closure"),
    ("lie", "LieAlgebra", "is_ideal", "lie.is_ideal"),
    ("lie", "LieAlgebra", "series", "lie.series"),
    ("lie", "LieAlgebra", "center", "lie.center"),
    ("lie", "LieAlgebra", "radical", "lie.radical"),
    ("lie", "LieAlgebra", "nilradical", "lie.nilradical"),
    ("lie", "LieAlgebra", "killing_gram", "lie.killing_gram"),
    ("lie", "LieAlgebra", "centroid", "lie.centroid"),
)

# LieAlgebra methods whose result the algebra caches; a call counts as a hit
# when it returns the very object an earlier call on the same instance and
# arguments returned
CACHED_METHODS = ("center", "derived_subalgebra", "series", "radical",
                  "nilradical", "jacobson_radical", "killing_gram", "ad_basis")

# builders: every public function of quadlie.build plus the Hall-basis one
EXTRA_BUILDERS = (("hall", "free_nilpotent"),)

SPAN_NAMES = tuple(f"{m}.{a}" for m, a in FUNCTIONS) + tuple(
    name for *_, name in METHODS)


class _Frame:
    __slots__ = ("index", "start", "child", "excluded")

    def __init__(self, index, start):
        self.index = index
        self.start = start
        self.child = 0.0
        self.excluded = 0.0


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self, now, keep_spans: bool = False):
        self.now = now           # the clock spans are timed with
        self.keep_spans = keep_spans
        self.spans = []  # (index, name, start, end, parent, task) if kept
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self.covered = 0.0       # time under top-level layer spans in roots
        self.root_s = 0.0        # total time of root (task / setup) spans
        self._stack = []
        self._next = 0
        self.task = None
        self._memo = {}
        self._patches = []       # (owner, attribute, original)
        self.builder_names = []

    # -- counters -------------------------------------------------------

    def count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- spans ----------------------------------------------------------

    def _open(self):
        index = self._next
        self._next += 1
        frame = _Frame(index, self.now())
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: _Frame) -> None:
        end = self.now()
        self._stack.pop()
        dur = end - frame.start
        parent = self._stack[-1] if self._stack else None
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = (self.self_s.get(name, 0.0) + dur - frame.child
                             - frame.excluded)
        if parent is not None:
            parent.child += dur
            if len(self._stack) == 1:
                self.covered += dur
        if self.keep_spans:
            self.spans.append((frame.index, name, frame.start, end,
                               parent.index if parent else None, self.task))

    def exclude(self, seconds: float) -> None:
        """Remove bookkeeping time from the innermost open span's self time."""
        if self._stack:
            self._stack[-1].excluded += seconds

    def root(self, task_id, fn, *args):
        """Run fn as the root span of one benchmark task or set-up."""
        self.task = task_id
        frame = self._open()
        try:
            return fn(*args)
        finally:
            end = self.now()
            self._stack.pop()
            self.root_s += end - frame.start
            if self.keep_spans:
                self.spans.append((frame.index, "task", frame.start, end, None,
                                   task_id))

    def forget_instances(self) -> None:
        """Drop cache-hit memory, for workloads that build fresh inputs per
        task (so no object outlives its task)."""
        self._memo.clear()

    def _span(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open()
            try:
                if counter is None:
                    return fn(*args, **kwargs)
                return counter(fn, args, kwargs)
            finally:
                self._close(name, frame)
        return wrapper

    def _cached(self, method: str, fn, inner):
        """Count cache hits of a LieAlgebra method; inner is the callable to
        run (a span wrapper or the original)."""
        @functools.wraps(fn)
        def wrapper(algebra, *args):
            result = inner(algebra, *args)
            key = (id(algebra), method, args)
            self.count("lie.cache.calls")
            if self._memo.get(key) is result:
                self.count("lie.cache.hits")
            else:
                self._memo[key] = result
            return result
        return wrapper

    # -- counters attached to particular entry points --------------------

    def _kernel_counter(self, fn, args, kwargs):
        m = args[0]
        self.count("linalg.kernel.cells_in", m.rows * m.cols)
        return fn(*args, **kwargs)

    def _mul_counter(self, fn, args, kwargs):
        a, b = args
        if hasattr(b, "entries") and hasattr(b, "cols"):
            self.count("linalg.Matrix.mul.mults", a.rows * a.cols * b.cols)
        return fn(*args, **kwargs)

    def _rowspace_counter(self, fn, args, kwargs):
        grew = fn(*args, **kwargs)
        self.count("linalg.RowSpace.add.accepted", 1 if grew else 0)
        return grew

    def _pencil_counter(self, fn, args, kwargs):
        value = fn(*args, **kwargs)
        self.count("linalg.eval_pencil_det.nonzero", 1 if value != 0 else 0)
        return value

    def _sparse_kernel_counter(self, fn, args, kwargs):
        t0 = self.now()
        rows = list(args[0])
        unique = set()
        for row in rows:
            row = {k: v for k, v in row.items() if v != 0}
            if row:
                lead = min(row)
                inv = Fraction(1) / row[lead]
                unique.add(tuple(sorted((k, v * inv) for k, v in row.items())))
        self.count("lie.sparse_kernel.rows_in", len(rows))
        self.count("lie.sparse_kernel.unique", len(unique))
        self.exclude(self.now() - t0)
        return fn(rows, *args[1:], **kwargs)

    # -- installation ----------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> int:
        """Rebind every module-level name that refers to original."""
        hits = 0
        for mod in self._modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    hits += 1
        return hits

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module("quadlie")
        self._modules = [pkg] + [importlib.import_module(f"quadlie.{m}")
                                 for m in MODULES]
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules}
        counters = {
            "linalg.kernel": self._kernel_counter,
            "linalg.Matrix.mul": self._mul_counter,
            "linalg.RowSpace.add": self._rowspace_counter,
            "linalg.eval_pencil_det": self._pencil_counter,
            "lie.sparse_kernel": self._sparse_kernel_counter,
        }
        for modname, attr in FUNCTIONS:
            name = f"{modname}.{attr}"
            original = getattr(mods[modname], attr)
            wrapped = self._span(name, original, counters.get(name))
            if not self._replace_everywhere(original, wrapped):
                raise RuntimeError(f"entry point {name} not found")
        span_methods = {}
        for modname, cls_name, attr, name in METHODS:
            cls = getattr(mods[modname], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._span(name, raw.__func__,
                                                 counters.get(name)))
            else:
                wrapped = self._span(name, raw, counters.get(name))
            if cls_name == "LieAlgebra":
                span_methods[attr] = wrapped
            else:
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
        lie_cls = mods["lie"].LieAlgebra
        for attr in set(span_methods) | set(CACHED_METHODS):
            raw = lie_cls.__dict__[attr]
            wrapped = span_methods.get(attr, raw)
            if attr in CACHED_METHODS:
                wrapped = self._cached(attr, raw, wrapped)
            self._patches.append((lie_cls, attr, raw))
            setattr(lie_cls, attr, wrapped)
        builders = []
        build = mods["build"]
        for attr, value in sorted(vars(build).items()):
            if (callable(value) and not attr.startswith("_")
                    and getattr(value, "__module__", None) == build.__name__
                    and not isinstance(value, type)):
                builders.append(("build", attr, value))
        for modname, attr in EXTRA_BUILDERS:
            builders.append((modname, attr, getattr(mods[modname], attr)))
        for modname, attr, original in builders:
            name = f"{modname}.{attr}"
            self.builder_names.append(name)
            self._replace_everywhere(original, self._span(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

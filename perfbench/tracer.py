"""Per-layer tracing installed from outside the package.

The tracer replaces public functions and methods of the f2dyn modules with
wrappers and restores them afterwards, so the traced program is the same
code as the untraced one.  Each name is patched wherever it is looked up:
every f2dyn module that bound the function with ``from .x import y`` gets the
wrapper too.  A target that no longer exists is reported as absent.

Two wrapper kinds:

- *hot* wrappers (field and polynomial arithmetic, point labels, group law)
  only count calls and accumulate self time under their key;
- *span* wrappers (whole analyses, solvers, extension builds) also record a
  span ``(job, id, parent, key, start, end, self_s, hot_s)`` in memory,
  where hot_s is the time of the hot calls made directly inside it.

Self time is a call's duration minus the time covered by wrapped calls
nested inside it, so the self times of one job, plus the job's own
unwrapped glue (the ``other`` bucket), add up to the job's wall time.

Field set-up is charged whole: while a BinaryField is constructed (modulus
search, irreducibility test) all nested self time goes to
``fields.field_build``, and while the first arithmetic call on a field
instance runs, to ``fields.first_op`` (where lazy exp/log tables are built).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

FIRST_OP = "fields.first_op"
FIELD_BUILD = "fields.field_build"
WIDE_LIMIT = 16  # fields.mul.wide_frac counts calls in fields wider than this

# (module, attribute path, kind); the key is "<module>.<attribute path>"
# except where a fourth element renames it.
TARGETS = [
    ("gf2x", "mul", "hot"),
    ("gf2x", "sqr", "hot"),
    ("gf2x", "mod", "hot"),
    ("gf2x", "divmod_", "hot"),
    ("gf2x", "mulmod", "hot"),
    ("gf2x", "gcd", "hot"),
    ("gf2x", "pow_x", "hot"),
    ("gf2x", "is_irreducible", "hot"),
    ("gf2x", "smallest_irreducible", "hot"),
    ("fields", "BinaryField.__init__", "span", FIELD_BUILD),
    ("fields", "BinaryField.mul", "field"),
    ("fields", "BinaryField.sqr", "field"),
    ("fields", "BinaryField.inv", "field"),
    ("fields", "BinaryField.pow", "field"),
    ("fields", "BinaryField.frob", "field"),
    ("fields", "BinaryField.trace", "field"),
    ("fields", "BinaryField.log", "field"),
    ("fields", "BinaryField.exp", "field"),
    ("fields", "SubsetXorSolver.__init__", "hot", "fields.SubsetXorSolver.build"),
    ("fields", "LinearizedPoly.solve", "hot"),
    ("fields", "ExtensionRootCounter.__init__", "hot",
     "fields.ExtensionRootCounter.build"),
    ("fields", "ExtensionRootCounter.count", "span"),
    ("fields", "extension_of", "span"),
    ("fields", "polynomial_roots", "span"),
    ("fields", "nth_roots", "span"),
    ("maps", "MapSpec.permutation", "span"),
    ("maps", "MapSpec.cycle_structure", "span"),
    ("maps", "closed_form", "span"),
    ("maps", "reduce_to_quartic", "span"),
    ("curves", "point_add", "hot"),
    ("curves", "scalar_mul", "hot"),
    ("curves", "point_count", "span"),
    ("curves", "group_structure", "span"),
    ("curves", "cycle_catalog", "span"),
    ("conjugacy", "solve_conjugation", "span"),
    ("conjugacy", "verify_conjugation", "span"),
    ("conjugacy", "bluher_root_count", "span"),
    ("conjugacy", "fixed_point_count", "hot"),
    ("conjugacy", "theta_fixed_points", "hot"),
    ("reporting", "point_label", "hot"),
    ("reporting", "element_echo", "hot"),
    ("reporting", "cycle_labels", "span", "reporting.render"),
    ("reporting", "cycles_to_dict", "span", "reporting.render"),
    ("reporting", "to_json", "span", "reporting.render"),
    ("reporting", "AnalysisReport.to_text", "span", "reporting.render"),
    ("cli", "main", "span"),
]

LAYERS = ("gf2x", "fields", "maps", "curves", "conjugacy", "reporting", "cli")


def layer_of(key: str) -> str:
    return key.split(".", 1)[0]


class Tracer:
    """Counts, self times and spans of one process; install() patches the
    package, uninstall() restores it."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.jobs: list[dict] = []
        self.absent: list[str] = []
        self.override: str | None = None
        # one entry per open frame, starting with the (job) root frame
        self._stack: list[float] = [0.0]       # time in wrapped calls inside
        self._span_child: list[float] = [0.0]  # of which in nested spans
        self._ids: list[int] = [0]             # span id
        self._next_id = 0
        self._job = None
        self._seen_fields: dict[int, object] = {}
        self._solving = 0
        self._patches: list[tuple[object, str, object]] = []
        self.extension_cache = None     # the unwrapped extension_of

    # -- wrappers -------------------------------------------------------------

    def _hot(self, fn, key):
        calls, busy, stack, tracer = self.calls, self.busy, self._stack, self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                child = stack.pop()
                stack[-1] += d
                busy[tracer.override or key] += d - child
        return wrapper

    def _field(self, fn, key):
        """Hot wrapper for BinaryField arithmetic, with first-op detection."""
        calls, busy, stack, tracer = self.calls, self.busy, self._stack, self
        seen, extra = self._seen_fields, self.extra
        wide = key == "fields.BinaryField.mul"

        @wraps(fn)
        def wrapper(field, *args):
            calls[key] += 1
            if wide and field.degree > WIDE_LIMIT:
                extra["fields.mul.wide"] += 1
            first = id(field) not in seen
            if first:
                seen[id(field)] = field  # kept alive so ids are not reused
                outer, tracer.override = tracer.override, FIRST_OP
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(field, *args)
            finally:
                d = perf_counter() - t0
                child = stack.pop()
                stack[-1] += d
                busy[tracer.override or key] += d - child
                if first:
                    tracer.override = outer
        return wrapper

    def _span(self, fn, key):
        calls, busy, stack, ids = self.calls, self.busy, self._stack, self._ids
        spans, span_child, tracer = self.spans, self._span_child, self
        hook = getattr(self, "_after_" + key.replace(".", "_"), None)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            tracer._next_id += 1
            sid = tracer._next_id
            parent = ids[-1]
            stack.append(0.0)
            span_child.append(0.0)
            ids.append(sid)
            if key == "conjugacy.solve_conjugation":
                tracer._solving += 1
            owns = key == FIELD_BUILD and tracer.override is None
            if owns:
                tracer.override = key
            t0 = perf_counter()
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                d = perf_counter() - t0
                child = stack.pop()
                hot = child - span_child.pop()
                ids.pop()
                stack[-1] += d
                span_child[-1] += d
                self_s = d - child
                busy[tracer.override or key] += self_s
                spans.append((tracer._job, sid, parent, key, t0, t0 + d, self_s,
                              hot))
                if key == "conjugacy.solve_conjugation":
                    tracer._solving -= 1
                if owns:
                    tracer.override = None
                if hook is not None:
                    hook(args, result, error)
            return result
        return wrapper

    # -- per-call bookkeeping of span wrappers ----------------------------------

    def _after_fields_extension_of(self, args, result, error):
        if result is not None:
            degree = result.ext.degree
            if degree > self.extra["fields.ext_degree.max"]:
                self.extra["fields.ext_degree.max"] = degree
            if self._solving:
                self.extra["conjugacy.extensions_tried"] += 1

    def _after_maps_MapSpec_permutation(self, args, result, error):
        if result is not None:
            self.extra["maps.points_enumerated"] += len(result)

    def _after_curves_point_count(self, args, result, error):
        if error is None:
            curve = args[0]
            field = args[1] if len(args) > 1 and args[1] is not None else curve.field
            self.extra["curves.points_counted"] += field.order

    def _after_conjugacy_solve_conjugation(self, args, result, error):
        if error is None:
            self.extra["conjugacy.solved"] += 1
        elif type(error).__name__ == "ResourceLimitError":
            self.extra["conjugacy.refused"] += 1

    def _after_conjugacy_verify_conjugation(self, args, result, error):
        if error is None:
            self.extra["conjugacy.points_verified"] += args[0].embedding.ext.order + 1

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "f2dyn" or name.startswith("f2dyn.")]
        for target in TARGETS:
            module_name, path, kind = target[:3]
            key = target[3] if len(target) > 3 else f"{module_name}.{path}"
            owner = sys.modules.get(f"f2dyn.{module_name}")
            if owner is None:  # this process never imported it
                continue
            try:
                *outer, attr = path.split(".")
                for name in outer:
                    owner = getattr(owner, name)
                original = getattr(owner, attr)
            except AttributeError:
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = {"hot": self._hot, "field": self._field,
                       "span": self._span}[kind](original, key)
            if path == "extension_of":
                self.extension_cache = original
            if outer:  # a method: patch the class it is looked up on
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- jobs -------------------------------------------------------------------

    def run_job(self, job_id, fn, *args):
        """Run fn(*args) as the root frame of one job and record the job's
        per-layer self times; returns fn's result (exceptions propagate)."""
        before = dict(self.busy)
        self._job = job_id
        self._stack[:] = [0.0]
        self._span_child[:] = [0.0]
        self._ids[:] = [0]
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            wall = perf_counter() - t0
            layers = dict.fromkeys(LAYERS, 0.0)
            for key, value in self.busy.items():
                delta = value - before.get(key, 0.0)
                if delta:
                    layers[layer_of(key)] += delta
            layers["other"] = wall - self._stack[0]
            self.spans.append((job_id, 0, None, "job", t0, t0 + wall,
                               layers["other"],
                               self._stack[0] - self._span_child[0]))
            self.jobs.append({"job": job_id, "wall_s": wall, "layers": layers})
            self._job = None

    def summary(self) -> dict:
        info = None
        if self.extension_cache is not None and hasattr(self.extension_cache,
                                                         "cache_info"):
            ci = self.extension_cache.cache_info()
            info = {"hits": ci.hits, "misses": ci.misses}
        return {"calls": dict(self.calls), "busy": dict(self.busy),
                "extra": dict(self.extra), "jobs": self.jobs,
                "absent": self.absent, "extension_cache": info,
                "spans": self.spans}

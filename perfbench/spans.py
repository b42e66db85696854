"""Outside-in span recorder for the posheaf layers.

The benchmark wraps the public entry points of each posheaf module from here,
without touching the library.  A wrapper replaces the binding every caller
actually looks up: the attribute in the defining module or class, plus every
``posheaf.*`` module attribute that re-imported the same function object
(``derived`` imports ``mapping_cylinder`` and ``_make_exact_inplace`` by name,
for example).  Functions called ~10^5 times per job, such as
``IncrementalRowBasis.add`` and ``_reduce_against``, are deliberately left
unwrapped: wrapping them costs more than their span is worth, and their time
shows as the self time of the caller's layer.

Spans stay in memory while the run lasts.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


def _len(value):
    return len(value) if hasattr(value, "__len__") else 0


def _stdout_pos():
    try:
        return sys.stdout.tell()
    except (AttributeError, OSError, ValueError):
        return 0


# Count hooks: (recorder, positional args, keyword args, result) -> None.
def _count_elements(rec, args, kwargs, result):
    rec.counts["poset.build.elements"] += len(result)


def _count_complement_rows(rec, args, kwargs, result):
    rec.counts["matrix.complement.rows_in"] += _len(args[1] if len(args) > 1 else kwargs.get("stalk_rows"))


def _count_rank_rows(rec, args, kwargs, result):
    rec.counts["matrix.rank.rows_in"] += _len(args[1] if len(args) > 1 else kwargs.get("rows"))


def _count_make_exact(rec, args, kwargs, result):
    rec.counts["resolution.make_exact.rows_added"] += result
    rec.counts["resolution.make_exact.useful"] += result > 0


def _count_summands(rec, args, kwargs, result):
    rec.counts["resolution.summands"] += result.total_summands()


def _count_peel(rec, args, kwargs, result):
    rec.counts["derived.peel.summands_in"] += args[0].total_summands()
    rec.counts["derived.peel.summands_out"] += result.total_summands()


def _count_levels(rec, args, kwargs, result):
    rec.counts["morse.table.levels"] += len(result)


def _count_read_bytes(rec, args, kwargs, result):
    rec.counts["io.parse.bytes"] += len(result.encode("utf-8"))


# (layer, module, attribute or "Class.method", count hook).  Each entry is one
# binding; several bindings may feed one layer.
TARGETS = (
    ("poset.build", "posheaf.poset", "Poset.from_covers", _count_elements),
    ("poset.build", "posheaf.poset", "Poset.from_leq_pairs", _count_elements),
    ("poset.restrict", "posheaf.poset", "Poset.restrict", None),
    ("poset.cylinder", "posheaf.poset", "mapping_cylinder", None),
    ("poset.order_complex", "posheaf.poset", "order_complex", None),
    ("matrix.complement", "posheaf.matrix", "image_complement_rows", _count_complement_rows),
    ("matrix.rank", "posheaf.matrix", "_sparse_rank", _count_rank_rows),
    ("matrix.submatrix", "posheaf.matrix", "LabeledMatrix.submatrix", None),
    ("sheaf.hull", "posheaf.sheaf", "injective_hull", None),
    ("resolution.resolve", "posheaf.resolution", "minimal_resolution_constant", _count_summands),
    ("resolution.resolve", "posheaf.resolution", "minimal_resolution_sheaf", _count_summands),
    ("resolution.step", "posheaf.resolution", "resolution_step", None),
    ("resolution.make_exact", "posheaf.resolution", "_make_exact_inplace", _count_make_exact),
    ("resolution.make_exact", "posheaf.resolution", "_make_exact_against_image", _count_make_exact),
    ("resolution.order_complex", "posheaf.resolution", "order_complex_resolution", None),
    ("resolution.coh_dims", "posheaf.resolution", "cohomology_sheaf_dims", None),
    ("derived.peel", "posheaf.derived", "peel", _count_peel),
    ("derived.pullback", "posheaf.derived", "pullback", None),
    ("derived.proper", "posheaf.derived", "proper_pushforward", None),
    ("derived.proper", "posheaf.derived", "proper_pullback", None),
    ("derived.hypercohomology", "posheaf.derived", "hypercohomology", None),
    ("morse.critical", "posheaf.morse", "critical_elements", None),
    ("morse.table", "posheaf.morse", "betti_table", _count_levels),
    ("morse.verify", "posheaf.morse", "verify_morse_theorem", None),
    ("morse.verify", "posheaf.morse", "morse_inequalities", None),
    ("io.parse", "posheaf.cli", "_read", _count_read_bytes),
    ("io.parse", "posheaf.cli", "_load_complex", None),
    ("io.parse", "posheaf.io", "complex_from_json", None),
    ("io.parse", "posheaf.io", "morse_from_json", None),
    ("io.render", "posheaf.cli", "_emit_complex", None),
    ("io.render", "posheaf.cli", "_print_morse_text", None),
    ("io.render", "posheaf.cli", "_print_morse_csv", None),
    ("cli.main", "posheaf.cli", "main", None),
)

# Layers whose rendered output goes to stdout; their byte count is the growth
# of the captured stdout buffer across the span.
_RENDER_TO_STDOUT = {"_emit_complex", "_print_morse_text", "_print_morse_csv"}

ROOT = "job"

# The per-layer metrics, in report order: (name, unit, better).
PER_LAYER = (
    ("poset.build.calls", "count", "lower"),
    ("poset.build.elements", "count", "lower"),
    ("poset.build.self_s", "s", "lower"),
    ("poset.restrict.self_s", "s", "lower"),
    ("poset.cylinder.self_s", "s", "lower"),
    ("poset.order_complex.self_s", "s", "lower"),
    ("matrix.complement.calls", "count", "lower"),
    ("matrix.complement.rows_in", "count", "lower"),
    ("matrix.complement.self_s", "s", "lower"),
    ("matrix.rank.calls", "count", "lower"),
    ("matrix.rank.rows_in", "count", "lower"),
    ("matrix.rank.self_s", "s", "lower"),
    ("matrix.submatrix.self_s", "s", "lower"),
    ("sheaf.hull.calls", "count", "lower"),
    ("sheaf.hull.self_s", "s", "lower"),
    ("resolution.resolve.calls", "count", "lower"),
    ("resolution.resolve.self_s", "s", "lower"),
    ("resolution.step.calls", "count", "lower"),
    ("resolution.make_exact.calls", "count", "lower"),
    ("resolution.make_exact.rows_added", "count", "lower"),
    ("resolution.make_exact.useful_ratio", "ratio", "higher"),
    ("resolution.make_exact.self_s", "s", "lower"),
    ("resolution.summands", "count", "lower"),
    ("resolution.order_complex.self_s", "s", "lower"),
    ("resolution.coh_dims.self_s", "s", "lower"),
    ("derived.peel.calls", "count", "lower"),
    ("derived.peel.self_s", "s", "lower"),
    ("derived.peel.summands_in", "count", "lower"),
    ("derived.peel.kept_ratio", "ratio", "higher"),
    ("derived.pullback.calls", "count", "lower"),
    ("derived.pullback.self_s", "s", "lower"),
    ("derived.proper.self_s", "s", "lower"),
    ("derived.hypercohomology.calls", "count", "lower"),
    ("derived.hypercohomology.self_s", "s", "lower"),
    ("morse.critical.calls", "count", "lower"),
    ("morse.critical.self_s", "s", "lower"),
    ("morse.table.calls", "count", "lower"),
    ("morse.table.levels", "count", "lower"),
    ("morse.table.self_s", "s", "lower"),
    ("morse.verify.self_s", "s", "lower"),
    ("io.parse.bytes", "B", "lower"),
    ("io.parse.self_s", "s", "lower"),
    ("io.render.bytes", "B", "lower"),
    ("io.render.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.job_s", "s", "lower"),
    ("trace.accounted_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Recorder:
    """In-memory spans plus per-layer self times, calls and counts."""

    def __init__(self):
        self.active = False
        self.spans = []  # (job, span id, parent id, name, start, end)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.jobs = 0
        self.job_s = 0.0
        self.absent = []
        self._stack = []  # [span id, name, start, child seconds]
        self._next_id = 0
        self._job = -1
        self._installed = []  # (owner, attribute, original value)

    # -- spans -------------------------------------------------------------

    def _push(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def _pop(self):
        end = time.perf_counter()
        span_id, name, start, children = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.self_s[name] += duration - children
        self.calls[name] += 1
        self.spans.append((self._job, span_id, parent[0] if parent else None, name, start, end))

    def run_job(self, fn, *args):
        """Run one job under a root span and return its result."""
        self._job += 1
        self.active = True
        self._push(ROOT)
        try:
            return fn(*args)
        finally:
            self._pop()
            self.active = False
            span = self.spans[-1]
            self.jobs += 1
            self.job_s += span[5] - span[4]

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, layer, fn, hook, render):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            rec._push(layer)
            before = _stdout_pos() if render else 0
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(rec, args, kwargs, result)
                if render:
                    rec.counts["io.render.bytes"] += _stdout_pos() - before
                return result
            finally:
                rec._pop()

        return wrapper

    def install(self, targets=TARGETS):
        """Wrap every target binding; a missing one is recorded as absent."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "posheaf" or n.startswith("posheaf.")]
        for layer, module_name, attr, hook in targets:
            module = sys.modules.get(module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or name not in vars(owner):
                self.absent.append(f"{module_name}.{attr}")
                continue
            raw = vars(owner)[name]
            render = name in _RENDER_TO_STDOUT
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, raw.__func__, hook, render))
            else:
                wrapped = self._wrap(layer, raw, hook, render)
            self._installed.append((owner, name, raw))
            setattr(owner, name, wrapped)
            if owner is not module:
                continue
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is raw and other is not owner:
                        self._installed.append((other, key, raw))
                        setattr(other, key, wrapped)

    def uninstall(self):
        for owner, name, raw in reversed(self._installed):
            setattr(owner, name, raw)
        self._installed.clear()

    # -- report ------------------------------------------------------------

    def metrics(self, untraced_job_p50, traced_job_p50):
        """Per-job means of every per-layer metric."""
        jobs = max(self.jobs, 1)
        calls, counts, self_s = self.calls, self.counts, self.self_s
        make_exact = calls["resolution.make_exact"]
        peeled = counts["derived.peel.summands_in"]
        layer_self = sum(v for k, v in self_s.items() if k != ROOT)
        values = {
            "resolution.make_exact.useful_ratio": (
                counts["resolution.make_exact.useful"] / make_exact if make_exact else 0.0
            ),
            "derived.peel.kept_ratio": counts["derived.peel.summands_out"] / peeled if peeled else 0.0,
            "trace.job_s": self.job_s / jobs,
            "trace.accounted_ratio": layer_self / self.job_s if self.job_s else 0.0,
            "trace.overhead_ratio": traced_job_p50 / untraced_job_p50 if untraced_job_p50 else 0.0,
        }
        for name, _unit, _better in PER_LAYER:
            layer, _, kind = name.rpartition(".")
            if name in values:
                continue
            if kind == "calls":
                values[name] = calls[layer] / jobs
            elif kind == "self_s":
                values[name] = self_s[layer] / jobs
            else:
                values[name] = counts[name] / jobs
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}

    def write_spans(self, path):
        """Write every span as a tab-separated line: job, id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("job\tid\tparent\tname\tstart_s\tend_s\n")
            for job, span_id, parent, name, start, end in self.spans:
                out.write(f"{job}\t{span_id}\t{'' if parent is None else parent}\t{name}\t{start:.9f}\t{end:.9f}\n")

"""Per-layer tracing by wrapping fdsched functions from outside the package.

Each wrapper is installed under the name its caller looks the function up
by.  ``from .analysis import avg_rate_integral`` in validate.py binds its own
name, so wrapping ``analysis.avg_rate_integral`` alone would miss validate's
calls; every such binding is listed in ``SEAMS``.

A span records the wall time of one call.  Spans nest per thread: a span's
self time is its duration minus the durations of the spans it directly
encloses, and the time a wrapper spends on its own bookkeeping is charged to
neither.  Spans opened in pool threads have no parent there, so they are
busy time that runs beside the caller, not inside its self time.

A seam that no longer exists (a later refactor may remove a private
function such as ``sim._draw_block``) is recorded in ``missing``; the
metrics that depend on it are then reported as missing instead of zero.
"""

import hashlib
import inspect
import statistics
import threading
import time

# (module, attribute, span).  The same span name may appear under several
# bindings of one function.
SEAMS = [
    ("fdsched.sim", "_draw_block", "sim.draw"),
    ("fdsched.sim", "_evaluate_block", "sim.evaluate"),
    ("fdsched.sim", "_aggregate", "sim.reduce"),
    ("fdsched.sim", "_run_arrays", "sim.run_arrays"),
    ("fdsched.cli", "run_sweep", "sim.sweep"),
    ("fdsched.analysis", "avg_rate_a1", "analysis.closed"),
    ("fdsched.analysis", "avg_rate_a2", "analysis.closed"),
    ("fdsched.analysis", "avg_rate_integral", "analysis.integral"),
    ("fdsched.validate", "avg_rate_integral", "analysis.integral"),
    ("fdsched.analysis", "cdf_sinr_ul", "analysis.cdf"),
    ("fdsched.analysis", "cdf_sinr_dl_a1", "analysis.cdf"),
    ("fdsched.analysis", "cdf_sinr_dl_a2", "analysis.cdf"),
    ("fdsched.analysis", "xi_n", "specfun.xi_n"),
    ("fdsched.specfun", "xi_n", "specfun.xi_n"),
    ("fdsched.model", "draw_realization", "model.draw_realization"),
    ("fdsched.validate", "draw_realization", "model.draw_realization"),
    ("fdsched.scheduling", "select_a1", "scheduling.select"),
    ("fdsched.scheduling", "select_a2", "scheduling.select"),
    ("fdsched.scheduling", "select_a3", "scheduling.select"),
    ("fdsched.scheduling", "select_es_fd", "scheduling.select"),
    ("fdsched.scheduling", "select_es_fdhd", "scheduling.select"),
    ("fdsched.scheduling", "select_hd_tdd", "scheduling.select"),
    ("fdsched.power", "opa", "power.opa"),
    ("fdsched.cli", "main", "cli.main"),
]


class Tracer:
    """Span totals and counters for one traced pass."""

    def __init__(self):
        self.lock = threading.Lock()
        self.local = threading.local()
        self.calls = {}
        self.total = {}
        self.self_s = {}
        self.counts = {}
        self.block_keys = set()
        self.run_capacity_s = 0.0   # sum over engine runs of workers x wall
        self.missing = set()
        self._patches = []

    # -- span bookkeeping -------------------------------------------------
    def _stack(self):
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def count(self, name, n=1):
        with self.lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, fn, span):
        hook = _HOOKS.get(span)
        sig = inspect.signature(fn) if hook is not None else None
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if span == "analysis.integral":   # a closed form rerouted to quadrature
                for outer in stack:
                    if outer[0] == "analysis.closed":
                        outer[2] = True
            frame = [span, 0.0, False]   # name, child seconds, rerouted
            stack.append(frame)
            result = None
            returned = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                book = time.perf_counter()
                with tracer.lock:
                    tracer.calls[span] = tracer.calls.get(span, 0) + 1
                    tracer.total[span] = tracer.total.get(span, 0.0) + elapsed
                    tracer.self_s[span] = tracer.self_s.get(span, 0.0) + elapsed - frame[1]
                    if frame[2]:
                        tracer.counts["analysis.closed.rerouted"] = (
                            tracer.counts.get("analysis.closed.rerouted", 0) + 1)
                if returned and hook is not None:
                    try:
                        hook(tracer, sig.bind(*args, **kwargs).arguments, result, elapsed)
                    except (TypeError, KeyError, AttributeError, IndexError):
                        tracer.missing.add(span)   # the seam changed shape
                if stack:
                    stack[-1][1] += elapsed + (time.perf_counter() - book)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules):
        for mod_name, attr, span in SEAMS:
            module = modules.get(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(span)
                continue
            setattr(module, attr, self._wrap(fn, span))
            self._patches.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    # -- results ----------------------------------------------------------
    def snapshot(self, wall_s):
        """Per-pass layer metrics; a metric whose seam is missing is omitted."""
        c, t, s, n = self.calls, self.total, self.self_s, self.counts
        out = {}

        def put(name, value, needs):
            if not any(span in self.missing for span in needs):
                out[name] = value

        def frac(num, den):
            return num / den if den else 0.0

        blocks = c.get("sim.draw", 0)
        evaluated = n.get("sim.evaluate.trials", 0)
        busy = t.get("sim.draw", 0.0) + t.get("sim.evaluate", 0.0)
        put("sim.draw.s", t.get("sim.draw", 0.0), ["sim.draw"])
        put("sim.draw.blocks", blocks, ["sim.draw"])
        put("sim.draw.repeat_frac", frac(blocks - len(self.block_keys), blocks), ["sim.draw"])
        put("sim.draw.bytes", n.get("sim.draw.bytes", 0), ["sim.draw"])
        put("sim.draw.block_bytes_max", n.get("sim.draw.block_bytes_max", 0), ["sim.draw"])
        put("sim.evaluate.s", t.get("sim.evaluate", 0.0), ["sim.evaluate"])
        put("sim.evaluate.calls", c.get("sim.evaluate", 0), ["sim.evaluate"])
        put("sim.evaluate.trials", evaluated, ["sim.evaluate"])
        put("sim.evaluate.trials_per_s", frac(evaluated, t.get("sim.evaluate", 0.0)),
            ["sim.evaluate"])
        put("sim.reduce.s", t.get("sim.reduce", 0.0), ["sim.reduce"])
        put("sim.reduce.calls", c.get("sim.reduce", 0), ["sim.reduce"])
        put("sim.parallel_eff", frac(busy, self.run_capacity_s),
            ["sim.draw", "sim.evaluate", "sim.run_arrays"])
        put("sim.wall_share", frac(busy, wall_s), ["sim.draw", "sim.evaluate"])

        closed = c.get("analysis.closed", 0)
        put("analysis.closed.calls", closed, ["analysis.closed"])
        put("analysis.closed.s", t.get("analysis.closed", 0.0), ["analysis.closed"])
        put("analysis.closed.self_s", s.get("analysis.closed", 0.0), ["analysis.closed"])
        put("analysis.reroute_frac", frac(n.get("analysis.closed.rerouted", 0), closed),
            ["analysis.closed", "analysis.integral"])
        for span in ("analysis.integral", "analysis.cdf", "specfun.xi_n",
                     "model.draw_realization", "scheduling.select", "power.opa"):
            put(f"{span}.calls", c.get(span, 0), [span])
            put(f"{span}.s", t.get(span, 0.0), [span])
        put("power.opa.fast_frac", frac(n.get("power.opa.fast", 0), c.get("power.opa", 0)),
            ["power.opa"])
        put("cli.self_s", s.get("cli.main", 0.0), ["cli.main", "sim.sweep"])
        return out


def _hook_draw(tracer, arguments, result, elapsed):
    nbytes = sum(int(a.nbytes) for a in result)
    digest = hashlib.blake2b(digest_size=16)
    for a in result[:2]:   # UL and DL gains identify the draw
        digest.update(a.tobytes())
    with tracer.lock:
        tracer.block_keys.add(digest.digest())
        tracer.counts["sim.draw.bytes"] = tracer.counts.get("sim.draw.bytes", 0) + nbytes
        peak = tracer.counts.get("sim.draw.block_bytes_max", 0)
        tracer.counts["sim.draw.block_bytes_max"] = max(peak, nbytes)


def _hook_evaluate(tracer, arguments, result, elapsed):
    tracer.count("sim.evaluate.trials", int(arguments["g_ul"].shape[0]))


def _hook_run_arrays(tracer, arguments, result, elapsed):
    workers = arguments.get("workers", 1) or 1
    with tracer.lock:
        tracer.run_capacity_s += max(1, int(workers)) * elapsed


def _hook_opa(tracer, arguments, result, elapsed):
    if result.fast_path:
        tracer.count("power.opa.fast")


_HOOKS = {
    "sim.draw": _hook_draw,
    "sim.evaluate": _hook_evaluate,
    "sim.run_arrays": _hook_run_arrays,
    "power.opa": _hook_opa,
}


def merge_passes(snapshots):
    """Combine per-pass snapshots: times are medians over passes; counts
    must be identical in every pass (returns the mismatching names)."""
    merged, mismatched = {}, []
    for name in snapshots[0]:
        values = [snap.get(name) for snap in snapshots]
        if is_exact(name):
            merged[name] = values[0]
            if any(v != values[0] for v in values):
                mismatched.append(name)
        else:
            merged[name] = statistics.median(values)
    return merged, mismatched


_TIMED_SUFFIXES = (".s", "_s", "_per_s", "_eff", "wall_share", "overhead_frac", "_ms")


def is_exact(name):
    """Counters that are a pure function of the workload, not of speed."""
    return not name.endswith(_TIMED_SUFFIXES)

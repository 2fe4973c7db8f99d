"""An outside-in tracer: spans around public functions of the gvdlab modules.

The tracer edits nothing under ``src/``.  It replaces each traced function
by a wrapper in every gvdlab module that binds it, so calls made through an
imported alias (``gvd.intersect`` is ``groebner.intersect``) are seen too,
and it wraps the method ``Ideal.groebner`` on its class.  Spans stay in
memory and are aggregated once, when the traced work is over; leaving the
``with`` block puts every original back.

Per traced function it reports ``calls``, ``incl_s`` and ``self_s``.
``incl_s`` counts only outermost frames, so a recursive function is not
counted twice, and ``self_s`` is a span's duration minus the durations of
its directly nested spans.  Functions named in ``counted`` get a call
counter and no span: ``s_polynomial`` is called so often that a span
would cost more than the work it wraps.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time

# The clock of the benchmark's timings: process CPU seconds.
_clock = time.process_time


class Tracer:
    """Spans around ``targets``: names like ``"groebner.buchberger"`` or
    ``"groebner.Ideal.groebner"`` (module, then attribute path).

    ``outcomes`` maps a traced name to a predicate on its return value; the
    tracer counts the calls for which it holds.
    """

    def __init__(self, targets, counted=(), outcomes=None):
        self.targets = tuple(targets)
        self.counted = tuple(counted)
        self.outcomes = dict(outcomes or {})
        self.spans = []      # [name index, parent span index, start, end, outermost]
        self.counts = [0] * len(self.counted)
        self.hits = {name: 0 for name in self.outcomes}
        self._open = [-1]    # indices of the open spans; -1 is the root
        self._restore = []
        self._entered = 0.0
        self.active_s = 0.0  # wall time spent inside the ``with`` block

    # -- installing and removing the wrappers --------------------------------

    def __enter__(self):
        # Import every gvdlab module first, so that every alias exists before
        # the wrappers go in and none is created afterwards holding one.
        import gvdlab
        for info in pkgutil.iter_modules(gvdlab.__path__):
            importlib.import_module("gvdlab." + info.name)
        for i, name in enumerate(self.targets):
            self._replace(name, self._span_wrapper(i, name))
        for i, name in enumerate(self.counted):
            self._replace(name, self._count_wrapper(i))
        self._entered = _clock()
        return self

    def __exit__(self, *exc):
        self.active_s += _clock() - self._entered
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _replace(self, name, make):
        module_name, *path = name.split(".")
        owner = sys.modules["gvdlab." + module_name]
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        original = getattr(owner, path[-1])
        wrapper = make(original)
        if len(path) > 1:
            self._restore.append((owner, path[-1], original))
            setattr(owner, path[-1], wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "gvdlab":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _span_wrapper(self, index, name):
        spans = self.spans
        depth = [0]
        active = self._open
        check = self.outcomes.get(name)
        hits = self.hits

        def make(fn):
            def wrapper(*args, **kwargs):
                rec = [index, active[-1], 0.0, 0.0, depth[0] == 0]
                active.append(len(spans))
                spans.append(rec)
                depth[0] += 1
                rec[2] = _clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[3] = _clock()
                    depth[0] -= 1
                    active.pop()
                if check is not None and check(result):
                    hits[name] += 1
                return result
            wrapper.__wrapped__ = fn
            wrapper.__name__ = fn.__name__
            wrapper.__qualname__ = fn.__qualname__
            wrapper.__doc__ = fn.__doc__
            return wrapper
        return make

    def _count_wrapper(self, index):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[index] += 1
                return fn(*args, **kwargs)
            wrapper.__wrapped__ = fn
            wrapper.__name__ = fn.__name__
            return wrapper
        return make

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict:
        """Per traced name: {"calls", "incl_s", "self_s"}; counted names
        have only "calls"."""
        n = len(self.targets)
        calls = [0] * n
        incl = [0.0] * n
        own = [0.0] * n
        nested = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[1] >= 0:
                nested[rec[1]] += rec[3] - rec[2]
        for k, (i, _, start, end, outermost) in enumerate(self.spans):
            dur = end - start
            calls[i] += 1
            if outermost:
                incl[i] += dur
            own[i] += dur - nested[k]
        out = {name: {"calls": calls[i], "incl_s": incl[i], "self_s": own[i]}
               for i, name in enumerate(self.targets)}
        for i, name in enumerate(self.counted):
            out[name] = {"calls": self.counts[i]}
        return out


def per_call_cost(repeat: int = 100_000) -> tuple:
    """Measured cost in seconds of one span and of one counted call.

    Times a trivial two-argument function called directly and through each
    kind of wrapper; the differences estimate what tracing adds per call.
    """
    def work(a, b):
        return a

    probe = Tracer(())
    span = probe._span_wrapper(0, "probe")(work)
    count = Tracer((), counted=("probe",))._count_wrapper(0)(work)

    def best(fn):
        times = []
        for _ in range(3):
            t0 = _clock()
            for _ in range(repeat):
                fn(1, 2)
            times.append(_clock() - t0)
            probe.spans.clear()
        return min(times)

    direct = best(work)
    return (max(best(span) - direct, 0.0) / repeat,
            max(best(count) - direct, 0.0) / repeat)

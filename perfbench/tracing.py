"""Spans at sfde_tem's module boundaries, recorded from outside the library.

``Tracer.install`` wraps the calls that cross from one module into another:

- ``experiments`` -> ``brownian``: the names ``experiments`` binds for
  increment sampling (``sample_increments``) and block sums (``_block_sums``);
- ``experiments`` -> ``scheme``: the batch driver ``_run_batch``, whose
  ``per_step`` observer (an ``experiments`` closure) is wrapped too;
- ``scheme`` -> ``model``: ``clip_to_ball`` as ``scheme`` binds it, and the
  model's ``drift``/``diffusion`` callables, swapped in with
  ``dataclasses.replace``;
- ``model`` -> ``segment``: ``weighted_integral``/``lerp_eval`` reads, made
  through a timing proxy handed to the coefficients in place of the window.

Each span records its name, start, end, the CPU time its thread used in
between, its parent span and thread id, plus a few counts taken from its
arguments after the span has ended.  Under the library's thread pool a
span's wall time includes waiting for the interpreter lock while another
thread runs; wall minus thread CPU time is that wait (plus any time the
machine did not run the thread).  Spans stay in
memory; ``layer_metrics`` reduces them and ``write_spans`` dumps them.  A
boundary that the library no longer has is skipped and its metrics are
reported as absent.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, List

# (module, attribute) -> span name
_PATCHES = {
    ("experiments", "sample_increments"): "brownian.sample",
    ("experiments", "_block_sums"): "brownian.coarsen",
    ("experiments", "_run_batch"): "scheme.driver",
    ("scheme", "clip_to_ball"): "model.clip",
}
_COEFFICIENTS = {"drift": "model.drift", "diffusion": "model.diffusion"}
_SEGMENT = "segment.integral"
_OBSERVER = "experiments.observer"

# metric name -> unit, in report order; ``.nmax``/``.nmin`` are the levels
# with the longest and shortest history window
LAYER_UNITS = {
    "brownian.sample_s": "s",
    "brownian.coarsen_s": "s",
    "brownian.normals": "count",
    "brownian.increment_mb": "MB-computed",
    "model.drift_s": "s",
    "model.diffusion_s": "s",
    "model.coeff_calls": "count",
    "model.clip_s": "s",
    "model.clip_hits": "count",
    "model.clip_hit_frac": "frac",
    "segment.integral_s": "s",
    "segment.integral_calls": "count",
    "scheme.driver_s": "s",
    "scheme.self_s": "s",
    "scheme.replica_steps": "count",
    "scheme.calls": "count",
    "scheme.batch_max": "count",
    "scheme.ring_mb": "MB-computed",
    "scheme.ns_per_replica_step": "ns",
    "scheme.ns_per_replica_step.nmax": "ns",
    "scheme.ns_per_replica_step.nmin": "ns",
    "scheme.replica_steps.nmax": "count",
    "scheme.replica_steps.nmin": "count",
    "model.clip_hits.nmax": "count",
    "model.clip_hits.nmin": "count",
    "experiments.observer_s": "s",
    "experiments.self_s": "s",
    "experiments.wait_s": "s",
    "experiments.threads": "count",
}
_PER_HISTORY = ("scheme.ns_per_replica_step", "scheme.replica_steps", "model.clip_hits")

# metrics (by name prefix) that a boundary's spans feed; absent when it is missing
_DEPENDENT = {
    "brownian.sample": ("brownian.sample_s", "brownian.normals", "experiments.self_s", "experiments.wait_s"),
    "brownian.coarsen": ("brownian.coarsen_s", "experiments.self_s", "experiments.wait_s"),
    "scheme.driver": ("scheme.", "experiments.", "brownian.increment_mb", "model.clip_hits.n"),
    "model.clip": ("model.clip",),
}


class Tracer:
    """Collects spans from every thread; install around one experiment call."""

    def __init__(self):
        self.spans: List[tuple] = []  # (id, name, start, end, thread_cpu, parent, thread, extra)
        self.missing: List[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: List[tuple] = []

    def wrap(self, name: str, fn, extra=None):
        """Return fn wrapped in a span; ``extra(args, kwargs, result)`` adds counts."""
        spans, local, ids = self.spans, self._local, self._ids
        clock, cpu_clock, get_ident = time.perf_counter, time.thread_time, threading.get_ident

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = [-1]
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start, cpu = clock(), cpu_clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                cpu = cpu_clock() - cpu
                end = clock()
                stack.pop()
            spans.append((sid, name, start, end, cpu, parent, get_ident(), extra(args, kwargs, out) if extra else None))
            return out

        return traced

    def install(self, st, model):
        """Patch the module boundaries; return the model with traced coefficients."""
        resolve_grid = getattr(st.scheme, "resolve_grid", None)

        def driver_extra(args, kwargs, out):
            model, config, inc = args[:3]
            n_hist = resolve_grid(model, config)[1] if resolve_grid else -1
            return {"batch": inc.shape[0], "steps": inc.shape[1], "n_hist": n_hist,
                    "dim": model.dim_state, "inc_bytes": inc.nbytes}

        extras = {
            "brownian.sample": lambda args, kwargs, out: {"normals": out.size},
            "scheme.driver": driver_extra,
            "model.clip": lambda args, kwargs, out: {"checked": out[1].size, "hits": int(out[1].sum())},
        }
        for (module_name, attr), name in _PATCHES.items():
            module = getattr(st, module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            fn = self.wrap(name, original, extras.get(name))
            if name == "scheme.driver":
                fn = self._observing(fn)
            setattr(module, attr, fn)
            self._undo.append((module, attr, original))

        read = self.wrap(_SEGMENT, _call)

        def with_proxy(coefficient):
            return lambda window: coefficient(_TimedWindow(window, read))

        return dataclasses.replace(
            model,
            **{attr: self.wrap(name, with_proxy(getattr(model, attr))) for attr, name in _COEFFICIENTS.items()},
        )

    def _observing(self, driver):
        def traced_driver(*args, **kwargs):
            if kwargs.get("per_step") is not None:
                kwargs["per_step"] = self.wrap(_OBSERVER, kwargs["per_step"])
            return driver(*args, **kwargs)

        return traced_driver

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def write_spans(self, path) -> None:
        """One JSON list per line: id, name, start, end, thread_cpu, parent, thread, counts."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _call(fn, *args):
    return fn(*args)


class _TimedWindow:
    """Stands in for the history window; ``read`` times the reads coefficients make."""

    __slots__ = ("_window", "_read")

    def __init__(self, window, read):
        self._window = window
        self._read = read

    @property
    def head(self):
        return self._window.head

    def weighted_integral(self, weight, transform):
        return self._read(self._window.weighted_integral, weight, transform)

    def lerp_eval(self, theta):
        return self._read(self._window.lerp_eval, theta)

    def __getattr__(self, attr):
        return getattr(self._window, attr)


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans, missing, call_start: float, call_end: float) -> Dict[str, float]:
    """Per-layer metrics of one traced call, plus a ``*.n<N>`` entry per history length.

    Times are summed over threads.  A span's self time is its duration minus
    its children's; ``experiments.self_s`` is the call's wall time during
    which no thread was in a driver or Brownian span, and
    ``experiments.wait_s`` is wall minus thread CPU time of the outermost
    spans of every thread.
    """
    dur = defaultdict(float)
    count = defaultdict(int)
    child_time = defaultdict(float)  # span id -> time in its children
    by_id = {}
    wait = 0.0
    for sid, name, start, end, cpu, parent, tid, extra in spans:
        dur[name] += end - start
        count[name] += 1
        child_time[parent] += end - start
        by_id[sid] = (name, start, end, parent, tid, extra)
        if parent == -1:
            wait += end - start - cpu

    def self_time(name):
        return sum(end - start - child_time[sid] for sid, (n, start, end, *_r) in by_id.items() if n == name)

    drivers = {sid: s for sid, s in by_id.items() if s[0] == "scheme.driver"}
    per_n = defaultdict(lambda: {"self_s": 0.0, "replica_steps": 0, "clip_hits": 0})
    for sid, (_, start, end, _, _, extra) in drivers.items():
        level = per_n[extra["n_hist"]]
        level["self_s"] += end - start - child_time[sid]
        level["replica_steps"] += extra["batch"] * extra["steps"]
    clip_checked = clip_hits = 0
    for name, _, _, parent, _, extra in by_id.values():
        if name == "model.clip":
            clip_checked += extra["checked"]
            clip_hits += extra["hits"]
            if parent in drivers:
                per_n[drivers[parent][5]["n_hist"]]["clip_hits"] += extra["hits"]

    extras = [s[5] for s in drivers.values()]
    replica_steps = sum(e["batch"] * e["steps"] for e in extras)
    scheme_self = self_time("scheme.driver")
    widest = max(extras, key=lambda e: (e["n_hist"], e["batch"]), default=None)
    busy = [(s[1], s[2]) for s in by_id.values() if s[0] in ("scheme.driver", "brownian.sample", "brownian.coarsen")]
    out = {
        "brownian.sample_s": dur["brownian.sample"],
        "brownian.coarsen_s": dur["brownian.coarsen"],
        "brownian.normals": sum(s[5]["normals"] for s in by_id.values() if s[0] == "brownian.sample"),
        "brownian.increment_mb": max((e["inc_bytes"] for e in extras), default=0) / 1e6,
        "model.drift_s": self_time("model.drift"),
        "model.diffusion_s": self_time("model.diffusion"),
        "model.coeff_calls": count["model.drift"] + count["model.diffusion"],
        "model.clip_s": dur["model.clip"],
        "model.clip_hits": clip_hits,
        "model.clip_hit_frac": clip_hits / clip_checked if clip_checked else 0.0,
        "segment.integral_s": dur[_SEGMENT],
        "segment.integral_calls": count[_SEGMENT],
        "scheme.driver_s": dur["scheme.driver"],
        "scheme.self_s": scheme_self,
        "scheme.replica_steps": replica_steps,
        "scheme.calls": len(drivers),
        "scheme.batch_max": max((e["batch"] for e in extras), default=0),
        "scheme.ring_mb": widest["batch"] * (widest["n_hist"] + 1) * widest["dim"] * 8 / 1e6 if widest else 0.0,
        "scheme.ns_per_replica_step": 1e9 * scheme_self / replica_steps if replica_steps else 0.0,
        "experiments.observer_s": dur[_OBSERVER],
        "experiments.self_s": (call_end - call_start) - _union_length(busy),
        "experiments.wait_s": wait,
        "experiments.threads": len({s[4] for s in drivers.values()}),
    }
    for n_hist, level in sorted(per_n.items()):
        level["ns_per_replica_step"] = 1e9 * level["self_s"] / level["replica_steps"]
        for metric in _PER_HISTORY:
            out[f"{metric}.n{n_hist}"] = level[metric.split(".", 1)[1]]
    if per_n:
        for tag, n_hist in (("nmax", max(per_n)), ("nmin", min(per_n))):
            for metric in _PER_HISTORY:
                out[f"{metric}.{tag}"] = out[f"{metric}.n{n_hist}"]
    absent = tuple(prefix for name in missing for prefix in _DEPENDENT[name])
    return {k: v for k, v in out.items() if not k.startswith(absent)}

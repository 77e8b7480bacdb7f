"""Spans and counters around the racekit layers, recorded from outside.

`Tracer.installed` replaces every public function of the layer modules,
every public method of their classes, and the few private functions and
methods named in EXTRA, with a wrapper that records a span (name, start,
end, parent). References that other racekit modules took with `from .x import y` are
replaced too, so every caller goes through the wrapper. Spans stay in
memory until `write`, at the end of the command. `layer_metrics` reads
the span files of a run's traced commands; a span's self time is its
duration minus the time covered by its child spans.

Metric names: `<module>.<function>.<stat>` or `<module>.<Class>.<method>.<stat>`;
the module `_geom` is named `geom`, because metric names start with a
letter. `expert.expert_action` spans are split by role into `.ego` and
`.leader`.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("track", "_geom", "simulator", "expert", "scenario", "policy",
          "evaluator", "trainer", "cli")
# private functions and methods worth a span of their own
EXTRA = ("trainer._forward_batch", "cli._rollout_many", "policy.InferenceSession.__init__")

P50_MIN_CALLS = 20      # a median with ten samples on each side
P99_MIN_CALLS = 1000    # a 99th percentile with ten samples beyond it


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _expert_role(args, kwargs):
    return f"expert.expert_action.{_arg(args, kwargs, 2, 'role')}"


def _count_bytes(index, name):
    def observe(counters, span, args, kwargs, result, exc):
        if exc is None:
            counters[f"{span}.bytes"] += os.path.getsize(_arg(args, kwargs, index, name))
    return observe


def _observe_spawns(counters, span, args, kwargs, result, exc):
    if exc is None:
        scenarios, skipped = result
        counters["scenario.spawn_kept"] += len(scenarios)
        counters["scenario.spawn_candidates"] += len(scenarios) + skipped


def _observe_lattice(counters, span, args, kwargs, result, exc):
    if exc is None:
        cfg = _arg(args, kwargs, 3, "cfg")
        counters["expert.candidates_kept"] += len(result)
        counters["expert.candidates_sampled"] += cfg.n_lateral * cfg.n_speed
    elif type(exc).__name__ in ("NoFeasibleCandidate", "FarFromRaceline"):
        # expert_action turns each of these into a straight brake
        counters["expert.fallbacks"] += 1


def _observe_outcome(counters, span, args, kwargs, result, exc):
    if exc is None:
        counters[f"scenario.outcome.{result[0].outcome}"] += 1


NAMERS = {"expert.expert_action": _expert_role}
OBSERVERS = {
    "scenario.enumerate_scenarios": _observe_spawns,
    "expert.sample_lattice": _observe_lattice,
    "scenario.rollout": _observe_outcome,
    "scenario.save_episode": _count_bytes(1, "path"),
    "scenario.load_episode": _count_bytes(0, "path"),
    "policy.save_checkpoint_file": _count_bytes(2, "path"),
    "policy.load_checkpoint_file": _count_bytes(0, "path"),
}


class Tracer:
    """In-memory span recorder for one thread of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        namer = NAMERS.get(name)
        observe = OBSERVERS.get(name)
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counters = self._stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if namer is not None:
                with contextlib.suppress(IndexError, KeyError):
                    span = namer(args, kwargs)
            idx = len(names)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            result = exc = None
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                if observe is not None:
                    try:
                        observe(counters, span, args, kwargs, result, exc)
                    except Exception:
                        # tracing must never change what the command does
                        counters["bench.observer_errors"] += 1

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer modules for the duration of the block."""
        patches = []   # (owner, attribute, original)
        wrappers = {}  # original function -> wrapper
        for layer in LAYERS:
            mod = sys.modules.get(f"racekit.{layer}")
            if mod is None:
                continue
            short = _short(mod.__name__)
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (not attr.startswith("_")
                                                or f"{short}.{attr}" in EXTRA):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    for mname, method in list(vars(obj).items()):
                        span = f"{short}.{attr}.{mname}"
                        if inspect.isfunction(method) and (not mname.startswith("_")
                                                           or span in EXTRA):
                            setattr(obj, mname, self.wrap(span, method))
                            patches.append((obj, mname, method))
        for name, mod in list(sys.modules.items()):
            if name == "racekit" or name.startswith("racekit."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(mod, attr, wrappers[obj])
                        patches.append((mod, attr, obj))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span (names, start/end ns, parent index) and the
        counters as gzipped JSON."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        doc = {"names": table, "name": [index[n] for n in self.names],
               "start_ns": self.starts, "end_ns": self.ends, "parent": self.parents,
               "counters": self.counters}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def layer_metrics(paths: list[Path]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the span files of traced commands, per
    command: calls and self time per span name, per-call percentiles where
    there are enough calls, the counters, and each module's total self
    time."""
    names, starts, ends, parents = [], [], [], []
    c: dict[str, float] = defaultdict(float)
    for path in paths:
        with gzip.open(path, "rt") as fh:
            doc = json.load(fh)
        offset = len(names)
        names += [doc["names"][i] for i in doc["name"]]
        starts += doc["start_ns"]
        ends += doc["end_ns"]
        parents += [p + offset if p >= 0 else -1 for p in doc["parent"]]
        for key, value in doc["counters"].items():
            c[key] += value
    commands = len(paths)
    out: dict[str, tuple[float, str]] = {}
    if not names:
        return out
    dur = np.asarray(ends, dtype=np.int64) - np.asarray(starts, dtype=np.int64)
    parent = np.asarray(parents, dtype=np.int64)
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_ns = dur - covered
    names = np.asarray(names)
    module_self: dict[str, float] = defaultdict(float)
    for name in np.unique(names):
        sel = names == name
        calls = int(sel.sum())
        self_ms = float(self_ns[sel].sum()) / 1e6
        out[f"{name}.calls"] = (calls / commands, "count")
        out[f"{name}.self_ms"] = (self_ms / commands, "ms")
        module_self[name.split(".", 1)[0]] += self_ms
        per_call = dur[sel] / 1e6
        if calls >= P50_MIN_CALLS:
            out[f"{name}.p50_ms"] = (float(np.percentile(per_call, 50)), "ms")
        if calls >= P99_MIN_CALLS:
            out[f"{name}.p99_ms"] = (float(np.percentile(per_call, 99)), "ms")
    for module, ms in module_self.items():
        out[f"{module}.self_ms"] = (ms / commands, "ms")
    for key, value in c.items():
        if key.startswith("scenario.outcome.") or key.endswith(
                (".bytes", ".fallbacks", ".observer_errors")):
            out[key] = (value / commands, "bytes" if key.endswith(".bytes") else "count")
    if c["scenario.spawn_candidates"]:
        out["scenario.spawn_kept_ratio"] = (
            c["scenario.spawn_kept"] / c["scenario.spawn_candidates"], "ratio")
    if c["expert.candidates_sampled"]:
        out["expert.candidates_kept_ratio"] = (
            c["expert.candidates_kept"] / c["expert.candidates_sampled"], "ratio")
    return out

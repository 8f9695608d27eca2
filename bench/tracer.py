"""Spans and counters around the package's public functions.

The tracer wraps every public module-level function of the seven layers
and rebinds the wrapper wherever the package binds the original (for
example ``orderedcover.tagging.hbd_report`` and
``orderedcover.cli.run_dynamics_experiment``), so calls between modules
are seen too. Nothing under ``src/`` changes.

A span is (name, start, end, parent, job); spans live in compact arrays
until the pass ends. A layer's self time is the duration of its spans
minus the time their child spans cover. With ``memory=True`` no spans are
kept; instead a layer's peak allocation is the most that tracemalloc saw
above the entry level of one of its calls, callees included. Calls nested
directly in a call of the same layer count toward the enclosing call.

Generator functions (``geometry.iter_indices``) are timed up to the
generator's creation; the time spent iterating falls to the caller.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
import tracemalloc
from array import array

import numpy as np

LAYERS = ("geometry", "zoo", "hbd", "tagging", "separation", "shifts", "cli")
PACKAGE = "orderedcover"

COUNTERS = (
    "geometry.parts",
    "geometry.parts_before_refusal",
    "hbd.parts_checked",
    "tagging.squares",
    "separation.pairs_checked",
    "separation.pair_total",
    "separation.jump_pairs",
    "separation.coverage_tests",
    "shifts.samples",
    "shifts.envelope_evals",
    "shifts.n_steps",
    "cli.bytes_out",
)


def _arguments(signature: inspect.Signature, args: tuple, kwargs: dict) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_hbd(args) -> int:
    source, m_max = args["source"], args["m_max"]
    if hasattr(source, "maps"):
        return sum(len(source.maps) ** m for m in range(m_max + 1))
    return sum(len(cov) for cov in list(source)[: m_max + 1])


def _count_coverage(args) -> int:
    return len(args["points"]) * args["cov"].q


def _count_jump(args) -> int:
    q = len(args["ifs"].maps) ** args["m"]
    return q * (q - 1) // 2


class Tracer:
    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = {layer: 0 for layer in LAYERS}
        self.function_calls: dict[str, int] = {}
        self.counters = {name: 0 for name in COUNTERS}
        self.peak_alloc = {layer: 0 for layer in LAYERS}
        # Open frames: [layer, span index] for spans, or
        # [layer, bytes at entry, peak seen] with memory=True.
        self._stack: list[list] = []
        self._job = -1
        self._job_parts = 0
        self._job_refused = False
        self._bound: list[tuple[object, str, object]] = []
        self._hooks = {
            "geometry.resolution_covering": lambda a, r: self._add("geometry.parts", len(r)),
            "geometry.attractor_points": lambda a, r: self._add("geometry.parts", len(r)),
            "geometry.compose_part": lambda a, r: self._add("geometry.parts", 1),
            "hbd.hbd_report": lambda a, r: self._add("hbd.parts_checked", _count_hbd(a())),
            "tagging.build_tagged_covering": lambda a, r: self._add("tagging.squares", r.q),
            "separation.verify_separation": self._on_separation,
            "separation.verify_jump_lemma": lambda a, r: self._add(
                "separation.jump_pairs", _count_jump(a())
            ),
            "separation.coverage_check": lambda a, r: self._add(
                "separation.coverage_tests", _count_coverage(a())
            ),
            "shifts.verify_universality": lambda a, r: self._add("shifts.samples", r.samples),
            "shifts.run_dynamics_experiment": lambda a, r: self._add(
                "shifts.n_steps", r.config.bigN // r.config.kappa
            ),
        }

    # -- counters ----------------------------------------------------------

    def _add(self, name: str, amount: int) -> None:
        self.counters[name] += amount

    def _on_separation(self, args, report) -> None:
        self._add("separation.pairs_checked", report.pairs_checked)
        self._add("separation.pair_total", report.q * (report.q - 1) // 2)

    def _count_envelope(self, env):
        @functools.wraps(env)
        def counted(k):
            self.counters["shifts.envelope_evals"] += 1
            return env(k)

        return counted

    def begin_job(self, index: int) -> None:
        self._job = index
        self._job_parts = self.counters["geometry.parts"]
        self._job_refused = False

    def end_job(self, bytes_out: int) -> None:
        self.counters["cli.bytes_out"] += bytes_out
        if self._job_refused:
            self.counters["geometry.parts_before_refusal"] += (
                self.counters["geometry.parts"] - self._job_parts
            )

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        """Rebind every public function of every layer to a traced wrapper."""
        modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}
        refusal = modules["geometry"].BudgetExceededError
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(fn)] = self.wrap(layer, f"{layer}.{attr}", fn, refusal)
        for module in [sys.modules[PACKAGE], *modules.values()]:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._bound.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        self._bound.clear()

    def wrap(self, layer: str, name: str, fn, refusal: type[Exception]):
        hook = self._hooks.get(name)
        signature = inspect.signature(fn)
        envelope = name.startswith("shifts.cs1_envelope_")
        self.function_calls[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[layer] += 1
            self.function_calls[name] += 1
            frame = self._enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            except refusal:
                self._job_refused = True
                raise
            finally:
                self._exit(frame)
            if hook is not None:
                hook(lambda: _arguments(signature, args, kwargs), result)
            if envelope:
                result = self._count_envelope(result)
            return result

        return traced

    def _enter(self, layer: str, name: str) -> list | None:
        if self.memory:
            return self._enter_memory(layer)
        index = len(self.start)
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1][1] if self._stack else -1)
        self.job.append(self._job)
        self.end.append(math.nan)
        self.start.append(time.perf_counter())
        frame = [layer, index]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list | None) -> None:
        if self.memory:
            self._exit_memory(frame)
            return
        self.end[frame[1]] = time.perf_counter()
        self._stack.pop()

    def _enter_memory(self, layer: str) -> list | None:
        if self._stack and self._stack[-1][0] == layer:
            return None  # a same-layer callee counts toward the enclosing span
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            outer = self._stack[-1]
            outer[2] = max(outer[2], peak)
        tracemalloc.reset_peak()
        frame = [layer, current, current]
        self._stack.append(frame)
        return frame

    def _exit_memory(self, frame: list | None) -> None:
        if frame is None:
            return
        layer, entry, seen = frame
        peak = max(seen, tracemalloc.get_traced_memory()[1])
        self.peak_alloc[layer] = max(self.peak_alloc[layer], peak - entry)
        self._stack.pop()
        if self._stack:
            outer = self._stack[-1]
            outer[2] = max(outer[2], peak)

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], float, float, int]:
        """Per-layer self time, summed top-level span time, least self time,
        and the number of spans never closed."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        duration = end - start
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        own = duration - child_time
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names], dtype=int)
        per_layer = np.bincount(layer_of[names], weights=own, minlength=len(LAYERS))
        top = float(duration[~nested].sum())
        least = float(own.min()) if len(own) else 0.0
        unclosed = int(np.isnan(end).sum())
        return dict(zip(LAYERS, per_layer.tolist())), top, least, unclosed

"""Span tracer that wraps the library's public functions from outside.

The library's modules bind each other's functions by name at import (for
example ``objective.py`` does ``from .ray import forward_project``), so a
wrapper only sees a call if it replaces the name in every module that holds
it.  ``Tracer.install`` does that for each function listed in ``LAYERS`` and
``Tracer.uninstall`` puts the originals back.  Spans (name, start, end,
parent) stay in memory; ``summary`` turns them into per-layer totals.  The
wrappers call the original with the same arguments, so a traced solve
computes exactly what an untraced one does.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) pairs whose calls are recorded as spans
LAYERS = (
    ("ray", "forward_project"),
    ("ray", "back_project"),
    ("kernel", "kernel_apply"),
    ("grid", "sample_values_xy"),
    ("grid", "gradient_central"),
    ("flow", "maps_from_zero"),
    ("flow", "maps_to_index"),
    ("flow", "forward_maps"),
    ("flow", "jacobian_chain_to_index"),
    ("metamorphosis", "evolve_template"),
    ("metamorphosis", "group_action"),
    ("metamorphosis", "trajectories"),
    ("objective", "evaluate_parts"),
    ("objective", "gradient_core"),
    ("optimizer", "descend"),
    ("harness", "make_phantom"),
    ("harness", "add_noise"),
)
# generators: one span per yielded step
STEP_LAYERS = (("flow", "backward_advected_points"),)

PACKAGE = "metamorph"


class Tracer:
    def __init__(self):
        # each span is [name, start, end, parent index]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap_call(self, name, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def _wrap_steps(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = tracer._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer._close(idx)
                    tracer.spans.pop()  # the exhausted call is not a step
                    return
                except BaseException:
                    tracer._close(idx)
                    raise
                tracer._close(idx)
                yield item
        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for layers, wrap in ((LAYERS, self._wrap_call), (STEP_LAYERS, self._wrap_steps)):
            for mod_name, fn_name in layers:
                original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
                wrapper = wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), child in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child
        return dict(out)

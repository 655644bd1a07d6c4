"""Span tracer that wraps meanforge's public functions from outside.

Each wrapped name is replaced where its calling module looks it up, so a
call records a span (layer, start, end, parent span, task id) without any
change to the program.  Spans live in flat arrays while the pass runs and
are written out afterwards; self time is a span's duration minus the part
covered by its direct child spans.

A name that no longer exists is reported as absent instead of failing the
run, and every replaced attribute is put back by ``uninstall``.
"""

from __future__ import annotations

import dataclasses
import os
from array import array
from time import perf_counter

import numpy as np

_MISSING = object()

# (layer, module, attribute) for every span.  Names are wrapped as the
# calling module sees them: ``inequalities.svd_values`` and
# ``norms.svd_values`` are the same function seen from two callers.
SPAN_TARGETS = (
    ("linalg.draw", "inequalities", "make_instance"),
    ("linalg.power", "linalg", "HpdMatrix.power"),
    ("linalg.svd", "inequalities", "svd_values"),
    ("linalg.svd", "norms", "svd_values"),
    ("means.build", "inequalities", "heinz"),
    ("means.build", "inequalities", "heron"),
    ("means.build", "inequalities", "heinz_p_sum"),
    ("means.build", "inequalities", "heinz_p_diff"),
    ("means.build", "inequalities", "integral_mean"),
    ("means.build", "inequalities", "heinz_nu_average"),
    ("dmap.kernel", "dmap", "kernel_eval"),
    ("dmap.apply", "dmap", "DMap.apply"),
    ("norms.ky_fan", "dmap", "ky_fan"),
    ("inequalities.margins", "inequalities", "step_margins"),
    ("inequalities.cell", "inequalities", "_run_case_dim"),
    ("inequalities.merge", "inequalities", "CaseResult.merge"),
    ("inequalities.evaluation", "inequalities", "_instance_margin"),
    ("io.report_write", "io", "save_report"),
)

# Counted without a span, so their time stays in the caller's self time
# (HPD assembly is part of the instance draw).
COUNT_TARGETS = (
    ("linalg.from_spectrum", "linalg", "HpdMatrix.from_spectrum"),
)

# Case builders are wrapped through the registry, which holds them.
BUILDER_LAYER = "inequalities.builder"


def resolve(module, path: str):
    """(owner, attribute, raw value) for a dotted path, or None if any
    part is missing.  Class attributes are read from the class __dict__
    so classmethods come back undecorated-by-lookup."""
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, _MISSING)
        if owner is _MISSING:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr, _MISSING)
    else:
        raw = getattr(owner, attr, _MISSING)
    if raw is _MISSING or not (callable(raw) or isinstance(raw, classmethod)):
        return None
    return owner, attr, raw


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo: list = []

    def replace(self, owner, attr: str, raw, make_wrapper) -> None:
        """Replace owner.attr (currently ``raw``) by make_wrapper(func);
        a classmethod is unwrapped and re-wrapped as one."""
        if isinstance(raw, classmethod):
            new = classmethod(make_wrapper(raw.__func__))
        else:
            new = make_wrapper(raw)
        self._undo.append(lambda: setattr(owner, attr, raw))
        setattr(owner, attr, new)

    def replace_item(self, mapping: dict, key, new) -> None:
        old = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, old))
        mapping[key] = new

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.current_task = -1
        self._stack = [-1]
        self._patches = Patches()
        # per-layer extras filled by hooks
        self.cells: list[tuple[int, str, int]] = []   # (span, case id, dim)
        self.margins: list[tuple[int, float]] = []    # (task, raw margin)
        self.report_bytes = 0

    def _layer_id(self, layer: str) -> int:
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return lid

    def span(self, layer: str, fn, on_enter=None, on_exit=None):
        """fn wrapped so that each call records one span."""
        lid = self._layer_id(layer)
        stack, start, end = self._stack, self.start, self.end

        def wrapper(*args, **kwargs):
            idx = len(start)
            self.layer.append(lid)
            self.parent.append(stack[-1])
            if on_enter is not None:
                on_enter(idx, args)
            self.task.append(self.current_task)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_exit is not None:
                on_exit(args, result)
            return result
        return wrapper

    def counter(self, layer: str, fn):
        self.counts.setdefault(layer, 0)

        def wrapper(*args, **kwargs):
            self.counts[layer] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- hooks -------------------------------------------------------------

    # A hook that meets an unexpected signature records nothing rather
    # than failing the traced call.

    def _enter_cell(self, idx, args):
        # _run_case_dim(task) with task = (case_id, case_index, dim, ...)
        self.current_task = len(self.cells)
        try:
            self.cells.append((idx, str(args[0][0]), int(args[0][2])))
        except (IndexError, TypeError, ValueError):
            pass

    def _exit_evaluation(self, args, result):
        try:
            self.margins.append((self.current_task, float(result[0])))
        except (IndexError, TypeError, ValueError):
            pass

    def _exit_report(self, args, result):
        try:
            self.report_bytes += os.path.getsize(args[1])
        except (IndexError, TypeError, OSError):
            pass

    # -- install / uninstall ----------------------------------------------

    def install(self, modules: dict, span_targets=SPAN_TARGETS,
                count_targets=COUNT_TARGETS) -> None:
        """Wrap every target found in ``modules`` (name -> module)."""
        hooks = {"inequalities.cell": (self._enter_cell, None),
                 "inequalities.evaluation": (None, self._exit_evaluation),
                 "io.report_write": (None, self._exit_report)}
        try:
            for layer, mod, path in span_targets:
                found = resolve(modules.get(mod), path)
                if found is None:
                    self.absent.append(f"{layer} ({mod}.{path})")
                    continue
                enter, leave = hooks.get(layer, (None, None))
                self._patches.replace(
                    *found, lambda fn, layer=layer, enter=enter, leave=leave:
                    self.span(layer, fn, enter, leave))
            for layer, mod, path in count_targets:
                found = resolve(modules.get(mod), path)
                if found is None:
                    self.absent.append(f"{layer} ({mod}.{path})")
                    continue
                self._patches.replace(
                    *found, lambda fn, layer=layer: self.counter(layer, fn))
            self._install_builders(modules.get("inequalities"))
        except BaseException:
            self.uninstall()
            raise

    def _install_builders(self, inequalities) -> None:
        registry = getattr(inequalities, "REGISTRY", None)
        if not isinstance(registry, dict) or not all(
                dataclasses.is_dataclass(c) and callable(
                    getattr(c, "builder", None)) for c in registry.values()):
            self.absent.append(f"{BUILDER_LAYER} (inequalities.REGISTRY)")
            return
        for cid, case in list(registry.items()):
            wrapped = self.span(BUILDER_LAYER, case.builder)
            self._patches.replace_item(
                registry, cid, dataclasses.replace(case, builder=wrapped))

    def uninstall(self) -> None:
        self._patches.restore()

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {"layer": np.frombuffer(self.layer, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "task": np.frombuffer(self.task, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path) -> None:
        np.savez(path, layers=np.array(self.layers, dtype=str),
                 **self.arrays())

    def summary(self) -> dict:
        """Per layer: calls, total seconds and self seconds."""
        a = self.arrays()
        n_layers = len(self.layers)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested],
                            minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(a["layer"], minlength=n_layers)
        total = np.bincount(a["layer"], weights=dur, minlength=n_layers)
        own = np.bincount(a["layer"], weights=self_time, minlength=n_layers)
        out = {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                      "self_s": float(own[i])}
               for i, name in enumerate(self.layers)}
        for name, count in self.counts.items():
            out[name] = {"calls": count, "total_s": 0.0, "self_s": 0.0}
        return out

    def cell_seconds(self) -> list[tuple[str, int, float]]:
        """(case id, dim, inclusive seconds) for every traced cell."""
        return [(cid, dim, self.end[idx] - self.start[idx])
                for idx, cid, dim in self.cells]

"""Span tracing of curvetransfer's layers, installed from outside the package.

Each public function of a traced module is wrapped once, and the same wrapper
is bound at every name the package imports it under (``transfer.train``,
``cli.rank_sources``, the package root's re-exports, ...). Calls that reach a
function through its own module's globals (``seqnet.train`` calling
``forward_sequence``) or through a call-time import (``predict_curve``
importing ``forward_sequence``) read the module attribute, so they see the
wrapper too.

Spans live in memory as (name, start, end, parent span, op id) rows and are
written out once, when the run ends. A span's self time is its duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from pathlib import Path

import numpy as np

PACKAGE = "curvetransfer"

# Traced modules and which of their functions to wrap (None: every public
# function defined in the module). The CLI's command handlers and parser
# builder are reached only through ``main``, so cli is one span whose self time
# is argument parsing, handler glue and JSON writing.
LAYERS: dict[str, tuple[str, ...] | None] = {
    "similarity": None,
    "seqnet": None,
    "transfer": None,
    "curves": None,
    "checkpoint": None,
    "metrics": None,
    "cli": ("main",),
}

NO_PARENT = -1


class Tracer:
    """Wraps the traced layers' functions and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.op = NO_PARENT
        self._stack = [NO_PARENT]
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (name_id, start, end, parent, self.op)

        return traced

    def install(self) -> None:
        """Wrap every traced function and rebind it at each of its import sites."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for short, only in LAYERS.items():
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if attr.startswith("_") or (only is not None and attr not in only):
                    continue
                wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._rebound.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding."""
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def begin_op(self, op_id: int) -> None:
        self.op = op_id

    def table(self) -> dict[str, np.ndarray]:
        """Finished spans as columns, with each span's self time."""
        rows = [s for s in self.spans if s is not None]
        if len(rows) != len(self.spans):
            raise RuntimeError("spans still open when the trace was read")
        cols = np.array(rows, dtype=float).reshape(-1, 5)
        name_id = cols[:, 0].astype(np.int64)
        parent = cols[:, 3].astype(np.int64)
        duration = cols[:, 2] - cols[:, 1]
        child_time = np.zeros(len(rows))
        has_parent = parent != NO_PARENT
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        return {
            "name_id": name_id,
            "start": cols[:, 1],
            "end": cols[:, 2],
            "parent": parent,
            "op": cols[:, 4].astype(np.int64),
            "duration": duration,
            "self": duration - child_time,
        }

    def stats(self) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive seconds and self seconds."""
        table = self.table()
        out = {}
        for name_id, name in enumerate(self.names):
            mask = table["name_id"] == name_id
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(table["duration"][mask].sum()),
                "self_s": float(table["self"][mask].sum()),
            }
        return out

    def write(self, path: Path) -> None:
        """Write the spans and the name table as one compressed numpy archive."""
        table = self.table()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: v for k, v in table.items() if k != "self"},
        )

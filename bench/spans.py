"""In-memory span tracer that wraps detlab's public functions from outside.

A span is (name, start, end, parent); spans live in flat arrays while the run
is going and are written out once, when it ends.  Each wrapped function keeps
a call count and a self time (span duration minus the time covered by its
child spans).  Optional hooks see the call's arguments and result and feed
exact counters; the time they take is charged to nobody's self time, so it
shows up only in the tracing overhead.

Wrapping is done by identity: every module attribute and class attribute in
the ``detlab`` package that *is* the original function is replaced by the
wrapper.  That covers names re-bound by ``from .x import y`` in importing
modules and second bindings such as ``_ReducerView.reduce_terms``.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self._stack: list[list] = []  # [child seconds, span index]
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def wrap(self, name: str, fn, hook=None):
        """Return `fn` wrapped in a span named `name`; `hook(args, kwargs,
        result)` runs after the span closes."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        stack = self._stack
        clock = time.perf_counter
        sp_name, sp_parent = self.span_name, self.span_parent
        sp_start, sp_end = self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(sp_start)
            frame = [0.0, idx]
            sp_name.append(nid)
            sp_parent.append(parent[1] if parent else -1)
            sp_end.append(0.0)
            stack.append(frame)
            t0 = clock()
            sp_start.append(t0)
            result = done = None
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t1 = clock()
                stack.pop()
                sp_end[idx] = t1
                calls[name] += 1
                self_s[name] += (t1 - t0) - frame[0]
                if done and hook is not None:
                    hook(args, kwargs, result)
                if parent is not None:
                    # the hook's time is tracing overhead, not the parent's work
                    parent[0] += clock() - t0
            return result

        wrapper.__name__ = fn.__name__  # case labels are built from it
        return wrapper

    # -- patching --------------------------------------------------------------
    def install(self, module: str, qualname: str, name: str, hook=None) -> None:
        """Replace every binding of `module.qualname` inside the package."""
        obj = sys.modules[module]
        for part in qualname.split("."):
            obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
        orig = obj
        wrapper = self.wrap(name, orig, hook)
        package = module.split(".")[0]
        seen_classes: set[int] = set()
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
                elif isinstance(val, type) and id(val) not in seen_classes:
                    seen_classes.add(id(val))
                    for cattr, cval in list(vars(val).items()):
                        if cval is orig:
                            self._undo.append((val, cattr, orig))
                            setattr(val, cattr, wrapper)
        if not any(o is orig for _, _, o in self._undo):
            raise RuntimeError(f"{module}.{qualname} has no binding to wrap")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- output ----------------------------------------------------------------
    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def write(self, path) -> None:
        """All spans as gzipped JSON columns; times are seconds from the
        first span's start, parent is a span index or -1."""
        t0 = self.span_start[0] if self.span_start else 0.0
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": [round(t - t0, 7) for t in self.span_start],
            "end": [round(t - t0, 7) for t in self.span_end],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=3) as fh:
            json.dump(doc, fh, separators=(",", ":"))

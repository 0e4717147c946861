"""In-memory span tracer that wraps the public functions and methods of the
heckeplan modules from outside the package.

A span is (name, start, end, parent).  Spans are kept in flat arrays while a
traced pass runs and written out once, at the end of the benchmark run.  A
layer is a module: its self time is the duration of its spans minus the part
covered by their direct child spans.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

import numpy as np

PACKAGE = "heckeplan"
LAYERS = ("lattice", "rootdata", "symbolicq", "residual", "plancherel",
          "residue", "cli")

# symbolicq arithmetic is traced through its operators as well
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__neg__")
ARITHMETIC_CLASSES = ("symbolicq.Cyclo", "symbolicq.QLaurent",
                      "symbolicq.QRational")
# traced for the fresh-datum bookkeeping behind rootdata.weyl_order
EXTRA_METHODS = {"rootdata.RootDatum": ("__init__",)}


class Tracer:
    """Records spans and post-call hooks for wrapped callables.

    `install()` replaces every public function and method of the layers
    by a recording wrapper and rebinds every module attribute that held one
    of the originals; `uninstall()` restores them all.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.hooks: dict[str, object] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._nid(name)
        hook = self.hooks.get(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def clear(self):
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self._stack.clear()

    # -- installation -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]
                            if isinstance(owner, type) else
                            getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(f"{layer}.{attr}", obj)
                elif callable(obj):
                    wrapped = self.wrap(f"{layer}.{attr}", obj)
                    replaced[id(obj)] = wrapped
                    self._set(mod, attr, wrapped)
        # rebind names imported from another module (`from .x import f`)
        package_mod = importlib.import_module(PACKAGE)
        for mod in [package_mod, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and obj is not replaced[id(obj)]:
                    self._set(mod, attr, replaced[id(obj)])

    def _wrap_class(self, qual, cls):
        wanted = [a for a in vars(cls) if not a.startswith("_")]
        if qual in ARITHMETIC_CLASSES:
            wanted += [a for a in ARITHMETIC if a in vars(cls)]
        wanted += [a for a in EXTRA_METHODS.get(qual, ()) if a in vars(cls)]
        for attr in wanted:
            raw = vars(cls)[attr]
            name = f"{qual}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(name, raw.__func__))
            elif isinstance(raw, property):
                if raw.fget is None:
                    continue
                new = property(self.wrap(name, raw.fget), raw.fset,
                               raw.fdel, raw.__doc__)
            elif inspect.isfunction(raw):
                new = self.wrap(name, raw)
            else:
                continue
            self._set(cls, attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- export ------------------------------------------------------------------

    def arrays(self):
        """The recorded spans as numpy arrays (name_id, parent, start,
        end)."""
        return (np.frombuffer(self.name_id, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def save(self, path):
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=name_id, parent=parent, start=start, end=end)


def self_times(parent, start, end):
    """Per-span self time: duration minus the durations of direct children.

    Spans nest strictly (a child starts and ends inside its parent), so the
    children's durations are exactly the covered part of the parent.
    """
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def outermost_time(names, name_id, parent, start, end, target: str):
    """Summed duration of the calls of `target` that are not nested inside
    another call of `target`."""
    if target not in names:
        return 0.0
    tid = names.index(target)
    total = 0.0
    for i in np.flatnonzero(name_id == tid):
        p = parent[i]
        while p >= 0 and name_id[p] != tid:
            p = parent[p]
        if p < 0:
            total += end[i] - start[i]
    return float(total)


def nested_time(names, name_id, parent, start, end, outer: str, inner):
    """Summed duration of calls named in `inner` that run inside a call of
    `outer` and are not nested inside another call named in `inner`."""
    if outer not in names:
        return 0.0
    oid = names.index(outer)
    iids = [names.index(n) for n in inner if n in names]
    total = 0.0
    for i in np.flatnonzero(np.isin(name_id, iids)):
        p = parent[i]
        while p >= 0 and name_id[p] != oid and name_id[p] not in iids:
            p = parent[p]
        if p >= 0 and name_id[p] == oid:
            total += end[i] - start[i]
    return float(total)


def layer_summary(names, name_id, parent, start, end):
    """Self time and call count of every layer, and the time covered by
    root spans (spans the harness called directly)."""
    own = self_times(parent, start, end)
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names]
                        or [0], dtype=np.int64)
    span_layer = layer_of[name_id] if len(name_id) else \
        np.zeros(0, dtype=np.int64)
    self_s = np.bincount(span_layer, weights=own, minlength=len(LAYERS))
    calls = np.bincount(span_layer, minlength=len(LAYERS))
    roots = parent < 0
    root_s = float((end[roots] - start[roots]).sum())
    return ({layer: float(self_s[k]) for k, layer in enumerate(LAYERS)},
            {layer: int(calls[k]) for k, layer in enumerate(LAYERS)},
            root_s)

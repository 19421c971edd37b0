"""Outside-in tracing of the affinemaps layers.

The tracer wraps every public function and method of the package's layer
modules and rebinds the wrapped name in every package module that holds
the function, so calls made through ``from .basis import build_basis``
are traced as well as calls made through a module attribute.  It also
wraps ``numpy.linalg.eigh`` and ``eigvalsh`` to count eigendecompositions
made inside the domain sampler.  Nothing in the package is edited.

Spans are kept in memory while the timed phase runs and are written out
when it ends.  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "affinemaps"
LAYERS = ("linalg", "basis", "maps", "domains", "qubit2", "tomography", "cli")
SAMPLER = "domains.sample_domain"


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []  # (id, parent, call, name, start, end, self)
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [id, name, start, child_time]
        self._next_id = 0
        self._call_id = -1
        self._sampler_depth = 0
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{obj.__name__}")
        holders = [sys.modules[PACKAGE], *modules.values()]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        self._patch(np.linalg, "eigh", self._count_eig(np.linalg.eigh, solver=True))
        self._patch(np.linalg, "eigvalsh", self._count_eig(np.linalg.eigvalsh, solver=False))

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap_methods(self, cls: type, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, f"{prefix}.{attr}"))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, f"{prefix}.{attr}")))

    # -- spans ----------------------------------------------------------
    def _wrap(self, fn, name: str):
        tracer = self
        is_sampler = name == SAMPLER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(name)
            tracer._sampler_depth += is_sampler
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._sampler_depth -= is_sampler
                tracer._exit()
            if is_sampler:
                tracer.counters["domains.labelled"] += len(result.compat)
                tracer.counters["domains.undecided"] += int((result.compat == -1).sum())
            return result

        return traced

    def _count_eig(self, fn, solver: bool):
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if tracer.active and tracer._sampler_depth:
                if solver:
                    tracer.counters["domains.solver_eigh_calls"] += 1
                tracer.counters["domains.eig_matrices"] += int(np.prod(np.shape(a)[:-2]))
            return fn(a, *args, **kwargs)

        return counted

    def _enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self) -> None:
        end = perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append(
            (span_id, parent[0] if parent else -1, self._call_id, name, start, end, duration - child)
        )

    def begin_call(self, label: str) -> None:
        """Open the root span of one user-level call."""
        self._call_id += 1
        self._enter(f"bench.{label}")

    def end_call(self) -> None:
        self._exit()

    # -- results ----------------------------------------------------------
    def totals(self) -> tuple[Counter, defaultdict]:
        """Per span name: number of calls and summed self time in seconds."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for _, _, _, name, _, _, self_time in self.spans:
            calls[name] += 1
            self_s[name] += self_time
        return calls, self_s

    def write(self, path: str, meta: dict, origin: float) -> None:
        """Write the spans as gzipped JSON, times in seconds after ``origin``.

        Rows are streamed, so writing holds no second copy of the spans."""
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        head = {
            **meta,
            "columns": ["id", "parent", "call", "name", "start_s", "end_s", "self_s"],
            "names": names,
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(head)[:-1] + ', "spans": [')
            for i, (span_id, parent, call, name, start, end, self_time) in enumerate(self.spans):
                fh.write(f"{',' if i else ''}[{span_id},{parent},{call},{index[name]},"
                         f"{start - origin!r},{end - origin!r},{self_time!r}]")
            fh.write("]}\n")

"""Span tracer for the benchmark's traced run.

The program is not edited: ``install`` replaces, in the namespace of every
kinwb module, each function imported from another kinwb module (the calls
through which one layer enters another) plus the few module-internal
entry points in INTERNAL, with a wrapper that records a span.  Spans
(name, start, end, parent, run id, work) stay in memory until ``write``.
"""

import contextlib
import functools
import json
import os
import sys
import threading
import time
import types
from collections import defaultdict

# Module-internal calls that are layer boundaries too.
INTERNAL = {
    "runner": ("_write_snapshot",),
    "scattering": ("rte_closure", "vfp_closure"),
}
# Not measured: `kinwb verify` is not on a user's run path.
SKIP_MODULES = ("kinwb.diagnostics",)


def _imex_bytes(args, kwargs, result):
    """Computed, not measured: bytes of the arrays one step must touch, the
    state read and written, the four Nx x K x K B stacks and the rhs."""
    grid = args[0] if args else kwargs["grid"]
    Nx, K = grid.f.shape[0], grid.f.shape[1] // 2
    return 8 * Nx * (4 * K * K + 6 * K)


def _interfaces(args, kwargs, result):
    return len(result) if isinstance(result, list) else 1


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# span name -> function(args, kwargs, result) giving the span's work count
WORK = {
    "kinetic.imex_step": _imex_bytes,
    "scattering.chemo_interfaces": _interfaces,
    "scattering.rte_smatrix": _interfaces,
    "scattering.vfp_smatrix": _interfaces,
    "runner._write_snapshot": _file_bytes,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "work")

    def __init__(self, name, parent, run):
        self.name, self.parent, self.run = name, parent, run
        self.start = self.end = 0.0
        self.work = None


class Tracer:
    def __init__(self):
        self.spans = []
        self.runs = []  # run id -> label
        self.missing = []  # INTERNAL names not found in the program
        self._local = threading.local()
        self._root_stack = []  # span stack of the thread running the operation
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        # a worker thread's outermost span hangs under the span that is
        # waiting for it on the operation's thread
        parent = stack[-1] if stack else (self._root_stack[-1] if self._root_stack else None)
        span = Span(name, parent, len(self.runs) - 1)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def root(self, label):
        """One operation: a new run id and the root span of its calls."""
        self.runs.append(label)
        self._root_stack = self._stack()
        span = self._open(f"op.{label}")
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if work is not None:
                span.work = work(args, kwargs, result)
            return result

        traced.__traced__ = True
        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("kinwb.") and n not in SKIP_MODULES]
        self.missing = []
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            internal = INTERNAL.get(short, ())
            self.missing += [f"{short}.{a}" for a in internal if not hasattr(mod, a)]
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType) or hasattr(obj, "__traced__"):
                    continue
                home = obj.__module__ or ""
                if not home.startswith("kinwb.") or home in SKIP_MODULES:
                    continue
                if home == mod.__name__ and attr not in internal:
                    continue
                name = f"{home.rsplit('.', 1)[1]}.{obj.__name__}"
                setattr(mod, attr, self._wrap(name, obj))
                self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched = []

    def self_times(self):
        """(span, self seconds) pairs: duration minus time covered by children."""
        covered = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[id(s.parent)] += s.end - s.start
        return [(s, s.end - s.start - covered[id(s)]) for s in self.spans]

    def write(self, path):
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        position = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[index[s.name], s.start, s.end,
                 position[id(s.parent)] if s.parent is not None else -1, s.run, s.work]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run", "work"],
                       "names": names, "runs": self.runs, "spans": rows}, fh)

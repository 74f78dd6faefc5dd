"""Spans around calls into moegeo, recorded from outside the package.

A Tracer rebinds each traced function in every moegeo module that holds a
reference to it (``from .core import mutual_coherence`` in dictgen, sss and
cli, ``aux_loss`` in moe, ...), so intra-package calls are caught too. A
traced class has its ``__init__`` wrapped instead, which also catches
construction through ``cls(...)`` in classmethods and leaves isinstance
checks intact. Leaving the ``with`` block restores every original binding.

Spans are kept in memory as [name, parent span, unit, start_ns, end_ns];
self time is a span's duration minus the durations of its direct children.
"""

import functools
import importlib
import json
import sys
import time


class Tracer:
    def __init__(self, targets):
        """`targets` are dotted names relative to moegeo, e.g. "core.mutual_coherence"."""
        self.names = list(targets)
        self.spans = []
        self.unit = -1
        self._stack = []
        self._undo = []

    def _wrap(self, name_id, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name_id, stack[-1] if stack else -1, self.unit, clock(), 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()

        return traced

    def __enter__(self):
        try:
            self._bind()
        except Exception:
            self.__exit__()
            raise
        return self

    def _bind(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "moegeo" or n.startswith("moegeo.")]
        for name_id, dotted in enumerate(self.names):
            mod_name, attr = dotted.rsplit(".", 1)
            owner = importlib.import_module("moegeo." + mod_name)
            original = getattr(owner, attr)
            if isinstance(original, type):
                init = original.__init__
                self._undo.append((original, "__init__", init))
                original.__init__ = self._wrap(name_id, init)
                continue
            wrapper = self._wrap(name_id, original)
            bound = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
                        bound += 1
            if not bound:
                raise LookupError(f"moegeo.{dotted} is not bound in any module")

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
        return False

    def totals(self):
        """{name: (self_ns, calls)} for every target, zero when never called."""
        child_ns = [0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        for (name_id, _, _, start, end), inner in zip(self.spans, child_ns):
            self_ns[name_id] += end - start - inner
            calls[name_id] += 1
        return {n: (self_ns[i], calls[i]) for i, n in enumerate(self.names)}

    def root_ns(self):
        """Time covered by top-level spans: the sum of every span's self time."""
        return sum(end - start for _, parent, _, start, end in self.spans if parent < 0)

    def dump(self, path, **header):
        """Write the spans, start times relative to the first span."""
        t0 = self.spans[0][3] if self.spans else 0
        payload = dict(header, names=self.names,
                       columns=["name", "parent", "unit", "start_ns", "end_ns"],
                       spans=[[n, p, u, s - t0, e - t0] for n, p, u, s, e in self.spans])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")

"""Span tracer installed from outside the package under test.

``Tracer.install`` replaces functions and methods of already-imported
``anchordt`` modules with wrappers that record one span per call: name,
start, end and the enclosing span.  The package imports names with
``from ... import``, so one function can be bound under several module
attributes (``objective.draw_probe`` and ``sparsity.draw_probe``); every
binding is replaced, and ``uninstall`` puts each original back.

Spans are kept in flat lists while the program runs and are aggregated
only after it finishes.  All times come from ``time.monotonic``,
which on Linux is one clock shared by every process, so a parent process can
compare its own timestamps with a child's.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "anchordt"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []   # index of the enclosing span, -1 at top level
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, func, name):
        """``name`` is the span name, or a callable (args, kwargs) -> span name."""
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.monotonic
        name_of = name if callable(name) else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_of(args, kwargs) if name_of else name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self, targets):
        """Wrap each (module, qualname, span name) target.

        ``qualname`` is ``function`` or ``Class.method`` inside
        ``anchordt.<module>``, or inside the top-level module ``<module>``
        when the package has no such module; the span name may be a
        callable as in _wrap.
        """
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, qualname, span_name in targets:
            home = sys.modules.get(f"{PACKAGE}.{module_name}") or sys.modules[module_name]
            owner = home
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(original, span_name)
            if path:
                self._replace(owner, attr, wrapper)
                continue
            for module in modules if home in modules else modules + [home]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)
        return self

    def _replace(self, owner, attr, wrapper):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _self_times(self) -> list[float]:
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0.0] * len(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                covered[parent] += duration
        return [d - c for d, c in zip(durations, covered)]

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> {calls, total_s, self_s}; self time excludes child spans."""
        out: dict[str, dict[str, float]] = {}
        for name, start, end, own in zip(self.names, self.starts, self.ends,
                                         self._self_times()):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return out

    def subtree_self_times(self, root_name: str) -> tuple[dict[str, float], float]:
        """Self time by span name inside top-level ``root_name`` spans, and
        the total duration of those roots.

        Over a properly nested tree the self times add up to the total; what
        the caller checks is which names the self time lands under.
        """
        roots = []
        for i, parent in enumerate(self.parents):
            roots.append(i if parent < 0 else roots[parent])
        by_name: dict[str, float] = {}
        total = 0.0
        for i, own in enumerate(self._self_times()):
            if self.names[roots[i]] != root_name:
                continue
            by_name[self.names[i]] = by_name.get(self.names[i], 0.0) + own
            if roots[i] == i:
                total += self.ends[i] - self.starts[i]
        return by_name, total

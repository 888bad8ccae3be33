"""Spans around the program's public functions, installed from outside.

Each target names a function where its caller looks it up -- ``qc.frame_curvature``
rather than ``riemann.frame_curvature``, the function objects held in
``acceptance.CRITERIA`` -- so a wrapper sees every call a user's run makes.
No private helper is patched: a phase without a public function shows up in
its parent's self time.  A target that no longer exists is reported as
absent and its time stays in the parent's self time.

A span's self time is its duration minus the durations of the spans it
caused, so the self times of all spans add up to the outermost span.
Bookkeeping done by hooks (the nonzero counts of the curvature tables, the
input fingerprints of ``qc.analyze``) runs with every open span paused.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stack = []                  # [key, start, child seconds]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()          # hook-reported counts
        self.label = None                # input the benchmark is running
        self.absent = []
        self._restore = []

    # -- spans -----------------------------------------------------------------

    def enter(self, key: str):
        self.stack.append([key, perf_counter(), 0.0])

    def exit(self):
        key, start, child = self.stack.pop()
        dur = perf_counter() - start
        self.self_s[key] += dur - child
        self.total_s[key] += dur
        self.calls[key] += 1
        if self.label is not None:
            self.self_s[f"{key}@{self.label}"] += dur - child
            self.total_s[f"{key}@{self.label}"] += dur
        if self.stack:
            self.stack[-1][2] += dur

    def paused(self, fn, *args):
        """Run ``fn(*args)`` outside every open span."""
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            gap = perf_counter() - start
            for frame in self.stack:
                frame[1] += gap

    def wrap(self, key: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if hook is not None:
                self.paused(hook, self, args, kwargs, result)
            return result
        return traced

    # -- installation ----------------------------------------------------------

    def _resolve(self, module: str, path: str):
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        return owner, attr, getattr(owner, attr)

    def install(self, targets):
        """Wrap each ``(key, module, attribute path, hook)`` target."""
        for key, module, path, hook in targets:
            try:
                owner, attr, fn = self._resolve(module, path)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{path}")
                continue
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(key, fn, hook))

    def install_table(self, key_format: str, module: str, path: str):
        """Wrap the functions held in a table of rows that start with a
        number, such as ``acceptance.CRITERIA``; row k is keyed by
        ``key_format.format(k)``."""
        try:
            owner, attr, table = self._resolve(module, path)
            rows = [tuple(self.wrap(key_format.format(row[0]), x) if callable(x) else x
                          for x in row) for row in table]
        except (ImportError, AttributeError, TypeError, IndexError):
            self.absent.append(f"{module}.{path}")
            return
        self._restore.append((owner, attr, table))
        setattr(owner, attr, rows)

    def count_calls(self, key: str, module: str, path: str):
        """Count calls without timing them (for very frequent calls)."""
        try:
            owner, attr, fn = self._resolve(module, path)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}.{path}")
            return
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, counted)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

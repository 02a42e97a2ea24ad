"""In-memory spans recorded around the package's public functions.

The benchmark never edits the package: it replaces a function with a
timing wrapper in every module namespace where a caller looks it up
(``evaluation.train`` as well as ``snn.train``), so the package's own calls
between modules are timed too.  A span is (name, tag, start, end, parent,
phase, round); tags carry the variant or noise mode a call served.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

NAME, TAG, START, END, PARENT, PHASE, ROUND = range(7)


class Tracer:
    """Collects spans while ``enabled``; the owner sets ``phase`` ("setup" or
    "timed") and ``round`` so spans can be grouped afterwards."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.enabled = False
        self.phase = "setup"
        self.round = -1

    def wrap(self, name, bindings, tag_fn=None):
        """Route every (module, attribute) binding of one function through a
        span named ``name``."""
        fn = getattr(*bindings[0])
        if any(getattr(module, attr) is not fn for module, attr in bindings):
            raise ValueError(f"bindings of {name} name different functions")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            record = [name, tag_fn(args, kwargs) if tag_fn else None,
                      time.perf_counter(), 0.0, stack[-1] if stack else -1,
                      tracer.phase, tracer.round]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()

        for module, attr in bindings:
            setattr(module, attr, wrapper)

    def write(self, path):
        """One JSON object per line, in start order."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "tag": s[TAG], "start": s[START],
                    "end": s[END], "parent": s[PARENT], "phase": s[PHASE],
                    "round": s[ROUND]}) + "\n")


class SpanStats:
    """Self times, effective tags and per-round aggregates of a span list."""

    def __init__(self, spans):
        self.spans = spans
        self.self_time = [s[END] - s[START] for s in spans]
        self.by_name = {}
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                self.self_time[s[PARENT]] -= s[END] - s[START]
            self.by_name.setdefault(s[NAME], []).append(i)

    def tag_of(self, index):
        """A span's own tag, else the nearest ancestor's."""
        while index >= 0:
            span = self.spans[index]
            if span[TAG] is not None:
                return span[TAG]
            index = span[PARENT]
        return None

    def select(self, name, phase=None, tag_filter=None):
        out = []
        for i in self.by_name.get(name, ()):
            if phase is not None and self.spans[i][PHASE] != phase:
                continue
            if tag_filter is not None and not tag_filter(self.tag_of(i)):
                continue
            out.append(i)
        return out

    def value(self, stat, name, tag_filter, rounds):
        """One per-layer figure.

        ``round_incl``/``round_self`` - median over timed rounds of the summed
        inclusive/self seconds; ``round_calls`` - median calls per round;
        ``call_ms`` - median inclusive ms per timed call; ``setup_ms``,
        ``setup_s`` and ``any_s`` - median per call in set-up, or anywhere.
        A layer a workload never calls reads 0.
        """
        if stat in ("round_incl", "round_self", "round_calls"):
            per_round = {r: 0.0 for r in rounds}
            for i in self.select(name, "timed", tag_filter):
                s = self.spans[i]
                if stat == "round_calls":
                    per_round[s[ROUND]] += 1
                elif stat == "round_self":
                    per_round[s[ROUND]] += self.self_time[i]
                else:
                    per_round[s[ROUND]] += s[END] - s[START]
            return statistics.median(per_round.values()) if per_round else 0.0
        phase = {"call_ms": "timed", "setup_ms": "setup", "setup_s": "setup",
                 "any_s": None}[stat]
        durations = [self.spans[i][END] - self.spans[i][START]
                     for i in self.select(name, phase, tag_filter)]
        if not durations:
            return 0.0
        scale = 1000.0 if stat.endswith("_ms") else 1.0
        return scale * statistics.median(durations)

"""In-memory span recorder for the traced benchmark pass.

A span is one call into a public library function: its name, start and
end (``time.perf_counter`` seconds) and the index of the span that was
open when it began.  Spans stay in a list until the run ends, when
``write`` dumps them as JSON lines.  Nothing here touches the library:
the benchmark opens a span around each call it makes.
"""

from __future__ import annotations

import json
from time import perf_counter


class _Span:
    __slots__ = ("recorder", "name", "index")

    def __init__(self, recorder, name):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        rec = self.recorder
        parent = rec._stack[-1] if rec._stack else None
        self.index = len(rec.spans)
        rec.spans.append([self.name, perf_counter(), None, parent])
        rec._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        rec = self.recorder
        rec.spans[self.index][2] = perf_counter()
        rec._stack.pop()
        return False


class Recorder:
    """Collects nested spans; ``span(name)`` is a context manager."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self._stack = []

    def span(self, name):
        return _Span(self, name)

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap_learner(self, learner, pooled):
        """Wrap a cross-validation learner so fit and predict are spans.

        ``pooled`` receives every prediction, so the scoring functions can
        be timed on exactly what ``cross_validate`` scored.
        """

        def fit(train):
            with self.span("evaluation.fit"):
                predict = learner(train)

            def traced_predict(instance):
                with self.span("evaluation.predict"):
                    out = predict(instance)
                pooled.append((instance, out))
                return out

            return traced_predict

        return fit

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name):
        return sum(self.durations(name))

    def self_times(self):
        """Per name, summed duration minus the time covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def nesting_errors(self):
        """Spans left open, outside their parent, or with negative self time."""
        errors = []
        child_time = [0.0] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end is None:
                errors.append(f"span {i} {name} never closed")
                continue
            if parent is not None:
                _, p_start, p_end, _ = self.spans[parent]
                if p_end is None or start < p_start or end > p_end:
                    errors.append(f"span {i} {name} lies outside its parent {parent}")
                child_time[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            if end is not None and (end - start) - child_time[i] < -1e-9:
                errors.append(f"span {i} {name} has negative self time")
        return errors

    def write(self, path):
        with open(path, "w") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )


class NullRecorder:
    """Same interface, records nothing: the untraced pass."""

    class _Null:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    _NULL = _Null()

    def span(self, name):
        return self._NULL

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def wrap_learner(self, learner, pooled):
        return learner

"""Counters, gauges, and histograms for the synthesis stack.

The registry is *always on*: recording a metric is a plain attribute
add with no locks on the hot path, cheap enough to leave enabled in
production runs (unlike spans, which are opt-in via
:mod:`repro.telemetry.tracer`).  Metrics never touch RNG state or
numerics, so they are provably inert with respect to synthesis
results.

Threading note: ``Counter.add`` / ``Histogram.observe`` are plain
in-place updates.  Under CPython's GIL a racing pair of threads can at
worst lose an increment; metric consumers (reports, BENCH artifacts)
tolerate that, and the engine stack is single-threaded per pass, so no
per-update lock is paid.  Metric *creation* is lock-protected.

Cross-process flow: worker processes snapshot their registry around
each task and ship the :func:`delta` back with the result; the parent
:meth:`MetricsRegistry.merge`\\ s it, so one registry describes the
whole run regardless of worker count.
"""

from __future__ import annotations

import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics",
    "delta",
]


class Counter:
    """A monotonically increasing count (int or float).

    ``child()`` returns a new counter whose ``add`` also bumps this
    one — the pattern :class:`~repro.instantiation.EnginePool` uses so
    per-pool hit/miss counts stay exact while the registry counter
    aggregates across every pool in the process.
    """

    __slots__ = ("name", "_value", "_parent")

    def __init__(self, name: str, parent: Counter | None = None):
        self.name = name
        self._value = 0
        self._parent = parent

    def add(self, n=1) -> None:
        self._value += n
        if self._parent is not None:
            self._parent.add(n)

    @property
    def value(self):
        return self._value

    def child(self) -> Counter:
        """A per-instance counter that mirrors into this one."""
        return Counter(self.name, parent=self)

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self._value}>"


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0

    def set(self, value) -> None:
        self._value = value

    @property
    def value(self):
        return self._value

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self._value}>"


class Histogram:
    """Streaming count/sum/min/max over observed values."""

    __slots__ = ("name", "count", "sum", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float | None:
        return self.sum / self.count if self.count else None

    def state(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }

    def merge_state(self, state: dict) -> None:
        """Fold a shipped snapshot (or delta) into this histogram."""
        self.count += int(state.get("count", 0))
        self.sum += float(state.get("sum", 0.0))
        for key, keep in (("min", min), ("max", max)):
            other = state.get(key)
            if other is None:
                continue
            mine = getattr(self, key)
            setattr(self, key, other if mine is None else keep(mine, other))

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} sum={self.sum:g}>"


class MetricsRegistry:
    """A name-keyed set of counters, gauges, and histograms.

    ``counter``/``gauge``/``histogram`` create on first use and return
    the same instance after that; asking for an existing name with a
    different kind is an error (metric names are typed).
    """

    def __init__(self):
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind: type):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.setdefault(name, kind(name))
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> dict:
        """A flat, picklable view: counters/gauges as numbers,
        histograms as ``{count, sum, min, max, mean}`` dicts."""
        out: dict = {}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Histogram):
                out[name] = metric.state()
            else:
                out[name] = metric.value
        return out

    def merge(self, snapshot: dict) -> None:
        """Fold a shipped snapshot/delta (e.g. from a worker process)
        into this registry: counters and histograms accumulate, gauges
        take the incoming value."""
        if not snapshot:
            return
        for name, value in snapshot.items():
            if isinstance(value, dict):
                self.histogram(name).merge_state(value)
            elif isinstance(value, float) and not name.endswith(".gauge"):
                self.counter(name).add(value)
            elif isinstance(value, int):
                self.counter(name).add(value)
            else:
                self.gauge(name).set(value)


def delta(before: dict, after: dict) -> dict:
    """What happened between two :meth:`MetricsRegistry.snapshot` calls.

    Counters subtract; histograms subtract count/sum (their interval
    min/max is not derivable from endpoints, so it is omitted and the
    mean recomputed); metrics absent from ``before`` pass through.
    Zero-change entries are dropped, so the result reads as "the
    metrics this run produced".
    """
    out: dict = {}
    for name, now in after.items():
        was = before.get(name)
        if isinstance(now, dict):
            count = now.get("count", 0) - (
                was.get("count", 0) if isinstance(was, dict) else 0
            )
            total = now.get("sum", 0.0) - (
                was.get("sum", 0.0) if isinstance(was, dict) else 0.0
            )
            if count:
                out[name] = {
                    "count": count,
                    "sum": total,
                    "mean": total / count,
                }
        elif isinstance(now, (int, float)):
            diff = now - (was if isinstance(was, (int, float)) else 0)
            if diff:
                out[name] = diff
    return out


#: The process-wide registry every instrumented layer records into.
_REGISTRY = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY

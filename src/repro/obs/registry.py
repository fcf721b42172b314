"""Thread-safe metrics registry: counters, histograms, pull providers.

The registry is the single sink the scattered per-component statistics are
mirrored into (buffer pool, cost ledger, batcher, result caches, maintenance
workers, plan caches).  Two acquisition styles coexist deliberately:

* **push instruments** — :class:`Counter` and :class:`Histogram` objects
  handed to the component that owns the event.  Each instrument carries its
  own lock, so concurrent increments never lose updates (the concurrency
  reconciliation tests pin this exactly).
* **pull providers** — callables registered with :meth:`MetricsRegistry.provider`
  that are sampled only when somebody *reads* the registry
  (:meth:`MetricsRegistry.collect`, ``SELECT * FROM system.metrics``, text
  exposition).  Mirroring an existing stats dict this way costs nothing on the
  hot path, which is what keeps the serving-throughput gate green.

A registry constructed with ``enabled=False`` hands out shared no-op
instruments and samples nothing: the disabled path is a handful of attribute
lookups per event, giving benchmarks a true zero-overhead baseline to compare
against.

Metric names are plain dotted strings (``serve.papers.epochs_published_total``)
following the house convention: ``snake_case`` with a ``_total`` suffix for
monotonic counts and a ``_seconds`` suffix for durations.  Simulated-time and
wall-clock measurements are separate metrics (``..._simulated_seconds`` /
``..._wall_seconds``) — the paper's cost model and the host machine tick at
unrelated rates, so folding them together would make both unreadable.
"""

from __future__ import annotations

import bisect
import threading
from collections.abc import Callable, Mapping, Sequence

__all__ = [
    "Counter",
    "Histogram",
    "MetricSample",
    "MetricsRegistry",
    "NULL_REGISTRY",
]

#: Default histogram buckets, in seconds: spans sub-millisecond statement
#: overheads up to multi-second scans, with a catch-all +Inf bucket implied.
DEFAULT_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Quantiles reported by :meth:`Histogram.quantile` consumers (system.metrics).
DEFAULT_QUANTILES = (0.5, 0.9, 0.99)


class MetricSample:
    """One collected data point: ``(name, kind, value)``.

    ``kind`` is ``"counter"`` or ``"histogram"`` for a push instrument and
    ``"gauge"`` for a provider-mirrored value (a snapshot of someone else's
    counter).
    """

    __slots__ = ("name", "kind", "value")

    def __init__(self, name: str, kind: str, value: float) -> None:
        self.name = name
        self.kind = kind
        self.value = value

    def __repr__(self) -> str:
        return f"MetricSample({self.name!r}, {self.kind!r}, {self.value!r})"


class Counter:
    """A monotonically increasing, lock-protected count.

    The lock makes ``inc`` linearizable: N threads adding M each always totals
    exactly ``N * M`` (bare ``float +=`` is not atomic under the GIL once the
    read and the store are separate bytecodes).
    """

    __slots__ = ("_lock", "_value")

    # Shared-state contract, enforced by repro-lint's lock pass.
    _GUARDED_BY = {"_value": "_lock"}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with interpolated quantile estimates.

    Buckets are cumulative upper bounds (Prometheus style) plus an implicit
    +Inf bucket; ``observe`` is O(log buckets) via bisect under one lock.
    """

    __slots__ = ("_lock", "buckets", "_counts", "_count", "_sum")

    # Shared-state contract, enforced by repro-lint's lock pass.  The bisect
    # in observe() reads only the immutable bucket bounds, so it runs outside
    # the lock on purpose.
    _GUARDED_BY = {"_counts": "_lock", "_count": "_lock", "_sum": "_lock"}

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._lock = threading.Lock()
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # final slot = +Inf
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile, interpolated within the landing bucket.

        Returns 0.0 with no observations; observations beyond the last finite
        bound clamp to that bound (the +Inf bucket has no width to split).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        for index, count in enumerate(counts):
            previous = cumulative
            cumulative += count
            if cumulative >= rank and count:
                if index >= len(self.buckets):
                    return self.buckets[-1]
                lower = self.buckets[index - 1] if index else 0.0
                upper = self.buckets[index]
                return lower + (upper - lower) * ((rank - previous) / count)
        return self.buckets[-1]


class _NullCounter(Counter):
    """Shared no-op counter for disabled registries.

    Subclassing keeps the instrument getters honestly typed (``counter()``
    really returns a :class:`Counter`); the parent's slots are never assigned
    because ``__init__`` is a no-op, and every touching method is overridden.
    """

    __slots__ = ()

    def __init__(self) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


class _NullHistogram(Histogram):
    __slots__ = ()
    buckets = DEFAULT_BUCKETS

    def __init__(self) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0

    def quantile(self, q: float) -> float:
        return 0.0


_NULL_COUNTER = _NullCounter()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Process-wide named metrics with lazy pull providers.

    Instrument getters are idempotent: asking twice for the same name returns
    the same object, so independent components can share a counter by name.
    Asking for a name registered as a different kind is an error — silent
    type confusion is how metrics rot.
    """

    # Shared-state contract, enforced by repro-lint's lock pass.
    _GUARDED_BY = {
        "_counters": "_lock",
        "_histograms": "_lock",
        "_providers": "_lock",
    }

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._providers: dict[str, Callable[[], Mapping[str, float]]] = {}

    # -- instrument acquisition ----------------------------------------------------------

    def _check_free(self, name: str, kind: str) -> None:
        registrations: tuple[tuple[str, Mapping[str, object]], ...] = (
            ("counter", self._counters),
            ("histogram", self._histograms),
        )
        for registered_kind, names in registrations:
            if registered_kind != kind and name in names:
                raise ValueError(f"metric {name!r} already registered as a {registered_kind}")

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        if not self.enabled:
            return _NULL_COUNTER
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                self._check_free(name, "counter")
                instrument = self._counters[name] = Counter()
            return instrument

    def histogram(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """The histogram called ``name``, created on first use."""
        if not self.enabled:
            return _NULL_HISTOGRAM
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                self._check_free(name, "histogram")
                instrument = self._histograms[name] = Histogram(buckets)
            return instrument

    # -- pull providers ------------------------------------------------------------------

    def provider(self, prefix: str, fn: Callable[[], Mapping[str, float]]) -> None:
        """Register a stats source sampled lazily at collect time.

        ``fn`` returns ``{metric_suffix: value}``; each key is exposed as
        ``{prefix}.{metric_suffix}``.  Re-registering a prefix replaces the
        previous provider (a re-served view supersedes its old incarnation).
        """
        if not self.enabled:
            return
        with self._lock:
            self._providers[prefix] = fn

    def remove_provider(self, prefix: str) -> None:
        """Drop a provider (component shut down); unknown prefixes are a no-op."""
        with self._lock:
            self._providers.pop(prefix, None)

    # -- collection ----------------------------------------------------------------------

    def collect(self) -> list[MetricSample]:
        """Sample every instrument and provider, sorted by metric name.

        Providers that raise are skipped (a view mid-shutdown must not take
        the whole metrics endpoint down with it).
        """
        if not self.enabled:
            return []
        with self._lock:
            counters = list(self._counters.items())
            histograms = list(self._histograms.items())
            providers = list(self._providers.items())
        samples: list[MetricSample] = []
        for name, counter in counters:
            samples.append(MetricSample(name, "counter", counter.value))
        for name, histogram in histograms:
            samples.append(MetricSample(f"{name}_count", "histogram", histogram.count))
            samples.append(MetricSample(f"{name}_sum", "histogram", histogram.sum))
            for q in DEFAULT_QUANTILES:
                samples.append(
                    MetricSample(f"{name}_p{int(q * 100)}", "histogram", histogram.quantile(q))
                )
        for prefix, fn in providers:
            try:
                mirrored = fn()
            except Exception:
                continue
            for suffix, value in mirrored.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    samples.append(MetricSample(f"{prefix}.{suffix}", "gauge", float(value)))
        samples.sort(key=lambda sample: sample.name)
        return samples

    def value(self, name: str) -> float | None:
        """The current value of one collected metric, or None when absent."""
        for sample in self.collect():
            if sample.name == name:
                return sample.value
        return None


#: Shared disabled registry: the default sink for components built without an
#: observability context (standalone unit-test servers, ad-hoc Databases).
NULL_REGISTRY = MetricsRegistry(enabled=False)

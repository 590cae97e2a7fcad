"""Metrics registry: labelled counters, gauges, and histograms.

The registry is the quantitative half of the observability layer (the
:mod:`tracer <repro.obs.tracer>` is the qualitative half). Hooks across
the stack increment counters here — messages per channel, bottleneck-link
crossings, retransmits, WAL appends, checker graph sizes, explorer
runs-per-second — and ``python -m repro stats`` renders a snapshot so the
§6 message-count model can be checked against a live run.

Design notes:

* Instruments are identified by ``(name, sorted label items)``. Looking
  up an instrument with the same name but a different label set returns a
  distinct child, Prometheus-style: ``registry.counter(
  "net_messages_total", network="S0", kind="CausalUpdate")``.
* Counters and gauges are exact; histograms store bucketed counts plus
  exact sum/min/max (enough for mean and tail summaries without keeping
  every sample).
* Everything is plain arithmetic on plain values — recording a metric
  never touches the simulator, the RNG, or wall-clock, so metrics cannot
  perturb a deterministic run. (Wall-clock *may* appear as histogram
  samples recorded by the profiling hooks, but only as data.)
"""

from __future__ import annotations

import bisect
import json
from typing import Any, Iterator, Mapping, Optional, Union

Labels = tuple[tuple[str, str], ...]

#: Default histogram buckets. Chosen to cover both "seconds of wall time"
#: (profiling) and "number of graph nodes" (size observations) tolerably;
#: pass explicit buckets when the default spread is wrong for a metric.
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    50.0,
    100.0,
    500.0,
    1000.0,
    5000.0,
)


def _labels(labels: Mapping[str, Any]) -> Labels:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _format_labels(labels: Labels) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """Point-in-time value that may go up or down."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Bucketed distribution with exact count/sum/min/max."""

    __slots__ = ("name", "labels", "buckets", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, name: str, labels: Labels, buckets: tuple[float, ...]) -> None:
        if list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name} buckets must be sorted: {buckets}")
        self.name = name
        self.labels = labels
        self.buckets = buckets
        # One slot per bucket upper bound plus the +Inf overflow slot.
        self.bucket_counts = [0] * (len(buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Home for every instrument of one run.

    Instruments are created on first use and shared on every later lookup
    with the same name + labels; a name may not be reused across
    instrument types.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, Labels], Instrument] = {}
        self._types: dict[str, type] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, _labels(labels))

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, _labels(labels))

    def histogram(
        self,
        name: str,
        *,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        key = (name, _labels(labels))
        self._check_type(name, Histogram)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = Histogram(name, key[1], buckets)
            self._instruments[key] = instrument
        return instrument  # type: ignore[return-value]

    def _get(self, cls: type, name: str, labels: Labels) -> Any:
        key = (name, labels)
        self._check_type(name, cls)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, labels)
            self._instruments[key] = instrument
        return instrument

    def _check_type(self, name: str, cls: type) -> None:
        existing = self._types.get(name)
        if existing is None:
            self._types[name] = cls
        elif existing is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {existing.__name__}, "
                f"cannot re-register as {cls.__name__}"
            )

    def __iter__(self) -> Iterator[Instrument]:
        for key in sorted(self._instruments):
            yield self._instruments[key]

    def __len__(self) -> int:
        return len(self._instruments)

    # -- aggregation ----------------------------------------------------

    def total(self, name: str, **labels: Any) -> float:
        """Sum of a counter/gauge family's values across all label sets,
        restricted to the series carrying every given label (e.g.
        ``total("net_messages_total", kind="Invalidation")``)."""
        wanted = set(_labels(labels))
        return sum(
            instrument.value
            for (iname, ilabels), instrument in self._instruments.items()
            if iname == name
            and isinstance(instrument, (Counter, Gauge))
            and wanted.issubset(ilabels)
        )

    def snapshot(self) -> dict[str, Any]:
        """A plain-data view of every instrument (stable ordering)."""
        out: dict[str, Any] = {}
        for instrument in self:
            key = instrument.name + _format_labels(instrument.labels)
            if isinstance(instrument, Histogram):
                out[key] = {
                    "count": instrument.count,
                    "sum": instrument.sum,
                    "min": instrument.min,
                    "max": instrument.max,
                    "mean": instrument.mean,
                }
            else:
                out[key] = instrument.value
        return out

    def render(self) -> str:
        """Text dump, one instrument per line (Prometheus-flavoured)."""
        lines = []
        for instrument in self:
            key = instrument.name + _format_labels(instrument.labels)
            if isinstance(instrument, Histogram):
                mean = f"{instrument.mean:.6g}" if instrument.count else "n/a"
                lines.append(
                    f"{key} count={instrument.count} sum={instrument.sum:.6g} "
                    f"min={instrument.min if instrument.min is not None else 'n/a'} "
                    f"max={instrument.max if instrument.max is not None else 'n/a'} "
                    f"mean={mean}"
                )
            else:
                value = instrument.value
                rendered = str(int(value)) if value == int(value) else f"{value:.6g}"
                lines.append(f"{key} {rendered}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)


__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "Instrument",
    "MetricsRegistry",
]

"""Text exporters for the online telemetry layer.

Two formats, both byte-deterministic for same-seed runs:

* :func:`to_prometheus` -- a Prometheus text-exposition snapshot of a
  :class:`~repro.symbiosys.monitor.Monitor` (``# HELP`` / ``# TYPE``
  headers, label sets, ``_bucket``/``_sum``/``_count`` histogram
  series).
* :func:`series_to_csv` -- the full ring-buffer time-series of a
  :class:`~repro.symbiosys.metrics.SeriesStore` as CSV rows.

Timestamps are *simulated* seconds; nothing here reads a wall clock.
:func:`digest` names an export by a sha256 prefix, the determinism
probe of the experiment and validation harnesses.
"""

from __future__ import annotations

import hashlib
import math
from typing import TYPE_CHECKING, Optional

from ..metrics import Histogram, LabelItems, SeriesStore

if TYPE_CHECKING:  # pragma: no cover
    from ..monitor import Monitor

__all__ = ["digest", "series_to_csv", "to_prometheus", "write_text"]


def _fmt_value(v) -> str:
    """Canonical numeric rendering: integers without a trailing ``.0``,
    floats via ``repr`` (shortest round-trip form), infinities and NaN
    in Prometheus spelling."""
    if isinstance(v, bool):  # guard: bool is an int subclass
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if math.isnan(v):
            return "NaN"
        if math.isinf(v):
            return "+Inf" if v > 0 else "-Inf"
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return repr(v)
    return str(v)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: LabelItems, extra: Optional[list] = None) -> str:
    items = list(labels) + (extra or [])
    if not items:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in items)
    return "{" + inner + "}"


def to_prometheus(monitor: "Monitor") -> str:
    """Render the monitor's metrics (:meth:`Monitor.collect`) in
    Prometheus text exposition format."""
    lines: list[str] = []
    for name, kind, help, instances in monitor.collect():
        if help:
            lines.append(f"# HELP {name} {help}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in instances:
            if isinstance(value, Histogram):
                for bound, cum in value.cumulative():
                    le = _render_labels(labels, [("le", _fmt_value(bound))])
                    lines.append(f"{name}_bucket{le} {cum}")
                ls = _render_labels(labels)
                lines.append(f"{name}_sum{ls} {_fmt_value(value.total)}")
                lines.append(f"{name}_count{ls} {value.count}")
            else:
                lines.append(f"{name}{_render_labels(labels)} {_fmt_value(value)}")
    return "\n".join(lines) + "\n"


def series_to_csv(store: SeriesStore) -> str:
    """Render every time-series as CSV: ``name,labels,time,value``.

    Series appear in sorted ``(name, labels)`` order, samples in
    chronological order; labels are ``k=v`` pairs joined with ``|``.
    """
    lines = ["name,labels,time,value"]
    for ts in store.all_series():
        labels = "|".join(f"{k}={v}" for k, v in ts.labels)
        for t, v in ts.samples():
            lines.append(f"{ts.name},{labels},{_fmt_value(t)},{_fmt_value(v)}")
    return "\n".join(lines) + "\n"


def digest(text: str) -> str:
    """First 16 hex digits of the export's sha256."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_text(path, text: str) -> None:
    """Write an export with a stable newline convention."""
    with open(path, "w", newline="\n") as f:
        f.write(text)

"""The export surface for collected performance data.

* :mod:`~repro.symbiosys.export.text` -- Prometheus exposition
  (:func:`to_prometheus`), time-series CSV (:func:`series_to_csv`) and
  the sha256-prefix :func:`digest` of an export.

The Perfetto/Chrome timeline lives in :mod:`repro.symbiosys.perfetto`
(:func:`~repro.symbiosys.perfetto.chrome_trace_json`).  The format
functions re-export from here
(``from repro.symbiosys.export import to_prometheus`` etc.).
"""

from .text import digest, series_to_csv, to_prometheus, write_text

__all__ = [
    "digest",
    "series_to_csv",
    "to_prometheus",
    "write_text",
]

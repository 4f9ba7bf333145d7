"""The export surface for collected performance data.

* :mod:`~repro.symbiosys.export.text` -- Prometheus exposition
  (:func:`to_prometheus`) and time-series CSV (:func:`series_to_csv`),
* :mod:`~repro.symbiosys.export.profile` -- callpath-profile CSV
  (:func:`write_profile_csv`) and lossless trace-event JSON
  (:func:`events_to_json`).

The Perfetto/Chrome timeline lives in :mod:`repro.symbiosys.perfetto`
(:func:`~repro.symbiosys.perfetto.chrome_trace_json`).  The format
functions re-export from here
(``from repro.symbiosys.export import events_to_json`` etc.).
"""

from .profile import (
    events_to_json,
    load_events_json,
    profile_to_rows,
    write_profile_csv,
)
from .text import series_to_csv, to_prometheus, write_text

__all__ = [
    "events_to_json",
    "load_events_json",
    "profile_to_rows",
    "series_to_csv",
    "to_prometheus",
    "write_profile_csv",
    "write_text",
]

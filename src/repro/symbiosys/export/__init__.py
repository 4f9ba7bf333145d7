"""The unified export surface for collected performance data.

Every format sits behind a common
:class:`~repro.symbiosys.export.registry.Exporter` protocol:

* :mod:`~repro.symbiosys.export.text` -- Prometheus exposition and
  time-series CSV,
* :mod:`~repro.symbiosys.export.profile` -- callpath-profile CSV and
  lossless trace-event JSON,
* :mod:`~repro.symbiosys.export.registry` -- the :class:`ExportBundle`
  / :class:`Exporter` protocol and the name registry
  (``prometheus``, ``csv``, ``profile``, ``json``, ``perfetto``,
  ``critical``).

The format functions re-export from here
(``from repro.symbiosys.export import events_to_json`` etc.).
"""

from .profile import (
    events_to_json,
    load_events_json,
    profile_to_rows,
    write_profile_csv,
)
from .registry import (
    ExportBundle,
    Exporter,
    exporter_names,
    get_exporter,
    register_exporter,
)
from .text import series_to_csv, to_prometheus, write_text

__all__ = [
    "ExportBundle",
    "Exporter",
    "events_to_json",
    "exporter_names",
    "get_exporter",
    "load_events_json",
    "profile_to_rows",
    "register_exporter",
    "series_to_csv",
    "to_prometheus",
    "write_profile_csv",
    "write_text",
]

"""HEPnOS data hierarchy: datasets > runs > subruns > events.

Events are serialized physics objects addressed by a canonical string
key.  Key encoding uses zero-padded fixed-width numbers so that
lexicographic ordering equals numeric ordering -- the property HEPnOS
relies on for range listings.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

__all__ = ["event_key", "run_event_pairs"]

V = TypeVar("V")

_WIDTH = 9
_LIMIT = 10**_WIDTH
_SEP = "%"


def _check_run(dataset: str, run: int) -> None:
    if _SEP in dataset:
        raise ValueError(f"dataset name may not contain {_SEP!r}")
    if not 0 <= run < _LIMIT:
        raise ValueError(f"run out of range: {run}")


def _check_event(subrun: int, event: int) -> None:
    for field_name, value in (("subrun", subrun), ("event", event)):
        if not 0 <= value < _LIMIT:
            raise ValueError(f"{field_name} out of range: {value}")


def _check(dataset: str, run: int, subrun: int, event: int) -> None:
    _check_run(dataset, run)
    # One chained test per event; the call only runs to name the bad field.
    if not (0 <= subrun < _LIMIT and 0 <= event < _LIMIT):
        _check_event(subrun, event)


def event_key(dataset: str, run: int, subrun: int, event: int) -> str:
    """Canonical storage key for one event."""
    _check(dataset, run, subrun, event)
    # _SEP and _WIDTH spelled out: a nested ``{run:0{_WIDTH}d}`` is slower.
    return f"{dataset}%{run:09d}%{subrun:09d}%{event:09d}"


def run_event_pairs(
    dataset: str, run: int, events: Sequence[tuple[int, int, V]]
) -> list[tuple[str, V]]:
    """``(key, value)`` per ``(subrun, event, value)`` of one run, in
    order.  The same keys and errors as :func:`event_key`, but the
    dataset and run are checked and formatted once for the run."""
    if not events:
        return []
    _check_run(dataset, run)
    prefix = f"{dataset}%{run:09d}%"
    # The else branch only runs to raise for the bad field.
    return [
        (f"{prefix}{subrun:09d}%{event:09d}", value)
        if 0 <= subrun < _LIMIT and 0 <= event < _LIMIT
        else _check_event(subrun, event)
        for subrun, event, value in events
    ]


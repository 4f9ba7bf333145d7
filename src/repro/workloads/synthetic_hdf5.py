"""Synthetic particle-event files.

The paper's data-loader reads HDF5 files of physics simulation events
from a parallel filesystem; we have neither the Fermilab data nor HDF5.
The stand-in generates files with the same *shape*: a dataset of runs,
subruns, and events whose serialized payloads follow a lognormal size
distribution around ~1 KiB, with real (deterministic, content-bearing)
bytes.  The loader's code path -- key construction, batching, hashing,
put_packed -- is identical to what the real files would drive.
Each file's payloads come from one uint32 draw, and their bytes equal
one full-range uint8 draw per event (see :func:`generate_event_files`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sim import RngRegistry
from ..services.hepnos import run_event_pairs

__all__ = ["SyntheticEventFile", "generate_event_files", "flatten_to_pairs"]


@dataclass
class SyntheticEventFile:
    """One input file: events of a single (dataset, run)."""

    dataset: str
    run: int
    #: (subrun, event, payload bytes)
    events: list[tuple[int, int, bytes]] = field(default_factory=list)

    def to_pairs(self) -> list[tuple[str, bytes]]:
        """Event key/value pairs in file order."""
        return run_event_pairs(self.dataset, self.run, self.events)


def generate_event_files(
    *,
    dataset: str = "NOvA",
    n_files: int = 4,
    events_per_file: int = 256,
    subruns_per_file: int = 4,
    mean_event_bytes: int = 1024,
    sigma: float = 0.35,
    seed: int = 1234,
) -> list[SyntheticEventFile]:
    """Generate ``n_files`` synthetic input files.

    Event payload sizes are lognormal around ``mean_event_bytes`` --
    serialized physics objects are variable-length.

    A file's payloads are sliced out of one uint32 draw.  NumPy fills a
    full-range uint8 draw of ``n`` bytes from ``ceil(n / 4)`` uint32
    words, lowest byte first, and drops the rest of the last word.  So
    event ``i`` takes the first ``n`` bytes of its own ``ceil(n / 4)``
    words: the bytes, and the generator state after the file, are those
    of one ``integers(0, 256, size=n, dtype=uint8)`` call per event.
    """
    if n_files < 1 or events_per_file < 1 or subruns_per_file < 1:
        raise ValueError("file, event, and subrun counts must be positive")
    if mean_event_bytes < 1:
        raise ValueError("mean_event_bytes must be positive")
    rng = RngRegistry(seed).stream("synthetic_hdf5")
    mu = np.log(mean_event_bytes) - sigma**2 / 2
    files = []
    for run in range(n_files):
        sizes = np.exp(rng.normal(mu, sigma, size=events_per_file))
        sizes = np.maximum(16, sizes.astype(int)).tolist()
        n_words = sum((n + 3) // 4 for n in sizes)
        buf = (
            rng.integers(0, 2**32, size=n_words, dtype=np.uint32)
            .astype("<u4", copy=False)
            .tobytes()
        )
        events = []
        off = 0
        for i, n in enumerate(sizes):
            events.append((i * subruns_per_file // events_per_file, i, buf[off : off + n]))
            off += 4 * ((n + 3) // 4)
        files.append(SyntheticEventFile(dataset=dataset, run=run, events=events))
    return files


def flatten_to_pairs(files: list[SyntheticEventFile]) -> list[tuple[str, bytes]]:
    """All files' events as a single key/value stream, in file order."""
    pairs: list[tuple[str, bytes]] = []
    for f in files:
        pairs.extend(f.to_pairs())
    return pairs

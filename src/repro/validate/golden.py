"""Golden-trace regression corpus.

One canonical, fully validated run per service -- sdskv, bake, sonata,
hepnos and a 32-server sharded fleet, each a strict
:func:`~repro.validate.workloads.run_workload` run -- with the artifact
digests and the run summary checked into ``golden_corpus.json``.  ``check_golden`` re-runs each service and
compares against the stored entry; a mismatch produces a readable
unified diff of the run summaries (which embed the digests), so a
regression points at *what* moved (makespan, RPC counts, a specific
export) rather than just "hash changed".

``python -m repro.validate golden --regen`` refreshes the corpus after
an intentional behaviour change.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .workloads import RunArtifacts, run_workload

__all__ = [
    "GOLDEN_SEED",
    "GoldenMismatch",
    "check_golden",
    "corpus_path",
    "golden_run",
    "golden_services",
    "regen_golden",
]

GOLDEN_SEED = 1234

#: Each golden service is the :data:`~repro.validate.workloads.WORKLOADS`
#: entry of the same name, run at this scale.
_GOLDEN_SCALES = {"sdskv": 1, "bake": 1, "sonata": 3, "hepnos": 1, "sharded": 1}


def corpus_path() -> Path:
    """The checked-in corpus lives next to this module."""
    return Path(__file__).with_name("golden_corpus.json")


@dataclass
class GoldenMismatch:
    """One service whose run diverged from the stored golden entry."""

    service: str
    changed: list[str]
    diff: str

    def render(self) -> str:
        header = (
            f"golden mismatch for {self.service!r}: "
            f"{', '.join(self.changed)} changed"
        )
        return header + ("\n" + self.diff if self.diff else "")


def golden_services() -> list[str]:
    return list(_GOLDEN_SCALES)


def golden_run(service: str) -> RunArtifacts:
    """Execute one canonical service run (strict validation on)."""
    try:
        scale = _GOLDEN_SCALES[service]
    except KeyError:
        raise ValueError(
            f"unknown golden service {service!r} (expected one of "
            f"{golden_services()})"
        ) from None
    return run_workload(service, seed=GOLDEN_SEED, scale=scale, strict=True)


def _entry(artifacts: RunArtifacts) -> dict:
    return {
        "digests": artifacts.digests(),
        "summary": artifacts.summary(),
    }


def load_corpus(path: Optional[Path] = None) -> dict:
    path = path or corpus_path()
    if not path.exists():
        raise FileNotFoundError(
            f"golden corpus missing at {path}; run "
            "`python -m repro.validate golden --regen`"
        )
    with open(path) as f:
        return json.load(f)


def regen_golden(
    path: Optional[Path] = None, services: Optional[list[str]] = None
) -> dict:
    """Re-run every golden service and rewrite the corpus file."""
    path = path or corpus_path()
    corpus = {}
    if path.exists():
        corpus = load_corpus(path)
    for service in services or golden_services():
        corpus[service] = _entry(golden_run(service))
    with open(path, "w", newline="\n") as f:
        json.dump(corpus, f, indent=2, sort_keys=True)
        f.write("\n")
    return corpus


def check_golden(
    path: Optional[Path] = None, services: Optional[list[str]] = None
) -> list[GoldenMismatch]:
    """Re-run each golden service and diff against the stored corpus."""
    corpus = load_corpus(path)
    mismatches = []
    for service in services or golden_services():
        if service not in corpus:
            mismatches.append(
                GoldenMismatch(
                    service=service,
                    changed=["missing from corpus"],
                    diff="",
                )
            )
            continue
        artifacts = golden_run(service)
        stored = corpus[service]
        current = _entry(artifacts)
        changed = sorted(
            name
            for name in set(stored["digests"]) | set(current["digests"])
            if stored["digests"].get(name) != current["digests"].get(name)
        )
        if stored["summary"] != current["summary"] and "summary" not in changed:
            changed.append("summary")
        if not changed:
            continue
        diff = "\n".join(
            difflib.unified_diff(
                stored["summary"].splitlines(),
                current["summary"].splitlines(),
                fromfile=f"{service}/golden",
                tofile=f"{service}/current",
                lineterm="",
            )
        )
        mismatches.append(
            GoldenMismatch(service=service, changed=changed, diff=diff)
        )
    return mismatches

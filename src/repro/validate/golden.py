"""Golden-trace regression corpus.

One canonical, fully validated run per service -- sdskv, bake, sonata,
hepnos -- with the artifact digests and the run summary checked into
``golden_corpus.json``.  ``check_golden`` re-runs each service and
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

from ..cluster import Cluster
from ..symbiosys import Stage
from ..symbiosys.monitor import MonitorConfig
from .invariants import ValidationConfig
from .workloads import RunArtifacts, collect_artifacts, run_workload

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

_PID_SDSKV = 2
_PID_BAKE = 1


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


def _service_cluster() -> Cluster:
    return Cluster(
        seed=GOLDEN_SEED,
        stage=Stage.FULL,
        monitoring=MonitorConfig(interval=50e-6),
        validate=ValidationConfig(strict=True),
    )


def _artifacts(cluster: Cluster, service: str, makespan: float, ok: int) -> RunArtifacts:
    return collect_artifacts(
        cluster,
        service,
        seed=GOLDEN_SEED,
        preset="fast",
        scale=1,
        makespan=makespan,
        rpcs_ok=ok,
        rpcs_failed=0,
    )


def _run_sdskv() -> RunArtifacts:
    from ..services.sdskv import SdskvClient, SdskvProvider

    done: dict = {}
    count = {"ok": 0}
    with _service_cluster() as cluster:
        server = cluster.process("sdskv-svr", "nodeS", n_handler_es=2)
        SdskvProvider(server, 0, n_databases=2)
        client_mi = cluster.process("sdskv-cli", "nodeC")
        client = SdskvClient(client_mi)

        def body():
            for i in range(8):
                yield from client.put("sdskv-svr", 0, i % 2, f"k{i}", f"v{i}")
                count["ok"] += 1
            for i in range(8):
                value = yield from client.get("sdskv-svr", 0, i % 2, f"k{i}")
                assert value == f"v{i}"
                count["ok"] += 1
            done["at"] = cluster.sim.now

        client_mi.client_ult(body(), name="golden-sdskv")
        if not cluster.sim.run_until(lambda: "at" in done, 5.0):
            raise RuntimeError("golden sdskv run did not finish")
    return _artifacts(cluster, "sdskv", done["at"], count["ok"])


def _run_bake() -> RunArtifacts:
    from ..services.bake import BakeClient, BakeProvider

    done: dict = {}
    count = {"ok": 0}
    with _service_cluster() as cluster:
        server = cluster.process("bake-svr", "nodeS", n_handler_es=2)
        BakeProvider(server, 0)
        client_mi = cluster.process("bake-cli", "nodeC")
        client = BakeClient(client_mi)

        def body():
            rids = []
            for i in range(4):
                rid = yield from client.create_write_persist(
                    "bake-svr", 0, bytes(512 * (i + 1))
                )
                rids.append(rid)
                count["ok"] += 1
            for i, rid in enumerate(rids):
                data = yield from client.read("bake-svr", 0, rid)
                assert len(data) == 512 * (i + 1)
                count["ok"] += 1
            done["at"] = cluster.sim.now

        client_mi.client_ult(body(), name="golden-bake")
        if not cluster.sim.run_until(lambda: "at" in done, 5.0):
            raise RuntimeError("golden bake run did not finish")
    return _artifacts(cluster, "bake", done["at"], count["ok"])


def _run_sonata() -> RunArtifacts:
    return run_workload("sonata", seed=GOLDEN_SEED, scale=3, strict=True)


def _run_hepnos() -> RunArtifacts:
    """Two HEPnOS servers (sdskv + bake providers each) deployed on a
    Cluster, driven through the real HEPnOS client hashing path."""
    from ..services.hepnos import HEPnOSClient, HEPnOSService

    done: dict = {}
    count = {"ok": 0}
    with _service_cluster() as cluster:
        service = HEPnOSService.deploy(
            cluster, n_servers=2, servers_per_node=1, n_handler_es=2, n_databases=2
        )
        client_mi = cluster.process("hepnos-cli", "cnode0")
        client = HEPnOSClient(client_mi, service)

        def body():
            for i in range(12):
                yield from client.store_event(f"run0/event{i}", {"e": i})
                count["ok"] += 1
            for i in range(0, 12, 3):
                value = yield from client.load_event(f"run0/event{i}")
                assert value == {"e": i}
                count["ok"] += 1
            done["at"] = cluster.sim.now

        client_mi.client_ult(body(), name="golden-hepnos")
        if not cluster.sim.run_until(lambda: "at" in done, 5.0):
            raise RuntimeError("golden hepnos run did not finish")
    return _artifacts(cluster, "hepnos", done["at"], count["ok"])


def _run_sharded() -> RunArtifacts:
    """A 32-node sharded fleet driven through the consistent-hash
    router: plain SDSKV keys plus HEPnOS-style dataset/run/event keys,
    so the sharded export surface (placement, PVARs, timeline) is
    byte-pinned at cluster scale."""
    from ..shard import ShardedKVService

    done: dict = {}
    count = {"ok": 0}
    with _service_cluster() as cluster:
        service = ShardedKVService.deploy(cluster, 32)
        client_mi = cluster.process("shard-cli", "cnode0")
        router = service.make_router(client_mi)

        def body():
            for i in range(24):
                yield from router.put(f"k{i:03d}", f"v{i}")
                count["ok"] += 1
            for i in range(12):
                yield from router.put_event("golden.ds", 0, i, {"e": i})
                count["ok"] += 1
            for i in range(24):
                value = yield from router.get(f"k{i:03d}")
                assert value == f"v{i}"
                count["ok"] += 1
            for i in range(0, 12, 3):
                value = yield from router.get_event("golden.ds", 0, i)
                assert value == {"e": i}
                count["ok"] += 1
            done["at"] = cluster.sim.now

        client_mi.client_ult(body(), name="golden-sharded")
        if not cluster.sim.run_until(lambda: "at" in done, 5.0):
            raise RuntimeError("golden sharded run did not finish")
    return _artifacts(cluster, "sharded", done["at"], count["ok"])


_GOLDEN_RUNS = {
    "sdskv": _run_sdskv,
    "bake": _run_bake,
    "sonata": _run_sonata,
    "hepnos": _run_hepnos,
    "sharded": _run_sharded,
}


def golden_services() -> list[str]:
    return list(_GOLDEN_RUNS)


def golden_run(service: str) -> RunArtifacts:
    """Execute one canonical service run (strict validation on)."""
    try:
        runner = _GOLDEN_RUNS[service]
    except KeyError:
        raise ValueError(
            f"unknown golden service {service!r} (expected one of "
            f"{golden_services()})"
        ) from None
    return runner()


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

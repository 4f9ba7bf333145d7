"""Self-tests of the benchmark, on the tiny workload shapes.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import bench
from perfbench.__main__ import main
from perfbench.compare import judge

ROOT = bench.ROOT


def _cli(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "perfbench", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def traced_twice() -> dict:
    """Two traced tiny runs of every workload."""
    return {
        name: [
            bench.measure(name, 0, size="tiny", repeats=1, trace=True)
            for _ in range(2)
        ]
        for name in bench.WORKLOAD_NAMES
    }


def test_metric_specs_match_benchmark_json():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
    for key, metrics in (("end_to_end", bench.E2E_METRICS),
                         ("per_layer", bench.LAYER_METRICS)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == {m.name: (m.unit, m.better) for m in metrics}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_the_listed_ones(trace):
    proc = _cli("--workload", "hepnos_c5", "--seed", "3", "--seconds", "0",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    key = "per_layer" if trace == "1" else "end_to_end"
    listed = {m["name"]: m["unit"] for m in _benchmark_json()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed


def test_layer_self_times_sum_to_profile(traced_twice):
    for name, runs in traced_twice.items():
        fold = runs[0]["traced"]["layers"]
        total = sum(row["self_s"] for row in fold["layers"].values())
        assert total == pytest.approx(fold["total_s"], rel=0.01), name
        shares = sum(row["share"] for row in fold["layers"].values())
        assert shares == pytest.approx(1.0, rel=0.01), name


def test_traced_counts_repeat_exactly(traced_twice):
    for name, (first, second) in traced_twice.items():
        a, b = bench.layer_values(first), bench.layer_values(second)
        counts = [k for k in a if k == "sim.events"
                  or k.endswith((".calls", ".calls_in"))]
        assert {k: a[k] for k in counts} == {k: b[k] for k in counts}, name
        assert first["traced"]["outputs"] == second["traced"]["outputs"]


def test_every_workload_is_correct_at_tiny_size(traced_twice):
    for name, runs in traced_twice.items():
        for run in runs:
            assert run["failed"] == 0 and not run["mismatches"], name
            assert run["repeats"][0]["outputs"] == run["traced"]["outputs"]


def test_planted_output_mismatch_fails_every_op(monkeypatch, capsys):
    monkeypatch.setattr(bench, "expected_outputs",
                        lambda *a: {"makespan": -1.0})
    run = bench.measure("sonata_fig7", 0, size="tiny", repeats=1)
    assert run["mismatches"] and run["failed"] == run["attempted"] > 0
    assert bench.e2e_values(run)["ops_per_s"] == [0.0]

    status = main(["--workload", "sonata_fig7", "--seconds", "0",
                   "--trace", "0", "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_seed0_reference_covers_every_workload():
    reference = bench.load_reference()
    expected = reference["expected_seed0"]
    assert set(expected) == set(bench.WORKLOAD_NAMES)
    assert all(expected.values())
    bounds = reference["bounds"]
    for name in bench.WORKLOAD_NAMES:
        assert set(bounds[name]) == {m.name for m in bench.E2E_METRICS}
        assert all(0 < b <= 0.25 for b in bounds[name].values())


#: What ROADMAP lists for deletion; the benchmark must not depend on it.
DELETION_CANDIDATES = (
    "repro.sim.parallel",
    "repro.bench",
    "repro.services.flamestore",
    "repro.services.gekkofs",
    "repro.validate.workloads.legacy_settle_until",
    "repro.symbiosys.exporters",
)


def _names_imported(path: str) -> set[str]:
    with open(path) as f:
        tree = ast.parse(f.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_imports_no_deletion_candidate():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            for imported in _names_imported(os.path.join(here, name)):
                for candidate in DELETION_CANDIDATES:
                    assert not (imported == candidate
                                or imported.startswith(candidate + ".")), name

    # Nor does any workload reach one at run time.  (``repro.services``
    # imports FlameStore and GekkoFS eagerly in its own ``__init__``, so
    # those two are loaded by any service; deleting them edits that
    # file, not the benchmark.)
    code = (
        "import json, sys\n"
        "from perfbench.child import run_repeat\n"
        "for name in ('fleet_n640', 'hepnos_c5', 'hepnos_c1', 'sonata_fig7'):\n"
        "    run_repeat(name, 0, 'tiny', profile=True)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([bench.SRC, ROOT]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.strip().splitlines()[-1]))
    for module in ("repro.sim.parallel", "repro.bench",
                   "repro.symbiosys.exporters"):
        assert not {m for m in loaded
                    if m == module or m.startswith(module + ".")}, module


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli("--workload", "sonata_fig7", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode not in (0, 1)
    assert proc.stdout.strip() == ""


def test_judge_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98]
    assert judge(parent, [1.00, 1.01, 0.99, 1.00, 1.02], "lower", 0.1) == "within bound"
    assert judge(parent, [1.30, 1.31, 1.29, 1.32, 1.30], "lower", 0.1) == "worse"
    assert judge(parent, [0.70, 0.71, 0.69, 0.72, 0.70], "lower", 0.1) == "better"
    assert judge(parent, [0.70, 0.71, 0.69, 0.72, 0.70], "higher", 0.1) == "worse"
    assert judge(parent, [0.5, 1.5, 0.6, 1.4, 1.0], "lower", 0.1) == "unresolved"

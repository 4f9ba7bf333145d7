"""Cluster facade: construction, wiring, and teardown guarantees."""

import ast
import pathlib

import pytest

from repro.cluster import Cluster
from repro.experiments.presets import FAST_TEST
from repro.faults import DropRule, FaultPlan
from repro.margo import Instrumentation, MargoConfig, MargoInstance
from repro.net import Fabric, FabricConfig
from repro.sim import Simulator
from repro.symbiosys import Stage

from .margo.conftest import echo_handler


def _echo_pair(cluster, instrumentation=None):
    server = cluster.process(
        "svr", "nA", n_handler_es=1, instrumentation=instrumentation
    )
    client = cluster.process("cli", "nB", instrumentation=instrumentation)
    server.register("echo", echo_handler)
    client.register("echo")
    return server, client


def _run_one_echo(client, sim):
    done = []

    def body():
        out = yield from client.forward("svr", "echo", {"x": 1})
        done.append((out, sim.now))

    client.client_ult(body())
    assert sim.run_until(lambda: done, limit=1.0)
    return done[0]


def test_context_manager_tears_down_without_leaks():
    with Cluster(seed=0, stage=Stage.FULL) as cluster:
        _, client = _echo_pair(cluster)
        out, _ = _run_one_echo(client, cluster.sim)
        assert out == {"echo": {"x": 1}}
    assert cluster.leaked_events == 0
    for mi in cluster.processes.values():
        assert mi._finalizing


def test_shutdown_is_idempotent():
    cluster = Cluster(stage=None)
    _echo_pair(cluster)
    cluster.shutdown()
    leaked = cluster.leaked_events
    cluster.shutdown()
    assert cluster.leaked_events == leaked == 0


def test_cluster_matches_manual_construction():
    """The facade is pure composition: same knobs, same makespan."""
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig())
    server = MargoInstance(
        sim, fabric, "svr", "nA", config=MargoConfig(n_handler_es=1)
    )
    client = MargoInstance(sim, fabric, "cli", "nB")
    server.register("echo", echo_handler)
    client.register("echo")
    _, manual_at = _run_one_echo(client, sim)

    with Cluster(seed=0, stage=None) as cluster:
        _, cli = _echo_pair(cluster)
        _, facade_at = _run_one_echo(cli, cluster.sim)
    assert facade_at == manual_at


def test_process_kwargs_build_margo_config():
    with Cluster(stage=None) as cluster:
        mi = cluster.process("p", n_handler_es=3, use_progress_thread=True)
        assert mi.config.n_handler_es == 3
        assert mi.config.use_progress_thread
        assert mi.node == "node-p"  # default node is per-process


def test_process_rejects_duplicates_and_ambiguous_config():
    with Cluster(stage=None) as cluster:
        cluster.process("p")
        with pytest.raises(ValueError):
            cluster.process("p")
        with pytest.raises(ValueError):
            cluster.process("q", config=MargoConfig(), n_handler_es=2)
        assert cluster["p"] is cluster.processes["p"]


def test_preset_is_duck_typed():
    with Cluster(stage=None, preset=FAST_TEST) as cluster:
        assert cluster.fabric.config is FAST_TEST.fabric
        mi = cluster.process("p")
        assert mi.hg.config == FAST_TEST.hg_config()


def test_stage_none_disables_instrumentation():
    with Cluster(stage=None) as cluster:
        assert cluster.collector is None
        mi = cluster.process("p")
        assert isinstance(mi.instr, Instrumentation)
        assert type(mi.instr).on_forward is Instrumentation.on_forward


def test_collector_wires_symbiosys_instrumentation():
    with Cluster(stage=Stage.FULL) as cluster:
        _, client = _echo_pair(cluster)
        _run_one_echo(client, cluster.sim)
        assert cluster.collector is not None
        assert len(cluster.collector.instruments) == 2
        assert cluster.collector.merged_resilience()  # gauges present


def test_custom_instrumentation_hooks_fire():
    class Counting(Instrumentation):
        def __init__(self):
            self.forwards = 0
            self.handled = 0

        def on_forward(self, mi, handle, ult):
            self.forwards += 1

        def on_handler_start(self, mi, handle, ult):
            self.handled += 1

    instr = Counting()
    with Cluster(stage=None) as cluster:
        _, client = _echo_pair(cluster, instrumentation=instr)
        _run_one_echo(client, cluster.sim)
    assert instr.forwards == 1
    assert instr.handled == 1


def test_fault_plan_wires_injector_everywhere():
    plan = FaultPlan(wire_rules=[DropRule(probability=0.0)])
    with Cluster(stage=None, fault_plan=plan) as cluster:
        assert cluster.injector is not None
        assert cluster.fabric.fault_hook is cluster.injector
        mi = cluster.process("p")
        assert mi.fault_hook is cluster.injector
        assert cluster.fault_events() == []


def test_no_fault_plan_means_no_injector():
    with Cluster(stage=None) as cluster:
        mi = cluster.process("p")
        assert cluster.injector is None
        assert cluster.fabric.fault_hook is None
        assert mi.fault_hook is None
        assert cluster.fault_events() == []
        assert cluster.resilience_report() == {
            "p": {
                "num_forward_timeouts": 0,
                "num_forward_retries": 0,
                "num_failed_over_forwards": 0,
                "num_late_responses_dropped": 0,
            }
        }


def test_processes_are_built_only_by_cluster():
    """Every Margo process outside the unit-test harness comes from
    ``Cluster.process``, so a preset's cost model reaches all of them."""
    root = pathlib.Path(__file__).resolve().parents[1]
    callers = set()
    for top in ("src/repro", "examples", "benchmarks"):
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "MargoInstance":
                    callers.add(path.relative_to(root).as_posix())
    assert callers == {"src/repro/cluster.py"}



def _imports(path: pathlib.Path, module: str, is_package: bool):
    """``(module, name)`` for every import in ``path``, made absolute;
    ``name`` is None for a plain ``import module``."""
    package = module if is_package else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parts = parts[: len(parts) - node.level + 1]
                base = ".".join(parts + [base] if base else parts)
            for alias in node.names:
                yield base, alias.name


def test_every_service_module_is_reached_by_a_workload():
    """Every leaf module under ``repro.services`` is imported, directly
    or through other ``src`` modules, by an experiment, an example, a
    benchmark or a ``perfbench`` file.  A name imported from a package
    resolves to the submodule that defines it, so a package
    ``__init__`` re-export is not a use."""
    root = pathlib.Path(__file__).resolve().parents[1]
    src = root / "src"

    def source(module):
        """``(path, is_package)`` of a ``src`` module, or ``(None, False)``."""
        base = src.joinpath(*module.split("."))
        if (base / "__init__.py").is_file():
            return base / "__init__.py", True
        if base.with_suffix(".py").is_file():
            return base.with_suffix(".py"), False
        return None, False

    def defining_module(package, name):
        if source(f"{package}.{name}")[0] is not None:
            return f"{package}.{name}"
        path, is_package = source(package)
        if is_package:
            for module, imported in _imports(path, package, True):
                if imported == name and module != package:
                    return defining_module(module, name)
        return package

    reached = set()

    def visit(path, module, is_package):
        for target, name in _imports(path, module, is_package):
            if not target.startswith("repro"):
                continue
            if name is not None:
                target = defining_module(target, name)
            target_path, target_is_package = source(target)
            if target_path is None or target in reached:
                continue
            reached.add(target)
            if not target_is_package:  # a package's own imports are re-exports
                visit(target_path, target, False)

    entry_points = sorted(src.glob("repro/**/__main__.py"))
    entry_points += sorted(src.glob("repro/experiments/*.py"))
    for top in ("examples", "benchmarks", "perfbench"):
        entry_points += sorted((root / top).glob("*.py"))
    for path in entry_points:
        if path.is_relative_to(src):
            parts = path.relative_to(src).with_suffix("").parts
            is_package = parts[-1] == "__init__"
            visit(path, ".".join(parts[:-1] if is_package else parts), is_package)
        else:
            visit(path, path.stem, False)

    services = src / "repro" / "services"
    leaves = {
        ".".join(path.relative_to(services).with_suffix("").parts)
        for path in services.rglob("*.py")
        if path.name != "__init__.py"
    }
    unreached = sorted(
        leaf for leaf in leaves if f"repro.services.{leaf}" not in reached
    )
    assert unreached == [], f"service modules no workload imports: {unreached}"

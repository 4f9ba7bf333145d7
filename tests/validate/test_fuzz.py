"""Fuzz-runner machinery: config round-trips, shrinking, repro files,
tiny real sweeps, and the churn workload's conservation audit."""

import json

import numpy as np
import pytest

from repro.faults import (
    CrashFault,
    DelayRule,
    DropRule,
    DuplicateRule,
    FaultPlan,
)
from repro.shard import ChurnReport
from repro.validate.__main__ import main
from repro.validate.fuzz import (
    FailureReport,
    FuzzConfig,
    check_config,
    fuzz_sweep,
    load_repro,
    random_fault_plan,
    shrink,
    write_repro,
)
from repro.validate.workloads import WORKLOAD_SERVERS, run_workload


def _plan():
    return FaultPlan(
        name="mixed",
        wire_rules=[
            DropRule(dst="echo-svr", kind="rpc_request", probability=0.1),
            DuplicateRule(dst="echo-svr", probability=0.05),
            DelayRule(dst="echo-svr", extra=80e-6, probability=0.2),
        ],
        process_faults=[CrashFault(addr="echo-svr", at=0.5e-3)],
    )


def test_fuzz_config_json_round_trip():
    config = FuzzConfig(seed=7, workload="sonata", scale=5, plan=_plan())
    assert FuzzConfig.from_dict(config.to_dict()) == config
    # and the dict itself is pure JSON (no float('inf'), no objects)
    assert json.loads(json.dumps(config.to_dict())) == config.to_dict()


def test_random_fault_plans_survive_serialization():
    rng = np.random.default_rng(42)
    n_plans = 0
    for _ in range(50):
        plan = random_fault_plan(rng, "echo")
        if plan is None:
            continue
        n_plans += 1
        assert FaultPlan.from_dict(plan.to_dict()) == plan
    assert n_plans > 10  # the generator is not degenerate


def test_shrink_isolates_the_culprit_rule():
    """Failure depends on one DropRule only: shrinking must strip the
    other three rules and collapse the scale to 1."""
    config = FuzzConfig(seed=3, scale=8, plan=_plan())

    def is_failing(cfg):
        return cfg.plan is not None and any(
            isinstance(rule, DropRule) for rule in cfg.plan.wire_rules
        )

    shrunk = shrink(config, is_failing)
    assert shrunk.scale == 1
    assert [type(r) for r in shrunk.plan.wire_rules] == [DropRule]
    assert not shrunk.plan.process_faults
    assert is_failing(shrunk)


def test_shrink_respects_eval_budget():
    config = FuzzConfig(seed=3, scale=64, plan=_plan())
    evals = []

    def is_failing(cfg):
        evals.append(cfg)
        return True  # everything "fails": worst case for the search

    shrunk = shrink(config, is_failing, max_evals=5)
    assert len(evals) <= 5
    # even under the tight budget the result is a genuine simplification
    assert shrunk != config


def test_shrink_of_plan_free_failure_only_scales_down():
    config = FuzzConfig(seed=1, scale=16, plan=None)
    shrunk = shrink(config, lambda cfg: True)
    assert shrunk.plan is None
    assert shrunk.scale == 1


def test_repro_file_round_trip_prefers_shrunk(tmp_path):
    config = FuzzConfig(seed=9, scale=8, plan=_plan())
    shrunk = FuzzConfig(seed=9, scale=1, plan=None)
    path = tmp_path / "repro.json"
    write_repro(
        FailureReport(config=config, kind="hang", detail="x", shrunk=shrunk),
        str(path),
    )
    assert load_repro(str(path)) == shrunk
    # without a shrunk config the original is replayed
    write_repro(
        FailureReport(config=config, kind="hang", detail="x"), str(path)
    )
    assert load_repro(str(path)) == config


def test_load_repro_rejects_non_repro_files(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"something": "else"}')
    with pytest.raises(ValueError, match="not a fuzz repro file"):
        load_repro(str(path))


@pytest.mark.parametrize(
    "config",
    [
        # a membership-churn campaign file from before churn was a
        # fuzz workload: its keys are not FuzzConfig fields
        {"seed": 3, "n_clients": 2, "keys_per_client": 15, "plan": None},
        # no workload: replaying it as some default would be a guess
        {"seed": 3, "preset": "fast", "scale": 2, "plan": None},
    ],
)
def test_load_repro_rejects_foreign_or_incomplete_configs(tmp_path, config):
    path = tmp_path / "repro.json"
    path.write_text(json.dumps({"kind": "conservation", "config": config}))
    with pytest.raises(ValueError, match="not a fuzz repro file"):
        load_repro(str(path))


def test_small_sweep_is_clean():
    result = fuzz_sweep(
        seeds=[0], workloads=("echo",), presets=("fast",), fault_fraction=0.0
    )
    assert result.ok
    assert result.configs_run == 1


def test_sweep_shrinks_and_writes_repro_on_failure(tmp_path, monkeypatch):
    """Force one config to fail: the sweep must shrink it and leave a
    replayable repro file behind."""
    import repro.validate.fuzz as fuzz_mod

    def fake_check(config, time_limit=5.0):
        return "invariant: injected for test" if config.seed == 0 else None

    monkeypatch.setattr(fuzz_mod, "check_config", fake_check)
    repro = tmp_path / "repro.json"
    result = fuzz_mod.fuzz_sweep(
        seeds=[0],
        workloads=("echo",),
        presets=("fast",),
        fault_fraction=1.0,
        repro_path=str(repro),
    )
    assert not result.ok
    (failure,) = result.failures
    assert failure.kind == "invariant"
    assert failure.shrunk is not None
    assert failure.shrunk.scale == 1
    assert repro.exists()
    assert load_repro(str(repro)) == failure.shrunk


def test_smoke_matrix_cells(monkeypatch, capsys):
    """``fuzz --smoke`` runs echo, sonata and churn over seeds 0-2; the
    echo and sonata cells are the ones the matrix had before churn
    joined it, and churn seeds 1 and 2 draw kill/revive plans."""
    import repro.validate.fuzz as fuzz_mod

    monkeypatch.setattr(fuzz_mod, "check_config", lambda config: None)
    assert main(["fuzz", "--smoke", "--repro", "unused.json"]) == 0
    cells = [
        line.removeprefix("fuzz: ")
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("fuzz: ") and "/" in line
    ]
    assert cells == [
        "echo/fast seed=0 scale=2 fault_rules=0",
        "echo/fast seed=1 scale=2 fault_rules=3",
        "echo/fast seed=2 scale=2 fault_rules=1",
        "sonata/fast seed=0 scale=2 fault_rules=0",
        "sonata/fast seed=1 scale=2 fault_rules=3",
        "sonata/fast seed=2 scale=2 fault_rules=1",
        "churn/fast seed=0 scale=2 fault_rules=0",
        "churn/fast seed=1 scale=2 fault_rules=3",
        "churn/fast seed=2 scale=2 fault_rules=1",
    ]


@pytest.mark.parametrize(
    "flag, kind", [("--workloads", "workload"), ("--presets", "preset")]
)
def test_unknown_fuzz_name_is_a_usage_error(flag, kind, monkeypatch, capsys):
    """An unknown name in ``--workloads`` or ``--presets`` is an argparse
    usage error (exit 2) raised before the sweep starts any run."""
    import repro.validate.fuzz as fuzz_mod

    def no_sweep(**kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(fuzz_mod, "fuzz_sweep", no_sweep)
    with pytest.raises(SystemExit) as exit_info:
        main(["fuzz", flag, "fast,nope" if kind == "preset" else "echo,nope"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: unknown {kind} 'nope'" in captured.err
    assert "Traceback" not in captured.err


# ------------------------------------------------------------ churn


def test_churn_plan_targets_the_fleet_and_round_trips():
    plan = random_fault_plan(np.random.default_rng(42), "churn")
    assert plan.process_faults
    assert not (plan.wire_rules or plan.partitions or plan.handler_rules)
    addrs = [f.addr for f in plan.process_faults]
    assert len(set(addrs)) == len(addrs)  # distinct victims
    assert set(addrs) <= set(WORKLOAD_SERVERS["churn"])
    assert len(addrs) < len(WORKLOAD_SERVERS["churn"])  # one survivor
    assert FaultPlan.from_dict(plan.to_dict()) == plan


def test_churn_config_json_round_trip():
    plan = random_fault_plan(np.random.default_rng(42), "churn")
    config = FuzzConfig(seed=11, workload="churn", scale=3, plan=plan)
    assert FuzzConfig.from_dict(config.to_dict()) == config
    assert json.loads(json.dumps(config.to_dict())) == config.to_dict()


def test_plan_free_churn_run_conserves_everything():
    artifacts = run_workload("churn", seed=1)
    audit = artifacts.churn["audit"]
    assert audit["ok"]
    assert audit["issued"] == artifacts.rpcs_ok == 2 * 2 * 15
    assert audit["failed"] == audit["lost_allowed"] == audit["missing"] == 0
    assert artifacts.churn["migrations"]["completed"] == 0
    assert artifacts.violations == []
    assert "churn" in artifacts.digests()


def test_kill_revive_churn_run_accounts_every_request():
    plan = random_fault_plan(np.random.default_rng(7), "churn")
    config = FuzzConfig(seed=7, workload="churn", plan=plan)
    assert check_config(config) is None
    artifacts = run_workload("churn", seed=7, plan=plan)
    audit = artifacts.churn["audit"]
    assert audit["issued"] == audit["acked"] + audit["failed"]
    assert audit["failed"] == artifacts.rpcs_failed
    assert audit["missing"] == 0 and audit["corrupted"] == 0


def test_churn_audit_failure_is_shrunk_and_replays_as_churn(
    tmp_path, monkeypatch
):
    """A failing audit (forced here) fails the config as
    ``conservation``; the sweep shrinks it and the repro file replays
    as a churn config."""
    monkeypatch.setattr(ChurnReport, "ok", property(lambda self: False))
    repro = tmp_path / "repro.json"
    result = fuzz_sweep(
        seeds=[1], workloads=("churn",), repro_path=str(repro)
    )
    (failure,) = result.failures
    assert failure.kind == "conservation"
    assert failure.config.plan is not None
    assert failure.shrunk == FuzzConfig(seed=1, workload="churn", scale=1)
    assert load_repro(str(repro)) == failure.shrunk
    assert json.loads(repro.read_text())["kind"] == "conservation"


def test_small_churn_sweep_is_clean():
    result = fuzz_sweep(seeds=range(2), workloads=("churn",))
    assert result.ok
    assert result.configs_run == 2

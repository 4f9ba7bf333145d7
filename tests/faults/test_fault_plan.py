"""FaultPlan and rule-matching semantics (no simulator involved)."""

import math

import pytest

from repro.faults import (
    CrashFault,
    DelayRule,
    DropRule,
    DuplicateRule,
    FaultPlan,
    HandlerFaultRule,
    RestartFault,
    WireRule,
)


def test_wire_rule_wildcards_match_anything():
    rule = WireRule()
    assert rule.matches(src="a", dst="b", kind="rpc_request", now=0.0)
    assert rule.matches(src="x", dst="y", kind="rpc_response", now=1e9)


def test_wire_rule_field_matchers():
    rule = WireRule(src="a", dst="b", kind="rpc_request")
    assert rule.matches(src="a", dst="b", kind="rpc_request", now=0.0)
    assert not rule.matches(src="z", dst="b", kind="rpc_request", now=0.0)
    assert not rule.matches(src="a", dst="z", kind="rpc_request", now=0.0)
    assert not rule.matches(src="a", dst="b", kind="rpc_response", now=0.0)


def test_wire_rule_window_is_half_open():
    rule = WireRule(start=1.0, end=2.0)
    assert not rule.matches(src="a", dst="b", kind="k", now=0.999)
    assert rule.matches(src="a", dst="b", kind="k", now=1.0)
    assert rule.matches(src="a", dst="b", kind="k", now=1.999)
    assert not rule.matches(src="a", dst="b", kind="k", now=2.0)


@pytest.mark.parametrize("bad", [-0.1, 1.1])
def test_probability_validated(bad):
    with pytest.raises(ValueError):
        DropRule(probability=bad)


def test_window_validated():
    with pytest.raises(ValueError):
        WireRule(start=2.0, end=1.0)
    with pytest.raises(ValueError):
        WireRule(start=-1.0)


def test_rules_are_keyword_only():
    with pytest.raises(TypeError):
        DropRule("svr")  # positional construction is an API error
    with pytest.raises(TypeError):
        CrashFault("s", 1.0)


def test_rules_support_replace():
    rule = DropRule(dst="svr", probability=0.5)
    widened = rule.replace(probability=1.0)
    assert widened.probability == 1.0
    assert widened.dst == "svr"
    assert rule.probability == 0.5  # original untouched


def test_duplicate_rule_needs_at_least_one_copy():
    with pytest.raises(ValueError):
        DuplicateRule(copies=0)
    assert DuplicateRule().copies == 1


def test_delay_rule_needs_some_delay():
    with pytest.raises(ValueError):
        DelayRule()
    assert DelayRule(extra=1e-3).spread == 0.0


def test_handler_rule_matching_and_validation():
    rule = HandlerFaultRule(rpc="op", error_probability=1.0)
    assert rule.matches(rpc="op", addr="svr", now=0.0)
    assert not rule.matches(rpc="other", addr="svr", now=0.0)
    scoped = HandlerFaultRule(addr="svr", error_probability=0.5)
    assert scoped.matches(rpc="anything", addr="svr", now=0.0)
    assert not scoped.matches(rpc="anything", addr="other", now=0.0)
    with pytest.raises(ValueError):
        HandlerFaultRule()  # injects nothing
    with pytest.raises(ValueError):
        HandlerFaultRule(stall_probability=0.5)  # stall missing


def test_process_fault_validation():
    with pytest.raises(ValueError):
        CrashFault(addr="s", at=-1.0)
    with pytest.raises(ValueError):
        RestartFault(addr="s", at=0.0, downtime=0.0)
    assert RestartFault(addr="s", at=0.0, downtime=1.0).warmup == 0.0


def test_plan_normalizes_lists_to_tuples():
    plan = FaultPlan(
        name="p",
        wire_rules=[DropRule(probability=0.1)],
        process_faults=[CrashFault(addr="s", at=1.0)],
        handler_rules=[HandlerFaultRule(error_probability=0.1)],
    )
    assert isinstance(plan.wire_rules, tuple)
    assert isinstance(plan.process_faults, tuple)
    assert isinstance(plan.handler_rules, tuple)


def test_plan_is_empty_and_faults_for():
    assert FaultPlan().is_empty
    plan = FaultPlan(
        process_faults=[
            CrashFault(addr="s1", at=1.0),
            CrashFault(addr="s2", at=0.5),
            RestartFault(addr="s1", at=3.0, downtime=1.0),
        ]
    )
    assert not plan.is_empty
    assert [type(f).__name__ for f in plan.faults_for("s1")] == [
        "CrashFault",
        "RestartFault",
    ]
    assert plan.faults_for("nobody") == []


def test_default_windows_are_open_ended():
    rule = DropRule(probability=0.5)
    assert rule.start == 0.0
    assert rule.end == math.inf


def _full_plan():
    return FaultPlan(
        name="p",
        wire_rules=[DropRule(dst="svr", probability=0.5, end=2.0)],
        process_faults=[RestartFault(addr="s", at=1.0, downtime=0.5)],
        handler_rules=[HandlerFaultRule(error_probability=0.1)],
    )


def test_plan_dict_round_trip():
    plan = _full_plan()
    assert FaultPlan.from_dict(plan.to_dict()) == plan


@pytest.mark.parametrize("key", ["wire_rule", "partitions", "extra"])
def test_from_dict_refuses_unknown_key(key):
    data = _full_plan().to_dict()
    data[key] = []
    with pytest.raises(ValueError, match=f"unknown fault plan key.*'{key}'"):
        FaultPlan.from_dict(data)


def test_from_dict_refuses_a_misspelled_section_instead_of_an_empty_plan():
    data = {"wire_rule": [{"type": "DropRule", "probability": 1.0}]}
    with pytest.raises(ValueError, match="'wire_rule'"):
        FaultPlan.from_dict(data)


@pytest.mark.parametrize(
    "section, entry",
    [
        ("process_faults", {"type": "DropRule", "probability": 1.0}),
        ("wire_rules", {"type": "CrashFault", "addr": "s", "at": 1.0}),
        ("handler_rules", {"type": "RestartFault", "addr": "s", "at": 1.0,
                           "downtime": 1.0}),
        ("process_faults", {"type": "HangFault", "addr": "s", "at": 0.0,
                            "duration": 1.0}),
        ("wire_rules", {"type": "PartitionWindow", "node_a": "a",
                        "node_b": "b", "start": 0.0, "end": 1.0}),
        ("wire_rules", {"probability": 1.0}),
    ],
)
def test_from_dict_refuses_a_rule_outside_its_section(section, entry):
    """The error names the rule type and the section, at load time --
    not an AttributeError later, when the plan is executed."""
    data = {section: [entry]}
    with pytest.raises(ValueError) as info:
        FaultPlan.from_dict(data)
    assert repr(entry.get("type")) in str(info.value)
    assert repr(section) in str(info.value)

"""Tests for the command-line experiment runner."""

import pytest

from repro.experiments.__main__ import TARGETS, main


def test_list_prints_targets(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert set(out) == set(TARGETS)


def test_unknown_target_errors():
    with pytest.raises(SystemExit):
        main(["figNaN"])


def test_table4_runs(capsys):
    assert main(["table4"]) == 0
    captured = capsys.readouterr()
    assert "Table IV" in captured.out
    assert "C7" in captured.out
    # Timing goes to stderr so stdout stays identical across --jobs.
    assert "[table4 done" in captured.err


def test_fig5_fig6_run(capsys):
    assert main(["fig5", "fig6"]) == 0
    out = capsys.readouterr().out
    assert "step 12: " in out
    assert "mobject_read_op -> sdskv_list_keyvals_rpc" in out


def test_fig7_runs(capsys):
    assert main(["fig7"]) == 0
    out = capsys.readouterr().out
    assert "input_deserialization_time" in out


def test_fig9_with_reduced_events(capsys):
    assert main(["fig9", "--events", "1024"]) == 0
    out = capsys.readouterr().out
    assert "handler share" in out
    assert "C1" in out and "C2" in out


def test_multiple_targets(capsys):
    assert main(["table4", "fig7"]) == 0
    out = capsys.readouterr().out
    assert "Table IV" in out and "deserialization" in out

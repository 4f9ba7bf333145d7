"""The unified ``python -m repro`` front door and the store/analysis
command lines."""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.analysis.__main__ import main as analysis_main
from repro.store.__main__ import main as store_main

from .conftest import record_echo_run


@pytest.fixture
def recorded_db(tmp_path):
    db = tmp_path / "perf.db"
    record_echo_run(db, seed=0, name="run-a")
    record_echo_run(db, seed=1, name="run-b")
    return str(db)


class TestUnifiedCli:
    def test_help_lists_commands(self, capsys):
        assert repro_main(["help"]) == 0
        out = capsys.readouterr().out
        for command in ("experiments", "validate", "analysis", "store"):
            assert command in out

    def test_no_args_is_usage_error(self, capsys):
        assert repro_main([]) == 2

    def test_unknown_command(self, capsys):
        assert repro_main(["frobnicate"]) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_dispatches_to_analysis(self, recorded_db, capsys):
        rc = repro_main(
            ["analysis", "query", "runs", "--store", recorded_db]
        )
        assert rc == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply["ok"] and reply["result"]["count"] == 2


class TestAnalysisCli:
    def test_regression_query(self, recorded_db, capsys):
        rc = analysis_main([
            "query", "regression", "--store", recorded_db,
            "--base", "run-a", "--head", "run-b",
        ])
        assert rc == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply["ok"]
        rows = reply["result"]["rows"]
        assert rows, "two runs with shared metrics must produce rows"
        for row in rows:
            assert {"metric", "base", "head", "delta", "rel_delta",
                    "ci_lo", "ci_hi", "flagged"} <= set(row)

    def test_output_is_byte_deterministic(self, recorded_db, capsys):
        argv = ["query", "detectors", "--store", recorded_db]
        assert analysis_main(argv) == 0
        first = capsys.readouterr().out
        assert analysis_main(argv) == 0
        assert capsys.readouterr().out == first

    def test_bad_query_exits_nonzero(self, recorded_db, capsys):
        rc = analysis_main([
            "query", "regression", "--store", recorded_db,
            "--base", "ghost", "--head", "run-b",
        ])
        assert rc == 1


class TestStoreCli:
    def test_info(self, recorded_db, capsys):
        assert store_main(["info", "--store", recorded_db]) == 0
        out = capsys.readouterr().out
        assert "run-a" in out and "run-b" in out

"""Out-of-range statistics parameters are refused, never answered.

A bootstrap level outside (0, 1) picks crossed or wrong quantiles, zero
resamples index an empty draw list, and a negative ``top``/``limit``
silently slices rows off the end of a reply.  Each is a ``ValueError``
naming the parameter, which the service turns into an error reply and
the command line into exit status 1.
"""

import pytest

from repro.analysis import AnalysisService, Query
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.stats import bootstrap_ci, bootstrap_delta_ci

from .conftest import record_echo_run

VALUES = [1.0, 2.0, 3.0, 4.0, 5.0]


@pytest.mark.parametrize("alpha", [1.5, -0.5, 0.0, 1.0])
def test_bootstrap_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(ValueError, match="alpha"):
        bootstrap_ci(VALUES, alpha=alpha)
    with pytest.raises(ValueError, match="alpha"):
        bootstrap_delta_ci(VALUES, VALUES, alpha=alpha)


@pytest.mark.parametrize("n_boot", [0, -3])
def test_bootstrap_rejects_fewer_than_one_resample(n_boot):
    with pytest.raises(ValueError, match="n_boot"):
        bootstrap_ci(VALUES, n_boot=n_boot)
    with pytest.raises(ValueError, match="n_boot"):
        bootstrap_delta_ci(VALUES, VALUES, n_boot=n_boot)


def test_bootstrap_rejects_bad_parameters_even_without_values():
    with pytest.raises(ValueError, match="alpha"):
        bootstrap_ci([], alpha=2.0)


def test_bootstrap_interval_is_ordered_at_valid_levels():
    for alpha in (0.01, 0.05, 0.5, 0.99):
        lo, hi = bootstrap_ci(VALUES, alpha=alpha)
        assert lo <= hi


@pytest.fixture
def service(echo_store):
    store, _ = echo_store
    return AnalysisService(store)


@pytest.mark.parametrize(
    "op, params, name",
    [
        ("profile", {"run": "1", "top": -1}, "top"),
        ("critical_path", {"run": "1", "top": -1}, "top"),
        ("blame", {"run": "1", "limit": -1}, "limit"),
        ("shards", {"run": "1", "top": -1}, "top"),
        ("regression", {"base": "1", "head": "1", "limit": -1}, "limit"),
        ("regression", {"base": "1", "head": "1", "alpha": 1.5}, "alpha"),
        ("regression", {"base": "1", "head": "1", "boot": 0}, "boot"),
        ("breakdown", {"run": "1", "alpha": -0.5}, "alpha"),
    ],
)
def test_query_rejects_out_of_range_parameter(service, op, params, name):
    reply = service.execute(Query(op, params))
    assert not reply.ok
    assert reply.error.startswith("ValueError")
    assert name in reply.error


def test_zero_top_is_an_empty_answer(service):
    reply = service.execute(Query("profile", {"run": "1", "top": 0}))
    assert reply.ok
    assert reply.result["rows"] == []


def test_cli_exits_nonzero_on_bad_alpha(tmp_path, capsys):
    db = tmp_path / "perf.db"
    record_echo_run(db, seed=0, name="run-a")
    record_echo_run(db, seed=1, name="run-b")
    rc = analysis_main([
        "query", "regression", "--store", str(db),
        "--base", "run-a", "--head", "run-b", "--alpha", "1.5",
    ])
    assert rc == 1
    assert "alpha must be in (0, 1)" in capsys.readouterr().err

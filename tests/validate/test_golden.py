"""Golden-trace corpus: the checked-in entries must reproduce, and a
corrupted corpus must produce a readable diff."""

import json

import pytest

from repro.validate.golden import (
    GOLDEN_SEED,
    check_golden,
    corpus_path,
    golden_run,
    golden_services,
    load_corpus,
    regen_golden,
)


def test_corpus_is_checked_in_and_complete():
    corpus = load_corpus()
    assert sorted(corpus) == sorted(golden_services())
    assert golden_services() == [
        "sdskv",
        "bake",
        "sonata",
        "hepnos",
        "sharded",
    ]
    for service, entry in corpus.items():
        assert set(entry) == {"digests", "summary"}
        assert set(entry["digests"]) == {
            "perfetto",
            "profile",
            "prometheus",
            "series_csv",
        }
        for digest in entry["digests"].values():
            assert len(digest) == 16
        assert service in entry["summary"]


def test_checked_in_sdskv_entry_reproduces():
    assert check_golden(services=["sdskv"]) == []


def test_all_golden_services_reproduce():
    """Every service's digests must match the checked-in corpus.  The
    corpus predates the columnar trace-buffer storage, so a clean pass
    here proves the Perfetto / Prometheus / CSV / profile outputs are
    byte-identical across the storage rewrite."""
    assert check_golden() == []


def test_golden_runs_are_strictly_validated():
    artifacts = golden_run("sdskv")
    assert artifacts.violations == []
    assert artifacts.seed == GOLDEN_SEED
    assert artifacts.rpcs_ok == 16
    assert artifacts.leaked_events == 0


def test_unknown_service_is_rejected():
    with pytest.raises(ValueError, match="unknown golden service"):
        golden_run("nope")


def test_missing_corpus_points_at_regen(tmp_path):
    with pytest.raises(FileNotFoundError, match="--regen"):
        load_corpus(tmp_path / "absent.json")


def test_corrupted_corpus_yields_readable_diff(tmp_path):
    corpus = load_corpus()
    entry = corpus["sdskv"]
    entry["digests"]["perfetto"] = "0" * 16
    entry["summary"] = entry["summary"].replace(
        "sdskv", "sdskv (tampered)", 1
    )
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))

    (mismatch,) = check_golden(path, services=["sdskv"])
    assert mismatch.service == "sdskv"
    assert "perfetto" in mismatch.changed
    rendered = mismatch.render()
    assert "--- sdskv/golden" in rendered
    assert "+++ sdskv/current" in rendered
    assert "tampered" in rendered  # the diff shows *what* moved


def test_absent_service_is_reported(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text("{}")
    (mismatch,) = check_golden(path, services=["sdskv"])
    assert mismatch.changed == ["missing from corpus"]


def test_regen_writes_a_matching_corpus(tmp_path):
    path = tmp_path / "corpus.json"
    regen_golden(path, services=["bake"])
    assert check_golden(path, services=["bake"]) == []
    # regen is additive: a second service lands next to the first
    regen_golden(path, services=["sdskv"])
    assert sorted(load_corpus(path)) == ["bake", "sdskv"]


def test_checked_in_corpus_matches_regen_format():
    """The file on disk is exactly what regen_golden writes (sorted
    keys, trailing newline) so regen never produces whitespace churn."""
    raw = corpus_path().read_text()
    assert raw.endswith("\n")
    assert raw == json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n"


def test_a_wrong_read_back_is_a_failed_op_and_fails_the_check(monkeypatch):
    from repro.services.sdskv import SdskvClient

    real_get = SdskvClient.get

    def corrupted_get(self, *args):
        value = yield from real_get(self, *args)
        return value + "!"

    monkeypatch.setattr(SdskvClient, "get", corrupted_get)
    artifacts = golden_run("sdskv")
    assert (artifacts.rpcs_ok, artifacts.rpcs_failed) == (8, 8)
    (mismatch,) = check_golden(services=["sdskv"])
    assert "+  rpcs: 8 ok, 8 failed" in mismatch.diff

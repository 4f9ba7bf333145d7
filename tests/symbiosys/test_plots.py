"""Tests for the terminal plot renderer."""

from repro.symbiosys.analysis import scatter


def test_scatter_plots_points():
    pts = [(0.0, 0.0), (1.0, 10.0), (0.5, 5.0)]
    text = scatter(pts, width=20, height=5, x_label="t", y_label="blocked")
    assert "blocked (max 10)" in text
    assert text.count("*") == 3
    assert "t: 0 .. 1" in text


def test_scatter_empty():
    assert scatter([]) == "(no samples)"


def test_scatter_overlapping_points_collapse():
    pts = [(0.0, 1.0)] * 10
    text = scatter(pts, width=10, height=4)
    assert text.count("*") == 1


def test_plots_are_pure_ascii():
    text = scatter([(0, 1), (1, 2)])
    assert text == text.encode("ascii", "replace").decode()

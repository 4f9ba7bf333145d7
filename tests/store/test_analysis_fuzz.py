"""Fuzzing the analysis service with malformed request lines: every
line gets exactly one ``ok: false`` JSON reply line, and nothing
raises."""

import json

from hypothesis import assume, given, settings, strategies as st

from repro.analysis import AnalysisService
from repro.analysis.protocol import decode_query
from repro.store import PerfStore

SERVICE = AnalysisService(PerfStore())

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.text(max_size=12),
)
_json = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=12,
)
_not_a_dict = _json.filter(lambda v: not isinstance(v, dict))
_not_a_str = _json.filter(lambda v: not isinstance(v, str))
_op = st.sampled_from(["runs", "regression", "shards", "nonsense"])


@st.composite
def _wrong_shaped(draw) -> str:
    """A JSON document that is not a valid query."""
    doc = draw(
        st.one_of(
            _not_a_dict,  # not an object at all
            st.dictionaries(  # no "op"
                st.text(max_size=8).filter(lambda k: k != "op"), _json,
                max_size=4,
            ),
            st.fixed_dictionaries({"op": _not_a_str, "params": _json}),
            st.fixed_dictionaries({"op": _op, "params": _not_a_dict}),
            st.fixed_dictionaries(
                {"op": _op, "v": _json.filter(lambda v: v != 1)}
            ),
        )
    )
    return json.dumps(doc)  # allow_nan: NaN/Infinity ride along


def _is_valid_query(line: str) -> bool:
    try:
        decode_query(line)
    except Exception:
        return False
    return True


def _check_one_error_line(line: str) -> None:
    out = SERVICE.handle_line(line)
    assert isinstance(out, str)
    assert "\n" not in out
    reply = json.loads(out)
    assert reply["ok"] is False
    assert isinstance(reply["error"], str) and reply["error"]


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=64))
def test_arbitrary_text_gets_one_error_reply(line):
    assume(not _is_valid_query(line))
    _check_one_error_line(line)


@settings(max_examples=300, deadline=None)
@given(_wrong_shaped())
def test_wrong_shaped_json_gets_one_error_reply(line):
    _check_one_error_line(line)


def test_huge_int_and_nan_fields_get_error_replies():
    for line in (
        '{"op": "runs", "v": NaN}',
        '{"op": NaN}',
        '{"op": "runs", "params": Infinity}',
        '{"op": "runs", "params": ' + "9" * 5000 + "}",
        '{"op": ' + "1" * 10 + "}",
        "[" * 100_000,
    ):
        _check_one_error_line(line)

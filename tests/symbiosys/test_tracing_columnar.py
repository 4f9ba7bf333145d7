"""Columnar TraceBuffer: the scalar hot path must materialize events
indistinguishable from the old per-event dataclass construction --
same values, same dict key orders, same int/float types."""

from repro.symbiosys.tracing import (
    _KIND_CODE,
    TRACE_DATA_KEYS,
    TRACE_PVAR_FLOAT_KEYS,
    TRACE_PVAR_INT_KEYS,
    EventKind,
    TraceBuffer,
    TraceEvent,
)

_PVARS = (5, 3, 2, 1, 0, 0, 4, 1.5e-6, 2.5e-7)


def _scalar_kwargs(**overrides):
    kw = dict(
        kind_code=_KIND_CODE[EventKind.ORIGIN_COMPLETE],
        request_id="cli0-7",
        order=3,
        lamport=41,
        local_ts=1.25e-3,
        true_ts=1.3e-3,
        rpc_name="sdskv_put",
        callpath=0xDEADBEEF,
        span_id=9,
        parent_span_id=8,
        provider_id=1,
        num_blocked=2,
        num_ready=1,
        num_running=1,
        cpu_util=0.75,
        memory_bytes=1 << 20,
        d0=2.0e-6,
        d1=9.0e-6,
        pvars=_PVARS,
    )
    kw.update(overrides)
    return kw


def _equivalent_event(process="p0", **overrides):
    kw = _scalar_kwargs(**overrides)
    code = kw["kind_code"]
    keys = TRACE_DATA_KEYS[code]
    data = dict(zip(keys, (kw["d0"], kw["d1"], kw["d2"] if "d2" in kw else 0.0)))
    pvars = {}
    if kw["pvars"] is not None:
        pvars = dict(
            zip(TRACE_PVAR_INT_KEYS + TRACE_PVAR_FLOAT_KEYS, kw["pvars"])
        )
    return TraceEvent(
        kind=EventKind.ORIGIN_COMPLETE,
        request_id=kw["request_id"],
        order=kw["order"],
        lamport=kw["lamport"],
        process=process,
        local_ts=kw["local_ts"],
        true_ts=kw["true_ts"],
        rpc_name=kw["rpc_name"],
        callpath=kw["callpath"],
        span_id=kw["span_id"],
        parent_span_id=kw["parent_span_id"],
        provider_id=kw["provider_id"],
        data=data,
        pvars=pvars,
        sysstats={
            "num_blocked": kw["num_blocked"],
            "num_ready": kw["num_ready"],
            "num_running": kw["num_running"],
            "cpu_util": kw["cpu_util"],
            "memory_bytes": kw["memory_bytes"],
        },
    )


def test_scalar_append_materializes_equal_event():
    buf = TraceBuffer("p0")
    buf.append_event(**_scalar_kwargs())
    assert len(buf) == 1
    assert buf.events[0] == _equivalent_event()


def test_materialized_dict_key_orders_are_canonical():
    """Exports serialize these dicts in insertion order, so the orders
    are part of the byte-identical-output contract."""
    buf = TraceBuffer("p0")
    buf.append_event(**_scalar_kwargs())
    ev = buf.events[0]
    assert tuple(ev.data) == TRACE_DATA_KEYS[_KIND_CODE[ev.kind]]
    assert tuple(ev.pvars) == TRACE_PVAR_INT_KEYS + TRACE_PVAR_FLOAT_KEYS
    assert tuple(ev.sysstats) == (
        "num_blocked",
        "num_ready",
        "num_running",
        "cpu_util",
        "memory_bytes",
    )


def test_materialized_value_types_survive_columns():
    """``json.dumps`` and the Zipkin tag renderer print ints and floats
    differently, so the columns must preserve the original types."""
    buf = TraceBuffer("p0")
    buf.append_event(**_scalar_kwargs())
    ev = buf.events[0]
    for name in TRACE_PVAR_INT_KEYS:
        assert type(ev.pvars[name]) is int, name
    for name in TRACE_PVAR_FLOAT_KEYS:
        assert type(ev.pvars[name]) is float, name
    assert type(ev.sysstats["memory_bytes"]) is int
    assert type(ev.sysstats["cpu_util"]) is float
    assert type(ev.order) is int
    assert type(ev.local_ts) is float


def test_parent_none_and_no_pvars_round_trip():
    buf = TraceBuffer("p0")
    buf.append_event(
        **_scalar_kwargs(
            kind_code=_KIND_CODE[EventKind.ORIGIN_FORWARD],
            parent_span_id=None,
            pvars=None,
            d0=0.0,
            d1=0.0,
        )
    )
    ev = buf.events[0]
    assert ev.kind is EventKind.ORIGIN_FORWARD
    assert ev.parent_span_id is None
    assert ev.data == {}
    assert ev.pvars == {}


def test_events_are_materialized_once():
    buf = TraceBuffer("p0")
    buf.append_event(**_scalar_kwargs())
    first = buf.events[0]
    buf.append_event(**_scalar_kwargs(request_id="cli0-8", true_ts=2e-3))
    assert buf.events[0] is first  # cache survives later appends
    assert buf.events[0] is buf.events[0]

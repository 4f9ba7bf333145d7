"""Tests for epoch-numbered SSG views and fabric-delayed propagation.

The regression scenario: a member dies while an *older* view (recorded
before the death) is still in flight to a replica.  Without the
stale-epoch guard the late arrival resurrects the dead member; with it
the replica ignores anything at or below its current epoch.
"""

import pytest

from repro.sim import Simulator
from repro.ssg import SSGError, SSGGroup, SSGView, ViewPropagator


def test_membership_changes_bump_epoch():
    g = SSGGroup("svc")
    assert g.epoch == 0
    g.join("a")
    g.join("b")
    assert g.epoch == 2
    g.leave("a")
    assert g.epoch == 3


def test_view_snapshot_is_frozen():
    g = SSGGroup("svc", ["a", "b"])
    v = g.view()
    assert isinstance(v, SSGView)
    assert v.name == "svc"
    assert v.epoch == g.epoch
    assert v.members == ("a", "b")
    g.leave("a")
    assert v.members == ("a", "b")  # snapshot unaffected


def test_apply_view_advances_replica():
    auth = SSGGroup("svc", ["a", "b", "c"])
    replica = SSGGroup("svc", ["a", "b", "c"])
    replica.epoch = auth.epoch
    auth.leave("b")
    assert replica.apply_view(auth.view()) is True
    assert replica.members == ["a", "c"]
    assert replica.epoch == auth.epoch


def test_apply_view_rejects_wrong_group():
    g = SSGGroup("svc", ["a"])
    with pytest.raises(SSGError):
        g.apply_view(SSGView(name="other", epoch=99, members=("a",)))


def test_stale_epoch_view_cannot_resurrect_dead_member():
    """The regression: a view recorded *before* a death arrives at a
    replica *after* the death view did.  The dead member must stay
    dead."""
    auth = SSGGroup("svc", ["a", "b", "c"])
    replica = SSGGroup("svc", ["a", "b", "c"])
    replica.epoch = auth.epoch

    in_flight = auth.view()  # epoch E, still includes "c"
    auth.leave("c")          # "c" dies -> epoch E+1
    death_view = auth.view()

    assert replica.apply_view(death_view) is True
    assert "c" not in replica
    # The delayed pre-death view arrives late: must be ignored.
    assert replica.apply_view(in_flight) is False
    assert "c" not in replica
    assert replica.epoch == death_view.epoch


def test_equal_epoch_view_is_stale():
    g = SSGGroup("svc", ["a", "b"])
    assert g.apply_view(g.view()) is False


def test_propagator_delivers_views_over_simulated_delay():
    sim = Simulator()
    auth = SSGGroup("svc", ["a", "b"])
    replica = SSGGroup("svc", ["a", "b"])
    replica.epoch = auth.epoch
    prop = ViewPropagator(sim, base_delay=2e-6)
    prop.register(replica)

    auth.leave("b")
    prop.propagate(auth.view())
    assert replica.members == ["a", "b"]  # not yet delivered
    sim.run()
    assert replica.members == ["a"]
    assert replica.epoch == auth.epoch


def test_propagator_out_of_order_delivery_hits_stale_guard():
    """Fabric reordering: the pre-death view is delayed past the death
    view.  Delivery order inverts, the stale guard must hold."""
    sim = Simulator()
    auth = SSGGroup("svc", ["a", "b", "c"])
    replica = SSGGroup("svc", ["a", "b", "c"])
    replica.epoch = auth.epoch
    prop = ViewPropagator(sim, base_delay=1e-6)
    prop.register(replica)

    slow_view = auth.view()          # epoch E (includes "c")
    auth.leave("c")
    fast_view = auth.view()          # epoch E+1 (death)
    prop.propagate(slow_view, delay=10e-6)
    prop.propagate(fast_view, delay=1e-6)
    sim.run()
    assert "c" not in replica
    assert replica.epoch == fast_view.epoch
    assert prop.stale_drops == 1


def test_propagator_staggers_replicas_deterministically():
    sim = Simulator()
    auth = SSGGroup("svc", ["a", "b"])
    replicas = [SSGGroup("svc", ["a", "b"]) for _ in range(3)]
    prop = ViewPropagator(sim, base_delay=1e-6, stagger=0.5e-6)
    for r in replicas:
        prop.register(r)
    auth.leave("b")
    prop.propagate(auth.view())
    arrival = []
    for r in replicas:
        assert sim.run_until(lambda r=r: r.epoch == auth.epoch, limit=1.0)
        arrival.append(sim.now)
    assert arrival[0] < arrival[1] < arrival[2]


def test_view_member_set_is_built_once():
    v = SSGGroup("svc", ["a", "b", "c"]).view()
    assert v.member_set == frozenset({"a", "b", "c"})
    assert v.member_set is v.member_set  # built once per view

"""Tests for SSG group membership."""

import pytest
from hypothesis import given, strategies as st

from repro.ssg import SSGError, SSGGroup, SSGView


def test_create_with_members_assigns_ranks_in_order():
    g = SSGGroup("svc", ["a", "b", "c"])
    assert g.members == ["a", "b", "c"]


def test_group_ids_unique():
    assert SSGGroup("x").group_id != SSGGroup("x").group_id


def test_join_returns_rank():
    g = SSGGroup("svc")
    assert g.join("a") == 0
    assert g.join("b") == 1
    assert "a" in g and "z" not in g


def test_duplicate_join_rejected():
    g = SSGGroup("svc", ["a"])
    with pytest.raises(SSGError):
        g.join("a")


def test_leave_compacts_ranks():
    g = SSGGroup("svc", ["a", "b", "c"])
    g.leave("b")
    assert g.members == ["a", "c"]
    assert g.members.index("c") == 1


def test_leave_unknown_rejected():
    g = SSGGroup("svc", ["a"])
    with pytest.raises(SSGError):
        g.leave("z")


def test_hepnos_service_exposes_group():
    from repro.cluster import Cluster
    from repro.services.hepnos import HEPnOSService

    service = HEPnOSService.deploy(
        Cluster(stage=None), n_servers=3, servers_per_node=1,
        n_handler_es=1, n_databases=1,
    )
    assert service.group.members == ["hepnos0", "hepnos1", "hepnos2"]


@given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=12,
                unique=True))
def test_property_rank_address_roundtrip(addrs):
    g = SSGGroup("p", addrs)
    assert g.members == addrs
    assert all(addr in g for addr in addrs)


@given(
    st.lists(st.text(min_size=1, max_size=8), min_size=2, max_size=12,
             unique=True),
    st.data(),
)
def test_property_leave_preserves_relative_order(addrs, data):
    g = SSGGroup("p", addrs)
    victim = data.draw(st.sampled_from(addrs))
    g.leave(victim)
    expected = [a for a in addrs if a != victim]
    assert g.members == expected


def test_duplicate_member_at_construction_rejected():
    with pytest.raises(SSGError, match="'a'"):
        SSGGroup("g", ["a", "b", "a"])


def test_epoch_after_construction_counts_members():
    assert SSGGroup("g").epoch == 0
    assert SSGGroup("g", ["a", "b", "c"]).epoch == 3


def test_replica_shares_storage_with_its_group():
    g = SSGGroup("g", ["a", "b", "c"])
    r = g.replica()
    assert r.epoch == g.epoch
    assert r.name == g.name and r.group_id == g.group_id
    assert r.view().members is g.view().members
    assert r.members == g.members


@pytest.mark.parametrize(
    "change",
    [
        lambda r: r.join("d"),
        lambda r: r.leave("b"),
        lambda r: r.apply_view(
            SSGView(name="g", epoch=r.epoch + 1, members=("a", "c"))
        ),
    ],
    ids=["join", "leave", "apply_view"],
)
def test_replica_change_leaves_group_and_siblings_alone(change):
    g = SSGGroup("g", ["a", "b", "c"])
    r, sibling = g.replica(), g.replica()
    change(r)
    assert r.epoch == g.epoch + 1
    assert r.members != ["a", "b", "c"]
    for other in (g, sibling):
        assert other.members == ["a", "b", "c"]
        assert other.epoch == 3
        assert "b" in other and "d" not in other


def test_replicas_applying_one_view_share_its_members():
    g = SSGGroup("g", ["a", "b", "c"])
    replicas = [g.replica() for _ in range(3)]
    g.leave("b")
    view = g.view()
    for r in replicas:
        assert r.apply_view(view)
    assert all(r.view().members is view.members for r in replicas)
    assert all("b" not in r and "c" in r for r in replicas)

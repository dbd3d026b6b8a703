"""Versioned state tree with snapshot/revert, O(1) forks and an
incremental (bucketed) state-root commitment.

The VM wraps every message application in a snapshot: if the message aborts,
the tree reverts, leaving no partial writes (the transactional semantics the
paper's cross-msg failure handling relies on, §IV-B).

Structure — three read levels, newest wins:

    mutable layers   [{...}, {...}]     snapshot/commit/revert transactions
    frozen chain     F2 -> F1 -> None   immutable deltas shared across forks
    backend          StateBackend       read-only floor (in-memory default)

A snapshot pushes a new mutable layer; writes always go to the top layer;
commit folds the top layer into its parent; revert drops it.  ``fork()``
freezes the mutable base layer onto the frozen chain and hands out a clone
sharing that chain — O(delta-since-last-fork), independent of state size —
which is how block assembly/validation branch off a parent state without
copying it.  The chain is compacted once it grows past a bound, so lookup
depth and memory stay amortised O(1) per fork.

``root()`` is the state-root commitment block headers carry.  Keys are
sharded into ``n_buckets`` buckets (crc32, process-independent) with a
cached digest per bucket; writes mark their bucket dirty, and ``root()``
re-hashes only dirty buckets.  A bucket digest is the CID of the bucket's
``{key: value}`` map, i.e. sha-256 over the canonical dict framing plus
each live key's *leaf* — ``canonical_encode(key) + canonical_encode(value)``
— in key order.  Leaves are memoized per key in a map shared by a tree and
all its forks, so re-hashing a dirty bucket joins cached bytes and encodes
only the values written since they were last committed: encoding work
follows writes, not bucket or state size (``last_root_encoded`` counts it).
The memo costs one ``(value, leaf bytes)`` entry per key ever committed in
the lineage.  Bucket membership and in-bucket ordering are pure functions
of the key, so the root is independent of write order, snapshot layering,
fork history, and event-schedule perturbations (the DET determinism
contract).
"""

from __future__ import annotations

from hashlib import sha256
from typing import Any, Iterator, Optional

from repro.crypto.cid import CID, cid_of
from repro.crypto.encoding import canonical_encode
from repro.storage.backend import EMPTY_BACKEND, StateBackend, bucket_of

_DELETED = object()

#: Frozen-chain length that triggers compaction on the next fork.  Bounds
#: read-path walk depth; the collapse cost is amortised over the forks that
#: grew the chain.
_MAX_CHAIN_DEPTH = 32

#: Default bucket count for the sharded root commitment.
DEFAULT_BUCKETS = 256

#: Digest of a bucket with no live keys: the CID of the empty map.
_EMPTY_BUCKET = cid_of({}).digest


class _FrozenLayer:
    """One immutable delta in a tree's shared history.

    ``entries`` maps key -> value-or-tombstone for point reads; ``buckets``
    is the same data grouped by root bucket for incremental re-hashing.
    Never mutated after construction — forks share these by reference.
    """

    __slots__ = ("entries", "buckets", "parent", "depth")

    def __init__(
        self,
        entries: dict[str, Any],
        n_buckets: int,
        parent: Optional["_FrozenLayer"],
    ) -> None:
        self.entries = entries
        buckets: dict[int, dict[str, Any]] = {}
        for key, value in entries.items():
            buckets.setdefault(bucket_of(key, n_buckets), {})[key] = value
        self.buckets = buckets
        self.parent = parent
        self.depth = 1 + (parent.depth if parent is not None else 0)


class StateTree:
    """A layered key-value state with cheap snapshot/revert and O(1) forks."""

    def __init__(
        self,
        backend: Optional[StateBackend] = None,
        n_buckets: int = DEFAULT_BUCKETS,
    ) -> None:
        self._backend: StateBackend = backend if backend is not None else EMPTY_BACKEND
        self._frozen: Optional[_FrozenLayer] = None
        self._layers: list[dict[str, Any]] = [{}]
        self._n_buckets = n_buckets
        self._digests: Optional[list[bytes]] = None  # per-bucket, None until first root()
        self._dirty: set[int] = set()  # buckets written since digests were cached
        #: key -> (value, leaf bytes) as last committed by ``root()`` in this
        #: lineage; shared with every fork.  Valid only while the key still
        #: holds that very object (see ``set()``).
        self._leaves: dict[str, tuple[Any, bytes]] = {}
        #: Buckets re-hashed by the most recent ``root()`` call (perf gauge).
        self.last_root_rehashed = 0
        #: Leaves encoded by the most recent ``root()`` call (work counter).
        self.last_root_encoded = 0

    # ------------------------------------------------------------------
    # Reads / writes
    # ------------------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        for layer in reversed(self._layers):
            if key in layer:
                value = layer[key]
                return default if value is _DELETED else value
        frozen = self._frozen
        while frozen is not None:
            if key in frozen.entries:
                value = frozen.entries[key]
                return default if value is _DELETED else value
            frozen = frozen.parent
        return self._backend.get(key, default)

    def has(self, key: str) -> bool:
        sentinel = _DELETED
        for layer in reversed(self._layers):
            if key in layer:
                return layer[key] is not sentinel
        frozen = self._frozen
        while frozen is not None:
            if key in frozen.entries:
                return frozen.entries[key] is not sentinel
            frozen = frozen.parent
        return self._backend.has(key)

    def set(self, key: str, value: Any) -> None:
        """Store *value* at *key*.

        Stored values are immutable records: once handed to ``set()`` an
        object must never be mutated in place (actors copy, modify, then
        ``set()`` the copy).  Fork isolation depends on this, and so does
        the root's leaf memo, which reuses a key's encoding for as long as
        the key holds the *same object* — mutating it in place would leave
        the committed leaf stale.
        """
        if value is _DELETED:
            raise ValueError("reserved sentinel cannot be stored")
        self._layers[-1][key] = value
        if self._digests is not None:
            self._dirty.add(bucket_of(key, self._n_buckets))

    def delete(self, key: str) -> None:
        self._layers[-1][key] = _DELETED
        if self._digests is not None:
            self._dirty.add(bucket_of(key, self._n_buckets))

    def keys(self, prefix: str = "") -> Iterator[str]:
        """Yield live keys (sorted) that start with *prefix*."""
        merged = self._merged()
        for key in sorted(merged):
            if merged[key] is not _DELETED and key.startswith(prefix):
                yield key

    def items(self, prefix: str = "") -> Iterator[tuple[str, Any]]:
        merged = self._merged()
        for key in sorted(merged):
            value = merged[key]
            if value is not _DELETED and key.startswith(prefix):
                yield key, value

    def _chain(self) -> list[_FrozenLayer]:
        """The shared frozen layers under this tree, oldest first."""
        chain: list[_FrozenLayer] = []
        frozen = self._frozen
        while frozen is not None:
            chain.append(frozen)
            frozen = frozen.parent
        chain.reverse()
        return chain

    def _merged(self) -> dict[str, Any]:
        """Full merged map including tombstones (newest wins)."""
        merged: dict[str, Any] = dict(self._backend.items())
        for layer in self._chain():
            merged.update(layer.entries)
        for mutable in self._layers:
            merged.update(mutable)
        return merged

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def snapshot(self) -> int:
        """Push a new write layer; returns a token for sanity checking."""
        self._layers.append({})
        return len(self._layers) - 1

    def commit(self, token: Optional[int] = None) -> None:
        """Fold the top layer into its parent."""
        self._check_token(token)
        top = self._layers.pop()
        self._layers[-1].update(top)

    def revert(self, token: Optional[int] = None) -> None:
        """Discard the top layer."""
        self._check_token(token)
        popped = self._layers.pop()
        if self._digests is not None:
            # The cached digests may already reflect the discarded writes
            # (root() inside an open snapshot cleared their dirty marks), so
            # the reverted keys' buckets must be re-marked.
            for key in popped:
                self._dirty.add(bucket_of(key, self._n_buckets))

    def _check_token(self, token: Optional[int]) -> None:
        if len(self._layers) == 1:
            raise RuntimeError("no open snapshot to close")
        if token is not None and token != len(self._layers) - 1:
            raise RuntimeError(
                f"snapshot token mismatch: expected {len(self._layers) - 1}, got {token}"
            )

    @property
    def depth(self) -> int:
        """Number of open snapshot layers (0 = no transaction in flight)."""
        return len(self._layers) - 1

    @property
    def chain_depth(self) -> int:
        """Length of the shared frozen-delta chain under the mutable layers."""
        return self._frozen.depth if self._frozen is not None else 0

    # ------------------------------------------------------------------
    # Commitments
    # ------------------------------------------------------------------
    def flatten(self) -> dict[str, Any]:
        """Return the fully-merged live state as a plain dict (O(state))."""
        merged = self._merged()
        return {k: v for k, v in merged.items() if v is not _DELETED}

    def root(self) -> CID:
        """Content commitment over the full live state (the 'state root').

        Incremental: only buckets written since the previous call are
        re-hashed, the rest reuse cached digests, and a re-hashed bucket
        re-encodes only the keys whose value object changed since the
        lineage last committed them.  The commitment itself is a pure
        function of the live key/value content.
        """
        if self._digests is None:
            self._digests = [b""] * self._n_buckets
            dirty: list[int] = list(range(self._n_buckets))
        else:
            dirty = sorted(self._dirty)
        self.last_root_rehashed = len(dirty)
        self.last_root_encoded = 0
        chain = self._chain()
        overlay = self._overlay()
        digests = self._digests
        for bucket in dirty:
            digests[bucket] = self._bucket_digest(bucket, chain, overlay)
        self._dirty.clear()
        # Combine per-bucket digests directly (fixed-width, fixed-count
        # bytes need no canonical framing): one sha-256 over 32*N bytes.
        return CID(sha256(b"".join(digests)).digest())

    def _overlay(self) -> dict[int, dict[str, Any]]:
        """Mutable layers merged and grouped by bucket (tombstones kept)."""
        merged: dict[str, Any] = {}
        for layer in self._layers:
            merged.update(layer)
        overlay: dict[int, dict[str, Any]] = {}
        for key, value in merged.items():
            overlay.setdefault(bucket_of(key, self._n_buckets), {})[key] = value
        return overlay

    def _bucket_digest(
        self,
        bucket: int,
        chain: list[_FrozenLayer],
        overlay: dict[int, dict[str, Any]],
    ) -> bytes:
        content: dict[str, Any] = dict(self._backend.bucket_items(bucket, self._n_buckets))
        for layer in chain:
            entries = layer.buckets.get(bucket)
            if entries:
                content.update(entries)
        entries = overlay.get(bucket)
        if entries:
            content.update(entries)
        # Byte-identical to ``cid_of({key: _commit_value(value)})`` over the
        # live keys: canonical dict framing, then each leaf in key order.
        leaves = self._leaves
        parts: list[bytes] = []
        for key in sorted(content):
            value = content[key]
            if value is _DELETED:
                continue
            cached = leaves.get(key)
            if cached is not None and cached[0] is value:
                parts.append(cached[1])
                continue
            leaf = canonical_encode(key) + canonical_encode(_commit_value(value))
            leaves[key] = (value, leaf)
            parts.append(leaf)
            self.last_root_encoded += 1
        if not parts:
            return _EMPTY_BUCKET
        return sha256(b"d%d:" % len(parts) + b"".join(parts)).digest()

    # ------------------------------------------------------------------
    # Forks
    # ------------------------------------------------------------------
    def fork(self) -> "StateTree":
        """Branch off the current state in O(delta), sharing history.

        The mutable base layer is frozen onto the shared chain (an
        externally-invisible repacking: reads, depth and tokens are
        unchanged) and the clone points at the same chain with a fresh
        private write layer — no key/value is copied.  Cached bucket
        digests transfer to the clone and the leaf memo is shared, so its
        first ``root()`` after k writes re-hashes at most k buckets and
        encodes only the k written values.

        Forking with open snapshots leaves this tree's transaction stack
        untouched; the clone sees the merged view at depth 0 (matching the
        old ``copy()`` semantics the VM relies on).
        """
        if len(self._layers) == 1:
            base = self._layers[0]
            if base:
                self._frozen = _FrozenLayer(base, self._n_buckets, self._frozen)
                self._layers = [{}]
            if self._frozen is not None and self._frozen.depth > _MAX_CHAIN_DEPTH:
                self._frozen = self._compacted()
            shared = self._frozen
        else:
            merged: dict[str, Any] = {}
            for layer in self._layers:
                merged.update(layer)
            shared = _FrozenLayer(merged, self._n_buckets, self._frozen) if merged else self._frozen

        clone = StateTree(backend=self._backend, n_buckets=self._n_buckets)
        clone._frozen = shared
        clone._leaves = self._leaves
        if self._digests is not None:
            clone._digests = list(self._digests)
            clone._dirty = set(self._dirty)
        return clone

    def copy(self) -> "StateTree":
        """Alias for :meth:`fork` (kept for the original API)."""
        return self.fork()

    def _compacted(self) -> Optional[_FrozenLayer]:
        """Collapse the frozen chain into one layer (content-preserving).

        Tombstones survive only if they still mask a backend entry;
        otherwise they are dead weight and dropped.
        """
        merged: dict[str, Any] = {}
        for layer in self._chain():
            merged.update(layer.entries)
        backend = self._backend
        merged = {
            key: value
            for key, value in merged.items()
            if value is not _DELETED or backend.has(key)
        }
        if not merged:
            return None
        return _FrozenLayer(merged, self._n_buckets, None)


def _commit_value(value: Any) -> Any:
    """Reduce a stored value to something canonically encodable."""
    if hasattr(value, "to_canonical"):
        return value.to_canonical()
    if isinstance(value, dict):
        return {k: _commit_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_commit_value(v) for v in value]
    return value

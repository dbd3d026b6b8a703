"""Independent reference for the state-root commitment bytes.

Recomputes the root from a plain ``{key: value}`` dict (a tree's
``flatten()``) with nothing but ``cid_of`` and the bucket placement: one
CID per bucket over its ``{key: committed value}`` map, then sha-256 over
the concatenated bucket digests.  It shares no code with
``StateTree.root()`` beyond those primitives, so it can serve as the
oracle for the incremental, leaf-cached implementation.
"""

from hashlib import sha256

from repro.crypto.cid import CID, cid_of
from repro.storage.backend import bucket_of
from repro.storage.statetree import DEFAULT_BUCKETS, _commit_value


def reference_root(flat: dict, n_buckets: int = DEFAULT_BUCKETS) -> CID:
    buckets: list[dict] = [{} for _ in range(n_buckets)]
    for key, value in flat.items():
        buckets[bucket_of(key, n_buckets)][key] = _commit_value(value)
    return CID(sha256(b"".join(cid_of(bucket).digest for bucket in buckets)).digest())

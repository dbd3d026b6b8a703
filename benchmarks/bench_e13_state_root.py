"""E13 — State-root cost versus state size (ROADMAP item 3).

Each subnet validates its own traffic (§III), so the per-block state root
should cost what the block wrote, not what the subnet has accumulated.  A
block here is one fork of the previous state plus 40 balance writes to
distinct accounts, then ``root()``; the state holds 1k, 10k or 100k
accounts.

Measured per account count: the median CPU time of ``root()`` over the
blocks, and the buckets re-hashed and leaves encoded per root.  The
asserted shape is deterministic: every root encodes exactly the 40 written
leaves at every state size.  Root time is printed, not gated — the bucket
walk and the hashing still grow with the bucket population, and CPU time
depends on the host.
"""

import random
import statistics
import time

import pytest

from repro.storage.statetree import StateTree

from common import run_once, show_table, write_bench_json

ACCOUNTS = (1_000, 10_000, 100_000)
WRITES_PER_BLOCK = 40
WARMUP_BLOCKS = 5
BLOCKS = 40


def _account(index: int) -> str:
    return f"balance/t1acct{index:07d}"


def _run_accounts(n_accounts: int) -> dict:
    rng = random.Random(f"e13:{n_accounts}")
    tree = StateTree()
    for index in range(n_accounts):
        tree.set(_account(index), rng.randrange(10**9))
    tree.root()
    root_s, encoded, rehashed = [], [], []
    for block in range(WARMUP_BLOCKS + BLOCKS):
        tree = tree.fork()  # per-block state, as the chain store keeps it
        for index in rng.sample(range(n_accounts), WRITES_PER_BLOCK):
            tree.set(_account(index), rng.randrange(10**9))
        started = time.process_time()
        tree.root()
        elapsed = time.process_time() - started
        if block >= WARMUP_BLOCKS:
            root_s.append(elapsed)
            encoded.append(tree.last_root_encoded)
            rehashed.append(tree.last_root_rehashed)
    return {
        "accounts": n_accounts,
        "root_ms_p50": 1e3 * statistics.median(root_s),
        "encoded_per_root": sorted(set(encoded)),
        "rehashed_p50": statistics.median(rehashed),
    }


@pytest.mark.benchmark(group="e13")
def test_e13_state_root_cost(benchmark):
    rows = run_once(benchmark, lambda: [_run_accounts(n) for n in ACCOUNTS])

    show_table(
        f"E13 — state root per {WRITES_PER_BLOCK}-write block "
        f"(median of {BLOCKS} blocks)",
        ["accounts", "root CPU (ms)", "buckets re-hashed", "leaves encoded"],
        [
            (
                row["accounts"],
                row["root_ms_p50"],
                row["rehashed_p50"],
                ",".join(str(n) for n in row["encoded_per_root"]),
            )
            for row in rows
        ],
    )
    write_bench_json("e13_state_root", rows=rows)

    # Encoding work follows writes: every root at every state size encodes
    # exactly the block's written leaves.
    for row in rows:
        assert row["encoded_per_root"] == [WRITES_PER_BLOCK], row

"""Member nodes as child processes: process shard workers, boot failures.

A process node starts daemonic (it dies with its parent), yet with
``worker_mode="process"`` its shard workers are children of that child;
the node must still boot, serve and stop cleanly.  A node that cannot
boot raises a typed error naming the child's own exception.
"""

from __future__ import annotations

import pytest

from repro import partition_bisection
from repro.cluster import NodeUnavailable, start_process_node
from repro.serve import ServeClient


def test_process_node_with_process_shards_serves_bit_identical_plans(trio_sfs):
    node = start_process_node("pshards", worker_mode="process")
    try:
        with ServeClient(node.host, node.port) as client:
            assert client.health()["worker_mode"] == "process"
            info = client.register_fleet(trio_sfs, name="trio")
            for n in (1_000, 250_000, 777_777):
                got = client.plan(info["fingerprint"], n)
                want = partition_bisection(n, trio_sfs)
                assert got["makespan"] == float(want.makespan)
                assert got["allocation"] == [int(x) for x in want.allocation]
    finally:
        node.stop()
    assert not node.alive


def test_a_node_that_fails_to_boot_names_the_child_error():
    with pytest.raises(NodeUnavailable, match="ConfigurationError: unknown shard mode"):
        start_process_node("broken", worker_mode="bogus")

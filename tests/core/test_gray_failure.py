"""Gray failure stops every shard variant's sweep, not just the plain one.

A gray-failed shard keeps its process, NIC and QPs up but stops sweeping:
requests land in the buffers and rot until ``gray_recover()``.  The plain,
sub-sharded and pipelined shards share one sweep loop, so the gate must
hold for all three — a put to a gray shard times out at the client
deadline as ``ShardUnavailable``, and completes once the shard recovers.
"""

import pytest

from repro import HydraCluster, SimConfig
from repro.core.errors import ShardUnavailable
from repro.protocol import Status

_VARIANTS = {
    "plain": {},
    "subshard": {"subshards": 2},
    "pipelined": {"pipelined_shards": True},
}
_DEADLINE_US = 5_000


@pytest.mark.parametrize("variant", sorted(_VARIANTS))
def test_gray_shard_stalls_until_recovered(variant):
    cfg = SimConfig().with_overrides(hydra=_VARIANTS[variant])
    cluster = HydraCluster(cfg, n_server_machines=1, shards_per_server=1)
    cluster.start()
    shard = cluster.shards()[0]
    client = cluster.client(deadline_us=_DEADLINE_US)
    sim = cluster.sim
    outcome = {}

    def app():
        assert (yield from client.put(b"warm", b"v")) is Status.OK
        shard.gray_fail()
        t0 = sim.now
        with pytest.raises(ShardUnavailable):
            yield from client.put(b"k", b"v1")
        outcome["stalled_ns"] = sim.now - t0
        shard.gray_recover()
        assert (yield from client.put(b"k", b"v2")) is Status.OK
        assert (yield from client.get(b"k")) == b"v2"

    cluster.run(app())
    assert outcome["stalled_ns"] >= _DEADLINE_US * 1_000
    assert cluster.metrics.counter("shard.gray_failures").value == 1

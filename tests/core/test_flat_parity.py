"""Golden flat-vs-scalar parity: the vectorized hot paths are a pure
speedup, not a behaviour change.

``hydra.flat_hot_paths=False`` keeps the original per-object sweep, CQ
and client paths as the ordering oracle.  These tests run the same
mixed workload with schedule tracing on under both settings and assert
the BLAKE2 dispatch digests match bit for bit — every event fires at
the same time, in the same order, with the same outcome — across the
base shard, the sub-sharded and pipelined variants, tenant traffic,
replication, the durable log in both ack modes, and a mid-run shard
kill (the undeliverable-response flush path).  One test also spans the full seed stack (scalar paths on
``Simulator(legacy=True)``), the exact comparison BENCH_scale times.
"""

import pytest

from repro import HydraCluster, SimConfig
from repro.core.errors import RequestTimeout
from repro.sim import Simulator

_HYDRA = {"msg_slots_per_conn": 4}
_CLIENT = {"max_inflight_per_conn": 4}


def _mixed_procs(cluster):
    """Three default clients + one named tenant over a mixed op soup:
    puts, gets, updates, inserts, deletes, and a get_many fan-out (the
    pooled-CQE gather path)."""
    clients = [cluster.client(machine_index=0) for _ in range(3)]
    tenant = cluster.client(machine_index=0, tenant="gold")

    def app(ci, client):
        for i in range(16):
            key = b"c%d.k%d" % (ci, i % 5)
            kind = (ci + i) % 6
            try:
                if kind == 0:
                    yield from client.put(key, b"v%d.%d" % (ci, i))
                elif kind == 1:
                    yield from client.get(key)
                elif kind == 2:
                    yield from client.update(key, b"u%d" % i)
                elif kind == 3:
                    yield from client.insert(key, b"i%d" % i)
                elif kind == 4:
                    yield from client.get_many(
                        [b"c%d.k%d" % (ci, k) for k in range(4)])
                else:
                    yield from client.delete(key)
            except RequestTimeout:
                pass  # only reachable in the chaos variant

    procs = [app(ci, c) for ci, c in enumerate(clients)]
    procs.append(app(7, tenant))
    return procs


def _digest(flat, legacy=False, hydra=None, replication=0, chaos=False,
            durability=None):
    sim = Simulator(legacy=legacy)
    sim.trace_schedule()
    sections = {"hydra": dict(_HYDRA, flat_hot_paths=flat, **(hydra or {})),
                "client": dict(_CLIENT)}
    if replication:
        sections["replication"] = {"replicas": replication}
    if durability:
        sections["durability"] = {"enabled": True, "ack_mode": durability}
    cluster = HydraCluster(SimConfig().with_overrides(**sections),
                           n_server_machines=2, shards_per_server=2,
                           n_client_machines=1, sim=sim)
    cluster.start()
    procs = _mixed_procs(cluster)
    if chaos:
        procs.append(_chaos_procs(cluster))
    cluster.run(*procs)
    cluster.stop()
    return sim.schedule_digest(), sim.k_dispatched


def _chaos_procs(cluster):
    """Kill one server mid-run; a bounded-deadline client keeps hitting
    its shards so ops time out, retry and flush undeliverables."""
    sim = cluster.sim
    victim = cluster.servers[1]
    victim_shards = set(victim.shards)
    dead_keys = [k for k in (b"dead%d" % i for i in range(64))
                 if cluster.route(k) in victim_shards][:6]
    live_keys = [k for k in (b"live%d" % i for i in range(64))
                 if cluster.route(k) not in victim_shards][:6]
    doomed = cluster.client(machine_index=0, deadline_us=2_000)

    def storm():
        yield sim.timeout(40_000)
        for shard in victim.shards:
            if shard.alive:
                shard.kill()
        for dead_key, live_key in zip(dead_keys, live_keys):
            try:
                yield from doomed.get(dead_key)
            except RequestTimeout:
                pass
            try:
                yield from doomed.put(live_key, b"v")
            except RequestTimeout:
                pass

    return storm()


def test_base_shard_flat_parity():
    scalar = _digest(flat=False)
    flat = _digest(flat=True)
    assert flat == scalar
    assert flat[1] > 2_000  # the run was non-trivial


def test_flat_batched_stack_matches_seed_stack():
    """The BENCH_scale comparison: flat paths on the calendar kernel vs
    scalar paths on the seed heapq kernel — both refactors preserve
    schedules, so the digests must compose."""
    seed = _digest(flat=False, legacy=True)
    flat = _digest(flat=True, legacy=False)
    assert flat == seed


def test_subsharded_flat_parity():
    scalar = _digest(flat=False, hydra={"subshards": 2})
    flat = _digest(flat=True, hydra={"subshards": 2})
    assert flat == scalar


def test_pipelined_flat_parity():
    scalar = _digest(flat=False, hydra={"pipelined_shards": True})
    flat = _digest(flat=True, hydra={"pipelined_shards": True})
    assert flat == scalar


def test_replicated_flat_parity():
    scalar = _digest(flat=False, replication=1)
    flat = _digest(flat=True, replication=1)
    assert flat == scalar


@pytest.mark.parametrize("ack_mode", ["ack_on_flush", "ack_on_replicate"])
@pytest.mark.parametrize("variant,hydra,replication", [
    ("plain", None, 1),
    ("subshard", {"subshards": 2}, 0),
    ("pipelined", {"pipelined_shards": True}, 1),
])
def test_durable_flat_parity(variant, hydra, replication, ack_mode):
    """The durable write path (log append, and under ack_on_flush the
    group-commit wait joining the response batch) schedules identically
    on the flat and scalar paths of every shard variant."""
    kw = dict(hydra=hydra, replication=replication, durability=ack_mode)
    scalar = _digest(flat=False, **kw)
    flat = _digest(flat=True, **kw)
    assert flat == scalar
    assert flat[1] > 4_000


def test_flat_parity_under_shard_kill():
    scalar = _digest(flat=False, chaos=True)
    flat = _digest(flat=True, chaos=True)
    assert flat == scalar


def test_flat_parity_is_stable_across_reruns():
    assert _digest(flat=True) == _digest(flat=True)


def test_scalar_oracle_actually_selects_scalar_paths():
    """The flag flips real behaviour: flat mode recycles pooled CQEs,
    the scalar oracle never touches the pools."""
    for flat, expect_pool in ((True, True), (False, False)):
        cfg = SimConfig().with_overrides(
            hydra=dict(_HYDRA, flat_hot_paths=flat),
            client=dict(_CLIENT))
        cluster = HydraCluster(cfg, n_server_machines=1,
                               shards_per_server=1)
        cluster.start()
        assert cluster.shards()[0]._flat is flat
        client = cluster.client()

        def app():
            for i in range(12):
                yield from client.put(b"k%d" % i, b"v")
                yield from client.get(b"k%d" % i)

        cluster.run(app())
        recycled = sum(m.nic.wc_pool.recycled + m.nic.wc_pool.allocated
                       for m in (cluster.server_machines
                                 + cluster.client_machines))
        assert (recycled > 0) is expect_pool
        cluster.stop()

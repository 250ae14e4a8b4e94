"""What the benchmark measures: workload shapes, metric names, bounds.

This module is the single source of truth for ``BENCHMARK.json`` (see
:func:`benchmark_json`; ``python3 perfbench/run.py --write-spec``
regenerates the file and ``perfbench/tests`` checks that the committed copy
matches).  Values that ``BENCHMARK.json`` has no key for — each workload's
latency limit and the open-loop offered rate — are fixed here and echoed in
the workload's ``why`` line.

Two kinds of number are reported.  *Simulated* metrics are outputs of the
modelled cluster; for a given seed they are bit-identical on every run and
every host.  *Host* metrics are what the Python simulator costs on the
machine that runs it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = ["Workload", "Metric", "WORKLOADS", "UNGATED", "END_TO_END",
           "PER_LAYER", "LAYERS", "RUN_SECONDS", "COMMAND", "PATHS",
           "NAME_RE", "benchmark_json", "workload"]

#: Metric and workload names (the benchmark contract's name rule).
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

RUN_SECONDS = 12
COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

MS = 1_000_000
US = 1_000


@dataclass(frozen=True)
class Workload:
    """One named traffic mix against one cluster shape.

    Times are simulated nanoseconds measured from the instant the
    workload's clients start, in each of a run's independent sessions.
    ``warmup_ns`` is excluded from every metric; a call belongs to the
    measured window when it starts (or, open loop, is due) within
    ``[warmup_ns, warmup_ns + window_ns)`` and counts only if it finishes
    within ``slo_ns`` of the window's end.
    """

    name: str
    why: str
    servers: int
    shards_per_server: int
    client_machines: int
    clients: int
    keys: int
    value_bytes: int
    write_frac: float
    #: "zipf" (theta below) or "uniform" key choice.
    dist: str
    warmup_ns: int
    window_ns: int
    #: Per-call latency limit for ``slo_attainment``.
    slo_ns: int
    #: Percentile reported as ``write_tail_us``: the highest of 99/90 whose
    #: window holds at least ten write samples beyond it at this sizing.
    write_tail_pct: int
    theta: float = 0.99
    batch: int = 1
    #: "update" or "put" for the write share of the mix.
    write_op: str = "update"
    #: 0 = closed loop; > 0 = open loop at this aggregate rate (calls/s).
    offered_rate: float = 0.0
    #: Paced closed loop: fixed think time before every call.
    think_ns: int = 0
    #: > 0: attach ZooKeeper/SWAT and kill server 0 this long after start.
    kill_at_ns: int = 0
    share_transport: bool = False
    #: ``SimConfig.with_overrides`` sections.
    overrides: dict = field(default_factory=dict)


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="read_batch_zipf",
        why=("analytics reads: 95% get_many(16)/5% update, zipf 0.99 over a "
             "keyspace that fits the pointer cache; client gather loop, "
             "one-sided reads, traversal. SLO 1 ms"),
        servers=1, shards_per_server=4, client_machines=2, clients=50,
        keys=32_768, value_bytes=32, write_frac=0.05, dist="zipf",
        batch=16, warmup_ns=2 * MS, window_ns=5 * MS, slo_ns=1 * MS,
        write_tail_pct=90,
    ),
    Workload(
        name="write_durable_uniform",
        why=("durable writes: 50% get/50% update, uniform over 2x the "
             "pointer cache, 512 B values, replicas=1, ack_on_flush PM log; "
             "message path, sweep, store, ring. SLO 500 us"),
        servers=2, shards_per_server=2, client_machines=2, clients=50,
        keys=131_072, value_bytes=512, write_frac=0.5, dist="uniform",
        warmup_ns=4 * MS, window_ns=10 * MS, slo_ns=500 * US,
        write_tail_pct=99,
        overrides={
            "replication": {"replicas": 1},
            "durability": {"enabled": True, "ack_mode": "ack_on_flush"},
            # Scaled down so reclaim completes many cycles per window.
            "hydra": {"lease_min_ns": 1 * MS, "lease_max_ns": 4 * MS},
            "memory": {"reclaim_period_ns": 1 * MS},
        },
    ),
    Workload(
        name="failover_kill",
        why=("availability: 8 paced clients, 50% get/50% put, server 0 of "
             "2 killed at 40 ms, replicas=1, 200 ms ZK sessions; SWAT "
             "promotion and client retry. SLO 1 ms"),
        servers=2, shards_per_server=2, client_machines=2, clients=8,
        keys=1_024, value_bytes=32, write_frac=0.5, dist="uniform",
        warmup_ns=10 * MS, window_ns=330 * MS, slo_ns=1 * MS,
        write_tail_pct=99, think_ns=100 * US, kill_at_ns=40 * MS,
        write_op="put",
        overrides={
            "replication": {"replicas": 1},
            "coord": {"heartbeat_ns": 50 * MS, "session_timeout_ns": 200 * MS},
            "client": {"op_timeout_ns": 5 * MS},
        },
    ),
)


#: Runnable with ``--workload`` and ``--all`` but not in ``BENCHMARK.json``.
#: scale64_open is kept out of the gated set at this commit: with the
#: default client config a few percent of its users stall until the 50 ms
#: ``op_timeout_ns`` (see NOTES.md), and which ones varies with the seed, so
#: its figures spread wider than any bound the benchmark could hold.
UNGATED: tuple[Workload, ...] = (
    Workload(
        name="scale64_open",
        why=("cluster scale: 64 servers x 1 shard, 2048 open-loop Poisson "
             "users at 22 Mcalls/s sharing 64 client machines, 90% get/10% "
             "put zipf; event kernel and routing. SLO 100 us"),
        servers=64, shards_per_server=1, client_machines=64, clients=2048,
        keys=32_768, value_bytes=32, write_frac=0.1, dist="zipf",
        warmup_ns=30 * US, window_ns=200 * US, slo_ns=100 * US,
        write_tail_pct=90, offered_rate=22e6, share_transport=True,
        write_op="put",
        overrides={
            # 64 eager 64 MB arenas would not fit in host memory.
            "memory": {"arena_bytes": 2 << 20},
            "hydra": {"buckets_per_shard": 1 << 11},
        },
    ),
)


def workload(name: str) -> Workload:
    """The workload called ``name`` (KeyError if unknown)."""
    for w in WORKLOADS + UNGATED:
        if w.name == name:
            return w
    raise KeyError(name)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median a metric may worsen by (end-to-end only).
    bound: float = 0.0
    #: "sim" (deterministic per seed) or "host".
    kind: str = "sim"


END_TO_END: tuple[Metric, ...] = (
    Metric("sim_mops", "Mops/s", "higher", 0.06),
    Metric("read_mean_us", "us", "lower", 0.08),
    Metric("read_p99_us", "us", "lower", 0.25),
    Metric("write_mean_us", "us", "lower", 0.08),
    Metric("write_tail_us", "us", "lower", 0.25),
    Metric("slo_attainment", "ratio", "higher", 0.02),
    Metric("host_ops_per_s", "ops/s", "higher", 0.25, kind="host"),
    Metric("peak_rss_mb", "MB", "lower", 0.10, kind="host"),
    Metric("setup_s", "s", "lower", 0.25, kind="host"),
)

#: Program layers, named after the ``repro`` subpackages they cover, plus
#: the benchmark's own code.  Host self time is reported for each.
#:
#: No per-layer metric has a time unit unless it is measured on every
#: workload: a layer a workload never enters, or a failover timing on a
#: workload without a failover, would read exactly 0 on every run.  Those
#: are reported as shares — of the traced host time, or of the window's
#: simulated time — with the traced window's host seconds as
#: ``trace.host_s``.
LAYERS: tuple[str, ...] = (
    "sim", "rdma", "protocol", "core.client", "core.rptr", "core.shard",
    "core.store", "index", "kvmem", "replication", "durable", "coord",
    "hardware", "bench",
)

PER_LAYER: tuple[Metric, ...] = (
    Metric("sim.events_per_op", "events/op", "lower"),
    Metric("sim.host_ns_per_event", "ns", "lower", kind="host"),
    Metric("sim.now_rate", "ratio", "higher"),
    Metric("sim.heap_rate", "ratio", "lower"),
    Metric("sim.timer_reuse_rate", "ratio", "higher"),
    Metric("sim.peak_calendar", "count", "lower"),
    Metric("rdma.verbs_per_op", "verbs/op", "lower"),
    Metric("rdma.doorbells_per_verb", "ratio", "lower"),
    Metric("rdma.bytes_per_op", "B/op", "lower"),
    Metric("rdma.nic_busy_max", "ratio", "lower"),
    Metric("protocol.resp_overflow", "count", "lower"),
    Metric("protocol.bad_requests", "count", "lower"),
    Metric("client.one_sided_ratio", "ratio", "higher"),
    Metric("client.demotions_per_read", "ratio", "lower"),
    Metric("client.bucket_reads_per_read", "ratio", "lower"),
    Metric("client.traversal_races", "count", "lower"),
    Metric("client.stale_responses", "count", "lower"),
    Metric("client.retries", "count", "lower"),
    Metric("client.failover_share", "ratio", "lower"),
    Metric("rptr.hit_ratio", "ratio", "higher"),
    Metric("rptr.invalid_ratio", "ratio", "lower"),
    Metric("rptr.expired_ratio", "ratio", "lower"),
    Metric("shard.cpu_busy_mean", "ratio", "lower"),
    Metric("shard.cpu_ns_per_request", "ns", "lower"),
    Metric("shard.requests_per_probe", "ratio", "higher"),
    Metric("shard.sweeps_per_request", "ratio", "lower"),
    Metric("shard.resp_doorbells_per_request", "ratio", "lower"),
    Metric("index.mutations_versioned_per_write", "ratio", "lower"),
    Metric("kvmem.space_amp", "ratio", "lower"),
    Metric("kvmem.reclaimed_per_write", "ratio", "higher"),
    Metric("repl.rep_batch_mean", "records", "higher"),
    Metric("repl.resends", "count", "lower"),
    Metric("replica.discarded", "count", "lower"),
    Metric("durable.group_records_mean", "records", "higher"),
    Metric("durable.pm_writes_per_write", "ratio", "lower"),
    Metric("durable.pm_bytes_per_user_byte", "ratio", "lower"),
    Metric("durable.log_full", "count", "lower"),
    Metric("swat.promotion_share", "ratio", "lower"),
    Metric("swat.failovers", "count", "lower"),
    Metric("bench.read_samples", "count", "higher"),
    Metric("bench.write_samples", "count", "higher"),
    Metric("bench.error_rate", "ratio", "lower"),
    Metric("bench.slo_miss_rate", "ratio", "lower"),
    Metric("bench.blackout_share", "ratio", "lower"),
) + tuple(Metric(f"{layer}.host_self_share", "ratio", "lower", kind="host")
          for layer in LAYERS) + (
    Metric("trace.host_s", "s", "lower", kind="host"),
    Metric("trace.overhead", "ratio", "lower", kind="host"),
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document, in the benchmark contract's shape."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }

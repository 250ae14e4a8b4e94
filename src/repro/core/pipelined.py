"""Pipelined (decoupled I/O / compute) shard — the §6.2.1 ablation.

The design the paper argues *against* when RDMA is available (Fig. 5a):
dedicated I/O dispatcher threads detect requests and hand them over a
queue to worker threads that execute them.  Per request this pays a
hand-off (enqueue + wake-up + cacheline bounce) and, because two workers
now share one partition, a lock around the store.  It consumes
``io_threads + worker_threads`` cores per instance — 4x the single-
threaded design in the paper's configuration — yet delivers strictly
worse latency and throughput, which Fig. 10's "Pipeline + RDMA Write"
series quantifies.

Each I/O thread runs the shared :meth:`Shard._sweep_loop` over its own
connection partition; this class supplies only that partition, its
hand-off (enqueue the raw request) and the workers, which parse, lock,
and run the shared execute, ``_persist`` and respond steps.
"""

from __future__ import annotations

from typing import Optional

from ..config import SimConfig
from ..hardware import Core, Machine
from ..sim import Interrupt, MetricSet, RwLock, Simulator, Store
from .shard import _WRITE_HI, _WRITE_LO, Connection, Shard
from .store import ShardStore

__all__ = ["PipelinedShard"]


class PipelinedShard(Shard):
    """Shard with decoupled request detection and handling."""

    def __init__(self, sim: Simulator, config: SimConfig, shard_id: str,
                 machine: Machine, core: Core,
                 metrics: Optional[MetricSet] = None,
                 table_kind: str = "compact", numa_mode: str = "local",
                 scribble_on_reclaim: bool = False,
                 store: Optional[ShardStore] = None):
        super().__init__(sim, config, shard_id, machine, core,
                         metrics=metrics, table_kind=table_kind,
                         numa_mode=numa_mode,
                         scribble_on_reclaim=scribble_on_reclaim, store=store)
        h = self.hydra
        #: The base-class core is I/O dispatcher 0; allocate the rest in
        #: the same NUMA domain (the paper pins whole instances per domain).
        self.io_cores: list[Core] = [core]
        for i in range(1, h.pipeline_io_threads):
            self.io_cores.append(machine.allocate_core(
                f"{shard_id}.io{i}", numa_domain=core.numa_domain))
        self.worker_cores: list[Core] = [
            machine.allocate_core(f"{shard_id}.w{i}",
                                  numa_domain=core.numa_domain)
            for i in range(h.pipeline_worker_threads)
        ]
        self._queue = Store(sim)
        self._handoffs = [self._queue]
        self._store_lock = RwLock(sim)
        #: Per-I/O-thread connection partitions, re-derived only when the
        #: connection set actually changes (``_conn_gen``) instead of
        #: rebuilt every sweep.
        self._conn_cache: dict[int, list[Connection]] = {}
        self._conn_cache_gen = -1

    @property
    def cores_used(self) -> int:
        return len(self.io_cores) + len(self.worker_cores)

    def _threads(self) -> list:
        return [(self._sweep_loop(core, tid), f"{self.shard_id}.io{tid}")
                for tid, core in enumerate(self.io_cores)] + [
            (self._worker_loop(core), f"{self.shard_id}.w{wid}")
            for wid, core in enumerate(self.worker_cores)]

    # -- I/O dispatchers ------------------------------------------------------
    def _conn_pool(self, tid: int) -> list[Connection]:
        """I/O thread ``tid``'s connection partition, cached until the
        connection set changes (``_conn_gen`` bumps on connect /
        disconnect), so dropped connections are always pruned."""
        if self._conn_cache_gen != self._conn_gen:
            self._conn_cache.clear()
            self._conn_cache_gen = self._conn_gen
        conns = self._conn_cache.get(tid)
        if conns is None:
            n = len(self.io_cores)
            conns = self._conn_cache[tid] = [
                c for c in self.conns if c.conn_id % n == tid]
        return conns

    def _hand_off(self, conn, ready, batch, core):
        """Enqueue every ready request, still unparsed, for a worker."""
        for slot, payload in ready:
            # Hand off to a worker: queueing + cacheline bounce.
            yield core.execute(self.hydra.pipeline_handoff_ns)
            self._queue.put((conn, slot, payload))
        return len(ready)

    # -- workers ---------------------------------------------------------
    def _worker_loop(self, core: Core):
        """Take one handed-off request at a time and serve it end to end:
        parse, tenant admission, lock, execute, :meth:`_persist`, unlock,
        respond, flush check."""
        h = self.hydra
        queue = self._queue
        lock = self._store_lock
        # Long-lived response batch: flushed when the hand-off queue
        # drains or at the resp_doorbell_batch cap, whichever is sooner.
        batch = self._new_batch()
        try:
            while self.alive:
                conn, slot, payload = yield queue.get()
                parsed = self._parse(payload, self._flat and batch is not None)
                if parsed is None:
                    continue
                op, rid, key, value, req = parsed
                if req is not None and req.tenant and batch is not None:
                    shed = yield from self._tenant_admit(conn, slot, req,
                                                         batch, core)
                    if shed:
                        yield from self._flush_drained(batch, queue)
                        continue
                # Workers share the partition: GETs take the lock shared,
                # mutations exclusive, and mutations bounce the partition's
                # cachelines between the worker cores.
                is_write = _WRITE_LO <= op <= _WRITE_HI
                if is_write:
                    yield lock.write_acquire()
                    penalty = h.pipeline_write_penalty
                else:
                    yield lock.read_acquire()
                    penalty = h.pipeline_read_penalty
                yield core.execute(h.pipeline_lock_ns)
                result = self._execute(self.store, op, key, value)
                cost = (self.cpu.parse_ns + int(result.cost_ns * penalty)
                        + self.cpu.build_response_ns)
                if not h.rdma_write_messaging:
                    cost += self.cpu.sendrecv_server_extra_ns
                yield core.execute(cost)
                yield from self._persist(op, key, value, result, core, batch)
                if is_write:
                    lock.write_release()
                else:
                    lock.read_release()
                self._reply(conn, slot, op, rid, result, self.store, batch)
                yield from self._flush_drained(batch, queue)
        except Interrupt:
            self.alive = False

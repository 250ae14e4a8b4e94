"""The shard: HydraDB's single-threaded server-side execution unit (§4.1.1).

One shard = one pinned core + one exclusively-owned :class:`ShardStore`.
The thread does *everything*: it sweeps its per-connection request buffers
(or receive CQs in the Send/Recv ablation mode), executes the operation
against the store, replicates mutations, and RDMA-Writes the response —
no hand-offs, no locks, no context switches.

One request path serves every shard variant::

    sweep loop -> hand-off -> execute -> _persist -> respond

:meth:`Shard._sweep_loop` is the only sweep loop (gray-failure gate,
connection selection, sweep cost, per-connection poll, hand-off, batch
settle, idle sleep).  The variants differ only in their hand-off: the
plain shard executes inline on the sweeping core, the sub-sharded shard
(§6.3, ``subshard.py``) routes each request to a sub-store queue, and
the pipelined shard (§6.2.1, ``pipelined.py``) enqueues it for a worker
thread.  Whoever executes a write then calls :meth:`Shard._persist`, the
single place that holds write-ack policy: it replicates the write, then
appends it to the durable log, and every wait either joins the sweep's
response batch or is awaited inline when there is no batch.  The TCP
transport keeps its own epoll-style loop but shares parse, execute and
``_persist``.

Polling model: requests are detected by sustained polling with the
indicator format.  After ``idle_polls_before_sleep`` empty sweeps the
thread enters high-resolution sleep (§4.2.1); in the simulator the sleep
phase blocks on a doorbell and charges half a sleep quantum of detection
latency on wake-up, so the latency/CPU trade-off of the real design is
preserved without simulating dead sweeps.

Sweep scalability: three independently-ablatable layers keep server CPU
per op flat as connections x slots grow (each has a ``hydra`` knob):

* **Occupancy-word probing** (``hydra.occupancy_word``): each request
  buffer carries a 64-bit occupancy bitmap the client sets with the same
  doorbell as its slot write; a sweep probes one word per connection
  instead of every slot (§4.1.3's bucket filter applied to messaging).
* **Ready-connection scheduling** (``hydra.ready_hints``): the doorbell
  carries *which* connection fired and the shard keeps a ready set, so a
  sweep visits only dirty connections; every ``FULL_SWEEP_EVERY``-th
  sweep probes everything as a safety net, and the ready list is rotated
  so one hot connection cannot starve the rest.
* **Doorbell-batched responses + pipelined replication**
  (``hydra.resp_doorbell_batch``): responses produced by one sweep are
  buffered per connection and flushed as a single chained RDMA-Write
  post (slot order, one doorbell), and the sweep's replication waits are
  awaited once as a batch instead of stalling per request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Optional

from ..config import SimConfig
from ..hardware import Core, Machine
from ..index.export import IndexHandshake
from ..protocol import (
    Op,
    Request,
    Response,
    SlotLayout,
    Status,
    clear,
    consume,
    frame,
    frame_len,
    occ_probe,
    occ_restore,
)
from ..protocol.messages import _REQ, _RESP
from ..rdma import MemoryRegion, Nic, QpError, QueuePair, RemotePointer
from ..rdma.tcp import TcpError
from ..rdma.verbs import WcStatus
from ..sim import Gate, MetricSet, Interrupt, Simulator, Store
from .errors import LifecycleError
from .store import ShardStore, StoreResult

__all__ = ["Shard", "Connection", "WRITE_OPS", "FULL_SWEEP_EVERY"]

WRITE_OPS = frozenset({Op.PUT, Op.INSERT, Op.UPDATE, Op.DELETE})
#: With ready hints on, every N-th sweep probes all connections anyway —
#: the safety net that catches a connection whose hint was lost.
FULL_SWEEP_EVERY = 64
_conn_ids = count(1)

#: Wire opcode -> Op member: the flat parse path resolves opcodes with a
#: list index instead of the Op(...) enum call.
_OP_BY_CODE: list = [None] * (max(Op) + 1)
for _code_op in Op:
    _OP_BY_CODE[_code_op] = _code_op
_MAX_OP = int(max(Op))
#: The write opcodes are wire-contiguous (PUT..DELETE); the flat path
#: tests membership with a range compare instead of a set lookup.
_WRITE_LO, _WRITE_HI = int(Op.PUT), int(Op.DELETE)
assert all(_WRITE_LO <= int(o) <= _WRITE_HI for o in WRITE_OPS)


class _SweepBatch:
    """Deferred output of one sweep: responses + replication waits.

    Responses are buffered per connection and flushed in slot order with
    one chained post (one doorbell) per connection; replication waits
    accumulate so the sweep blocks once on the whole batch of acks
    instead of once per mutation.
    """

    __slots__ = ("resp", "rep_waits", "first_ns", "tenant_slots")

    def __init__(self):
        #: conn_id -> (conn, [(slot, encoded response), ...])
        self.resp: dict[int, tuple["Connection", list]] = {}
        self.rep_waits: list = []
        #: Sim time the oldest still-buffered response entered the batch
        #: (None while empty) — drives the age-based flush
        #: (``hydra.resp_flush_max_ns``).
        self.first_ns: Optional[int] = None
        #: Named-tenant occupancy this sweep: tenant -> slots handled.
        #: Drives the per-sweep shed cap (``qos.server_shed_slots``) and
        #: the ``shard.tenant.<t>.slots`` tallies.  Anonymous (legacy)
        #: requests are not tracked — the default path stays untouched.
        self.tenant_slots: dict[str, int] = {}


@dataclass
class Connection:
    """One client<->shard link: QP pair + the two slotted message buffers."""

    conn_id: int
    shard_qp: QueuePair
    client_qp: QueuePair
    #: Request buffer: lives on the server, written by the client.
    req_region: MemoryRegion
    req_rptr: RemotePointer
    #: Response buffer: lives on the client, written by the shard.
    resp_region: MemoryRegion
    resp_rptr: RemotePointer
    #: Client-side doorbell (fires on response-buffer writes / CQ pushes).
    client_doorbell: Gate = field(repr=False, default=None)  # type: ignore[assignment]
    #: Slot partition shared by both buffers (slot i of the request buffer
    #: pairs with slot i of the response buffer).
    layout: SlotLayout = field(repr=False, default=None)  # type: ignore[assignment]
    #: Per-slot write capabilities (client-held for requests, shard-held
    #: for responses).
    req_slot_rptrs: list[RemotePointer] = field(repr=False,
                                                default_factory=list)
    resp_slot_rptrs: list[RemotePointer] = field(repr=False,
                                                 default_factory=list)
    #: Client-held capability for the request buffer's occupancy word
    #: (None when the layout has no occupancy header).
    req_occ_rptr: Optional[RemotePointer] = field(repr=False, default=None)
    #: Slots consumed by this shard whose response has not been posted
    #: yet (``hydra.occ_announce_mask``).  The client frees a slot only
    #: after draining its response (every timeout/retry path drops the
    #: whole connection instead of reusing the slot), so an occupancy
    #: bit re-announcing one of these is provably stale.
    consumed_pending: set = field(repr=False, default_factory=set)
    #: Handshake advertisement of the shard's client-readable hash index
    #: (None = traversal unavailable; client demotes cold keys to the
    #: message path as before).
    index: Optional[IndexHandshake] = field(repr=False, default=None)
    #: Rotating probe cursor for drain-budgeted sweeps of layouts without
    #: an occupancy header, so deferred slots are reached eventually.
    sweep_cursor: int = field(repr=False, default=0)

    @property
    def n_slots(self) -> int:
        return self.layout.n_slots if self.layout is not None else 1

    def close(self) -> None:
        self.shard_qp.destroy()
        self.client_qp.destroy()


class Shard:
    """A primary shard process."""

    def __init__(self, sim: Simulator, config: SimConfig, shard_id: str,
                 machine: Machine, core: Core,
                 metrics: Optional[MetricSet] = None,
                 table_kind: str = "compact", numa_mode: str = "local",
                 scribble_on_reclaim: bool = False,
                 store: Optional[ShardStore] = None,
                 export_index: bool = True):
        self.sim = sim
        self.config = config
        self.hydra = config.hydra
        self.client_cfg = config.client
        self.qos_cfg = config.qos
        self.cpu = config.cpu
        self.shard_id = shard_id
        self.machine = machine
        self.nic: Nic = machine.nic
        self.core = core
        self.metrics = metrics or MetricSet(sim)
        self.store = store or ShardStore(
            sim, config, self.nic, core.numa_domain, shard_id,
            table_kind=table_kind, numa_mode=numa_mode,
            scribble_on_reclaim=scribble_on_reclaim,
            export_index=export_index,
        )
        self.conns: list[Connection] = []
        self.doorbell = Gate(sim)
        #: Ready-connection scheduling state: connections flagged dirty by
        #: their doorbell, drained by the next sweep (insertion-ordered).
        self._ready: dict[int, Connection] = {}
        self._rr = 0
        self._sweep_seq = 0
        #: TCP-mode state (transport == "tcp"): epoll-style ready queue.
        self.tcp_port: int = -1
        self._tcp_ready = Store(sim)
        self._tcp_conns: list = []
        #: Replication hook; installed by the HA wiring (repro.replication).
        self.replicator = None
        #: Durable write-behind log; installed by the cluster's durability
        #: wiring (repro.durable) when ``config.durability.enabled``.
        self.durable = None
        #: Gray-failure state: True = the shard thread has stopped sweeping
        #: while the process, NIC, and QPs all stay up (wedged core, lost
        #: scheduler quantum).  Heartbeats keep flowing, so SWAT never
        #: promotes — only client deadlines bound the damage.
        self._gray = False
        self._gray_gate = Gate(sim)
        self.alive = False
        #: Every store this instance owns (sub-sharded shards add theirs).
        self.stores: list[ShardStore] = [self.store]
        #: The instance's threads, sweeper first (see :meth:`_threads`).
        self._procs: list = []
        #: Hand-off queues whose requests die with the process on kill.
        self._handoffs: list[Store] = []
        # -- flat hot path (hydra.flat_hot_paths) --------------------------
        self._flat = (config.hydra.flat_hot_paths
                      and self.hydra.transport == "rdma")
        m = self.metrics
        self._c_requests = m.counter("shard.requests")
        self._c_bad_requests = m.counter("shard.bad_requests")
        #: Per-op counters indexed by the raw wire opcode — the scalar
        #: path's ``f"shard.op.{op.name}"`` lookup resolved once.
        self._c_op = [None] * (max(Op) + 1)
        for _op in Op:
            self._c_op[_op] = m.counter(f"shard.op.{_op.name}")
        self._c_index_mut = m.counter("shard.index_mutations_versioned")
        self._c_resp_overflow = m.counter("shard.resp_overflow")
        self._c_age_flushes = m.counter("shard.age_flushes")
        #: Connection-set generation: bumped on conn add/drop so holders
        #: of derived connection lists (pipelined I/O threads) re-derive
        #: them only when the set actually changed, instead of rebuilding
        #: every sweep.
        self._conn_gen = 0

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self.alive:
            raise LifecycleError(f"{self.shard_id} already running")
        self.alive = True
        if self.hydra.transport == "tcp":
            stack = self.machine.tcp
            port = 7100
            while port in stack.listeners:
                port += 1
            self.tcp_port = port
            listener = stack.listen(port)
            self.sim.process(self._tcp_acceptor(listener),
                             name=f"{self.shard_id}.accept")
        self._procs = [self.sim.process(gen, name=name)
                       for gen, name in self._threads()]
        for store in self.stores:
            if store.reclaimer._proc is None:
                store.reclaimer.start()

    def _threads(self) -> list:
        """``(generator, name)`` for each thread :meth:`start` spawns, in
        spawn order.  The plain shard runs one: the sweep loop (or the
        TCP ready-queue loop).  Variants add their executors/workers."""
        if self.hydra.transport == "tcp":
            return [(self._tcp_run(), self.shard_id)]
        return [(self._sweep_loop(self.core), self.shard_id)]

    def kill(self) -> None:
        """Crash the shard process (failure injection)."""
        self.alive = False
        for store in self.stores:
            store.reclaimer.stop()
        for proc in self._procs:
            if proc.is_alive:
                proc.interrupt("killed")
        if self.durable is not None:
            self.durable.crash()
        # Requests handed off but never picked up by an executor die with
        # the process; count them so availability experiments can see how
        # much in-flight work a failover drops on the floor.
        for queue in self._handoffs:
            if queue.items:
                self.metrics.counter("shard.dropped_handoffs").add(
                    len(queue.items))
                queue.items.clear()
        self._teardown_conns()

    def _teardown_conns(self) -> None:
        """Destroy every connection's QPs on death.

        A crashed process's QPs must not linger in the fabric (they used
        to leak after failure injection): tearing them down flips the
        peers' ``usable`` probes and turns client posts into immediate
        ``QpError`` retries instead of full operation timeouts.
        """
        for conn in list(self.conns):
            conn.close()
        self._ready.clear()

    def gray_fail(self) -> None:
        """Enter gray failure: stop sweeping, keep everything else alive.

        The agent's liveness checks (``alive`` + NIC up) still pass, the
        QPs still accept writes, so requests land in the buffers and rot.
        Every variant's sweepers stop (the gate sits in the shared sweep
        loop); sub-shard executors and pipelined workers only finish what
        was already handed off.  Chaos-injection entry point.
        """
        self._gray = True
        self.metrics.counter("shard.gray_failures").add()

    def gray_recover(self) -> None:
        """Leave gray failure and resume sweeping (buffered requests are
        picked up by the next sweep)."""
        self._gray = False
        self._gray_gate.fire()
        self.doorbell.fire()

    def store_for_key(self, key: bytes) -> ShardStore:
        """The store an out-of-band loader should install ``key`` into
        (sub-sharded instances override to route by key hash)."""
        return self.store

    def _index_export(self) -> Optional[IndexHandshake]:
        """Index advertisement for new connections.  Sub-sharded shards
        return None — one connection fronts many tables there, so a
        single bucket region cannot be advertised."""
        return self.store.index_handshake()

    # -- connection setup ------------------------------------------------
    def connect(self, client_nic: Nic,
                client_numa_domain: int = 0) -> Connection:
        """Establish a client connection (QP pair + slotted buffers).

        ``client_numa_domain`` places the response buffer on the *client*
        machine's memory — the request buffer lives on the shard's NUMA
        domain, the response buffer on the connecting client's, so both
        pollers pay consistent local-access costs.
        """
        fabric = self.nic.fabric
        client_qp, shard_qp = fabric.connect(client_nic, self.nic)
        buf = self.hydra.conn_buf_bytes
        occupancy = (self.hydra.occupancy_word
                     and self.hydra.rdma_write_messaging)
        layout = SlotLayout(buf, self.hydra.msg_slots_per_conn,
                            occupancy=occupancy)
        req_region = MemoryRegion(buf, numa_domain=self.core.numa_domain,
                                  name=f"{self.shard_id}.req")
        self.nic.register(req_region)
        resp_region = MemoryRegion(buf, numa_domain=client_numa_domain,
                                   name=f"{self.shard_id}.resp")
        client_nic.register(resp_region)
        conn = Connection(
            conn_id=next(_conn_ids),
            shard_qp=shard_qp,
            client_qp=client_qp,
            req_region=req_region,
            req_rptr=RemotePointer(req_region.rkey, 0, buf),
            resp_region=resp_region,
            resp_rptr=RemotePointer(resp_region.rkey, 0, buf),
            client_doorbell=Gate(self.sim),
            layout=layout,
            req_slot_rptrs=[
                RemotePointer(req_region.rkey, layout.offset(i),
                              layout.slot_bytes)
                for i in range(layout.n_slots)],
            resp_slot_rptrs=[
                RemotePointer(resp_region.rkey, layout.offset(i),
                              layout.slot_bytes)
                for i in range(layout.n_slots)],
            req_occ_rptr=(RemotePointer(req_region.rkey, layout.occ_offset,
                                        layout.header_bytes)
                          if occupancy else None),
            index=self._index_export(),
        )
        if self.hydra.rdma_write_messaging:
            # The doorbell carries which connection fired so the sweep
            # can visit only dirty connections (ready hints).
            req_region.subscribe(lambda _r, c=conn: self._mark_ready(c))
            resp_region.subscribe(lambda _r, c=conn: c.client_doorbell.fire())
        else:
            # Two-sided mode: pre-post receives, doorbell on CQ pushes.
            for _ in range(max(16, self.client_cfg.max_inflight_per_conn)):
                shard_qp.post_recv()
            shard_qp.recv_cq.on_push.append(
                lambda _cq, c=conn: self._mark_ready(c))
            client_qp.recv_cq.on_push.append(
                lambda _cq, c=conn: c.client_doorbell.fire())
        self.conns.append(conn)
        self._conn_gen += 1
        return conn

    def disconnect(self, conn: Connection) -> None:
        if conn in self.conns:
            self.conns.remove(conn)
            self._conn_gen += 1
        self._ready.pop(conn.conn_id, None)
        conn.close()

    # -- main loop ---------------------------------------------------------
    def _mark_ready(self, conn: Connection) -> None:
        """Doorbell callback: flag ``conn`` dirty and wake the poller."""
        if self.hydra.ready_hints:
            self._ready[conn.conn_id] = conn
        self.doorbell.fire(conn)

    def _conn_pool(self, tid: int) -> list[Connection]:
        """The connections sweeper ``tid`` owns: all of them here
        (pipelined I/O threads partition them among themselves)."""
        return self.conns

    def _select_conns(self, pool: list[Connection]) -> list[Connection]:
        """Pick the connections of ``pool`` the next sweep should probe.

        With ready hints on, only flagged connections (drained from the
        ready set); every ``FULL_SWEEP_EVERY``-th *working* sweep is a
        full sweep over the whole pool — the safety net against a lost
        hint.  The cadence advances only when a sweep actually had ready
        work, so an idle shard spinning before sleep never degenerates
        into periodic O(conns x slots) walks.  The result is rotated so
        a hot connection at the front cannot starve the rest.
        """
        if not self.hydra.ready_hints:
            picked = pool
        else:
            picked = [c for c in pool if c.conn_id in self._ready]
            if not picked:
                return []
            self._sweep_seq += 1
            if self._sweep_seq % FULL_SWEEP_EVERY == 0:
                self.metrics.counter("shard.full_sweeps").add()
                for c in pool:
                    self._ready.pop(c.conn_id, None)
                picked = pool
            else:
                for c in picked:
                    del self._ready[c.conn_id]
        if len(picked) > 1:
            self._rr = (self._rr + 1) % len(picked)
            picked = picked[self._rr:] + picked[:self._rr]
        return picked

    def _poll_conn(self, conn: Connection
                   ) -> tuple[list[tuple[int, bytes]], int]:
        """Non-blocking request sweep for one connection.

        Returns ``(ready, extra_ns)``: every ready ``(slot, payload)``
        pair plus the per-slot probe cost *beyond* what
        :meth:`_sweep_cost` already charged.  With an occupancy layout
        the sweep cost covers only the one-word probe, so the slots the
        snapshot indicates are charged here.  The word is trusted even
        on safety-net full sweeps: the client writes it in the same
        chained WQE as the frame, so — unlike a doorbell hint — it can
        never under-report a landed request.
        """
        ready: list[tuple[int, bytes]] = []
        budget = self.hydra.sweep_drain_budget
        if self.hydra.rdma_write_messaging:
            layout = conn.layout
            if layout.occupancy:
                slots, word_probes = occ_probe(
                    conn.req_region, layout.n_slots, layout.occ_offset)
                mask = self.hydra.occ_announce_mask
                probed = 0
                deferred: list[int] = []
                for pos, slot in enumerate(slots):
                    if mask and slot in conn.consumed_pending:
                        # Consumed on an earlier sweep, response still
                        # unposted: no new frame can occupy this slot
                        # yet, so the re-announced bit is stale.
                        continue
                    if budget > 0 and len(ready) >= budget:
                        # Drain budget exhausted: re-announce the rest of
                        # the snapshot and re-mark the connection ready,
                        # so one hot connection cannot dominate a sweep.
                        deferred = slots[pos:]
                        break
                    probed += 1
                    off = layout.offset(slot)
                    payload = consume(conn.req_region, off)
                    if payload is not None:
                        clear(conn.req_region, off, len(payload))
                        ready.append((slot, payload))
                        if mask:
                            conn.consumed_pending.add(slot)
                if deferred:
                    occ_restore(conn.req_region, deferred, layout.n_slots,
                                layout.occ_offset)
                    self.metrics.counter("shard.drain_deferred").add(
                        len(deferred))
                    # occ_restore bypasses write() (no doorbell): re-mark
                    # explicitly so the next sweep picks the rest up.
                    self._mark_ready(conn)
                self.metrics.counter("shard.probes").add(probed)
                self.metrics.counter("shard.probes_skipped").add(
                    layout.n_slots - probed)
                return ready, self.cpu.poll_probe_ns * (
                    probed + max(0, word_probes - 1))
            start = conn.sweep_cursor if budget > 0 else 0
            deferred_plain = False
            for i in range(layout.n_slots):
                slot = (start + i) % layout.n_slots
                if budget > 0 and len(ready) >= budget:
                    conn.sweep_cursor = slot
                    deferred_plain = True
                    break
                off = layout.offset(slot)
                payload = consume(conn.req_region, off)
                if payload is not None:
                    clear(conn.req_region, off, len(payload))
                    ready.append((slot, payload))
            if deferred_plain:
                self.metrics.counter("shard.drain_deferred").add()
                self._mark_ready(conn)
            self.metrics.counter("shard.probes").add(layout.n_slots)
            return ready, 0
        while True:
            if budget > 0 and len(ready) >= budget:
                self.metrics.counter("shard.drain_deferred").add()
                self._mark_ready(conn)
                return ready, 0
            cqe = conn.shard_qp.recv_cq.poll_one()
            if cqe is None or not cqe.ok:
                return ready, 0
            conn.shard_qp.post_recv()  # replenish
            ready.append((-1, cqe.data))

    def _sweep_cost(self, conns: list[Connection]) -> int:
        """CPU cost of probing ``conns`` once (excluding per-ready-slot
        work, which :meth:`_poll_conn` reports as it finds it)."""
        if self.hydra.rdma_write_messaging:
            # One occupancy-word probe per connection, or every slot on
            # layouts without the header.
            probes = sum(1 if c.layout.occupancy else c.n_slots
                         for c in conns)
            return self.cpu.poll_probe_ns * max(1, probes)
        return (self.cpu.cq_poll_ns * max(1, len(conns))
                + self.cpu.post_recv_ns)

    def _idle_wait(self, core: Core):
        """Idle phase after ``idle_polls_before_sleep`` empty sweeps:
        high-resolution sleep, or pegged-core busy polling when the
        ``cpu.sleep_backoff`` ablation turns sleeping off."""
        if self.cpu.sleep_backoff:
            # Block until a doorbell, then pay the average residual
            # sleep before detection.
            yield self.doorbell.wait()
            yield core.execute(self.cpu.idle_sleep_ns // 2)
        else:
            # Pure busy polling: the core stays pegged while idle
            # (modeled by accounting the whole wait as busy) but a
            # request is picked up by the very next probe.
            core.busy.add(1.0)
            yield self.doorbell.wait()
            core.busy.add(-1.0)
            yield core.execute(self.cpu.poll_probe_ns)

    def _tcp_acceptor(self, listener):
        while self.alive:
            conn = yield listener.get()
            self._tcp_conns.append(conn)
            self.sim.process(self._tcp_reader(conn),
                             name=f"{self.shard_id}.rd")

    def _tcp_reader(self, conn):
        # Kernel-side socket readiness: payloads surface on the epoll-style
        # ready queue the (single) shard thread drains.
        while self.alive and conn.open:
            payload, _n = yield conn.recv()
            self._tcp_ready.put((conn, payload))

    def _tcp_run(self):
        try:
            while self.alive:
                if self._gray:
                    yield self._gray_gate.wait()
                    continue
                conn, payload = yield self._tcp_ready.get()
                yield self.core.execute(self.cpu.poll_probe_ns)  # epoll wake
                # Epoll-style ready-queue draining: one wake handles
                # everything already queued (up to tcp_drain_batch), and
                # each connection's responses flush as one batched
                # syscall — the TCP analogue of the RDMA sweep's
                # doorbell-coalesced response flush.
                drained = [(conn, payload)]
                cap = max(1, self.hydra.tcp_drain_batch)
                while len(drained) < cap:
                    got, item = self._tcp_ready.try_get()
                    if not got:
                        break
                    drained.append(item)
                if len(drained) > 1:
                    self.metrics.counter("shard.tcp_drained").add(
                        len(drained) - 1)
                outbox: dict[int, tuple] = {}
                for c, p in drained:
                    yield from self._handle_tcp(c, p, outbox)
                for c, resps in outbox.values():
                    self.metrics.counter("shard.tcp_resp_batched").add(
                        len(resps) - 1)
                    try:
                        yield c.send_many(resps)
                    except TcpError:
                        self.metrics.counter(
                            "shard.undeliverable_responses").add(len(resps))
        except Interrupt:
            self.alive = False

    def _handle_tcp(self, conn, payload: bytes, outbox=None):
        parsed = self._parse(payload, flat=False)
        if parsed is None:
            return
        op, rid, key, value, _req = parsed
        result = self._execute(self.store, op, key, value)
        yield self.core.execute(
            self.cpu.parse_ns + result.cost_ns + self.cpu.build_response_ns)
        yield from self._persist(op, key, value, result, self.core, None)
        # No remote pointer over TCP: one-sided reads are impossible.
        resp = Response(op=op, status=result.status, req_id=rid,
                        value=result.value, version=result.version)
        data = resp.encode()
        if outbox is not None and conn.open:
            outbox.setdefault(id(conn), (conn, []))[1].append(
                (data, resp.wire_len + 40))
            return
        # send() charges the kernel TX path to this (single) shard thread —
        # the CPU toll that separates TCP mode from RDMA-Write messaging.
        try:
            yield conn.send(data, resp.wire_len + 40)
        except TcpError:
            # The connection was reset under us (injected fault or client
            # teardown): the response is undeliverable, not a shard crash.
            self.metrics.counter("shard.undeliverable_responses").add()

    def _sweep_loop(self, core: Core, tid: int = 0):
        """The one sweep loop, shared by every shard variant.

        Gray gate -> pick ready connections -> charge the sweep -> poll
        each connection -> hand its ready requests off -> settle the
        sweep's response batch -> idle sleep after
        ``idle_polls_before_sleep`` empty sweeps.  ``core`` and ``tid``
        name the sweeping thread (pipelined I/O threads each sweep their
        own partition); :meth:`_hand_off` is what the variants override.
        """
        idle_sweeps = 0
        try:
            while self.alive:
                if self._gray:
                    # Gray failure: the thread is wedged.  Doorbells still
                    # fire and QPs still deliver, but nothing sweeps until
                    # gray_recover() releases the gate.
                    yield self._gray_gate.wait()
                    continue
                pool = self._conn_pool(tid)
                if not pool:
                    yield self.doorbell.wait()
                    continue
                picked = self._select_conns(pool)
                if picked:
                    self.metrics.counter("shard.sweeps").add()
                    yield core.execute(self._sweep_cost(picked))
                else:
                    # Nothing flagged ready: one probe to check the flag.
                    yield core.execute(self.cpu.poll_probe_ns)
                processed = 0
                batch = self._new_batch()
                for conn in picked:
                    ready, extra_ns = self._poll_conn(conn)
                    if extra_ns:
                        yield core.execute(extra_ns)
                    if ready:
                        processed += yield from self._hand_off(
                            conn, ready, batch, core)
                yield from self._finish_sweep(batch)
                if processed:
                    idle_sweeps = 0
                    continue
                if (self._ready if pool is self.conns else
                        any(c.conn_id in self._ready for c in pool)):
                    continue  # a doorbell fired mid-sweep on our pool
                idle_sweeps += 1
                if idle_sweeps < self.cpu.idle_polls_before_sleep:
                    continue
                yield from self._idle_wait(core)
                idle_sweeps = 0
        except Interrupt:
            self.alive = False

    def _hand_off(self, conn: Connection, ready: list,
                  batch: Optional[_SweepBatch], core: Core):
        """Plain-shard hand-off: execute every ready request inline on the
        sweeping core.  Returns how many requests were handed off."""
        for slot, payload in ready:
            yield from self._handle(conn, slot, payload, batch)
            if self._batch_aged(batch):
                # Mid-sweep age flush: don't let early responses wait out
                # the rest of a big sweep.
                self._c_age_flushes.add()
                yield from self._finish_sweep(batch)
        return len(ready)

    # -- request execution ---------------------------------------------------
    def _parse(self, payload: bytes, flat: bool):
        """Count and parse one request frame.

        Returns ``(op, req_id, key, value, req)``, or None for a malformed
        frame.  The flat path (``hydra.flat_hot_paths``) unpacks the header
        in place and leaves ``req`` None; the scalar oracle decodes a
        :class:`Request`, which the flat path also does for a named tenant
        because admission needs the decoded identity.
        """
        self._c_requests.add()
        if not flat:
            try:
                req = Request.decode(payload)
            except (ValueError, KeyError):
                self._c_bad_requests.add()
                return None
            self._c_op[req.op].add()
            return req.op, req.req_id, req.key, req.value, req
        base = _REQ.size
        if len(payload) >= base:
            op, tlen, klen, vlen, rid = _REQ.unpack_from(payload, 0)
            end = base + klen
            if len(payload) == end + vlen + tlen and 1 <= op <= _MAX_OP:
                self._c_op[op].add()
                return (op, rid, payload[base:end], payload[end:end + vlen],
                        Request.decode(payload) if tlen else None)
        self._c_bad_requests.add()
        return None

    def _execute(self, store: ShardStore, op: int, key: bytes,
                 value: bytes) -> StoreResult:
        """The one opcode -> store dispatch, for every execute site.

        ``op`` is a raw wire opcode or an :class:`Op` (both parse paths
        only yield valid opcodes).  Mutations that version-bump exported
        index buckets are counted here.
        """
        if op == 1:  # GET
            return store.get(key)
        if op <= 4:  # PUT / INSERT / UPDATE
            result = store.upsert(key, value, _OP_BY_CODE[op])
        elif op == 5:  # DELETE
            result = store.remove(key)
        else:
            return store.lease_renew(key)
        if result.status is Status.OK and store.export is not None:
            self._c_index_mut.add()
        return result

    def _persist(self, op: int, key: bytes, value: bytes,
                 result: StoreResult, core: Core,
                 batch: Optional[_SweepBatch]):
        """Make an executed write safe: the single place that holds
        write-ack policy.

        A successful write is replicated, then appended to the durable
        write-behind log.  Replication is issued after local processing;
        in rdma_log mode the shard moves on immediately and the
        secondary's merge overlaps with the *next* requests, while strict
        mode returns an ack wait.  Under ``ack_on_flush`` the durable log
        returns the group-commit flush covering the record.  Each wait
        joins ``batch`` (awaited once in :meth:`_finish_sweep`, before any
        response of the batch is flushed), or is awaited inline when there
        is no batch, so no response leaves before its write is safe.
        """
        if result.status is not Status.OK or not (
                _WRITE_LO <= op <= _WRITE_HI):
            return
        op = _OP_BY_CODE[op]
        if self.replicator is not None:
            cost, wait_ev = self.replicator.replicate(op, key, value,
                                                      result.version)
            yield core.execute(cost)
            if wait_ev is not None:
                if batch is None:
                    yield wait_ev
                else:
                    batch.rep_waits.append(wait_ev)
        if self.durable is not None:
            cost, wait_ev = self.durable.append(op, key, value,
                                                result.version)
            yield core.execute(cost)
            if wait_ev is not None:
                if batch is None:
                    yield wait_ev
                else:
                    batch.rep_waits.append(wait_ev)

    def _handle(self, conn: Connection, slot: int, payload: bytes,
                batch: Optional[_SweepBatch] = None):
        """Serve one request inline: parse, tenant admission, execute,
        :meth:`_persist`, respond.  The flat path needs the sweep batch
        (it responds through the batch buffer only)."""
        parsed = self._parse(payload, self._flat and batch is not None)
        if parsed is None:
            return
        op, rid, key, value, req = parsed
        if req is not None and req.tenant and batch is not None:
            shed = yield from self._tenant_admit(conn, slot, req, batch,
                                                 self.core)
            if shed:
                return
        result = self._execute(self.store, op, key, value)
        cost = (self.cpu.parse_ns + result.cost_ns
                + self.cpu.build_response_ns)
        if not self.hydra.rdma_write_messaging:
            cost += self.cpu.sendrecv_server_extra_ns
        yield self.core.execute(cost)
        yield from self._persist(op, key, value, result, self.core, batch)
        self._reply(conn, slot, op, rid, result, self.store, batch)

    def _tenant_admit(self, conn: Connection, slot: int, req: Request,
                      batch: _SweepBatch, core: Core):
        """Named-tenant occupancy accounting + optional per-sweep shed.

        Anonymous (legacy) requests never reach this — the default client
        path stays bit-identical.  With ``qos.server_shed_slots > 0``, a
        tenant that already consumed its slot share of the current sweep
        is refused cheaply with a typed ``Status.THROTTLED`` response
        carrying the ``qos.shed_retry_after_ns`` hint — the overload
        never reaches the store.  Returns True when the request was shed.
        """
        tname = req.tenant.decode()
        used = batch.tenant_slots.get(tname, 0) + 1
        batch.tenant_slots[tname] = used
        self.metrics.counter(f"shard.tenant.{tname}.ops").add()
        shed_cap = self.qos_cfg.server_shed_slots
        if shed_cap <= 0 or used <= shed_cap:
            return False
        self.metrics.counter("shard.shed_ops").add()
        self.metrics.counter(f"shard.tenant.{tname}.shed").add()
        yield core.execute(self.cpu.parse_ns + self.cpu.build_response_ns)
        self._respond(conn, Response(
            op=req.op, status=Status.THROTTLED, req_id=req.req_id,
            lease_expiry_ns=self.qos_cfg.shed_retry_after_ns), slot, batch)
        return True

    # -- responses ---------------------------------------------------------
    def _new_batch(self) -> Optional[_SweepBatch]:
        """A fresh sweep batch, or None when response batching is off
        (``resp_doorbell_batch`` <= 0, or the two-sided/TCP paths)."""
        if (self.hydra.resp_doorbell_batch > 0
                and self.hydra.rdma_write_messaging):
            return _SweepBatch()
        return None

    def _flush_drained(self, batch: Optional[_SweepBatch], queue: Store):
        """Settle an executor's long-lived batch once its hand-off queue
        drains, once it holds ``resp_doorbell_batch`` responses or waits
        (the queue may never drain), or once it has aged."""
        if batch is None:
            return
        cap = max(1, self.hydra.resp_doorbell_batch)
        if (not queue.items or len(batch.rep_waits) >= cap
                or sum(len(e) for _c, e in batch.resp.values()) >= cap
                or self._batch_aged(batch)):
            yield from self._finish_sweep(batch)

    def _batch_aged(self, batch: Optional[_SweepBatch]) -> bool:
        """Age-based flush trigger (``hydra.resp_flush_max_ns``): True once
        the oldest buffered response has sat longer than the bound.  Keeps
        doorbell batching from adding unbounded latency when the sweep or
        queue feeding the batch is long/slow (trickle load, giant sweeps)."""
        max_ns = self.hydra.resp_flush_max_ns
        if batch is None or max_ns <= 0 or batch.first_ns is None:
            return False
        return self.sim.now - batch.first_ns >= max_ns

    def _respond(self, conn: Connection, resp: Response, slot: int = 0,
                 batch: Optional[_SweepBatch] = None) -> None:
        if slot >= 0:
            # From here the response is on its way (buffered or posted):
            # the slot may legitimately carry a new frame once the client
            # drains it, so stop treating announce bits for it as stale.
            conn.consumed_pending.discard(slot)
        data = resp.encode()
        if self.hydra.rdma_write_messaging:
            rptr = conn.resp_slot_rptrs[max(slot, 0)]
            if frame_len(len(data)) > rptr.length:
                # The item outgrew the response slot (e.g. it was PUT over
                # a bigger-buffered connection): degrade to an ERROR reply
                # rather than silently dropping — the client sees a clean
                # failure instead of a timeout.
                self.metrics.counter("shard.resp_overflow").add()
                resp = Response(op=resp.op, status=Status.ERROR,
                                req_id=resp.req_id)
                data = resp.encode()
            if batch is not None:
                if batch.first_ns is None:
                    batch.first_ns = self.sim.now
                batch.resp.setdefault(conn.conn_id, (conn, []))[1].append(
                    (max(slot, 0), data))
                return
        try:
            if self.hydra.rdma_write_messaging:
                conn.shard_qp.post_write(rptr, frame(data))
                self.metrics.counter("shard.resp_doorbells").add()
            else:
                conn.shard_qp.post_send(data)
        except QpError:
            # The client tore the connection down (failover retry or
            # teardown) between issuing the request and this response:
            # the response is undeliverable, not a shard failure.
            self.metrics.counter("shard.undeliverable_responses").add()
        # Fire-and-forget: the shard moves to the next request buffer
        # without waiting for the completion (§4.1.1).

    def _reply(self, conn: Connection, slot: int, op: int, rid: int,
               result: StoreResult, store: ShardStore,
               batch: Optional[_SweepBatch]) -> None:
        """Respond to an executed request: packed straight to wire bytes
        on the flat path (which needs a batch), through a
        :class:`Response` object on the scalar oracle."""
        if self._flat and batch is not None:
            self._respond_flat(conn, slot, op, rid, result, store, batch)
            return
        ok = result.status is Status.OK
        self._respond(conn, Response(
            op=op, status=result.status, req_id=rid, value=result.value,
            rkey=store.region.rkey if ok and result.offset >= 0 else 0,
            roffset=max(result.offset, 0),
            rlen=result.extent,
            lease_expiry_ns=result.lease_expiry_ns,
            version=result.version,
        ), slot, batch)

    def _respond_flat(self, conn: Connection, slot: int, op: int, rid: int,
                      result, store: ShardStore,
                      batch: _SweepBatch) -> None:
        """Buffer one response packed straight to wire bytes — the
        batched branch of :meth:`_respond` without the Response object."""
        conn.consumed_pending.discard(slot)
        status = result.status
        value = result.value
        offset = result.offset
        data = _RESP.pack(op, status, 0, len(value), rid,
                          (store.region.rkey
                           if status is Status.OK and offset >= 0 else 0),
                          offset if offset > 0 else 0,
                          result.extent, result.lease_expiry_ns,
                          result.version) + value
        if frame_len(len(data)) > conn.resp_slot_rptrs[slot].length:
            self._c_resp_overflow.add()
            data = _RESP.pack(op, Status.ERROR, 0, 0, rid, 0, 0, 0, 0, 0)
        if batch.first_ns is None:
            batch.first_ns = self.sim.now
        batch.resp.setdefault(conn.conn_id, (conn, []))[1].append(
            (slot, data))

    def _count_undeliverable(self, batch_ev) -> None:
        """Batch-completion callback: count responses whose WQE failed to
        post at all (stale rkey, dead NIC — surfaced as ``LOCAL_QP_ERR``).
        Later transport-level failures are retried by the NIC and are not
        undeliverable from the shard's point of view."""
        wcs = batch_ev.value
        bad = sum(1 for wc in wcs
                  if not wc.ok and wc.status is WcStatus.LOCAL_QP_ERR)
        if bad:
            self.metrics.counter("shard.undeliverable_responses").add(bad)
        if self._flat:
            # The shard is the chain's only consumer: recycle the pooled
            # CQE records for the next doorbell-coalesced flush.
            release = self.nic.wc_pool.release
            for wc in wcs:
                if wc._live:
                    release(wc)

    def _flush_conn(self, conn: Connection, entries: list) -> None:
        """Flush one connection's buffered responses.

        Responses land in slot order before the (single) doorbell: the
        chain is posted slot-sorted on the RC QP, whose in-order delivery
        makes every frame visible to the client no later than the last
        write of the chain.  Chains longer than ``resp_doorbell_batch``
        are split, one doorbell per chain.
        """
        entries.sort(key=lambda e: e[0])
        cap = max(1, self.hydra.resp_doorbell_batch)
        for i in range(0, len(entries), cap):
            chunk = entries[i:i + cap]
            chain = [(conn.resp_slot_rptrs[slot], frame(data))
                     for slot, data in chunk]
            try:
                batch_ev = conn.shard_qp.post_write_batch(chain)
            except QpError:
                self.metrics.counter("shard.undeliverable_responses").add(
                    len(chunk))
                continue
            self.metrics.counter("shard.resp_doorbells").add()
            self.metrics.counter("shard.resp_coalesced").add(len(chunk) - 1)
            batch_ev.callbacks.append(self._count_undeliverable)

    def _finish_sweep(self, batch: Optional[_SweepBatch]):
        """Settle one sweep: wait once on the batch of replication acks,
        then flush every connection's buffered responses."""
        if batch is None:
            return
        if batch.rep_waits:
            self.metrics.tally("shard.rep_batch").observe(
                len(batch.rep_waits))
            yield self.sim.all_of(batch.rep_waits)
            batch.rep_waits.clear()
        if batch.resp:
            for conn, entries in list(batch.resp.values()):
                self._flush_conn(conn, entries)
            batch.resp.clear()
        if batch.tenant_slots:
            for tname, used in batch.tenant_slots.items():
                self.metrics.tally(f"shard.tenant.{tname}.slots").observe(
                    used)
            batch.tenant_slots.clear()
        batch.first_ns = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Shard {self.shard_id} conns={len(self.conns)} " \
               f"{'up' if self.alive else 'down'}>"

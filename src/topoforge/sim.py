"""Deterministic discrete-event execution of a validated topology.

Virtual time, single-threaded event loop, seeded randomness: identical
(topology, seed, workload) inputs produce identical reports.  Entities clone
the runtime's sequential-downstream semantics; links model the impairment
options.

Events: a packet costs one per link it crosses and one per service that
handles it.  A link decides a packet's departure, loss, corruption,
duplication and delay when the packet is handed off, and schedules only its
arrival; a router hands a packet on when its processing ends, with no event
of its own.  A heap entry carries one argument for its callback; hops,
reversed routes and deadline queues are resolved once per world.

Reliability is per exchange (one request/response round trip).  An exchange
retransmits its request at issue + k * rto while that is before its deadline,
and fails at the deadline.  The terminal service executes a request at most
once: the exchange records that its request is being served and then caches
the reply, which a retransmission gets resent.  That state lives and dies
with the exchange, and a late copy of a request or response whose exchange
has finished is dropped.

Every timer is armed at now plus one of a few constants (the rto and each
class's deadline), so the timers of one constant fire in the order they were
armed.  Each constant keeps them in a FIFO whose head alone has an event in
the heap (the fixed-interval case of Varghese & Lauck, "Hashed and
Hierarchical Timing Wheels", SOSP 1987).  A finishing exchange cancels its
timers, so the queues hold only the timers of live exchanges.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
import struct
from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass, replace
from functools import partial
from itertools import accumulate, chain, count, repeat

from .errors import WorkloadUnreachableError
from .model import ImpairmentSpec
from .netplan import impairment_timeline, timer_window
from .validation import ValidatedTopology

MS = 1_000.0
S = 1_000_000.0
DIGEST_BLOCK = 4096  # event times hashed per sha256 update
# where workload requests start and end: not an entity name (model.NAME_RE)
CLIENT = "<client>"


@dataclass(frozen=True)
class ModelParams:
    """Model constants; documented defaults, all overridable."""

    service_proc_us: float = 10.0  # per message handled by a service
    router_proc_us: float = 1.0  # per packet forwarded by a router
    rto_us: float = 200 * MS  # retransmission timeout
    request_deadline_us: float = 1 * S  # client-level per-request deadline
    downstream_timeout_us: float = 5 * S  # per-downstream-call timeout
    request_bytes: int = 128  # HTTP request size model
    header_bytes: int = 128  # response = psize + this
    queue_limit: int = 1000  # packets queued per shaped link direction (netem default)


@dataclass(frozen=True)
class Workload:
    service: str
    entrypoint: str = "/"
    mode: str = "closed"  # closed | open
    clients: int = 1  # closed-loop population
    rate: float | None = None  # open-loop offered req/s
    duration_s: float = 1.0
    start_s: float = 0.0  # virtual time at which the load begins

    def __post_init__(self):
        if self.mode == "closed" and self.clients < 1:
            raise ValueError("closed-loop workload needs clients >= 1")
        if self.mode == "open" and not (self.rate and self.rate > 0):
            raise ValueError("open-loop workload needs rate > 0")
        if self.mode not in ("closed", "open"):
            raise ValueError(f"unknown workload mode {self.mode!r}")
        if not self.duration_s > 0:
            raise ValueError("workload needs duration_s > 0")
        if not self.start_s >= 0:
            raise ValueError("workload needs start_s >= 0")
        if not all(map(math.isfinite, (self.duration_s, self.start_s, self.rate or 0.0))):
            raise ValueError("workload needs a finite duration_s, start_s and rate")


@dataclass
class SimReport:
    issued: int
    completed: int
    failed: int
    achieved_rate: float  # completions inside the load window, per virtual second
    rtt_mean_us: float
    rtt_p50_us: float
    rtt_p99_us: float
    entity_bytes: dict[str, dict[str, int]]  # name -> {"rx": .., "tx": ..}
    link_bytes: dict[str, dict[str, int]]  # "a->b" -> tx/rx/dropped/corrupted
    timer_events: list[tuple[float, str, str]]  # (time s, link, option)
    event_digest: str

    def to_dict(self) -> dict:
        return {
            "issued": self.issued,
            "completed": self.completed,
            "failed": self.failed,
            "achieved_rate": self.achieved_rate,
            "rtt": {
                "count": self.completed,
                "mean_us": self.rtt_mean_us,
                "p50_us": self.rtt_p50_us,
                "p99_us": self.rtt_p99_us,
            },
            "entity_bytes": self.entity_bytes,
            "link_bytes": self.link_bytes,
            "timer_events": [list(e) for e in self.timer_events],
            "event_digest": self.event_digest,
        }

    def to_text(self) -> str:
        lines = [
            f"requests     issued={self.issued} completed={self.completed} failed={self.failed}",
            f"rate         {self.achieved_rate:.1f} req/s",
            f"rtt          n={self.completed} mean={self.rtt_mean_us:.1f}us "
            f"p50={self.rtt_p50_us:.1f}us p99={self.rtt_p99_us:.1f}us",
            "entity bytes:",
        ]
        for name, b in self.entity_bytes.items():
            lines.append(f"  {name:<20} rx={b['rx']:<12} tx={b['tx']}")
        lines.append("link bytes:")
        for name, b in self.link_bytes.items():
            lines.append(
                f"  {name:<24} tx={b['tx']:<10} rx={b['rx']:<10} "
                f"dropped={b['dropped']:<8} corrupted={b['corrupted']}"
            )
        for t, link, option in self.timer_events:
            lines.append(f"timer        t={t}s {link} {option}")
        lines.append(f"event digest {self.event_digest}")
        return "\n".join(lines) + "\n"


@dataclass(slots=True)
class Message:
    kind: str  # request | response
    exchange_id: int
    route: tuple[str, ...]
    index: int  # current position within route
    size: int
    ok: bool = True
    corrupted: bool = False


class _LinkDir:
    """One direction of a link: serialization, latency, stochastic impairments.

    Deciding a packet's fate at hand-off is exact because one entity feeds
    each direction, in non-decreasing hand-off time: a service at
    ``world.now``, a router at its strictly increasing ``busy_until``.
    """

    __slots__ = (
        "world", "rng", "boundaries", "values", "shaping", "busy_until", "pending",
        "tx", "rx", "dropped", "corrupted",
    )

    def __init__(self, world: "SimWorld", spec: ImpairmentSpec):
        self.world = world
        self.rng = world.rng
        # timer timeline in µs: values[i] holds from boundaries[i - 1] on
        timeline = impairment_timeline(spec)
        self.boundaries = [t * S for t, _values in timeline[1:]]
        self.values = [values for _t, values in timeline]
        # per segment: None when unshaped, else (bits per second, queue limit)
        limit = world.params.queue_limit
        self.shaping = [
            v.rate and (v.rate.bits_per_second, limit if v.buffer_size is None else v.buffer_size)
            for v in self.values
        ]
        self.busy_until = 0.0
        self.pending: deque[float] = deque()  # departure times of queued packets
        self.tx = self.rx = self.dropped = self.corrupted = 0

    def transmit(self, msg: Message, now: float):
        boundaries = self.boundaries
        seg = bisect_right(boundaries, now) if boundaries else 0
        eff = self.values[seg]
        shaping = self.shaping[seg]
        self.tx += msg.size
        depart = now
        if shaping is not None:
            bps, limit = shaping
            pending = self.pending
            while pending and pending[0] <= now:
                pending.popleft()
            if len(pending) >= limit:
                self.dropped += msg.size
                return
            depart = (self.busy_until if self.busy_until > now else now) + msg.size * 8 / bps * S
            self.busy_until = depart
            pending.append(depart)
            if boundaries:
                eff = self.values[bisect_right(boundaries, depart)]
        if eff.loss is not None and self.rng.random() * 100.0 < eff.loss:
            self.dropped += msg.size
            return
        if eff.corrupt is not None and self.rng.random() * 100.0 < eff.corrupt:
            msg.corrupted = True
        latency = 0.0
        if eff.delay is not None:
            latency = eff.delay
            if eff.jitter is not None and eff.jitter > 0:
                latency += self.rng.uniform(-eff.jitter, eff.jitter)
            if latency < 0.0:
                latency = 0.0
            # netem-style reordering: a reordered packet skips the delay and
            # jumps ahead of earlier, still-delayed packets
            if eff.reorder is not None and self.rng.random() * 100.0 < eff.reorder:
                latency = 0.0
        dup = eff.duplicate is not None and self.rng.random() * 100.0 < eff.duplicate
        t = depart + latency
        world = self.world
        world._seq = seq = world._seq + 1
        world._heappush(world._heap, (t, seq, self._arrive, msg))
        if dup:
            self.tx += msg.size
            world.schedule_at(t, self._arrive, replace(msg))

    def _arrive(self, now: float, msg: Message):
        if msg.corrupted:
            self.corrupted += msg.size
            return  # receiver rejects the frame
        self.rx += msg.size
        self.world._deliver(now, msg)


class _TimerQueue:
    """Timers armed at now + one constant delay, so they fire in arming order.

    ``entries`` maps exchange id -> (fire time, exchange, callback) in arming
    order, with at most one entry per exchange.  Only the head has an event in
    the heap.  A finishing exchange deletes its own entry, so every entry
    belongs to a live exchange and fires without a check.
    """

    __slots__ = ("world", "delay", "entries", "scheduled")

    def __init__(self, world: "SimWorld", delay_us: float):
        self.world = world
        self.delay = delay_us
        self.entries: dict[int, tuple] = {}
        self.scheduled = False  # an event for this queue is in the heap

    def push(self, t: float, ex: "_Exchange", fn):
        self.entries[ex.eid] = (t, ex, fn)
        if not self.scheduled:
            self.scheduled = True
            self.world.schedule_at(t, self._fire)

    def _fire(self, now: float, _arg):
        entries = self.entries
        while entries:
            eid = next(iter(entries))
            t, ex, fn = entries[eid]
            if t > now:
                self.world.schedule_at(t, self._fire)
                return
            del entries[eid]
            fn(ex)
        self.scheduled = False


class _Exchange:
    """One reliable request/response round trip along a route."""

    __slots__ = (
        "world", "route", "back", "url", "deadline", "on_done", "eid", "issued_at", "served",
        "timers",
    )

    def __init__(self, world, route, back, url, timers, on_done):
        self.world = world
        self.route = route
        self.back = back  # route reversed, for the reply
        self.url = url
        self.on_done = on_done
        self.eid = eid = next(world.exchange_ids)
        self.issued_at = now = world.now
        self.deadline = deadline = now + timers.delay
        # at the terminal service: None until the request first arrives, ()
        # while it is served, then the cached (ok, psize) reply
        self.served: tuple | None = None
        world.exchanges[eid] = self
        self.timers = timers
        timers.push(deadline, self, _Exchange._expire)
        self._attempt()

    def _attempt(self):
        world = self.world
        now = world.now
        world.forward(Message("request", self.eid, self.route, 0, world.request_bytes), now)
        retry = now + world.rto_timers.delay
        if retry < self.deadline:
            world.rto_timers.push(retry, self, _Exchange._attempt)

    def _expire(self):
        self.finish(False)

    def finish(self, ok: bool):
        del self.world.exchanges[self.eid]
        self.world.rto_timers.entries.pop(self.eid, None)
        self.timers.entries.pop(self.eid, None)
        self.on_done(ok, self.world.now - self.issued_at)


class _ServiceModel:
    """A service: one message at a time; a request calls its downstreams in turn."""

    __slots__ = (
        "world", "busy_until", "calls", "psizes", "header_bytes", "timeouts", "rx", "tx", "proc",
    )

    def __init__(self, world, svc_spec, paths_by_ep):
        self.world = world
        self.busy_until = 0.0
        self.proc = world.params.service_proc_us
        self.header_bytes = world.params.header_bytes
        self.timeouts = world.timers(world.params.downstream_timeout_us)
        # entrypoint -> (hops, reversed hops, url) of each downstream call
        self.calls = {
            url: [(rp.hops, rp.hops[::-1], rp.url) for rp in rps] for url, rps in paths_by_ep.items()
        }
        self.psizes = {ep.entrypoint: ep.psize for ep in svc_spec.endpoints}
        self.rx = self.tx = 0

    def on_message(self, now: float, msg: Message):
        # single-server processing: each message costs one proc slot
        self.busy_until = t = (self.busy_until if self.busy_until > now else now) + self.proc
        world = self.world
        world._seq = seq = world._seq + 1
        world._heappush(world._heap, (t, seq, self._handle, msg))

    def _handle(self, now: float, msg: Message):
        ex = self.world.exchanges.get(msg.exchange_id)
        if ex is None:
            return  # late copy for a finished exchange
        if msg.kind == "response":
            ex.finish(msg.ok)
        elif ex.served is None:
            # at-most-once: retransmits of a request in service are absorbed
            ex.served = ()
            self._call(ex, 0)
        elif ex.served:
            self._reply(ex, *ex.served)  # already answered: resend the cached reply

    def _call(self, ex: _Exchange, idx: int):
        """Start downstream ``idx`` of the served entrypoint, or reply after the last."""
        calls = self.calls[ex.url]
        if idx == len(calls):
            self._reply(ex, True, self.psizes[ex.url])
            return
        hops, back, url = calls[idx]
        _Exchange(self.world, hops, back, url, self.timeouts, partial(self._called, ex, idx))

    def _called(self, ex: _Exchange, idx: int, ok: bool, _rtt: float):
        if ok:
            self._call(ex, idx + 1)
        else:
            self._reply(ex, False, 0)

    def _reply(self, ex: _Exchange, ok: bool, psize: int):
        ex.served = (ok, psize)
        size = self.header_bytes + psize if ok else self.header_bytes
        self.world.forward(Message("response", ex.eid, ex.back, 0, size, ok), self.world.now)


class _RouterModel:
    __slots__ = ("world", "busy_until", "rx", "tx", "proc")

    def __init__(self, world):
        self.world = world
        self.busy_until = 0.0
        self.proc = world.params.router_proc_us
        self.rx = self.tx = 0

    def on_message(self, now: float, msg: Message):
        # hand off when processing ends; the link schedules the arrival
        self.busy_until = t = (self.busy_until if self.busy_until > now else now) + self.proc
        self.world.forward(msg, t)


class SimWorld:
    """Entity and link models plus the virtual-time event queue."""

    def __init__(self, topology: ValidatedTopology, seed: int = 0, params: ModelParams | None = None):
        self.topology = topology
        self.params = params or ModelParams()
        self.rng = random.Random(seed)
        self.now = 0.0
        self._heap: list = []
        self._seq = 0
        # bound here, not at import: a caller may swap ``heapq`` to count events
        self._heappush = heapq.heappush
        self._digest = hashlib.sha256()
        self._times: list[float] = []  # event times not yet hashed
        self.exchanges: dict[int, _Exchange] = {}
        self._timer_queues: dict[float, _TimerQueue] = {}
        self.rto_timers = self.timers(self.params.rto_us)
        self.request_bytes = self.params.request_bytes
        self.exchange_ids = count(1)

        self.entities: dict[str, object] = {}
        for name, spec in topology.services.items():
            self.entities[name] = _ServiceModel(self, spec, topology.paths_by_service[name])
        for name in topology.routers:
            self.entities[name] = _RouterModel(self)

        # (sender, receiver) -> that direction of their link
        self.links: dict[tuple[str, str], _LinkDir] = {}
        for (a, b), edge in sorted(topology.link_graph.items()):
            self.links[(a, b)] = _LinkDir(self, edge.impairments)
            self.links[(b, a)] = _LinkDir(self, edge.impairments)
        # (sender, receiver) -> (sender model, link direction); the client
        # is no model and reaches every service directly, with no link
        self.hops = {(a, b): (self.entities[a], link) for (a, b), link in self.links.items()}
        for name in topology.services:
            self.hops[CLIENT, name] = (None, None)
            self.hops[name, CLIENT] = (self.entities[name], None)

    # --- scheduling -----------------------------------------------------------

    def timers(self, delay_us: float) -> _TimerQueue:
        """The queue of timers armed at now + ``delay_us``."""
        queue = self._timer_queues.get(delay_us)
        if queue is None:
            queue = self._timer_queues[delay_us] = _TimerQueue(self, delay_us)
        return queue

    def schedule_at(self, t: float, fn, arg=None):
        self._seq = seq = self._seq + 1
        self._heappush(self._heap, (t, seq, fn, arg))

    def run_until(self, t_end_us: float):
        heap = self._heap
        heappop = heapq.heappop
        times = self._times
        while heap and heap[0][0] <= t_end_us:
            t, _seq, fn, arg = heappop(heap)
            self.now = t
            times.append(t)
            if len(times) == DIGEST_BLOCK:
                self._hash_times()
            fn(t, arg)
        self._hash_times()
        self.now = max(self.now, t_end_us)

    def _hash_times(self):
        times = self._times
        self._digest.update(struct.pack(f"<{len(times)}d", *times))
        times.clear()

    # --- message movement -------------------------------------------------------

    def forward(self, msg: Message, now: float):
        """Move a message from the entity at route[index] toward route[index+1]."""
        route = msg.route
        i = msg.index
        msg.index = i + 1
        model, link = self.hops[route[i], route[i + 1]]
        if model is not None:
            model.tx += msg.size
        if link is None:
            # no modeled link (external client attachment): direct handoff
            self._deliver(now, msg)
        else:
            link.transmit(msg, now)

    def _deliver(self, now: float, msg: Message):
        name = msg.route[msg.index]
        if name == CLIENT:
            ex = self.exchanges.get(msg.exchange_id)
            if ex is not None:
                ex.finish(msg.ok)
            return
        model = self.entities[name]
        model.rx += msg.size
        model.on_message(now, msg)

    def link_param(self, a: str, b: str, option: str, t_seconds: float):
        """Value of an option on the a->b link direction at a virtual time."""
        link = self.links[(a, b)]
        return getattr(link.values[bisect_right(link.boundaries, t_seconds * S)], option)

    def timer_timeline(self, horizon_s: float) -> list[tuple[float, str, str]]:
        events = []
        for key, edge in sorted(self.topology.link_graph.items()):
            for tm in edge.impairments.timers:
                for t in timer_window(tm.start, tm.duration):
                    if t <= horizon_s:
                        events.append((t, f"{key[0]}<->{key[1]}", tm.option))
        return sorted(events)


def build_sim(topology: ValidatedTopology, seed: int = 0, params: ModelParams | None = None) -> SimWorld:
    return SimWorld(topology, seed=seed, params=params)


def _percentile(values: list[float], ends: list[int], q: float) -> float:
    """The q-quantile of sorted ``values`` where value i fills positions below ``ends[i]``."""
    if not values:
        return 0.0
    n = ends[-1]
    idx = min(n - 1, max(0, int(round(q * (n - 1)))))
    return values[bisect_right(ends, idx)]


def run(world: SimWorld, workload: Workload) -> SimReport:
    """Execute a workload against a freshly built world."""
    if world._seq:
        raise ValueError("run needs a freshly built world; build another with build_sim")
    if workload.entrypoint not in world.topology.paths_by_service.get(workload.service, ()):
        raise WorkloadUnreachableError(
            f"no service '{workload.service}' with entrypoint '{workload.entrypoint}'"
        )

    start_us = workload.start_s * S
    end_us = start_us + workload.duration_s * S
    route, back = (CLIENT, workload.service), (workload.service, CLIENT)
    deadlines = world.timers(world.params.request_deadline_us)
    stats = {"issued": 0, "completed": 0, "failed": 0, "in_window": 0}
    rtts: Counter[float] = Counter()  # RTT -> requests; far fewer keys than requests

    closed = workload.mode == "closed"

    def on_done(ok: bool, rtt: float):
        if ok:
            stats["completed"] += 1
            if world.now <= end_us:
                stats["in_window"] += 1
            rtts[rtt] += 1
        else:
            stats["failed"] += 1
        if closed and world.now < end_us:
            issue()

    def issue():
        stats["issued"] += 1
        _Exchange(world, route, back, workload.entrypoint, deadlines, on_done)

    if closed:
        for _ in range(workload.clients):
            world.schedule_at(start_us, lambda _t, _arg: issue())
    else:
        # one pending arrival at a time: each arrival schedules the next
        n = int(workload.rate * workload.duration_s)
        spacing = S / workload.rate

        def arrive(_t: float, i: int):
            issue()
            if i + 1 < n:
                world.schedule_at(start_us + (i + 1) * spacing, arrive, i + 1)

        if n:
            world.schedule_at(start_us, arrive, 0)

    hard_stop = end_us + world.params.request_deadline_us + world.params.rto_us
    world.run_until(hard_stop)
    # anything still unresolved at the hard stop fails; a downstream call ends
    # with it silently, so nothing is sent or counted after the run
    for ex in list(world.exchanges.values()):
        if ex.route != route:
            ex.on_done = lambda _ok, _rtt: None
        ex.finish(False)

    values = sorted(rtts)
    ends = list(accumulate(rtts[v] for v in values))
    # summed in sorted order, one addition per request, as over a sorted list
    total_rtt = sum(chain.from_iterable(repeat(v, rtts[v]) for v in values))
    completed = stats["completed"]
    entity_bytes = {
        name: {"rx": model.rx, "tx": model.tx} for name, model in world.entities.items()
    }
    link_bytes = {
        f"{a}->{b}": {"tx": d.tx, "rx": d.rx, "dropped": d.dropped, "corrupted": d.corrupted}
        for (a, b), d in world.links.items()
    }
    return SimReport(
        issued=stats["issued"],
        completed=completed,
        failed=stats["failed"],
        achieved_rate=stats["in_window"] / workload.duration_s,
        rtt_mean_us=total_rtt / completed if completed else 0.0,
        rtt_p50_us=_percentile(values, ends, 0.50),
        rtt_p99_us=_percentile(values, ends, 0.99),
        entity_bytes=entity_bytes,
        link_bytes=link_bytes,
        timer_events=world.timer_timeline(workload.start_s + workload.duration_s),
        event_digest=world._digest.hexdigest(),
    )

"""Discrete-event harness: link models, workloads, determinism."""

import gc
import json
import math
import tracemalloc
from pathlib import Path

import pytest

import topoforge as tf
from topoforge import sim
from topoforge.errors import WorkloadUnreachableError
from topoforge.model import ImpairmentSpec, Rate
from topoforge.sim import CLIENT, MS, S, ModelParams, _Exchange, _LinkDir, build_sim, run

from conftest import DATA, delay_chain_config, loss_chain_config, make_topology

SHOP_DEMO = Path(__file__).parent.parent / "topologies" / "shop_demo.yml"


def _drive_link(spec: ImpairmentSpec, n: int, seed: int = 0, size: int = 100):
    """Push n messages through one link direction; return (world, dir, deliveries)."""
    world = build_sim(make_topology(delay_chain_config(0)), seed=seed)
    link = _LinkDir(world, spec)
    delivered = []
    world._deliver = lambda t, m: delivered.append((t, m))

    from topoforge.sim import Message

    for i in range(n):
        msg = Message(kind="request", exchange_id=i, route=("a", "b"), index=1, size=size)
        link.transmit(msg, world.now)
        world.run_until(world.now + 10 * S)
    return world, link, delivered


class TestLinkModel:
    def test_loss_fraction_converges(self):
        n = 100_000
        _w, link, delivered = _drive_link(ImpairmentSpec(loss=30.0), n, seed=11)
        assert abs(len(delivered) / n - 0.70) < 0.01

    def test_no_impairment_delivers_everything_instantly(self):
        _w, _l, delivered = _drive_link(ImpairmentSpec(), 1000)
        assert len(delivered) == 1000

    def test_delay_applied_exactly(self):
        world = build_sim(make_topology(delay_chain_config(0)), seed=0)
        link = _LinkDir(world, ImpairmentSpec(delay=500.0))
        out = []
        from topoforge.sim import Message

        world._deliver = lambda t, m: out.append(t)
        link.transmit(Message("request", 1, ("a", "b"), 1, 64), 0.0)
        world.run_until(1 * S)
        assert out == [500.0]

    def test_jitter_bounds(self):
        n = 5000
        _w, _l, delivered = _drive_link(
            ImpairmentSpec(delay=1000.0, jitter=200.0), n, seed=3
        )
        lats = [t % (10 * S) for t, _m in delivered]  # per-message send time is 10s apart
        assert len(delivered) == n
        for t, _m in delivered:
            lat = t % (10 * S)
            assert 800.0 - 1e-6 <= lat <= 1200.0 + 1e-6

    def test_corrupt_discarded_and_counted(self):
        n = 20_000
        _w, link, delivered = _drive_link(ImpairmentSpec(corrupt=25.0), n, seed=5)
        frac = 1 - len(delivered) / n
        assert abs(frac - 0.25) < 0.02
        assert link.corrupted > 0
        assert link.rx + link.corrupted == link.tx

    def test_duplicate_fraction(self):
        n = 20_000
        _w, _l, delivered = _drive_link(ImpairmentSpec(duplicate=10.0), n, seed=7)
        frac = len(delivered) / n - 1
        assert abs(frac - 0.10) < 0.02

    def test_reorder_skips_delay(self):
        n = 20_000
        _w, _l, delivered = _drive_link(
            ImpairmentSpec(delay=1000.0, reorder=20.0), n, seed=9
        )
        immediate = sum(1 for t, _m in delivered if (t % (10 * S)) == 0.0)
        assert abs(immediate / n - 0.20) < 0.02

    def test_rate_serializes(self):
        # 100 bytes at 8 mbit/s -> 100 us each, back to back
        world = build_sim(make_topology(delay_chain_config(0)), seed=0)
        link = _LinkDir(world, ImpairmentSpec(rate=Rate(8.0, "mbit")))
        out = []
        world._deliver = lambda t, m: out.append(t)
        from topoforge.sim import Message

        for i in range(3):
            link.transmit(Message("request", i, ("a", "b"), 1, 100), 0.0)
        world.run_until(1 * S)
        assert out == [100.0, 200.0, 300.0]

    def test_queue_limit_drops(self):
        world = build_sim(make_topology(delay_chain_config(0)), seed=0)
        link = _LinkDir(world, ImpairmentSpec(rate=Rate(8.0, "mbit"), buffer_size=2))
        out = []
        world._deliver = lambda t, m: out.append(t)
        from topoforge.sim import Message

        for i in range(10):
            link.transmit(Message("request", i, ("a", "b"), 1, 100), 0.0)
        world.run_until(1 * S)
        assert len(out) == 2
        assert link.dropped == 8 * 100


class TestWorkloads:
    def _topo(self):
        return make_topology(delay_chain_config(1000))

    def test_world_shape(self, fig4_topology):
        world = build_sim(fig4_topology)
        assert set(world.entities) == {"frontend", "r1", "db", "payment"}
        assert len(world.links) == 6
        for a, b in world.links:
            assert (b, a) in world.links  # both directions modeled

    def test_closed_loop_rate_matches_inverse_rtt(self):
        report = run(
            build_sim(self._topo(), seed=1),
            tf.Workload(service="a", entrypoint="/", mode="closed", clients=1, duration_s=0.5),
        )
        assert report.completed > 0
        expected = 1e6 / report.rtt_mean_us
        assert math.isclose(report.achieved_rate, expected, rel_tol=0.05)

    def test_open_loop_issue_count(self):
        report = run(
            build_sim(self._topo(), seed=1),
            tf.Workload(service="a", entrypoint="/", mode="open", rate=500.0, duration_s=1.0),
        )
        assert report.issued == 500
        assert report.completed == 500
        assert report.failed == 0

    def test_conservation(self):
        report = run(
            build_sim(self._topo(), seed=1),
            tf.Workload(service="a", entrypoint="/", mode="closed", clients=4, duration_s=0.2),
        )
        assert report.issued == report.completed + report.failed

    def test_unknown_target_rejected(self):
        with pytest.raises(WorkloadUnreachableError):
            run(build_sim(self._topo()), tf.Workload(service="ghost", entrypoint="/"))
        with pytest.raises(WorkloadUnreachableError):
            run(build_sim(self._topo()), tf.Workload(service="a", entrypoint="/nope"))

    @pytest.mark.parametrize(
        "kw",
        [
            {"mode": "closed", "clients": 0},
            {"mode": "open", "rate": None},
            {"mode": "burst"},
            {"duration_s": 0},
            {"duration_s": -1.0},
            {"start_s": -0.5},
            {"start_s": math.inf},
            {"duration_s": math.inf},
            {"mode": "open", "rate": math.inf},
        ],
    )
    def test_bad_workloads(self, kw):
        with pytest.raises(ValueError):
            run(build_sim(self._topo()), tf.Workload(service="a", entrypoint="/", **kw))

    @pytest.mark.parametrize("target", ["front", "leaf"])
    def test_no_entity_name_is_the_client(self, target):
        text = (
            "front:\n  type: service\n  port: 9000\n  endpoints:\n"
            "    - entrypoint: /\n      psize: 128\n      connections:\n"
            "        - path: leaf\n          url: /\n"
            "leaf:\n  type: service\n  port: 9001\n  endpoints:\n"
            "    - entrypoint: /\n      psize: 1000\n"
        )

        def report(leaf: str) -> dict:
            w = tf.Workload(service=target.replace("leaf", leaf), duration_s=0.01)
            return run(build_sim(make_topology(text.replace("leaf", leaf))), w).to_dict()

        renamed = json.dumps(report("__client__")).replace("__client__", "leaf")
        assert json.loads(renamed) == report("leaf")

    def test_used_world_refused(self):
        world = build_sim(self._topo(), seed=1)
        w = tf.Workload(service="a", entrypoint="/", mode="open", rate=100.0, duration_s=0.1)
        run(world, w)
        with pytest.raises(ValueError, match="freshly built world"):
            run(world, w)

    def test_start_offset_shifts_window(self):
        w = tf.Workload(service="a", entrypoint="/", mode="open", rate=100.0, duration_s=0.5, start_s=2.0)
        report = run(build_sim(self._topo(), seed=1), w)
        assert report.issued == 50
        assert report.completed == 50


class TestDeterminism:
    def test_identical_runs_identical_reports(self, fig4_topology):
        w = tf.Workload(service="frontend", entrypoint="/", mode="closed", clients=2, duration_s=0.2)
        a = run(build_sim(fig4_topology, seed=42), w)
        b = run(build_sim(fig4_topology, seed=42), w)
        assert a.event_digest == b.event_digest
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_stochastic_runs(self):
        topo = make_topology(
            "a:\n  type: service\n  port: 9000\n  endpoints:\n"
            "    - entrypoint: /\n      psize: 128\n      connections:\n"
            "        - path: r->b\n          url: /\n          delay: 1ms\n          jitter: 500us\n"
            "r:\n  type: router\n  connections:\n    - path: b\n"
            "b:\n  type: service\n  port: 9001\n  endpoints:\n    - entrypoint: /\n      psize: 128\n"
        )
        w = tf.Workload(service="a", entrypoint="/", mode="closed", clients=1, duration_s=0.1)
        assert run(build_sim(topo, seed=1), w).event_digest != run(build_sim(topo, seed=2), w).event_digest


class TestTimersInSim:
    def test_link_param_sampling(self, fig4_topology):
        world = build_sim(fig4_topology)
        assert world.link_param("frontend", "r1", "rate", 5.0) == Rate(100.0, "mbit")
        assert world.link_param("frontend", "r1", "rate", 10.0) == Rate(1.0, "gbit")
        assert world.link_param("frontend", "r1", "rate", 40.0) == Rate(100.0, "mbit")

    def test_timer_timeline_reported(self, fig4_topology):
        w = tf.Workload(service="frontend", entrypoint="/", mode="open", rate=10.0, duration_s=45.0)
        report = run(build_sim(fig4_topology, seed=0), w)
        assert report.timer_events == [
            (10.0, "frontend<->r1", "rate"),
            (40.0, "frontend<->r1", "rate"),
        ]


class TestByteAccounting:
    def test_entity_and_link_bytes_consistent(self, fig4_topology):
        w = tf.Workload(service="frontend", entrypoint="/", mode="open", rate=100.0, duration_s=0.5)
        report = run(build_sim(fig4_topology, seed=0), w)
        # every request crosses frontend->r1->db and back
        fr = report.link_bytes["frontend->r1"]
        rd = report.link_bytes["r1->db"]
        assert fr["tx"] == report.issued * 128  # request size model
        assert fr["tx"] == fr["rx"] + fr["dropped"] + fr["corrupted"]
        assert rd["tx"] == fr["rx"]
        back = report.link_bytes["db->r1"]
        assert back["tx"] == report.completed * (128 + 128)  # header + db psize


class TestReliability:
    # a -> b -> c; the a-b link loses and duplicates packets, and a 1 ms delay
    # each way makes the a->b round trip longer than the retransmission
    # timeout, so b sees retransmits both while it serves and after it replied
    LOSSY_CHAIN = (
        "a:\n  type: service\n  port: 9000\n  endpoints:\n"
        "    - entrypoint: /\n      psize: 64\n      connections:\n"
        "        - path: b\n          url: /\n          delay: 1ms\n"
        "          loss: 20%\n          duplicate: 50%\n"
        "b:\n  type: service\n  port: 9001\n  endpoints:\n"
        "    - entrypoint: /\n      psize: 64\n      connections:\n"
        "        - path: c\n          url: /\n"
        "c:\n  type: service\n  port: 9002\n  endpoints:\n"
        "    - entrypoint: /\n      psize: 64\n"
    )

    def test_terminal_executes_each_request_at_most_once(self):
        params = ModelParams(rto_us=1.5 * MS)
        world = build_sim(make_topology(self.LOSSY_CHAIN), seed=4, params=params)
        w = tf.Workload(service="a", entrypoint="/", mode="open", rate=200.0, duration_s=0.5)
        report = run(world, w)
        assert report.completed == report.issued == 100
        ab = report.link_bytes["a->b"]
        assert ab["tx"] > 2 * report.issued * params.request_bytes  # duplicates and retransmits
        assert ab["dropped"] > 0
        # a calls b once per request it serves, and b calls c once per a->b
        # exchange, however many copies of that exchange's request reach b
        assert report.link_bytes["b->c"]["tx"] == report.issued * params.request_bytes

    def test_failed_downstream_fails_the_request(self):
        # every call a makes to b is lost and times out once, so a answers
        # each of its requests with a header-only error reply
        params = ModelParams(downstream_timeout_us=50 * MS)
        world = build_sim(make_topology(loss_chain_config(100)), params=params)
        report = run(world, tf.Workload(service="a", mode="closed", clients=1, duration_s=0.3))
        assert report.completed == 0
        assert report.failed == report.issued > 1
        per_request = params.request_bytes + params.header_bytes  # one call, one reply
        assert report.entity_bytes["a"]["tx"] == report.issued * per_request

    def test_state_bounded_by_in_flight_work(self, fig4_topology):
        heap_left, timers_left = [], []
        for duration_s in (0.25, 0.5):
            world = build_sim(fig4_topology, seed=0)
            w = tf.Workload(service="frontend", entrypoint="/", mode="closed", clients=8,
                            duration_s=duration_s)
            run(world, w)
            assert world.exchanges == {}
            heap_left.append(len(world._heap))
            timers_left.append(sum(len(q.entries) for q in world._timer_queues.values()))
        assert heap_left[1] <= heap_left[0]
        assert timers_left == [0, 0]

    @pytest.mark.parametrize(
        "config, rate", [(loss_chain_config(50), 500.0), (LOSSY_CHAIN, 200.0)]
    )
    def test_timer_queues_hold_only_live_exchanges(self, monkeypatch, config, rate):
        # lossy links keep some exchanges alive for many rtos while later ones
        # finish; a finished exchange's timers must leave the queues with it
        world = build_sim(make_topology(config), seed=0)
        dead_after_finish = []
        finish = _Exchange.finish

        def checked_finish(ex, ok):
            finish(ex, ok)
            dead_after_finish.append(sum(
                world.exchanges.get(eid) is not entry[1]
                for q in world._timer_queues.values() for eid, entry in q.entries.items()
            ))

        monkeypatch.setattr(_Exchange, "finish", checked_finish)
        report = run(world, tf.Workload(service="a", mode="open", rate=rate, duration_s=0.5))
        assert report.issued == int(rate * 0.5)
        assert len(dead_after_finish) > report.issued  # client requests and their calls
        assert max(dead_after_finish) == 0

    def test_memory_bounded_by_in_flight_work(self, fig4_topology):
        peaks = []
        for duration_s in (0.02, 0.08):
            world = build_sim(fig4_topology, seed=0)
            w = tf.Workload(service="frontend", entrypoint="/", mode="closed", clients=8,
                            duration_s=duration_s)
            gc.collect()
            tracemalloc.start()
            try:
                run(world, w)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the longer run serves about 2,900 more requests; keeping a float
        # per request would add about 90 kB to its peak
        assert peaks[1] - peaks[0] < 30_000, peaks


def _log_sends(world) -> list[tuple[str, str, float, int]]:
    """Wrap ``world.forward`` to log (kind, source, time, exchange id) of each
    message leaving its source."""
    log = []
    forward = world.forward

    def logging(msg, now):
        if msg.index == 0:
            log.append((msg.kind, msg.route[0], now, msg.exchange_id))
        return forward(msg, now)

    world.forward = logging
    return log


class _FinishLog(dict):
    """``world.exchanges`` that logs (exchange id, time) of each finish."""

    def __init__(self, world):
        super().__init__()
        self.world = world
        self.log: list[tuple[int, float]] = []

    def __delitem__(self, eid):
        self.log.append((eid, self.world.now))
        super().__delitem__(eid)


class TestTimers:
    # a -> r -> b with every packet on the a<->r link lost: a never hears
    # from b, so every timer of the run fires

    def _run(self, duration_s: float, params: ModelParams | None = None):
        world = build_sim(make_topology(loss_chain_config(100)), seed=0, params=params)
        sends = _log_sends(world)
        world.exchanges = finishes = _FinishLog(world)
        report = run(world, tf.Workload(service="a", mode="closed", clients=1, duration_s=duration_s))
        return report, sends, finishes.log

    def test_retransmits_at_rto_multiples_until_the_deadline(self):
        report, sends, finishes = self._run(0.5)
        assert report.issued == report.failed == 1
        # the client sends at 0, 200, ..., 800 ms: 1000 ms is its deadline
        assert [t for _kind, src, t, _eid in sends if src == CLIENT] == [
            k * 200 * MS for k in range(5)
        ]
        # a starts its call to b after 10 us of processing and retransmits
        # until the hard stop at 0.5 + 1 + 0.2 s; the call's 5 s deadline
        # lies beyond it
        assert [t for _kind, src, t, _eid in sends if src == "a"] == [
            10 + k * 200 * MS for k in range(9)
        ]
        assert [kind for kind, _src, _t, _eid in sends] == ["request"] * 14
        # the client request fails at its deadline; a's call ends at the hard stop
        assert finishes == [(1, 1 * S), (2, 1.7 * S)]

    def test_downstream_calls_end_with_the_run(self):
        world = build_sim(make_topology(loss_chain_config(100)), seed=0)
        sends = _log_sends(world)
        report = run(world, tf.Workload(service="a", mode="closed", clients=1, duration_s=0.5))
        assert world.exchanges == {}
        assert all(not q.entries for q in world._timer_queues.values())
        # a's call ends without an error reply to the client: a sent only
        # its 9 request attempts to b
        assert [kind for kind, src, _t, _eid in sends if src == "a"] == ["request"] * 9
        assert report.entity_bytes["a"]["tx"] == 9 * world.params.request_bytes

    def test_deadline_before_the_rto_allows_one_attempt(self):
        # a's call to b fails at its 50 ms deadline, before any retransmit,
        # and a answers the client with an error reply at that instant
        report, sends, finishes = self._run(0.05, ModelParams(downstream_timeout_us=50 * MS))
        assert report.issued == report.failed == 1
        assert sends == [
            ("request", CLIENT, 0.0, 1),
            ("request", "a", 10.0, 2),
            ("response", "a", 50 * MS + 10, 1),
        ]
        assert finishes == [(2, 50 * MS + 10), (1, 50 * MS + 10)]

    def test_finished_exchange_sends_nothing(self):
        # 8 client requests are issued at t=0, so their retransmission timers
        # all fall due at 1.5 ms; by then the half lossy a->b calls have
        # finished some of those requests and not others
        world = build_sim(make_topology(loss_chain_config(50)), seed=0,
                          params=ModelParams(rto_us=1.5 * MS))
        sends = _log_sends(world)
        world.exchanges = finishes = _FinishLog(world)
        run(world, tf.Workload(service="a", mode="closed", clients=8, duration_s=0.05))
        finished_at = dict(finishes.log)
        attempts = [(eid, t) for kind, _src, t, eid in sends if kind == "request"]
        assert len(attempts) > len({eid for eid, _t in attempts})  # some retransmitted
        assert all(t < finished_at.get(eid, math.inf) for eid, t in attempts)


class TestLosslessOutcomes:
    # reports recorded when each exchange timer was its own heap event; no
    # timer fires on these lossless runs, so however timers are kept, every
    # field but the event digest must stay as recorded
    @pytest.mark.parametrize(
        "name, path, workload",
        [
            ("fig4_closed", DATA / "fig4.yml",
             dict(service="frontend", mode="closed", clients=8, duration_s=0.2)),
            ("shop_open", SHOP_DEMO,
             dict(service="frontendproxy", mode="open", rate=3000.0, duration_s=0.2)),
        ],
    )
    def test_report_unchanged(self, name, path, workload):
        expected = json.loads((DATA / "sim_lossless.json").read_text())[name]
        world = build_sim(make_topology(path.read_text()), seed=0)
        report = run(world, tf.Workload(entrypoint="/", **workload)).to_dict()
        del report["event_digest"]
        assert json.loads(json.dumps(report)) == expected


# (text in shop_demo.yml, impairment lines added after its first occurrence):
# frontendproxy's "/" connection to frontend, and frontend's to the catalog
SHOP_LOSSY_LINKS = (
    (
        "          url: /\n          delay: 500us\n",
        "          jitter: 100us\n          loss: 1%\n          duplicate: 1%\n"
        "          reorder: 2%\n",
    ),
    (
        "        - path: productcatalogservice\n          url: /\n",
        "          delay: 200us\n          loss: 0.5%\n          corrupt: 1%\n",
    ),
)


def _lossy_shop_text() -> str:
    text = SHOP_DEMO.read_text()
    for anchor, extra in SHOP_LOSSY_LINKS:
        assert anchor in text, anchor
        text = text.replace(anchor, anchor + extra, 1)
    return text


# name -> (config text, seed, params, workload); each crosses loss,
# duplication, corruption, reordering, jitter or a rate timer
PINNED_RUNS = {
    "lossy_chain": lambda: (
        TestReliability.LOSSY_CHAIN, 4, ModelParams(rto_us=1.5 * MS),
        dict(service="a", mode="open", rate=200.0, duration_s=0.5),
    ),
    "shop_lossy_open": lambda: (
        _lossy_shop_text(), 1, None,
        dict(service="frontendproxy", mode="open", rate=3000.0, duration_s=0.2),
    ),
    "fig4_rate_timer": lambda: (
        (DATA / "fig4.yml").read_text(), 0, None,
        dict(service="frontend", mode="closed", clients=8, duration_s=0.05, start_s=15.0),
    ),
}


def pinned_report(name: str) -> dict:
    text, seed, params, workload = PINNED_RUNS[name]()
    world = build_sim(make_topology(text), seed=seed, params=params)
    return json.loads(json.dumps(run(world, tf.Workload(entrypoint="/", **workload)).to_dict()))


class TestLossyOutcomes:
    # whole reports, event digest included: how an event is executed may
    # change, but not which events run, in what order, or which random
    # numbers they draw
    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_report_unchanged(self, name):
        expected = json.loads((DATA / "sim_lossy.json").read_text())[name]
        assert pinned_report(name) == expected


class TestEventModel:
    def test_events_per_request(self, fig4_topology):
        # per request: 4 link arrivals, 3 service steps
        world = build_sim(fig4_topology, seed=0)
        w = tf.Workload(service="frontend", entrypoint="/", mode="closed", clients=8, duration_s=0.2)
        report = run(world, w)
        assert report.failed == 0
        assert world._seq / report.issued <= 7.01

    def test_router_hands_off_to_a_shaped_queue(self):
        # a -> r -> b; r's 8 mbit link to b holds 2 packets of 100 bytes,
        # each serialized in 100 us.  250 packets reach r at t=0 and r hands
        # them off at t=1, 2, ..., 250 us.  Those at 1 and 2 depart at 101
        # and 201; a departure at t frees its slot for a hand-off at t, so
        # the ones at 101 and 201 depart at 301 and 401 and all others drop.
        from topoforge.sim import Message

        topo = make_topology(
            "a:\n  type: service\n  port: 9000\n  endpoints:\n"
            "    - entrypoint: /\n      psize: 128\n      connections:\n"
            "        - path: r->b\n          url: /\n"
            "r:\n  type: router\n  connections:\n"
            "    - path: b\n      rate: 8mbit\n      buffer_size: 2\n"
            "b:\n  type: service\n  port: 9001\n  endpoints:\n"
            "    - entrypoint: /\n      psize: 128\n"
        )
        world = build_sim(topo, seed=0)
        arrivals = []
        deliver = world._deliver

        def record(now, msg):
            if msg.route[msg.index] == "b":
                arrivals.append(now)
            deliver(now, msg)

        world._deliver = record
        for i in range(250):
            world.forward(Message("request", i, ("a", "r", "b"), 0, 100), 0.0)
        world.run_until(1 * S)
        assert arrivals == [101.0, 201.0, 301.0, 401.0]
        rb = world.links[("r", "b")]
        assert rb.dropped == 246 * 100
        assert rb.rx == 4 * 100


class _CountingHeapq:
    """Stand-in for the simulator's ``heapq`` that counts pushes and pops."""

    def __init__(self, real):
        self.real = real
        self.pushes = self.pops = 0

    def heappush(self, heap, item):
        self.pushes += 1
        self.real.heappush(heap, item)

    def heappop(self, heap):
        self.pops += 1
        return self.real.heappop(heap)


class TestTracedContract:
    # the traced benchmark swaps ``sim.heapq`` before ``build_sim`` to count
    # events, and wraps ``world.forward`` to count request attempts
    def test_swapped_heapq_and_forward_see_every_event(self, monkeypatch, fig4_topology):
        counter = _CountingHeapq(sim.heapq)
        monkeypatch.setattr(sim, "heapq", counter)
        world = build_sim(fig4_topology, seed=0)
        sends = _log_sends(world)
        w = tf.Workload(service="frontend", mode="closed", clients=8, duration_s=0.05)
        report = run(world, w)
        assert report.completed > 0
        # no push bypasses the swapped module
        assert counter.pushes - counter.pops == len(world._heap)
        assert counter.pops >= 7 * report.completed
        client_requests = sum(kind == "request" and src == CLIENT for kind, src, _t, _eid in sends)
        assert client_requests == report.issued

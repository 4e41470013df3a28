"""simulate workload: the discrete-event simulator on three jobs per pass.

- job 1 (job1_s): fig4, closed loop, 8 clients, 1 virtual second, lossless
- job 2 (job2_s): shop_demo with loss, duplication, corruption, reordering
  and jitter injected on two links, open loop at 3000 req/s for 1 virtual
  second
- job 3 (job3_s): ``measure_max_rate`` on fig4

The seed is the simulator seed.  The inputs are copies of
``tests/data/fig4.yml`` and ``topologies/shop_demo.yml`` kept in ``data/``,
so that edits to the repository's samples do not move the benchmark.
"""

from __future__ import annotations

import gc
import resource
import tracemalloc
from pathlib import Path
from time import perf_counter

from harness import Context, Outcome, Timing, median, passes, seconds, timed, wall
from tracer import Tracer

DATA = Path(__file__).resolve().parent / "data"
SETUP_PER_PASS = 10  # parse + validate + build samples per pass
MIN_PASSES = 2
CLOSED = dict(service="frontend", entrypoint="/", mode="closed", clients=8, duration_s=1.0)
LOSSY = dict(service="frontendproxy", entrypoint="/", mode="open", rate=3000.0, duration_s=1.0)
RATE_TOLERANCE = 0.001  # job 1 achieved rate vs the bottleneck law
MAXRATE_TOLERANCE = 0.01  # job 3 result vs the bottleneck law

# (text in shop_demo.yml, impairment lines added after its first occurrence):
# frontendproxy's "/" connection to frontend, and frontend's to the catalog
LOSSY_LINKS = (
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
LAYER_METRICS = (
    "parser.parse_s", "validation.validate_s", "sim.build_s", "sim.events",
    "sim.events_per_request", "sim.events_per_s", "sim.lossy.events",
    "sim.lossy.events_per_request", "sim.lossy.events_per_s", "sim.heap_left",
    "sim.mem_growth", "sim.gc_share", "sim.lossy.link_drops", "sim.lossy.retransmits",
    "maxrate.probes", "maxrate.probe_s", "tracing_overhead", "failed_share",
)


def lossy_shop_text() -> str:
    text = (DATA / "shop_demo.yml").read_text()
    for anchor, extra in LOSSY_LINKS:
        if anchor not in text:
            raise ValueError(f"shop_demo.yml lacks {anchor!r}")
        text = text.replace(anchor, anchor + extra, 1)
    return text


class CountingHeapq:
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


class GcClock:
    """Wall time spent in garbage collection, from ``gc.callbacks``."""

    def __init__(self):
        self.total = 0.0
        self._start = 0.0

    def __call__(self, phase, _info):
        if phase == "start":
            self._start = perf_counter()
        else:
            self.total += perf_counter() - self._start

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def run(ctx: Context) -> Outcome:
    import topoforge as tf
    from topoforge import maxrate, sim
    from topoforge.validation import link_key

    outcome = Outcome()
    texts = {"fig4": (DATA / "fig4.yml").read_text(), "lossy": lossy_shop_text()}
    tracer = Tracer()

    def load(name: str):
        with tracer.span("parser.parse"):
            cfg = tf.parse_config(texts[name])
        with tracer.span("validation.validate"):
            return tf.validate(cfg)

    def build(topology):
        with tracer.span("sim.build"):
            return sim.build_sim(topology, seed=ctx.seed)

    setup: list[Timing] = []

    def set_up_once() -> dict:
        topos = {name: load(name) for name in texts}
        for topology in topos.values():
            build(topology)
        return topos

    def set_up() -> dict:
        for _ in range(SETUP_PER_PASS):
            timing, topos = timed(set_up_once)
            setup.append(timing)
        return topos

    topos = set_up()
    fig4, lossy = topos["fig4"], topos["lossy"]

    db_bytes = fig4.services["db"].endpoints[0].psize + sim.ModelParams().header_bytes
    bottleneck = fig4.link_graph[link_key("frontend", "r1")].impairments.rate
    expected = bottleneck.bits_per_second / (db_bytes * 8)
    reports: dict[str, set[str]] = {"closed": set(), "lossy": set(), "maxrate": set()}
    stats: dict[str, float] = {}

    def simulate(job: str, topology, workload: dict, traced: bool) -> Timing:
        tracer.request = job
        if not traced:
            world = build(topology)
            timing, report = timed(sim.run, world, sim.Workload(**workload))
        else:
            counter = sim.heapq = CountingHeapq(sim.heapq)
            try:
                world = build(topology)
                attempts, exchanges = _count_requests(world)
                with GcClock() as gc_clock, tracer.span("sim.run"):
                    timing, report = timed(sim.run, world, sim.Workload(**workload))
            finally:
                sim.heapq = counter.real
        outcome.attempted += report.issued
        outcome.failed += report.failed
        reports[job].add(repr(report.to_dict()))
        if job == "closed":
            stats["achieved"] = report.achieved_rate
        if traced:
            prefix = "sim." if job == "closed" else "sim.lossy."
            events = counter.pops
            stats[prefix + "events"] = events
            stats[prefix + "events_per_request"] = events / report.issued
            stats[prefix + "events_per_s"] = events / timing.seconds
            if job == "closed":
                stats["sim.heap_left"] = counter.pushes - counter.pops
                stats["sim.gc_share"] = gc_clock.total / timing.wall_s
            else:
                stats["sim.lossy.link_drops"] = sum(
                    b["dropped"] for b in report.link_bytes.values()
                )
                stats["sim.lossy.retransmits"] = attempts[0] - len(exchanges)
        return timing

    traced_setup: list[Timing] = []

    def one_pass(i: int, traced: bool = False) -> dict[str, Timing]:
        if traced:
            tracer.request = "setup"
            traced_setup.append(timed(set_up_once)[0])
        elif i:
            set_up()
        times = {
            "closed": simulate("closed", fig4, CLOSED, traced),
            "lossy": simulate("lossy", lossy, LOSSY, traced),
        }
        tracer.request = "maxrate"
        with tracer.span("maxrate"):
            times["maxrate"], result = timed(
                maxrate.measure_max_rate, fig4, ("frontend", "/"), seed=ctx.seed
            )
        outcome.attempted += len(result.probes)
        reports["maxrate"].add(repr(result.probes))
        stats["maxrate"] = result.rate
        stats["probes"] = len(result.probes)
        ctx.log(f"pass {i}: " + ", ".join(
            f"{k} {t.wall_s:.3f} s wall {t.seconds:.3f} s rescaled" for k, t in times.items()
        ))
        return times

    if ctx.trace:
        untraced = one_pass(0)
        tracer.spans.clear()
        with tracer.patch([(maxrate, "run", "maxrate.probe")]):
            traced = one_pass(1, traced=True)
        runs = [untraced, traced]
    else:
        runs = passes(ctx, one_pass, MIN_PASSES)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcome.check(
        "job 1 achieved rate within 0.1% of the bottleneck law",
        abs(stats["achieved"] / expected - 1) <= RATE_TOLERANCE,
        f"{stats['achieved']:.1f} vs {expected:.1f} req/s",
    )
    outcome.check(
        "job 3 max rate within 1% of the bottleneck law",
        abs(stats["maxrate"] / expected - 1) <= MAXRATE_TOLERANCE,
        f"{stats['maxrate']:.1f} vs {expected:.1f} req/s in {stats['probes']} probes",
    )
    for job, seen in reports.items():
        outcome.check(f"{job} statistics identical across {len(runs)} passes", len(seen) == 1)
    outcome.check(
        "no simulated request failed",
        outcome.failed == 0,
        f"{outcome.failed} of {outcome.attempted} failed",
    )

    m = outcome.metrics
    m["failed_share"] = outcome.failed / outcome.attempted
    if not ctx.trace:
        m["setup_s"] = seconds(setup)
        m["peak_rss_mib"] = peak_rss_mib
        for slot, job in (("job1_s", "closed"), ("job2_s", "lossy"), ("job3_s", "maxrate")):
            m[slot] = seconds([r[job] for r in runs])
            m[f"sim_{job}_wall_s"] = wall([r[job] for r in runs])
        return outcome

    selfs = tracer.self_times("setup")
    for span in ("parser.parse", "validation.validate", "sim.build"):
        m[span + "_s"] = traced_setup[0].rescale(selfs[span])
    m.update({k: v for k, v in stats.items() if k.startswith("sim.")})
    m["maxrate.probes"] = stats["probes"]
    m["maxrate.probe_s"] = traced["maxrate"].rescale(median(tracer.durations("maxrate.probe")))
    m["tracing_overhead"] = sum(t.seconds for t in traced.values()) - sum(
        t.seconds for t in untraced.values()
    )
    m["sim.mem_growth"] = _traced_peak(fig4, ctx.seed, 1.0) / _traced_peak(fig4, ctx.seed, 0.5)
    tracer.write(ctx.workdir / f"spans-seed{ctx.seed}.jsonl")
    return outcome


def _count_requests(world):
    """Wrap ``world.forward`` to count request attempts leaving their source."""
    attempts = [0]
    exchanges: set[int] = set()
    forward = world.forward

    def counting(msg, now):
        if msg.kind == "request" and msg.index == 0:
            attempts[0] += 1
            exchanges.add(msg.exchange_id)
        return forward(msg, now)

    world.forward = counting
    return attempts, exchanges


def _traced_peak(topology, seed: int, duration_s: float) -> int:
    """tracemalloc peak of job 1 run for ``duration_s`` virtual seconds."""
    from topoforge import sim

    gc.collect()
    tracemalloc.start()
    try:
        world = sim.build_sim(topology, seed=seed)
        sim.run(world, sim.Workload(**{**CLOSED, "duration_s": duration_s}))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

"""runtime workload: the live service runtime on loopback.

One child process (``rt_host.py``) hosts a frontend and three leaves.  This
process drives closed loops against the frontend; each pass runs three
phases of fixed size:

- leaf (job1_s): LEAF_REQUESTS to ``/leaf`` (no downstreams) over 2
  connections, a new TCP connection per request
- fanout (job2_s): FANOUT_REQUESTS to ``/fanout`` (3 sequential leaf calls)
  over 2 connections, a new TCP connection per request
- keepalive (job3_s): KEEPALIVE_REQUESTS to ``/fanout`` over one persistent
  connection, as keep-alive load generators send them
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, sleep

from harness import Context, Outcome, Timing, median, passes, percentile, seconds, timed, wall
from tracer import Span, Tracer

HOST = Path(__file__).resolve().parent / "rt_host.py"
SETUP_SAMPLES = 3
CONNECTIONS = 2
LEAF_REQUESTS = 2000
FANOUT_REQUESTS = 400
KEEPALIVE_REQUESTS = 20
FRONT_PSIZE = 1024
TIMEOUT_S = 10.0
LAYER_METRICS = (
    "runtime.leaf_handler_ms", "runtime.handler_ms", "runtime.downstream_call_ms",
    "runtime.spans_missing", "tracing_overhead", "failed_share",
)


class Service:
    """The child process, from spawn until every server accepts."""

    def __init__(self, seed: int, sink: Path | None = None):
        argv = [sys.executable, str(HOST), "--seed", str(seed)]
        if sink is not None:
            argv += ["--sink", str(sink)]
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            ports = json.loads(self.proc.stdout.readline())
            self.port = ports["front"]
            self.start_reference_s = ports["reference_s"]
            for port in [self.port, *ports["leaves"]]:
                socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S).close()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def mark(self) -> float:
        """Mean reference-loop time in the service process since the last mark."""
        self.proc.stdin.write("mark\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())["reference_s"]

    def stop(self) -> float:
        """Stop the child; returns its peak RSS in MiB."""
        out, _ = self.proc.communicate(input="", timeout=60)
        return json.loads(out.splitlines()[-1])["maxrss_kib"] / 1024


def request(conn: http.client.HTTPConnection, path: str, headers: dict) -> bool:
    conn.request("GET", path, headers=headers)
    resp = conn.getresponse()
    body = resp.read()
    return resp.status == 200 and len(body) == FRONT_PSIZE


def phase(port: int, path: str, total: int, clients: int, keepalive: bool,
          spans: list[Span] | None):
    """Closed loop of ``total`` requests; returns (latencies, failures)."""
    latencies: list[float] = []
    failures = [0]
    counter = iter(range(total))
    lock = threading.Lock()

    def client():
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
        while True:
            with lock:
                if next(counter, None) is None:
                    break
            # like urllib in the runtime's own downstream calls: the server
            # closes first, so TIME_WAIT stays off the client's ephemeral ports
            headers = {} if keepalive else {"Connection": "close"}
            if spans is not None:
                trace_id = os.urandom(16).hex()
                headers["traceparent"] = f"00-{trace_id}-{os.urandom(8).hex()}-01"
            t0 = perf_counter()
            try:
                ok = request(conn, path, headers)
            except (OSError, http.client.HTTPException):
                ok = False
            t1 = perf_counter()
            if not keepalive or not ok:
                conn.close()
            latencies.append(t1 - t0)
            if not ok:
                failures[0] += 1
            if spans is not None:
                spans.append(Span(f"client{path}", t0, t1, None, trace_id))
        conn.close()

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return latencies, failures[0]


# (name, path, requests, connections, keep-alive).  The keep-alive phase
# waits on 40 ms delayed-ACK timers, not on CPUs, so it is not rescaled.
PHASES = (
    ("leaf", "/leaf", LEAF_REQUESTS, CONNECTIONS, False),
    ("fanout", "/fanout", FANOUT_REQUESTS, CONNECTIONS, False),
    ("keepalive", "/fanout", KEEPALIVE_REQUESTS, 1, True),
)


def read_sink(path: Path, expected: int) -> list[dict]:
    """Spans in the sink file, once ``expected`` arrived or the file stops growing."""
    records: list[dict] = []
    last, still = -1, 0
    while len(records) < expected and still < 10:
        sleep(0.1)
        if path.exists():
            records = [json.loads(line) for line in path.read_text().splitlines() if line]
        still = still + 1 if len(records) == last else 0
        last = len(records)
    return records


def span_metrics(records: list[dict]) -> dict[str, float]:
    children: dict[str, list[dict]] = {}
    for r in records:
        if r["parentSpanId"] is not None and r["name"].startswith("call "):
            children.setdefault(r["parentSpanId"], []).append(r)
    leaf, handler, calls = [], [], []
    for r in records:
        ms = (r["endNs"] - r["startNs"]) / 1e6
        if r["name"] == "front/leaf":
            leaf.append(ms)
        elif r["name"] == "front/fanout":
            kids = children.get(r["spanId"], [])
            handler.append(ms - sum((k["endNs"] - k["startNs"]) / 1e6 for k in kids))
            calls += [(k["endNs"] - k["startNs"]) / 1e6 for k in kids]
    return {
        "runtime.leaf_handler_ms": median(leaf),
        "runtime.handler_ms": median(handler),
        "runtime.downstream_call_ms": median(calls),
    }


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    setup: list[Timing] = []

    def spawn() -> Service:
        # the start-up work happens in the child: rescale by both speeds
        timing, service = timed(Service, ctx.seed)
        setup.append(Timing(timing.wall_s, (timing.reference_s + service.start_reference_s) / 2))
        return service

    for _ in range(SETUP_SAMPLES - 1):
        spawn().stop()
    service = spawn()
    tracer = Tracer()
    samples: dict[str, list[float]] = {name: [] for name, *_ in PHASES}

    def one_pass(i: int, svc: Service, spans=None) -> dict[str, Timing]:
        times = {}
        for name, path, total, clients, keepalive in PHASES:
            svc.mark()
            timing, (latencies, failures) = timed(
                phase, svc.port, path, total, clients, keepalive, spans
            )
            # both processes do the work: rescale by the mean of their speeds
            times[name] = Timing(timing.wall_s, (timing.reference_s + svc.mark()) / 2)
            outcome.attempted += total
            # a request a client thread never made counts as failed too
            outcome.failed += failures + total - len(latencies)
            if spans is None:
                samples[name] += latencies
        ctx.log(f"pass {i}: " + ", ".join(
            f"{k} {t.wall_s:.3f} s wall {t.seconds:.3f} s rescaled" for k, t in times.items()
        ))
        return times

    try:
        runs = passes(ctx, lambda i: one_pass(i, service), min_passes=1 if ctx.trace else 2)
    finally:
        peak_rss_mib = service.stop()

    m = outcome.metrics
    if ctx.trace:
        sink = ctx.workdir / "front-spans.ndjson"
        traced_service = Service(ctx.seed, sink)
        try:
            traced = one_pass(len(runs), traced_service, tracer.spans)
            # one server span per request plus one per leaf call
            expected = LEAF_REQUESTS + (FANOUT_REQUESTS + KEEPALIVE_REQUESTS) * 4
            records = read_sink(sink, expected)
        finally:
            traced_service.stop()
        m.update(span_metrics(records))
        m["runtime.spans_missing"] = expected - len(records)
        m["tracing_overhead"] = sum(t.wall_s for t in traced.values()) - median(
            [sum(t.wall_s for t in r.values()) for r in runs]
        )
        tracer.write(
            ctx.workdir / f"spans-seed{ctx.seed}.jsonl",
            extra=[{**r, "request": r["traceId"]} for r in records],
        )

    outcome.check(
        f"every response is 200 with a {FRONT_PSIZE}-byte body",
        outcome.failed == 0,
        f"{outcome.failed} of {outcome.attempted} failed",
    )
    m["failed_share"] = outcome.failed / outcome.attempted
    m["setup_s"] = seconds(setup)
    m["peak_rss_mib"] = peak_rss_mib
    for slot, (name, _path, _total, _clients, keepalive) in zip(
        ("job1_s", "job2_s", "job3_s"), PHASES
    ):
        m[f"rt_{name}_wall_s"] = wall([r[name] for r in runs])
        m[slot] = m[f"rt_{name}_wall_s"] if keepalive else seconds([r[name] for r in runs])
    fanout = samples["fanout"]
    m["rt_leaf_rps"] = LEAF_REQUESTS / m["rt_leaf_wall_s"]
    m["rt_fanout_rps"] = FANOUT_REQUESTS / m["rt_fanout_wall_s"]
    m["rt_leaf_p50_ms"] = percentile(samples["leaf"], 0.5) * 1e3
    m["rt_fanout_p50_ms"] = percentile(fanout, 0.5) * 1e3
    m["rt_fanout_p99_ms"] = percentile(fanout, 0.99) * 1e3
    m["rt_fanout_samples"] = len(fanout)
    m["rt_keepalive_p50_ms"] = percentile(samples["keepalive"], 0.5) * 1e3
    return outcome

"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion N: PASS`` line with the measured
numbers once its assertions hold; a failing criterion shows up as the
test's FAILED line instead.
"""

import random
import statistics
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest
import yaml

import topoforge as tf
from topoforge.errors import CapacityExceededError
from topoforge.fib import check_path_fidelity
from topoforge.maxrate import measure_max_rate
from topoforge.model import Rate
from topoforge.netplan import check_capacity
from topoforge.runtime import Downstream, EndpointRuntime, Microservice, RuntimeConfig
from topoforge.sim import MS, ModelParams

from conftest import (
    breadth_config,
    chain_config,
    container,
    delay_chain_config,
    depth_config,
    loss_chain_config,
    make_topology,
    random_topology_text,
)

DATA = Path(__file__).parent / "data"


def _passed(n, detail):
    print(f"criterion {n}: PASS ({detail})")


def test_criterion_01_fig4_end_to_end(fig4_text):
    topology = tf.validate(tf.parse_config(fig4_text))
    _np, plan = tf.plan_deployment(topology, tf.GenerationOptions())
    text = dict(tf.emit_compose(plan))["compose.yml"]
    doc = yaml.safe_load(text)

    assert len(doc["services"]) == 4
    assert len(doc["networks"]) == 3
    assert doc["services"]["frontend"]["ports"] == ["80:80"]
    script = doc["services"]["frontend"]["command"][2]
    assert "tc qdisc add dev eth1 root netem rate 100mbit" in script
    timers = container(plan, "frontend").timer_script
    assert "sleep 10\ntc qdisc change dev eth1 root netem rate 1gbit" in timers
    assert "sleep 30\ntc qdisc change dev eth1 root netem rate 100mbit" in timers

    # byte-stable snapshot
    assert text == (DATA / "compose_fig4.yml").read_text()
    _np, plan2 = tf.plan_deployment(tf.validate(tf.parse_config(fig4_text)), tf.GenerationOptions())
    assert dict(tf.emit_compose(plan2))["compose.yml"] == text
    _passed(1, "4 containers, 3 networks, shaping + timer script, snapshot byte-stable")


def test_criterion_02_generation_speed():
    text = chain_config(100)
    samples = []
    for _ in range(20):
        t0 = time.perf_counter()
        topology = tf.validate(tf.parse_config(text))
        _np, plan = tf.plan_deployment(topology, tf.GenerationOptions())
        tf.emit_compose(plan)
        samples.append(time.perf_counter() - t0)
    median = statistics.median(samples)
    assert median < 1.0
    _passed(2, f"100-service chain parse->emit median {median * 1e3:.1f} ms over 20 runs")


def test_criterion_03_rtt_linearity():
    t0 = time.perf_counter()
    delays = [100, 500, 1000, 5000]
    rtts = []
    for d in delays:
        world = tf.build_sim(make_topology(delay_chain_config(d)), seed=3)
        report = tf.run(
            world,
            tf.Workload(service="a", entrypoint="/", mode="closed", clients=1, duration_s=0.2),
        )
        rtts.append(report.rtt_mean_us)
    slope, _intercept = statistics.linear_regression(delays, rtts)
    r2 = statistics.correlation(delays, rtts) ** 2
    wall = time.perf_counter() - t0
    assert abs(slope - 4.0) / 4.0 < 0.02
    assert r2 > 0.999
    assert wall < 10.0
    _passed(3, f"slope {slope:.4f}, R^2 {r2:.6f}, {wall:.2f}s wall")


def test_criterion_04_loss_monotonicity():
    params = ModelParams(rto_us=20 * MS)
    rates = []
    for loss in (0, 1, 2, 5, 10):
        topology = make_topology(loss_chain_config(loss))
        rates.append(
            measure_max_rate(topology, ("a", "/"), seed=7, params=params, duration_s=0.25).rate
        )
    assert all(a > b for a, b in zip(rates, rates[1:])), rates
    _passed(4, "max rate strictly decreasing over loss 0/1/2/5/10%: " + "/".join(f"{r:.0f}" for r in rates))


def test_criterion_05_breadth_depth_and_littles_law():
    breadth_rates = [
        measure_max_rate(make_topology(breadth_config(b)), ("front", "/"), seed=5, duration_s=0.25).rate
        for b in (1, 2, 4, 8)
    ]
    depth_rates = [
        measure_max_rate(make_topology(depth_config(d)), ("a", "/"), seed=5, duration_s=0.25).rate
        for d in (1, 2, 4, 8)
    ]
    assert all(a >= b for a, b in zip(breadth_rates, breadth_rates[1:])), breadth_rates
    assert all(a >= b for a, b in zip(depth_rates, depth_rates[1:])), depth_rates

    # Little's-law oracle: single closed client, pure-delay links; the RTT is
    # 4 link traversals plus the fixed processing budget, computed here
    # independently of the simulator's own RTT statistics.
    delay_us = 1000
    params = ModelParams()
    predicted_rtt = (
        4 * delay_us + 3 * params.service_proc_us + 2 * params.router_proc_us
    )
    report = tf.run(
        tf.build_sim(make_topology(delay_chain_config(delay_us)), seed=5),
        tf.Workload(service="a", entrypoint="/", mode="closed", clients=1, duration_s=0.5),
    )
    assert abs(report.achieved_rate - 1e6 / predicted_rtt) / (1e6 / predicted_rtt) < 0.05
    _passed(
        5,
        f"breadth {breadth_rates} depth {depth_rates} non-increasing; "
        f"1 client {report.achieved_rate:.1f} req/s vs 1/RTT {1e6 / predicted_rtt:.1f}",
    )


def test_criterion_06_timer_window(fig4_topology):
    # sampled link rate on a 1 s virtual grid
    world = tf.build_sim(fig4_topology)
    for t in range(46):
        expected = Rate(1.0, "gbit") if 10 <= t < 40 else Rate(100.0, "mbit")
        assert world.link_param("frontend", "r1", "rate", float(t)) == expected, t

    def throughput(start_s):
        w = tf.Workload(
            service="frontend", entrypoint="/", mode="closed",
            clients=8, duration_s=2.0, start_s=start_s,
        )
        return tf.run(tf.build_sim(fig4_topology, seed=0), w).achieved_rate

    inside, outside = throughput(15.0), throughput(2.0)
    assert inside > outside
    _passed(6, f"grid-sampled rates exact; throughput {inside:.0f} inside vs {outside:.0f} outside window")


def test_criterion_07_path_fidelity_fuzzer():
    checked = 0
    for seed in range(200):
        text = random_topology_text(random.Random(seed))
        topology = tf.validate(tf.parse_config(text))
        np = tf.plan_network(topology)
        result = check_path_fidelity(topology, np)
        assert result.ok, (seed, result.failures)
        checked += len(topology.path_table)
    _passed(7, f"200 random topologies, {checked} paths forward+reverse exact")


def test_criterion_08_capacity_limits():
    check_capacity("v4", n_subnets=2**22 - 1, max_hosts_in_subnet=1022, n_services=64510)
    with pytest.raises(CapacityExceededError):
        check_capacity("v4", n_subnets=2**22, max_hosts_in_subnet=2, n_services=1)
    with pytest.raises(CapacityExceededError):
        check_capacity("v4", n_subnets=1, max_hosts_in_subnet=1023, n_services=1)
    with pytest.raises(CapacityExceededError):
        check_capacity("v4", n_subnets=1, max_hosts_in_subnet=2, n_services=64511)
    _passed(8, "2^22-1 subnets / 1022 hosts / 64510 services accepted, +1 rejected at each boundary")


def test_criterion_09_runtime_contract(tmp_path):
    import json

    rng = random.Random(9)
    samples = 0
    for i in range(10):
        psize = rng.randint(1, 2048)
        n_down = rng.randint(0, 3)
        leaf_psizes = [rng.randint(1, 512) for _ in range(n_down)]
        leaves, services = [], []
        try:
            for j, lp in enumerate(leaf_psizes):
                leaf = Microservice(RuntimeConfig(
                    name=f"leaf{j}", port=0, host="127.0.0.1",
                    endpoints=(EndpointRuntime("/", lp),),
                ))
                leaf.start()
                services.append(leaf)
                leaves.append(Downstream(f"leaf{j}", "127.0.0.1", leaf.port, "/"))
            sink = tmp_path / f"front{i}.ndjson"
            front = Microservice(RuntimeConfig(
                name="front", port=0, host="127.0.0.1",
                endpoints=(EndpointRuntime("/", psize, tuple(leaves)),),
                span_sink_file=str(sink),
            ))
            front.start()
            services.append(front)

            with urllib.request.urlopen(f"http://127.0.0.1:{front.port}/", timeout=5) as resp:
                assert resp.status == 200
                assert len(resp.read()) == psize
            # spans are exported just after the response goes out; wait for them
            deadline = time.monotonic() + 5.0
            spans = []
            while time.monotonic() < deadline and len(spans) < 1 + n_down:
                front.exporter.flush()
                if sink.exists():
                    spans = [json.loads(line) for line in sink.read_text().splitlines()]
                time.sleep(0.02)
            assert len(spans) == 1 + n_down
            assert len({s["traceId"] for s in spans}) == 1
            children = [s for s in spans if s["name"].startswith("call ")]
            assert [c["name"] for c in children] == [f"call leaf{j}/" for j in range(n_down)]
            for a, b in zip(children, children[1:]):
                assert a["endNs"] <= b["startNs"]
            samples += 1
        finally:
            for svc in services:
                svc.stop()

    # downstream failure names the hop
    svc = Microservice(RuntimeConfig(
        name="edge", port=0, host="127.0.0.1",
        endpoints=(EndpointRuntime("/", 64, (Downstream("gone", "127.0.0.1", 1, "/"),)),),
    ))
    svc.start()
    try:
        with pytest.raises(urllib.error.HTTPError) as ei:
            urllib.request.urlopen(f"http://127.0.0.1:{svc.port}/", timeout=5)
        assert ei.value.code == 502
        assert ei.value.read() == b"downstream 'gone' failed"
    finally:
        svc.stop()
    _passed(9, f"{samples} random configs: body=psize, spans ordered+disjoint, one traceId; 502 names hop")


def test_criterion_10_determinism(fig4_topology):
    # each target's whole file set, as generate writes it, certificates included
    files = {}
    for emit in (tf.emit_compose, tf.emit_k8s):
        opts = tf.GenerationOptions(scheme="https", tracing=True, seed=123)
        first, second = (emit(tf.plan_deployment(fig4_topology, opts)[1]) for _ in range(2))
        assert first == second
        files.update(first)
    assert {
        "compose.yml", "configs/frontend.json", "timers/frontend.sh", "certs/ca.crt",
        "manifests/frontend-secret.yaml",
    } <= files.keys()

    w = tf.Workload(service="frontend", entrypoint="/", mode="closed", clients=4, duration_s=0.25)
    a = tf.run(tf.build_sim(fig4_topology, seed=77), w)
    b = tf.run(tf.build_sim(fig4_topology, seed=77), w)
    assert a.to_dict() == b.to_dict()
    assert a.event_digest == b.event_digest
    _passed(10, "generator output (incl. certs) and SimReport byte-identical across runs")

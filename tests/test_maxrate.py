"""Saturation-ramp rate measurement against analytically known capacities."""

import math
import random

import pytest

from topoforge import maxrate
from topoforge.maxrate import measure_max_rate
from topoforge.model import Rate
from topoforge.sim import ModelParams

from conftest import (
    DATA,
    breadth_config,
    delay_chain_config,
    depth_config,
    loss_chain_config,
    make_topology,
    random_topology_text,
)

LEAF = "a:\n  type: service\n  port: 9000\n  endpoints:\n    - entrypoint: /\n      psize: 64\n"


class TestKnownCapacities:
    def test_leaf_service_bounded_by_processing(self):
        # one 10us processing slot per request -> exactly 100k req/s
        result = measure_max_rate(make_topology(LEAF), ("a", "/"), duration_s=0.2)
        assert result.rate == 100_000.0

    def test_processing_time_scales_capacity(self):
        params = ModelParams(service_proc_us=40)
        result = measure_max_rate(
            make_topology(LEAF), ("a", "/"), params=params, duration_s=0.2
        )
        assert result.rate == 25_000.0

    def test_rate_limited_link_is_the_bottleneck(self):
        # 1 mbit/s, 192-byte responses (psize 64 + 128 header) -> ~651 req/s
        text = (
            "a:\n  type: service\n  port: 9000\n  endpoints:\n"
            "    - entrypoint: /\n      psize: 64\n      connections:\n"
            "        - path: b\n          url: /\n          rate: 1mbit\n"
            "b:\n  type: service\n  port: 9001\n  endpoints:\n    - entrypoint: /\n      psize: 64\n"
        )
        result = measure_max_rate(make_topology(text), ("a", "/"), duration_s=0.5)
        wire_limit = 1e6 / (8 * (64 + 128))
        assert math.isclose(result.rate, wire_limit, rel_tol=0.02)


class TestRampBehaviour:
    def test_probes_double_population(self):
        result = measure_max_rate(make_topology(LEAF), ("a", "/"), duration_s=0.1)
        populations = [c for c, _r in result.probes]
        assert populations == [2**i for i in range(len(populations))]

    def test_stops_on_plateau(self):
        result = measure_max_rate(make_topology(LEAF), ("a", "/"), duration_s=0.1)
        # last probe did not beat the best by more than the precision
        *_, (final_clients, final_rate) = result.probes
        assert final_rate <= result.rate * 1.01
        assert final_clients <= 4  # a leaf saturates immediately

    def test_rate_is_best_probe(self):
        result = measure_max_rate(
            make_topology(delay_chain_config(1000)), ("a", "/"), duration_s=0.2
        )
        assert result.rate == max(r for _c, r in result.probes)

    def test_deterministic(self):
        topo = make_topology(delay_chain_config(1000))
        a = measure_max_rate(topo, ("a", "/"), seed=4, duration_s=0.2)
        b = measure_max_rate(topo, ("a", "/"), seed=4, duration_s=0.2)
        assert a == b

    def test_max_clients_cap_respected(self):
        result = measure_max_rate(
            make_topology(delay_chain_config(5000)),
            ("a", "/"),
            duration_s=0.1,
            max_clients=8,
        )
        assert all(c <= 8 for c, _r in result.probes)


class TestPrecision:
    @pytest.mark.parametrize("precision", [-1.0, -0.01, float("nan")])
    def test_invalid_precision_rejected_before_probing(self, monkeypatch, precision):
        # a negative precision never stops the ramp short of max_clients
        def probe(*args, **kwargs):
            raise AssertionError("probed with an invalid precision")

        monkeypatch.setattr(maxrate, "_probe", probe)
        with pytest.raises(ValueError, match="precision must be >= 0"):
            measure_max_rate(make_topology(LEAF), ("a", "/"), precision=precision)

    def test_zero_precision_stops_on_plateau(self):
        result = measure_max_rate(make_topology(LEAF), ("a", "/"), precision=0, duration_s=0.1)
        assert result.rate == 100_000.0
        assert len(result.probes) <= 3


_rng = random.Random(1)
SEEDED = [
    ("fig4", (DATA / "fig4.yml").read_text(), ("frontend", "/"), 0.2),
    ("breadth4", breadth_config(4), ("front", "/"), 0.1),
    ("depth8", depth_config(8), ("a", "/"), 0.1),
    ("delay1000", delay_chain_config(1000), ("a", "/"), 0.1),
    *((f"fuzz{i}", random_topology_text(_rng), ("s0", "/"), 0.05) for i in range(5)),
]


def _is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


class TestSeededSearch:
    @pytest.mark.parametrize(
        "name, text, target, duration_s", SEEDED, ids=[case[0] for case in SEEDED]
    )
    def test_reports_what_the_full_ramp_reports(self, monkeypatch, name, text, target, duration_s):
        topology = make_topology(text)
        seeded = measure_max_rate(topology, target, duration_s=duration_s)
        monkeypatch.setattr(maxrate, "capacity", lambda *args: None)
        ramp = measure_max_rate(topology, target, duration_s=duration_s)
        assert seeded.rate == ramp.rate
        # a population gives the same rate on both, and the seeded search skips some
        assert set(seeded.probes) < set(ramp.probes)
        assert all(_is_power_of_two(c) for c, _r in seeded.probes + ramp.probes)

    def test_fig4_is_one_saturated_probe(self):
        result = measure_max_rate(make_topology((DATA / "fig4.yml").read_text()), ("frontend", "/"))
        assert [c for c, _r in result.probes] == [4]
        assert result.rate == 48_822.0

    def test_lossy_topology_ramps_from_one_client(self):
        params = ModelParams(rto_us=20_000)
        result = measure_max_rate(
            make_topology(loss_chain_config(1)), ("a", "/"), seed=7, params=params, duration_s=0.1
        )
        populations = [c for c, _r in result.probes]
        assert populations == [2**i for i in range(len(populations))]
        assert len(populations) > 2

    def test_seed_stays_under_max_clients(self):
        result = measure_max_rate(
            make_topology(delay_chain_config(1000)), ("a", "/"), duration_s=0.1, max_clients=100
        )
        assert [c for c, _r in result.probes] == [64]

"""The analytic capacity oracle against hand-computed figures and the simulator."""

import math
import random
from pathlib import Path

import pytest

from topoforge.capacity import capacity
from topoforge.sim import S, ModelParams, Workload, build_sim, run

from conftest import (
    DATA,
    breadth_config,
    chain_config,
    delay_chain_config,
    depth_config,
    loss_chain_config,
    make_topology,
    random_topology_text,
)

SHOP_DEMO = (Path(__file__).parent.parent / "topologies" / "shop_demo.yml").read_text()
FIG4 = (DATA / "fig4.yml").read_text()
PARAMS = ModelParams()

LOSSLESS = [
    ("fig4", FIG4, ("frontend", "/")),
    ("shop_demo", SHOP_DEMO, ("frontendproxy", "/")),
    *((f"breadth{b}", breadth_config(b), ("front", "/")) for b in (1, 2, 4, 8)),
    *((f"depth{d}", depth_config(d), ("a", "/")) for d in (1, 2, 4, 8)),
    ("loss0", loss_chain_config(0), ("a", "/")),
    ("delay1000", delay_chain_config(1000), ("a", "/")),
]
_rng = random.Random(0)
LOSSLESS += [(f"fuzz{i}", random_topology_text(_rng), ("s0", "/")) for i in range(20)]


def _direct_pair(*options: str) -> str:
    lines = "".join(f"          {option}\n" for option in options)
    return (
        "a:\n  type: service\n  port: 9000\n  endpoints:\n"
        "    - entrypoint: /\n      psize: 64\n      connections:\n"
        f"        - path: b\n          url: /\n{lines}"
        "b:\n  type: service\n  port: 9001\n  endpoints:\n    - entrypoint: /\n      psize: 64\n"
    )


class TestFig4:
    def test_hand_computed_demands(self):
        cap = capacity(make_topology(FIG4), ("frontend", "/"), PARAMS, 0.5)
        # a 256-byte reply (128 header + db's psize 128) at 100 mbit
        assert cap.bottleneck == "r1->frontend"
        assert math.isclose(cap.d_max_us, 20.48)
        assert cap.demands_us["frontend"] == 20.0  # the request and db's reply
        assert cap.demands_us["db"] == 10.0
        assert cap.demands_us["r1"] == 2.0  # one packet each way
        assert math.isclose(cap.demands_us["frontend->r1"], 10.24)  # a 128-byte request
        assert cap.demands_us["r1->db"] == 0.0  # unshaped
        assert math.isclose(cap.r0_us, 62.72)
        assert cap.knee == 4
        assert math.isclose(cap.bound, 48_828.125)

    def test_timer_counts_at_its_loosest_inside_the_window(self):
        # frontend's link runs at 1gbit over [10 s, 40 s)
        topology = make_topology(FIG4)
        early = capacity(topology, ("frontend", "/"), PARAMS, 9.0)
        late = capacity(topology, ("frontend", "/"), PARAMS, 20.0)
        assert early.bottleneck == "r1->frontend"
        assert math.isclose(late.demands_us["r1->frontend"], 2.048)
        assert late.bottleneck == "frontend"
        assert late.bound == S / 20.0


def test_thousand_deep_call_chain():
    # every service but the last handles a request and a reply
    cap = capacity(make_topology(chain_config(1000)), ("s0", "/"), PARAMS, 0.5)
    assert cap.r0_us == 999 * 20.0 + 10.0
    assert cap.bound == 50_000.0


@pytest.mark.parametrize("name, text, target", LOSSLESS, ids=[case[0] for case in LOSSLESS])
def test_simulator_meets_the_bounds(name, text, target):
    topology = make_topology(text)
    r0_s = capacity(topology, target, PARAMS, 1.0).r0_us / S
    # a window of 100 lone round trips keeps the start-up transient near 1%
    duration_s = max(0.02, 100 * r0_s)
    cap = capacity(topology, target, PARAMS, duration_s)
    service, entrypoint = target

    def closed(clients: int, seconds: float = duration_s):
        workload = Workload(service=service, entrypoint=entrypoint, clients=clients, duration_s=seconds)
        return run(build_sim(topology, params=PARAMS), workload)

    alone = closed(1, min(duration_s, 0.01))
    assert alone.failed == 0
    assert math.isclose(alone.rtt_mean_us, cap.r0_us, rel_tol=1e-9)
    rates = [alone.achieved_rate, closed(cap.knee).achieved_rate, closed(2 * cap.knee).achieved_rate]
    assert all(rate <= cap.bound * (1 + 1e-9) for rate in rates), (rates, cap.bound)
    assert rates[-1] >= cap.bound * 0.98, (rates, cap.bound)


class TestNoAnswer:
    def test_lossy_link(self):
        assert capacity(make_topology(loss_chain_config(1)), ("a", "/"), PARAMS, 0.5) is None

    @pytest.mark.parametrize(
        "options",
        [
            ["duplicate: 1%"],
            ["corrupt: 1%"],
            ["buffer_size: 100"],
            ["delay: 100us", "jitter: 10us"],
            ["delay: 100us", "reorder: 1%"],
        ],
    )
    def test_random_link(self, options):
        assert capacity(make_topology(_direct_pair(*options)), ("a", "/"), PARAMS, 0.5) is None

    def test_random_timer_only_inside_the_window(self):
        # a 0% loss never drops a packet
        text = _direct_pair(
            "loss: 0%",
            "timers:\n            - option: loss\n              start: 1\n"
            "              duration: 1\n              newValue: 5%",
        )
        topology = make_topology(text)
        assert capacity(topology, ("a", "/"), PARAMS, 0.5) is not None
        assert capacity(topology, ("a", "/"), PARAMS, 1.5) is None

    def test_only_the_links_the_target_crosses_count(self):
        # jitter sits on checkoutservice's call to paymentservice
        topology = make_topology(SHOP_DEMO)
        assert capacity(topology, ("frontendproxy", "/"), PARAMS, 0.5) is not None
        assert capacity(topology, ("frontendproxy", "/checkout"), PARAMS, 0.5) is None

    def test_unknown_target(self):
        topology = make_topology(FIG4)
        assert capacity(topology, ("frontend", "/absent"), PARAMS, 0.5) is None
        assert capacity(topology, ("absent", "/"), PARAMS, 0.5) is None

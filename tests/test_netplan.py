"""Network planning: allocation, routes, command rendering, timer scripts."""

import ipaddress
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import topoforge as tf
from topoforge.errors import CapacityExceededError, OptionConflictError
from topoforge.model import (
    OPTION_KINDS,
    ConnectionSpec,
    EndpointSpec,
    ImpairmentSpec,
    Path,
    Rate,
    ServiceSpec,
    TimerSpec,
    TopologyConfig,
)
from topoforge.deploy import GenerationOptions, plan_deployment
from topoforge.sim import build_sim
from topoforge.netplan import (
    impairment_timeline,
    plan_network,
    render_impairments,
    render_timer_script,
    setup_commands,
    timer_window,
)

from conftest import delay_chain_config, make_topology, route_conflict_config, shared_first_hop_config


def _setup(t, np) -> dict[str, list[str]]:
    """Every entity's rendered setup commands."""
    return {name: setup_commands(t, np, name) for name in t.entities}


class TestAllocation:
    def test_fig4_subnets(self, fig4_topology):
        np = plan_network(fig4_topology)
        assert [(s.name, s.cidr) for s in np.subnets] == [
            ("bridge", "10.0.0.0/22"),
            ("link_db_r1", "10.0.4.0/22"),
            ("link_frontend_r1", "10.0.8.0/22"),
        ]

    def test_fig4_addresses(self, fig4_topology):
        np = plan_network(fig4_topology)
        assert np.address("frontend", "bridge") == "10.0.0.2"
        assert np.address("payment", "bridge") == "10.0.0.3"
        assert np.address("db", "link_db_r1") == "10.0.4.2"
        assert np.address("r1", "link_db_r1") == "10.0.4.3"
        assert np.address("frontend", "link_frontend_r1") == "10.0.8.2"
        assert np.address("r1", "link_frontend_r1") == "10.0.8.3"

    def test_iface_names_follow_subnet_order(self, fig4_topology):
        np = plan_network(fig4_topology)
        assert list(np.attached["frontend"].items()) == [
            ("bridge", ("10.0.0.2", "eth0")),
            ("link_frontend_r1", ("10.0.8.2", "eth1")),
        ]
        assert list(np.attached["r1"].items()) == [
            ("link_db_r1", ("10.0.4.3", "eth0")),
            ("link_frontend_r1", ("10.0.8.3", "eth1")),
        ]

    def test_host_ports(self, fig4_topology):
        _np, plan = plan_deployment(fig4_topology, GenerationOptions())
        assert {c.name: c.ports for c in plan.containers if c.role == "service"} == {
            "frontend": [(80, 80)],
            "db": [(10001, 10001)],
            "payment": [(10002, 10002)],
        }

    def test_v6_allocation(self, fig4_topology):
        np = plan_network(fig4_topology, family="v6")
        assert np.subnets[0].cidr == "fd00::/64"
        assert np.subnets[1].cidr == "fd00:0:0:1::/64"
        assert np.address("frontend", "bridge") == "fd00::2"

    def test_custom_base(self, fig4_topology):
        np = plan_network(fig4_topology, base="192.168.0.0/16")
        assert np.subnets[0].cidr == "192.168.0.0/22"

    def test_base_too_small(self, fig4_topology):
        with pytest.raises(CapacityExceededError):
            plan_network(fig4_topology, base="10.0.0.0/24")
        # room for one /22, but fig4 needs the bridge and two link subnets
        with pytest.raises(CapacityExceededError, match="holds 1 /22 subnets; the plan needs 3"):
            plan_network(fig4_topology, base="10.0.0.0/22")
        assert len(plan_network(fig4_topology, base="10.0.0.0/20").subnets) == 3

    @pytest.mark.parametrize("family, base", [("v4", "fd00::/16"), ("v6", "10.0.0.0/8")])
    def test_base_of_the_other_version(self, fig4_topology, family, base):
        with pytest.raises(OptionConflictError, match="is not an IPv"):
            plan_network(fig4_topology, family=family, base=base)

    def test_deterministic(self, fig4_topology):
        a = plan_network(fig4_topology)
        b = plan_network(fig4_topology)
        assert a.subnets == b.subnets
        assert a.attached == b.attached
        assert a.routes == b.routes
        assert a.egress == b.egress
        assert _setup(fig4_topology, a) == _setup(fig4_topology, b)
        assert a.timer_scripts == b.timer_scripts

    def test_all_addresses_inside_their_subnet(self, fig4_topology):
        np = plan_network(fig4_topology)
        by_name = {s.name: s for s in np.subnets}
        for by_subnet in np.attached.values():
            for sname, (addr, _iface) in by_subnet.items():
                assert ipaddress.ip_address(addr) in by_name[sname].network


class TestRoutes:
    def test_fig4_setup(self, fig4_topology):
        np = plan_network(fig4_topology)
        assert np.routes == {"frontend": {"10.0.4.2": "10.0.8.3"}, "db": {"10.0.8.2": "10.0.4.3"}}
        setup = _setup(fig4_topology, np)
        assert setup["frontend"] == [
            "tc qdisc add dev eth1 root netem rate 100mbit",
            "ip route add 10.0.4.2/32 via 10.0.8.3",
        ]
        assert setup["db"] == ["ip route add 10.0.8.2/32 via 10.0.4.3"]
        assert setup["r1"] == ["sysctl -w net.ipv4.ip_forward=1"]
        assert setup["payment"] == []  # direct connection: on-link, nothing to add

    def test_three_router_chain_routes(self):
        text = (
            "a:\n  type: service\n  port: 9000\n  endpoints:\n"
            "    - entrypoint: /\n      psize: 1\n      connections:\n"
            "        - path: r1->r2->r3->b\n          url: /\n"
            "r1:\n  type: router\n  connections:\n    - path: r2\n"
            "r2:\n  type: router\n  connections:\n    - path: r3\n"
            "r3:\n  type: router\n  connections:\n    - path: b\n"
            "b:\n  type: service\n  port: 9001\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
        )
        topo = make_topology(text)
        routes = {
            name: [c for c in cmds if c.startswith("ip route")]
            for name, cmds in _setup(topo, plan_network(topo)).items()
        }
        assert len(routes["a"]) == 1  # forward toward b
        assert len(routes["b"]) == 1  # reverse toward a
        # middle routers forward in one direction and mirror the other
        assert len(routes["r2"]) == 2
        # edge routers: one endpoint is on-link, so a single route each
        assert len(routes["r1"]) == 1
        assert len(routes["r3"]) == 1

    def test_v6_route_dialect(self, fig4_topology):
        setup = _setup(fig4_topology, plan_network(fig4_topology, family="v6"))
        assert any(
            re.match(r"^ip -6 route add \S+/128 via \S+$", c)
            for c in setup["frontend"]
        )
        assert setup["r1"] == ["sysctl -w net.ipv6.conf.all.forwarding=1"]


class TestCommandRendering:
    def test_combined_netem_single_command(self):
        opt = ImpairmentSpec(delay=200.0, jitter=50.0, loss=1.0)
        assert render_impairments(opt, "eth0") == [
            "tc qdisc add dev eth0 root netem delay 200us 50us loss 1%"
        ]

    def test_empty_spec_renders_nothing(self):
        assert render_impairments(ImpairmentSpec(), "eth0") == []

    def test_mtu_is_a_link_command(self):
        opt = ImpairmentSpec(mtu=1400)
        assert render_impairments(opt, "eth2") == ["ip link set dev eth2 mtu 1400"]

    def test_full_option_order(self):
        opt = ImpairmentSpec(
            mtu=1400,
            buffer_size=500,
            rate=Rate(100.0, "mbit"),
            delay=1000.0,
            jitter=100.0,
            loss=1.0,
            corrupt=0.5,
            duplicate=2.0,
            reorder=3.0,
        )
        assert render_impairments(opt, "eth0") == [
            "ip link set dev eth0 mtu 1400",
            "tc qdisc add dev eth0 root netem limit 500 rate 100mbit "
            "delay 1000us 100us loss 1% corrupt 0.5% duplicate 2% reorder 3%",
        ]


def values_at(spec: ImpairmentSpec, t: float) -> ImpairmentSpec:
    """The timeline segment of ``spec`` in force at ``t`` seconds."""
    return [values for start, values in impairment_timeline(spec) if start <= t][-1]


class TestTimers:
    def test_window_semantics(self):
        assert timer_window(10.0, 30.0) == (10.0, 40.0)

    def test_effective_values(self):
        base = ImpairmentSpec(
            rate=Rate(100.0, "mbit"),
            timers=(TimerSpec("rate", 10.0, 30.0, Rate(1.0, "gbit")),),
        )
        assert values_at(base, 9.999).rate == Rate(100.0, "mbit")
        assert values_at(base, 10.0).rate == Rate(1.0, "gbit")
        assert values_at(base, 39.999).rate == Rate(1.0, "gbit")
        assert values_at(base, 40.0).rate == Rate(100.0, "mbit")

    def test_overlap_latest_start_wins(self):
        base = ImpairmentSpec(
            loss=1.0,
            timers=(
                TimerSpec("loss", 5.0, 10.0, 5.0),
                TimerSpec("loss", 9.0, 10.0, 10.0),
            ),
        )
        assert values_at(base, 6.0).loss == 5.0
        assert values_at(base, 9.0).loss == 10.0
        assert values_at(base, 14.5).loss == 10.0  # first window over
        assert values_at(base, 18.9).loss == 10.0
        assert values_at(base, 19.0).loss == 1.0

    def test_fig4_script_text(self, fig4_topology):
        np = plan_network(fig4_topology)
        assert np.timer_scripts == {
            "frontend": (
                "#!/bin/sh\n"
                "# scheduled impairment overrides\n"
                "sleep 10\n"
                "tc qdisc change dev eth1 root netem rate 1gbit\n"
                "sleep 30\n"
                "tc qdisc change dev eth1 root netem rate 100mbit\n"
            )
        }

    def test_script_replay_matches_effective_values(self):
        """Replay the rendered script on a virtual clock and compare the
        netem parameter string in force against the timeline."""
        base = ImpairmentSpec(
            rate=Rate(50.0, "mbit"),
            loss=1.0,
            timers=(
                TimerSpec("loss", 5.0, 10.0, 5.0),
                TimerSpec("loss", 9.0, 10.0, 10.0),
                TimerSpec("rate", 2.0, 4.0, Rate(10.0, "mbit")),
            ),
        )
        script = render_timer_script({"eth0": base})

        # virtual execution: start from the boot-time netem line
        from topoforge.netplan import _netem_params

        state = {0.0: _netem_params(replace(base, timers=()))}
        now = 0.0
        for line in script.splitlines():
            if line.startswith("sleep "):
                now += float(line.split()[1])
            elif line.startswith("tc qdisc change dev eth0 root netem "):
                state[now] = line.removeprefix("tc qdisc change dev eth0 root netem ")

        def replayed(t):
            return max((v for k, v in state.items() if k <= t), key=lambda v: 0)

        for t in [0.0, 1.9, 2.0, 3.5, 5.0, 6.0, 8.9, 9.0, 12.0, 14.9, 15.0, 18.9, 19.0, 25.0]:
            applied = [v for k, v in sorted(state.items()) if k <= t][-1]
            expected = _netem_params(values_at(base, t))
            assert applied == expected, f"at t={t}: {applied!r} != {expected!r}"

    def test_boundaries(self):
        timers = (
            TimerSpec("loss", 5.0, 10.0, 5.0),
            TimerSpec("rate", 2.0, 4.0, Rate(1.0, "gbit")),
        )
        spec = ImpairmentSpec(rate=Rate(100.0, "mbit"), loss=1.0, timers=timers)
        assert [t for t, _values in impairment_timeline(spec)] == [0.0, 2.0, 5.0, 6.0, 15.0]

    def test_segments_hold_no_timers(self):
        spec = ImpairmentSpec(rate=Rate(100.0, "mbit"))
        assert impairment_timeline(spec) == [(0.0, spec)]
        timed = replace(spec, timers=(TimerSpec("rate", 1.0, 2.0, Rate(1.0, "gbit")),))
        assert impairment_timeline(timed) == [
            (0.0, spec),
            (1.0, ImpairmentSpec(rate=Rate(1.0, "gbit"))),
            (3.0, spec),
        ]

    def test_equal_starts_later_declaration_wins(self):
        base = ImpairmentSpec(
            loss=1.0,
            timers=(TimerSpec("loss", 2.0, 10.0, 5.0), TimerSpec("loss", 2.0, 4.0, 7.0)),
        )
        assert values_at(base, 1.0).loss == 1.0
        assert values_at(base, 2.0).loss == 7.0
        assert values_at(base, 6.0).loss == 5.0  # the later window is over
        assert values_at(base, 12.0).loss == 1.0

    def test_no_timers_no_script(self):
        assert render_timer_script({"eth0": ImpairmentSpec(rate=Rate(1, "mbit"))}) == ""

    def test_timer_from_launch_changes_before_first_sleep(self):
        text = (
            "a:\n  type: service\n  port: 9000\n  endpoints:\n"
            "    - entrypoint: /\n      psize: 1\n      connections:\n"
            "        - path: r->b\n          url: /\n          loss: 1%\n"
            "          timers:\n            - option: loss\n              start: 0\n"
            "              duration: 5\n              newValue: 10%\n"
            "r:\n  type: router\n  connections:\n    - path: b\n"
            "b:\n  type: service\n  port: 9001\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
        )
        topo = make_topology(text)
        np = plan_network(topo)
        assert "tc qdisc add dev eth0 root netem loss 1%" in setup_commands(topo, np, "a")
        assert np.timer_scripts == {
            "a": (
                "#!/bin/sh\n"
                "# scheduled impairment overrides\n"
                "tc qdisc change dev eth0 root netem loss 10%\n"
                "sleep 5\n"
                "tc qdisc change dev eth0 root netem loss 1%\n"
            )
        }

    def test_timers_on_two_interfaces_share_one_script(self):
        text = (
            "a:\n  type: service\n  port: 9000\n  endpoints:\n"
            "    - entrypoint: /\n      psize: 1\n      connections:\n"
            "        - path: r0->b\n          url: /\n          loss: 1%\n"
            "          timers:\n            - option: loss\n              start: 2\n"
            "              duration: 4\n              newValue: 10%\n"
            "        - path: r1->c\n          url: /\n          delay: 5ms\n"
            "          timers:\n            - option: delay\n              start: 1\n"
            "              duration: 2\n              newValue: 10ms\n"
            "r0:\n  type: router\n  connections:\n    - path: b\n"
            "r1:\n  type: router\n  connections:\n    - path: c\n"
            "b:\n  type: service\n  port: 9001\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
            "c:\n  type: service\n  port: 9002\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
        )
        np = plan_network(make_topology(text))
        assert np.attached["a"]["link_a_r0"][1] == "eth0"
        assert np.attached["a"]["link_a_r1"][1] == "eth1"
        assert np.timer_scripts == {
            "a": (
                "#!/bin/sh\n"
                "# scheduled impairment overrides\n"
                "sleep 1\n"
                "tc qdisc change dev eth1 root netem delay 10000us\n"
                "sleep 1\n"
                "tc qdisc change dev eth0 root netem loss 10%\n"
                "sleep 1\n"
                "tc qdisc change dev eth1 root netem delay 5000us\n"
                "sleep 3\n"
                "tc qdisc change dev eth0 root netem loss 1%\n"
            )
        }


class TestRouteConflicts:
    def test_diverging_paths_to_same_final_link_rejected(self):
        from topoforge.errors import ConflictingRouteError

        with pytest.raises(ConflictingRouteError):
            plan_network(make_topology(route_conflict_config()))


class TestDelayChain:
    def test_both_links_shaped(self):
        topo = make_topology(delay_chain_config(500))
        setup = _setup(topo, plan_network(topo))
        assert "tc qdisc add dev eth0 root netem delay 500us" in setup["a"]
        assert any("netem delay 500us" in c for c in setup["r"])


class TestOneNetemPerInterface:
    def test_connections_through_one_first_hop_share_one_netem(self):
        topo = make_topology(shared_first_hop_config())
        np = plan_network(topo)
        setup = _setup(topo, np)
        for name, cmds in setup.items():
            roots = [c.split()[4] for c in cmds if c.startswith("tc qdisc add dev ")]
            assert len(roots) == len(set(roots)), (name, cmds)
        # the first declaration of each option and of the timer list wins,
        # as on the simulator's link
        assert "tc qdisc add dev eth0 root netem rate 100mbit" in setup["front"]
        assert np.timer_scripts["front"] == (
            "#!/bin/sh\n"
            "# scheduled impairment overrides\n"
            "sleep 5\n"
            "tc qdisc change dev eth0 root netem rate 1gbit\n"
            "sleep 10\n"
            "tc qdisc change dev eth0 root netem rate 100mbit\n"
        )

    def test_only_interfaces_with_options_have_egress(self):
        # front also calls pay directly, unshaped, over the bridge
        text = shared_first_hop_config().replace(
            "r1:\n",
            "        - path: pay\n          url: /\n"
            "pay:\n  type: service\n  port: 9003\n  endpoints:\n"
            "    - entrypoint: /\n      psize: 128\n"
            "r1:\n",
            1,
        )
        np = plan_network(make_topology(text))
        toward_r1 = np.attached["front"][np.subnet_between("front", "r1")][1]
        assert np.subnet_between("front", "pay") == "bridge"
        assert {name: list(by_iface) for name, by_iface in np.egress.items()} == {"front": [toward_r1]}
        assert np.egress["front"][toward_r1].rate == Rate(100, "mbit")


# --- netem read-back ----------------------------------------------------------

# netem's keyword of each option (man tc-netem(8)); jitter is delay's second
# argument, and mtu is no netem parameter
_NETEM_KEYWORDS = {
    "limit": "buffer_size", "rate": "rate", "delay": "delay", "loss": "loss",
    "corrupt": "corrupt", "duplicate": "duplicate", "reorder": "reorder",
}
_NETEM_RE = re.compile(r"tc qdisc (?:add|change) dev eth0 root netem (.*)")


def _finite(low: float, **kwargs):
    return st.floats(low, allow_nan=False, allow_infinity=False, **kwargs)


# valid values of each option; delay stays above 0 for jitter and reorder
_VALUES = {
    "mtu": st.integers(68, 65_535),
    "buffer_size": st.integers(1, 2**32 - 1),
    "rate": st.builds(Rate, _finite(0, exclude_min=True), st.sampled_from(["kbit", "mbit", "gbit"])),
    "delay": _finite(0, exclude_min=True),
    "jitter": _finite(0),
    **{key: st.floats(0, 100) for key in ("loss", "corrupt", "duplicate", "reorder")},
}


@st.composite
def _specs(draw):
    names = draw(st.lists(st.sampled_from(sorted(_VALUES)), unique=True))
    values = {name: draw(_VALUES[name]) for name in names}
    if "delay" not in values:
        values.pop("jitter", None)
        values.pop("reorder", None)
    timers = []
    for _ in range(draw(st.integers(0, 3)) if values else 0):
        option = draw(st.sampled_from(sorted(values)))
        start, duration = draw(st.integers(0, 30)), draw(st.integers(1, 30))
        timers.append(TimerSpec(option, float(start), float(duration), draw(_VALUES[option])))
    return ImpairmentSpec(**values, timers=tuple(timers))


def _netem_values(spec: ImpairmentSpec) -> dict:
    """The options of ``spec`` that its netem line carries."""
    values = {name: getattr(spec, name) for name in [*_NETEM_KEYWORDS.values(), "jitter"]}
    if spec.delay is None:
        del values["jitter"]
    return {name: value for name, value in values.items() if value is not None}


def _read_netem(params: str) -> dict:
    """Each netem argument read back through its option's parser; the
    keywords must come in table order."""
    tokens, values = params.split(), {}
    while tokens:
        name, token = _NETEM_KEYWORDS[tokens.pop(0)], tokens.pop(0)
        values[name] = token
        if name == "delay" and tokens and tokens[0] not in _NETEM_KEYWORDS:
            values["jitter"] = tokens.pop(0)
    assert list(values) == [name for name in OPTION_KINDS if name in values]
    return {
        name: OPTION_KINDS[name].parse(int(token) if token.isdigit() else token)
        for name, token in values.items()
    }


@settings(max_examples=150, deadline=None)
@given(_specs())
@example(
    ImpairmentSpec(
        rate=Rate(1e-7, "kbit"), delay=1e-5, jitter=5e-324, loss=1e-5,
        timers=(TimerSpec("delay", 1.0, 2.0, 1e-7),),
    )
)
def test_netem_arguments_read_back(spec):
    """What setup commands and timer scripts pass to netem reads back as the
    values the spec, and the simulator's link, hold."""
    cfg = TopologyConfig({
        "a": ServiceSpec("a", 8000, (EndpointSpec("/", 1, (ConnectionSpec(Path(("b",)), "/", spec),)),)),
        "b": ServiceSpec("b", 8001, (EndpointSpec("/", 1),)),
    })
    t = tf.validate(cfg)
    np = plan_network(t)
    setup = [m.group(1) for m in map(_NETEM_RE.fullmatch, setup_commands(t, np, "a")) if m]
    assert [_read_netem(params) for params in setup] == ([_netem_values(spec)] if _netem_values(spec) else [])
    # the timer script: one netem line for each change of the values in force
    expected, current = [], _netem_values(spec)
    for _start, values in impairment_timeline(spec):
        if _netem_values(values) != current:
            current = _netem_values(values)
            expected.append(current)
    script = np.timer_scripts.get("a", "").splitlines()
    assert [_read_netem(m.group(1)) for m in map(_NETEM_RE.fullmatch, script) if m] == expected
    world = build_sim(t)
    for start, values in impairment_timeline(spec):
        for name in OPTION_KINDS:
            assert world.link_param("a", "b", name, start) == getattr(values, name)

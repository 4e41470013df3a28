"""Structural validation: path resolution, linkage, graphs, ranges, capacity."""

import pytest

import topoforge as tf
from topoforge.errors import (
    CapacityExceededError,
    CyclicCallGraphError,
    DanglingRouterConnectionError,
    DuplicatePortError,
    MissingRouterLinkageError,
    NonRouterIntermediateHopError,
    OptionRangeError,
    SchemaError,
    TerminalNotServiceError,
    TimerTargetMissingError,
    UnknownEntityError,
    UnknownEntrypointError,
    ValidationError,
)
from topoforge.model import OPTION_KINDS, Rate
from topoforge.netplan import (
    MAX_HOSTS_PER_SUBNET_V4,
    MAX_SERVICES,
    MAX_SUBNETS_V4,
    check_capacity,
    plan_network,
)

from conftest import colliding_links_config, depth_config, make_topology, shared_first_hop_config

_LEAF = "b:\n  type: service\n  port: 8001\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"


def _svc_a(conn: str) -> str:
    return (
        "a:\n  type: service\n  port: 8000\n  endpoints:\n"
        "    - entrypoint: /\n      psize: 1\n      connections:\n"
        f"{conn}"
    )


class TestExampleTopology:
    def test_graphs(self, fig4_topology):
        t = fig4_topology
        assert [((rp.service, rp.entrypoint), (rp.terminal, rp.url)) for rp in t.path_table] == [
            (("frontend", "/"), ("db", "/")),
            (("frontend", "/payment"), ("payment", "/")),
        ]
        assert sorted(t.link_graph) == [("db", "r1"), ("frontend", "payment"), ("frontend", "r1")]
        assert [rp.hops for rp in t.path_table] == [
            ("frontend", "r1", "db"),
            ("frontend", "payment"),
        ]

    def test_pairs_and_bridge(self, fig4_topology):
        # the bridge, then one link subnet per routed pair, in pair order
        np = plan_network(fig4_topology)
        assert [s.name for s in np.subnets] == ["bridge", "link_db_r1", "link_frontend_r1"]
        assert [e for e, by_subnet in np.attached.items() if "bridge" in by_subnet] == [
            "frontend", "payment"
        ]

    def test_order_preserved(self, fig4_topology):
        assert list(fig4_topology.entities) == ["frontend", "r1", "db", "payment"]

    def test_system_port_warning(self, fig4_topology):
        assert any("port 80" in w for w in fig4_topology.warnings)


class TestPathResolution:
    def test_unknown_entity(self):
        with pytest.raises(UnknownEntityError):
            make_topology(_svc_a("        - path: ghost\n          url: /\n") + _LEAF)

    def test_unknown_entrypoint(self):
        with pytest.raises(UnknownEntrypointError):
            make_topology(_svc_a("        - path: b\n          url: /missing\n") + _LEAF)

    def test_intermediate_must_be_router(self):
        text = (
            _svc_a("        - path: b->c\n          url: /\n")
            + _LEAF
            + "c:\n  type: service\n  port: 8002\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
        )
        with pytest.raises(NonRouterIntermediateHopError):
            make_topology(text)

    def test_terminal_must_be_service(self):
        text = _svc_a("        - path: r\n          url: /\n") + _LEAF + "r:\n  type: router\n  connections:\n    - path: b\n"
        with pytest.raises(TerminalNotServiceError):
            make_topology(text)

    def test_repeated_hop_rejected(self):
        text = (
            _svc_a("        - path: r->r->b\n          url: /\n")
            + _LEAF
            + "r:\n  type: router\n  connections:\n    - path: b\n"
        )
        with pytest.raises(ValidationError, match="repeated hop"):
            make_topology(text)

    def test_source_in_own_path_rejected(self):
        with pytest.raises(ValidationError, match="repeated hop"):
            make_topology(_svc_a("        - path: a\n          url: /\n") + _LEAF)

    def test_path_past_the_ip_ttl_warned(self):
        # Linux starts packets at TTL 64, so the 64th router drops them
        path = "->".join(f"r{i}" for i in range(64)) + "->b"
        assert [w for w in make_topology(depth_config(64)).warnings if "TTL" in w] == [
            f"service 'a' path '{path}' crosses 64 routers: packets start at IP TTL 64, "
            "so router 64 drops them"
        ]
        assert not [w for w in make_topology(depth_config(63)).warnings if "TTL" in w]


class TestRouterLinkage:
    def test_missing_linkage(self):
        text = (
            _svc_a("        - path: r->b\n          url: /\n")
            + _LEAF
            + "c:\n  type: service\n  port: 8002\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
            + "r:\n  type: router\n  connections:\n    - path: c\n"
        )
        with pytest.raises(MissingRouterLinkageError) as ei:
            make_topology(text)
        assert ei.value.router == "r"
        assert ei.value.expected_next_hop == "b"

    def test_unreferenced_router_is_warning(self):
        text = _svc_a("        - path: b\n          url: /\n") + _LEAF + "r:\n  type: router\n  connections:\n    - path: b\n"
        t = make_topology(text)
        assert any("not referenced" in w for w in t.warnings)

    def test_dangling_connection_on_referenced_router(self):
        text = (
            _svc_a("        - path: r->b\n          url: /\n")
            + _LEAF
            + "c:\n  type: service\n  port: 8002\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
            + "r:\n  type: router\n  connections:\n    - path: b\n    - path: c\n"
        )
        with pytest.raises(DanglingRouterConnectionError):
            make_topology(text)

    def test_two_hop_router_chain(self):
        text = (
            _svc_a("        - path: r1->r2->b\n          url: /\n")
            + _LEAF
            + "r1:\n  type: router\n  connections:\n    - path: r2\n"
            + "r2:\n  type: router\n  connections:\n    - path: b\n"
        )
        t = make_topology(text)
        assert t.path_table[0].hops == ("a", "r1", "r2", "b")
        np = plan_network(t)
        assert [s.name for s in np.subnets] == ["link_a_r1", "link_b_r2", "link_r1_r2"]
        # every entity is on a link subnet, so there is no bridge
        assert not [e for e, by_subnet in np.attached.items() if "bridge" in by_subnet]


class TestCallGraph:
    def test_two_node_cycle(self):
        text = (
            _svc_a("        - path: b\n          url: /\n")
            + "b:\n  type: service\n  port: 8001\n  endpoints:\n"
            "    - entrypoint: /\n      psize: 1\n      connections:\n"
            "        - path: a\n          url: /\n"
        )
        with pytest.raises(CyclicCallGraphError) as ei:
            make_topology(text)
        assert len(ei.value.cycle) >= 3

    def test_cycle_reported_in_call_order(self):
        def svc(name, port, callee):
            return (
                f"{name}:\n  type: service\n  port: {port}\n  endpoints:\n"
                "    - entrypoint: /\n      psize: 1\n      connections:\n"
                f"        - path: {callee}\n          url: /\n"
            )

        text = svc("a", 8000, "b") + svc("b", 8001, "c") + svc("c", 8002, "a")
        with pytest.raises(CyclicCallGraphError) as ei:
            make_topology(text)
        cycle = [name for name, _ep in ei.value.cycle]
        assert cycle[0] == cycle[-1] and len(cycle) == 4
        calls = {("a", "b"), ("b", "c"), ("c", "a")}
        assert set(zip(cycle, cycle[1:])) == calls

    def test_self_loop_via_other_entrypoint(self):
        text = (
            "a:\n  type: service\n  port: 8000\n  endpoints:\n"
            "    - entrypoint: /\n      psize: 1\n      connections:\n"
            "        - path: b\n          url: /\n"
            "    - entrypoint: /x\n      psize: 1\n"
            "b:\n  type: service\n  port: 8001\n  endpoints:\n"
            "    - entrypoint: /\n      psize: 1\n      connections:\n"
            "        - path: a\n          url: /x\n"
        )
        # a/ -> b/ -> a/x is a DAG (distinct endpoint nodes); must validate
        t = make_topology(text)
        assert len(t.path_table) == 2

    def test_diamond_is_acyclic(self):
        text = (
            "a:\n  type: service\n  port: 8000\n  endpoints:\n"
            "    - entrypoint: /\n      psize: 1\n      connections:\n"
            "        - path: b\n          url: /\n        - path: c\n          url: /\n"
            "b:\n  type: service\n  port: 8001\n  endpoints:\n"
            "    - entrypoint: /\n      psize: 1\n      connections:\n"
            "        - path: d\n          url: /\n"
            "c:\n  type: service\n  port: 8002\n  endpoints:\n"
            "    - entrypoint: /\n      psize: 1\n      connections:\n"
            "        - path: d\n          url: /\n"
            "d:\n  type: service\n  port: 8003\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
        )
        assert len(make_topology(text).path_table) == 4


class TestPortsAndOptions:
    def test_duplicate_port(self):
        text = (
            "a:\n  type: service\n  port: 8000\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
            "b:\n  type: service\n  port: 8000\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
        )
        with pytest.raises(DuplicatePortError):
            make_topology(text)

    @pytest.mark.parametrize("port", [0, -1, 65536])
    def test_port_out_of_range(self, port):
        with pytest.raises(OptionRangeError):
            make_topology(
                f"a:\n  type: service\n  port: {port}\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
            )

    def test_port_65535_allowed(self):
        make_topology("a:\n  type: service\n  port: 65535\n  endpoints:\n    - entrypoint: /\n      psize: 1\n")

    @pytest.mark.parametrize(
        "opt",
        [
            "loss: 150%", "corrupt: 101", "mtu: 40", "mtu: 70000", "buffer_size: 0",
            "buffer_size: 4294967296",
        ],
    )
    def test_option_out_of_range(self, opt):
        text = _svc_a(f"        - path: b\n          url: /\n          {opt}\n") + _LEAF
        with pytest.raises(OptionRangeError):
            make_topology(text)

    @pytest.mark.parametrize("opt", ["jitter: 10us", "reorder: 5%"])
    def test_delay_dependent_options(self, opt):
        text = _svc_a(f"        - path: b\n          url: /\n          {opt}\n") + _LEAF
        with pytest.raises(OptionRangeError):
            make_topology(text)
        # fine once a delay is present
        make_topology(
            _svc_a(f"        - path: b\n          url: /\n          delay: 1ms\n          {opt}\n") + _LEAF
        )

    def test_buffer_size_upper_bound(self):
        # netem's limit is 32 bits wide: its largest value validates, a timer
        # new value past it does not
        conn = "        - path: b\n          url: /\n          buffer_size: 4294967295\n"
        make_topology(_svc_a(conn) + _LEAF)
        timer = (
            "          timers:\n            - option: buffer_size\n              start: 1\n"
            "              duration: 2\n              newValue: 4294967296\n"
        )
        with pytest.raises(OptionRangeError, match="buffer_size outside") as ei:
            make_topology(_svc_a(conn + timer) + _LEAF)
        assert (ei.value.entity, ei.value.field) == ("a", "buffer_size")

    def test_timer_without_base_value(self):
        text = _svc_a(
            "        - path: b\n          url: /\n          timers:\n"
            "            - option: loss\n              start: 1\n              duration: 2\n              newValue: 5%\n"
        ) + _LEAF
        with pytest.raises(TimerTargetMissingError):
            make_topology(text)

    def test_timer_new_value_range_checked(self):
        text = _svc_a(
            "        - path: b\n          url: /\n          loss: 1%\n          timers:\n"
            "            - option: loss\n              start: 1\n              duration: 2\n              newValue: 150%\n"
        ) + _LEAF
        with pytest.raises(OptionRangeError):
            make_topology(text)

    def test_link_impairment_merge_first_wins(self):
        text = (
            _svc_a("        - path: r->b\n          url: /\n          delay: 1ms\n")
            + _LEAF
            + "r:\n  type: router\n  connections:\n    - path: b\n      delay: 2ms\n"
        )
        t = make_topology(text)
        assert t.link_graph[("a", "r")].impairments.delay == 1000.0
        assert t.link_graph[("b", "r")].impairments.delay == 2000.0
        assert t.link_graph[("a", "r")].declared_by["delay"] == "a"

    def test_dropped_declaration_warns(self):
        t = make_topology(shared_first_hop_config())
        assert t.link_graph[("front", "r1")].impairments.rate == Rate(100.0, "mbit")
        assert [w for w in t.warnings if "link" in w] == [
            "link 'front<->r1': keeping rate 100mbit declared by 'front', "
            "dropping 10mbit declared by 'front'"
        ]

    def test_warning_order(self):
        # system ports first, then unreferenced routers, then dropped declarations
        text = (
            shared_first_hop_config().replace("port: 9001", "port: 443")
            + "idle:\n  type: router\n  connections:\n    - path: db\n"
        )
        assert make_topology(text).warnings == [
            "service 'db' uses system port 443 (below 1024)",
            "router 'idle' is not referenced by any path",
            "link 'front<->r1': keeping rate 100mbit declared by 'front', "
            "dropping 10mbit declared by 'front'",
        ]

    def test_dropped_timer_list_warns(self):
        first_timer = (
            "rate: 100mbit\n          timers:\n            - option: rate\n"
            "              start: 1\n              duration: 2\n              newValue: 1gbit\n"
        )
        t = make_topology(shared_first_hop_config().replace("rate: 100mbit\n", first_timer, 1))
        assert [w for w in t.warnings if "timers" in w] == [
            "link 'front<->r1': keeping timers [rate 1gbit from 1s for 2s] declared by "
            "'front', dropping [rate 1gbit from 5s for 10s] declared by 'front'"
        ]


# Each option's range as the README states it: a valid base value for a timer
# to override, the values at its finite bounds, which validate, and the first
# values beyond them, which do not.  rate's bound 0 is exclusive.
_RANGES = {
    "mtu": ("1500", ["68", "65535"], ["67", "65536"]),
    "buffer_size": ("1000", ["1", "4294967295"], ["0", "4294967296"]),
    "rate": ("1mbit", ["0.0000001kbit"], ["0mbit", "0kbit", "9" * 400 + "gbit"]),
    "delay": ("1ms", ["0us"], ["-4.9e-324", ".inf"]),
    "jitter": ("1us", ["0us"], ["-4.9e-324", ".inf"]),
    "loss": ("1%", ["0%", "100%"], ["-4.9e-324", "100.00000000000001%"]),
    "corrupt": ("1%", ["0%", "100%"], ["-4.9e-324", "100.00000000000001%"]),
    "duplicate": ("1%", ["0%", "100%"], ["-4.9e-324", "100.00000000000001%"]),
    "reorder": ("1%", ["0%", "100%"], ["-4.9e-324", "100.00000000000001%"]),
}


def _range_cases(valid: bool):
    return [
        pytest.param(option, value, timer, id=f"{option}-{value[:24]}-{'timer' if timer else 'base'}")
        for option, (_base, ok, beyond) in _RANGES.items()
        for value in (ok if valid else beyond)
        for timer in (False, True)
    ]


def _option_config(option: str, value: str, timer: bool) -> str:
    """a -> b with ``option`` set to ``value``, or overridden to it by a
    timer; every connection has a delay, which jitter and reorder need."""
    lines = [] if option == "delay" else ["delay: 1ms"]
    if timer:
        lines += [
            f"{option}: {_RANGES[option][0]}", "timers:", f"  - option: {option}",
            "    start: 1", "    duration: 2", f"    newValue: {value}",
        ]
    else:
        lines.append(f"{option}: {value}")
    conn = "        - path: b\n          url: /\n" + "".join(f"          {ln}\n" for ln in lines)
    return _svc_a(conn) + _LEAF


class TestOptionRanges:
    def test_every_option_has_cases(self):
        assert sorted(_RANGES) == sorted(OPTION_KINDS)

    @pytest.mark.parametrize("option, value, timer", _range_cases(valid=True))
    def test_bound_accepted(self, option, value, timer):
        make_topology(_option_config(option, value, timer))

    @pytest.mark.parametrize("option, value, timer", _range_cases(valid=False))
    def test_beyond_bound_rejected(self, option, value, timer):
        with pytest.raises(OptionRangeError) as ei:
            make_topology(_option_config(option, value, timer))
        assert (ei.value.entity, ei.value.field) == ("a", option)

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("mtu", "67", "mtu outside [68, 65535], got 67"),
            ("loss", "100.5%", "loss outside [0, 100], got 100.5"),
            ("delay", ".inf", "delay outside [0, inf), got inf"),
            ("rate", "0mbit", "rate must be > 0"),
        ],
    )
    def test_range_message(self, option, value, message):
        with pytest.raises(OptionRangeError) as ei:
            make_topology(_option_config(option, value, timer=False))
        assert str(ei.value) == f"entity 'a', field '{option}': {message}"


class TestCapacityLimits:
    def test_subnet_boundary(self):
        check_capacity("v4", MAX_SUBNETS_V4, 3, 1)
        with pytest.raises(CapacityExceededError):
            check_capacity("v4", MAX_SUBNETS_V4 + 1, 3, 1)

    def test_hosts_boundary(self):
        assert MAX_HOSTS_PER_SUBNET_V4 == 1022
        check_capacity("v4", 1, MAX_HOSTS_PER_SUBNET_V4, 1)
        with pytest.raises(CapacityExceededError):
            check_capacity("v4", 1, MAX_HOSTS_PER_SUBNET_V4 + 1, 1)

    def test_service_boundary(self):
        assert MAX_SERVICES == 64_510
        check_capacity("v4", 1, 3, MAX_SERVICES)
        with pytest.raises(CapacityExceededError):
            check_capacity("v4", 1, 3, MAX_SERVICES + 1)

    def test_v6_is_roomier(self):
        check_capacity("v6", MAX_SUBNETS_V4 + 1, MAX_HOSTS_PER_SUBNET_V4 + 1, 1)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            check_capacity("v5", 1, 1, 1)


_ROUTER_R = "r:\n  type: router\n  connections:\n"
_SVC_C = "c:\n  type: service\n  port: 8002\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"


def _case(id, text, error, message):
    return pytest.param(text, error, message, id=id)


class TestSharedRules:
    """The exact error of each rule that service and router connections share."""

    @pytest.mark.parametrize(
        "text, error, message",
        [
            _case(
                "service-repeated-hop",
                _svc_a("        - path: b->b\n          url: /\n") + _LEAF,
                ValidationError, "entity 'a', field 'path': repeated hop in path",
            ),
            _case(
                "service-unknown-entity",
                _svc_a("        - path: ghost\n          url: /\n") + _LEAF,
                UnknownEntityError, "entity 'a', field 'path': unknown entity 'ghost' in path",
            ),
            _case(
                "router-repeated-hop",
                _LEAF + _ROUTER_R + "    - path: b->b\n",
                ValidationError, "entity 'r', field 'path': repeated hop in path",
            ),
            _case(
                "router-unknown-entity",
                _LEAF + _ROUTER_R + "    - path: ghost\n",
                UnknownEntityError, "entity 'r', field 'path': unknown entity 'ghost' in path",
            ),
            _case(
                "router-options",
                _LEAF + _ROUTER_R + "    - path: b\n      reorder: 5%\n",
                OptionRangeError, "entity 'r', field 'reorder': reorder > 0 requires delay > 0",
            ),
            _case(
                # the path's own checks come before its options'
                "service-path-before-options",
                _svc_a("        - path: b->c\n          url: /\n          jitter: 1ms\n")
                + _LEAF + _SVC_C,
                NonRouterIntermediateHopError,
                "entity 'a', field 'path': intermediate hop 'b' is not a router",
            ),
            _case(
                "service-connections-mapping",
                _svc_a("        path: b\n        url: /\n") + _LEAF,
                SchemaError, "entity 'a', field 'connections': connections must be a list",
            ),
            _case(
                "router-connections-mapping",
                _LEAF + _ROUTER_R + "    path: b\n",
                SchemaError, "entity 'r', field 'connections': connections must be a list",
            ),
            _case(
                "timers-mapping",
                _svc_a(
                    "        - path: b\n          url: /\n          rate: 1mbit\n"
                    "          timers:\n            option: rate\n"
                ) + _LEAF,
                SchemaError, "entity 'a', field 'timers': timers must be a list",
            ),
            _case(
                "jitter-without-delay",
                _svc_a("        - path: b\n          url: /\n          jitter: 1ms\n") + _LEAF,
                OptionRangeError, "entity 'a', field 'jitter': jitter > 0 requires delay > 0",
            ),
            _case(
                "reorder-without-delay",
                _svc_a("        - path: b\n          url: /\n          reorder: 5%\n") + _LEAF,
                OptionRangeError, "entity 'a', field 'reorder': reorder > 0 requires delay > 0",
            ),
        ],
    )
    def test_exact_error(self, text, error, message):
        with pytest.raises(error) as ei:
            make_topology(text)
        assert type(ei.value) is error
        assert str(ei.value) == message

    @pytest.mark.parametrize("value", ["", "null"])
    def test_absent_or_null_list_reads_as_empty(self, value):
        t = make_topology(
            f"a:\n  type: service\n  port: 8000\n  endpoints:\n"
            f"    - entrypoint: /\n      psize: 1\n      connections: {value}\n"
            f"r:\n  type: router\n  connections: {value}\n"
        )
        assert t.path_table == [] and t.routers["r"].connections == ()


def test_colliding_link_subnet_names_rejected():
    with pytest.raises(ValidationError) as ei:
        plan_network(make_topology(colliding_links_config()))
    assert type(ei.value) is ValidationError
    assert str(ei.value) == (
        "links 'a<->b_c' and 'a_b<->c' would share the subnet name 'link_a_b_c'"
    )
    # the same shape with names that cannot collide is fine
    plan_network(make_topology(colliding_links_config().replace("a_b", "ab").replace("b_c", "bc")))

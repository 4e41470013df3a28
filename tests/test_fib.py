"""Model-FIB forwarding over the planned routes, and their rendering."""

import ipaddress
import random
import re

import pytest

import topoforge as tf
from topoforge.fib import ForwardingError, build_fib, check_path_fidelity, forward
from topoforge.netplan import plan_network, setup_commands

from conftest import depth_config, make_topology, random_topology_text

_ROUTE_LINE = re.compile(r"^ip (-6 )?route add (\S+)/(\d+) via (\S+)$")


def assert_routes_render_back(t, np):
    """Every entity's rendered route lines parse back to exactly its planned
    routes, in order, as host routes of the plan's family."""
    v4 = np.family == "v4"
    assert set(np.routes) <= set(t.entities)
    for name in t.entities:
        parsed = []
        for line in setup_commands(t, np, name):
            if not line.startswith(("ip route", "ip -6 route")):
                continue
            m = _ROUTE_LINE.match(line)
            assert m, line
            assert (m[1] is None) == v4 and m[3] == ("32" if v4 else "128"), line
            parsed.append((m[2], m[4]))
        assert parsed == list(np.routes.get(name, {}).items()), name


def test_fig4_paths_followed_exactly(fig4_topology):
    np = plan_network(fig4_topology)
    result = check_path_fidelity(fig4_topology, np)
    assert result.ok, result.failures


def test_fig4_v6_paths(fig4_topology):
    np = plan_network(fig4_topology, family="v6")
    result = check_path_fidelity(fig4_topology, np)
    assert result.ok, result.failures


@pytest.mark.parametrize("family", ["v4", "v6"])
def test_fig4_route_lines_read_back(fig4_topology, family):
    np = plan_network(fig4_topology, family=family)
    assert np.routes["frontend"] and np.routes["db"]
    assert_routes_render_back(fig4_topology, np)


def test_forward_walk_names_every_hop(fig4_topology):
    np = plan_network(fig4_topology)
    fib = build_fib(np)
    dst = np.address("db", "link_db_r1")
    assert forward(fib, "frontend", dst) == ["frontend", "r1", "db"]


def test_missing_route_detected(fig4_topology):
    np = plan_network(fig4_topology)
    del np.routes["frontend"]
    result = check_path_fidelity(fig4_topology, np)
    assert not result.ok


def test_wrong_gateway_detected(fig4_topology):
    np = plan_network(fig4_topology)
    # point frontend's route at payment's bridge address instead of r1
    assert "10.0.8.3" in np.routes["frontend"].values()
    np.routes["frontend"] = {
        dst: "10.0.0.3" if via == "10.0.8.3" else via for dst, via in np.routes["frontend"].items()
    }
    result = check_path_fidelity(fig4_topology, np)
    assert not result.ok


def test_no_route_raises(fig4_topology):
    np = plan_network(fig4_topology)
    fib = build_fib(np)
    with pytest.raises(ForwardingError):
        forward(fib, "payment", np.address("db", "link_db_r1"))


def test_path_through_70_routers_followed():
    topo = make_topology(depth_config(70))
    result = check_path_fidelity(topo, plan_network(topo))
    assert result.ok, result.failures


def test_real_loop_raises(fig4_topology):
    np = plan_network(fig4_topology)
    fib = build_fib(np)
    dst = np.address("db", "link_db_r1")
    # r1 sends db's address back to frontend, whose route points at r1
    back = ipaddress.ip_address(np.address("frontend", "link_frontend_r1"))
    fib.tables["r1"].append((ipaddress.ip_network(f"{dst}/32"), back))
    with pytest.raises(ForwardingError, match="forwarding loop") as ei:
        forward(fib, "frontend", dst)
    assert "['frontend', 'r1', 'frontend']" in str(ei.value)


def test_on_link_delivery_needs_the_owner_on_that_subnet(fig4_topology):
    np = plan_network(fig4_topology)
    fib = build_fib(np)
    dst = np.address("db", "link_db_r1")
    fib.tables["payment"].append((ipaddress.ip_network("10.0.4.0/22"), None))
    assert forward(fib, "payment", dst) == ["payment", "db"]
    # db's own on-link prefix is the /22, so a /24 is not a subnet it is on
    fib.tables["payment"].append((ipaddress.ip_network("10.0.4.0/24"), None))
    with pytest.raises(ForwardingError, match="not on-link at payment"):
        forward(fib, "payment", dst)


@pytest.mark.parametrize("seed", range(25))
def test_random_topologies_have_path_fidelity(seed):
    rng = random.Random(seed)
    topo = make_topology(random_topology_text(rng))
    np = plan_network(topo)
    result = check_path_fidelity(topo, np)
    assert result.ok, result.failures
    assert_routes_render_back(topo, np)

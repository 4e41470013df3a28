"""Model-FIB forwarding over the emitted routes."""

import ipaddress
import random

import pytest

import topoforge as tf
from topoforge.fib import ForwardingError, build_fib, check_path_fidelity, forward
from topoforge.netplan import plan_network

from conftest import depth_config, make_topology, random_topology_text


def test_fig4_paths_followed_exactly(fig4_topology):
    np = plan_network(fig4_topology)
    result = check_path_fidelity(fig4_topology, np)
    assert result.ok, result.failures


def test_fig4_v6_paths(fig4_topology):
    np = plan_network(fig4_topology, family="v6")
    result = check_path_fidelity(fig4_topology, np)
    assert result.ok, result.failures


def test_forward_walk_names_every_hop(fig4_topology):
    np = plan_network(fig4_topology)
    fib = build_fib(np)
    dst = np.address("db", "link_db_r1")
    assert forward(fib, "frontend", dst) == ["frontend", "r1", "db"]


def test_missing_route_detected(fig4_topology):
    np = plan_network(fig4_topology)
    np.setup["frontend"] = [
        c for c in np.setup["frontend"] if not c.startswith("ip route")
    ]
    result = check_path_fidelity(fig4_topology, np)
    assert not result.ok


def test_wrong_gateway_detected(fig4_topology):
    np = plan_network(fig4_topology)
    # point frontend's route at payment's bridge address instead of r1
    np.setup["frontend"] = [
        c.replace("via 10.0.8.3", "via 10.0.0.3") if c.startswith("ip route") else c
        for c in np.setup["frontend"]
    ]
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

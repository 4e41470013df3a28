"""Derived topology sets and network-plan indexes against scan-based references.

``allocate_networks`` derives the pair sets and bridge members once, and
fills its lookup dicts while it allocates.  The
reference functions below recompute the same values the slow, obvious way
(full scans of the path table and of every subnet), and the test checks that
both agree on the 200 criterion-7 fuzz topologies, with and without the extra
bridge members that tracing adds.
"""

import ipaddress
import random

import pytest

import topoforge as tf
from topoforge.deploy import COLLECTOR_NAME
from topoforge.netplan import BRIDGE_NET, PREFIX_V4, Subnet, link_subnet_name
from topoforge.validation import link_key

from conftest import random_topology_text


def ref_direct_pairs(t):
    return sorted({link_key(*rp.hops) for rp in t.path_table if len(rp.hops) == 2})


def ref_routed_pairs(t):
    pairs = set()
    for rp in t.path_table:
        if len(rp.hops) == 2:
            continue
        for x, y in zip(rp.hops, rp.hops[1:]):
            pairs.add(link_key(x, y))
    return sorted(pairs)


def ref_bridge_members(t, order):
    attached = {n for pair in ref_routed_pairs(t) + ref_direct_pairs(t) for n in pair}
    members = {n for pair in ref_direct_pairs(t) for n in pair}
    members.update(n for n in order if n not in attached)
    return [n for n in order if n in members]


def ref_allocation(t, order, extra):
    """(subnets, attachment table) as the scan-based allocator made them."""
    pool = ipaddress.ip_network("10.0.0.0/8").subnets(new_prefix=PREFIX_V4)
    bridge = ref_bridge_members(t, order)
    bridge = bridge + [m for m in extra if m not in bridge]
    subnets, members_of = [], []
    if bridge:
        subnets.append(Subnet(name=BRIDGE_NET, cidr=str(next(pool))))
        members_of.append(sorted(bridge))
    for a, b in ref_routed_pairs(t):
        subnets.append(Subnet(name=link_subnet_name(a, b), cidr=str(next(pool))))
        members_of.append(sorted([a, b]))
    interfaces = {}
    for sn, members in zip(subnets, members_of):
        hosts = sn.network.network_address + 2
        for i, member in enumerate(members):
            interfaces[(member, sn.name)] = str(hosts + i)
    attached = {}
    for sn in subnets:
        for (entity, sname), addr in interfaces.items():
            if sname == sn.name:
                by_subnet = attached.setdefault(entity, {})
                by_subnet[sname] = (addr, f"eth{len(by_subnet)}")
    return subnets, attached


def ref_attachments(subnets, attached, entity):
    return [(s.name, attached[entity][s.name][0])
            for s in subnets if s.name in attached.get(entity, {})]


@pytest.mark.parametrize("tracing", [False, True], ids=["plain", "tracing"])
def test_indexes_match_scan_reference(tracing):
    for seed in range(200):
        cfg = tf.parse_config(random_topology_text(random.Random(seed)))
        t = tf.validate(cfg)
        order = list(cfg.entities)
        assert list(t.entities) == order
        assert t.referenced_routers == {h for rp in t.path_table for h in rp.hops[1:-1]}
        grouped = [rp for eps in t.paths_by_service.values() for rps in eps.values()
                   for rp in rps]
        assert sorted(grouped, key=t.path_table.index) == t.path_table
        for name, eps in t.paths_by_service.items():
            for ep in t.services[name].endpoints:
                assert [(rp.service, rp.entrypoint, rp.hops[1:], rp.url, rp.options)
                        for rp in eps[ep.entrypoint]] \
                    == [(name, ep.entrypoint, conn.path.hops, conn.url, conn.options)
                        for conn in ep.connections]

        extra = tuple(t.services) + (COLLECTOR_NAME,) if tracing else ()
        np = tf.allocate_networks(t, extra_bridge_members=extra)
        subnets, attached = ref_allocation(t, order, extra)
        assert np.subnets == subnets, seed
        assert [(e, list(by_subnet.items())) for e, by_subnet in np.attached.items()] \
            == [(e, list(by_subnet.items())) for e, by_subnet in attached.items()], seed
        for entity in order + [COLLECTOR_NAME]:
            assert np.attachments(entity) == ref_attachments(subnets, attached, entity), \
                (seed, entity)
        assert len({s.name for s in subnets}) == len(subnets), seed
        for a, b in ref_routed_pairs(t):
            assert np.subnet_between(a, b) == np.subnet_between(b, a) == link_subnet_name(a, b)
        for a, b in ref_direct_pairs(t):
            assert np.subnet_between(a, b) == np.subnet_between(b, a) == "bridge"

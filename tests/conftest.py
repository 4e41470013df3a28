"""Shared fixtures and topology builders for the test suite."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import topoforge as tf

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def fig4_text() -> str:
    return (DATA / "fig4.yml").read_text()


@pytest.fixture()
def fig4_config(fig4_text):
    return tf.parse_config(fig4_text)


@pytest.fixture()
def fig4_topology(fig4_config):
    return tf.validate(fig4_config)


def make_topology(text: str):
    return tf.validate(tf.parse_config(text))


def container(plan, name: str):
    """The container ``name`` of a deployment plan."""
    (found,) = [c for c in plan.containers if c.name == name]
    return found


def chain_config(n: int) -> str:
    """n services in a call chain s0 -> s1 -> ... -> s{n-1}, all direct."""
    parts = []
    for i in range(n):
        conn = (
            f"\n      connections:\n        - path: s{i + 1}\n          url: /"
            if i + 1 < n
            else ""
        )
        parts.append(
            f"s{i}:\n  type: service\n  port: {10000 + i}\n  endpoints:\n"
            f"    - entrypoint: /\n      psize: 128{conn}"
        )
    return "\n".join(parts)


def breadth_config(b: int) -> str:
    """One frontend fanning out to b leaf services."""
    downs = "\n".join(f"        - path: s{i}\n          url: /" for i in range(b))
    leaves = "\n".join(
        f"s{i}:\n  type: service\n  port: {9100 + i}\n  endpoints:\n"
        f"    - entrypoint: /\n      psize: 128"
        for i in range(b)
    )
    return (
        "front:\n  type: service\n  port: 9000\n  endpoints:\n"
        "    - entrypoint: /\n      psize: 256\n      connections:\n"
        f"{downs}\n{leaves}"
    )


def depth_config(d: int) -> str:
    """Two services joined through a chain of d routers."""
    hops = "->".join(f"r{i}" for i in range(d)) + "->b"
    routers = "\n".join(
        f"r{i}:\n  type: router\n  connections:\n"
        f"    - path: {'b' if i == d - 1 else f'r{i + 1}'}"
        for i in range(d)
    )
    return (
        "a:\n  type: service\n  port: 9000\n  endpoints:\n"
        "    - entrypoint: /\n      psize: 128\n      connections:\n"
        f"        - path: {hops}\n          url: /\n"
        f"{routers}\n"
        "b:\n  type: service\n  port: 9001\n  endpoints:\n"
        "    - entrypoint: /\n      psize: 128"
    )


def loss_chain_config(loss_percent: float) -> str:
    """Two services through one router, with loss on the a<->r link."""
    extra = f"\n          loss: {loss_percent}%" if loss_percent else ""
    return (
        "a:\n  type: service\n  port: 9000\n  endpoints:\n"
        "    - entrypoint: /\n      psize: 128\n      connections:\n"
        f"        - path: r->b\n          url: /{extra}\n"
        "r:\n  type: router\n  connections:\n    - path: b\n"
        "b:\n  type: service\n  port: 9001\n  endpoints:\n"
        "    - entrypoint: /\n      psize: 128"
    )


def delay_chain_config(delay_us: float) -> str:
    """Two services through one router, with delay on both links."""
    return (
        "a:\n  type: service\n  port: 9000\n  endpoints:\n"
        "    - entrypoint: /\n      psize: 128\n      connections:\n"
        f"        - path: r->b\n          url: /\n          delay: {delay_us}us\n"
        "r:\n  type: router\n  connections:\n"
        f"    - path: b\n      delay: {delay_us}us\n"
        "b:\n  type: service\n  port: 9001\n  endpoints:\n"
        "    - entrypoint: /\n      psize: 128"
    )


def shared_first_hop_config() -> str:
    """One service calling db and cache through r1 with a different rate on
    each connection and a rate timer on the second."""
    return (
        "front:\n  type: service\n  port: 9000\n  endpoints:\n"
        "    - entrypoint: /\n      psize: 128\n      connections:\n"
        "        - path: r1->db\n          url: /\n          rate: 100mbit\n"
        "        - path: r1->cache\n          url: /\n          rate: 10mbit\n"
        "          timers:\n            - option: rate\n              start: 5\n"
        "              duration: 10\n              newValue: 1gbit\n"
        "r1:\n  type: router\n  connections:\n    - path: db\n    - path: cache\n"
        "db:\n  type: service\n  port: 9001\n  endpoints:\n    - entrypoint: /\n      psize: 128\n"
        "cache:\n  type: service\n  port: 9002\n  endpoints:\n    - entrypoint: /\n      psize: 128\n"
    )


def colliding_links_config() -> str:
    """Two links whose subnet names join to one string: a<->b_c and a_b<->c
    are both link_a_b_c."""
    leaf = "  type: service\n  port: {}\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
    return (
        "a:\n" + leaf.format(8000) + "      connections:\n        - path: b_c->x\n          url: /\n"
        "a_b:\n" + leaf.format(8001) + "      connections:\n        - path: c->y\n          url: /\n"
        "x:\n" + leaf.format(8002) + "y:\n" + leaf.format(8003)
        + "b_c:\n  type: router\n  connections:\n    - path: x\n"
        "c:\n  type: router\n  connections:\n    - path: y\n"
    )


def route_conflict_config() -> str:
    """Two paths from a to b whose routes disagree: r0->r2->b has a reach b
    via r0, and r2->b via r2."""
    return (
        "a:\n  type: service\n  port: 9000\n  endpoints:\n"
        "    - entrypoint: /\n      psize: 1\n      connections:\n"
        "        - path: r0->r2->b\n          url: /\n"
        "        - path: r2->b\n          url: /\n"
        "r0:\n  type: router\n  connections:\n    - path: r2\n"
        "r2:\n  type: router\n  connections:\n    - path: b\n"
        "b:\n  type: service\n  port: 9001\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
    )


def random_topology_text(rng: random.Random) -> str:
    """A random valid topology: services call later services through routers.

    Call edges always point from a lower-indexed service to a higher-indexed
    one, so the call graph is acyclic by construction.  Router connections
    are derived from the paths that traverse them, satisfying the linkage
    rule exactly.
    """
    n_services = rng.randint(2, 6)
    n_routers = rng.randint(0, 4)
    routers = [f"r{i}" for i in range(n_routers)]
    # connections[i] = list of (path hops after the source, url)
    connections: dict[int, list[tuple[list[str], str]]] = {i: [] for i in range(n_services)}
    router_next_hops: dict[str, list[str]] = {r: [] for r in routers}
    # destination-based routing: one gateway per (entity, destination address)
    gateway_for: dict[tuple, str] = {}

    def route_entries(full: list[str]):
        """(entity, destination key, gateway) triples a routed path installs."""
        src, vias, term = full[0], full[1:-1], full[-1]
        fwd = ("fwd", vias[-1], term)
        rev = ("rev", src, vias[0])
        entries = [(src, fwd, vias[0])]
        for i in range(len(vias) - 1):
            entries.append((vias[i], fwd, vias[i + 1]))
        entries.append((term, rev, vias[-1]))
        for i in range(len(vias) - 1, 0, -1):
            entries.append((vias[i], rev, vias[i - 1]))
        return entries

    for i in range(n_services - 1):
        for _ in range(rng.randint(0, 2)):
            target = rng.randint(i + 1, n_services - 1)
            depth = rng.randint(0, min(2, n_routers))
            vias = rng.sample(routers, depth) if depth else []
            hops = vias + [f"s{target}"]
            if vias:
                entries = route_entries([f"s{i}"] + hops)
                if any(gateway_for.get((e, k), v) != v for e, k, v in entries):
                    continue  # would need two gateways for one destination
                for e, k, v in entries:
                    gateway_for[(e, k)] = v
            connections[i].append((hops, "/"))
            for a, b in zip(vias, hops[1:]):
                if b not in router_next_hops[a]:
                    router_next_hops[a].append(b)

    lines = []
    for i in range(n_services):
        lines.append(f"s{i}:")
        lines.append("  type: service")
        lines.append(f"  port: {11000 + i}")
        lines.append("  endpoints:")
        lines.append("    - entrypoint: /")
        lines.append(f"      psize: {rng.randint(1, 4096)}")
        if connections[i]:
            lines.append("      connections:")
            for hops, url in connections[i]:
                lines.append(f"        - path: {'->'.join(hops)}")
                lines.append(f"          url: {url}")
    for r in routers:
        lines.append(f"{r}:")
        lines.append("  type: router")
        if router_next_hops[r]:
            lines.append("  connections:")
            for nxt in router_next_hops[r]:
                lines.append(f"    - path: {nxt}")
    return "\n".join(lines) + "\n"

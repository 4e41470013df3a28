"""Seeded synthetic "routed tree" topologies for the benchmark.

Service ``s<i>`` calls children drawn from the ``WINDOW`` services before
it, so the call graph is acyclic by construction.  A share of the call
edges runs through a private chain of routers that no other edge uses, so
destination-based routing never needs two gateways for one destination.
A share of the connections is shaped (rate + delay) and half of those carry
a rate timer.  Every knob below is recorded with its reason in README.md.

The same (n_services, seed) always yields byte-identical YAML text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WINDOW = 8  # children come from the previous WINDOW services
MAX_CHILDREN = 2  # children per service: 0 .. MAX_CHILDREN, equally often
P_ROUTED = 0.6  # share of call edges that go through a router chain
CHAIN = (1, 4)  # router chain length, lo .. hi, equally often
P_SHAPED = 0.3  # share of connections with rate + delay shaping
P_TIMER = 0.5  # share of shaped connections that carry a rate timer
PSIZE = (64, 4096)  # response body size, uniform in [lo, hi] bytes
BASE_PORT = 10000


@dataclass
class Draw:
    text: str
    services: list[str] = field(default_factory=list)
    routers: list[str] = field(default_factory=list)
    edges: int = 0

    @property
    def entities(self) -> list[str]:
        return self.services + self.routers


# Shares and counts are dealt from shuffled pools rather than drawn one by
# one, so every seed of one size has the same totals: seeds move the
# structure, not the amount of work.
def _dealt(rng: random.Random, n: int, values) -> list:
    """``n`` values, each of ``values`` equally often (give or take one)."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _flags(rng: random.Random, n: int, share: float) -> list[bool]:
    k = round(n * share)
    return _dealt(rng, n, [True] * k + [False] * (n - k)) if n else []


def routed_tree(n_services: int, seed: int) -> Draw:
    rng = random.Random(f"routed-tree:{n_services}:{seed}")
    services = [f"s{i}" for i in range(n_services)]
    children = []
    for i, k in enumerate(_dealt(rng, n_services, range(MAX_CHILDREN + 1))):
        lo = max(0, i - WINDOW)
        children.append(sorted(rng.sample(range(lo, i), min(k, i - lo))))
    edges = sum(map(len, children))
    routed = _flags(rng, edges, P_ROUTED)
    chains = iter(_dealt(rng, sum(routed), range(CHAIN[0], CHAIN[1] + 1)))
    shaped = _flags(rng, edges, P_SHAPED)
    timed = iter(_flags(rng, sum(shaped), P_TIMER))

    routers: list[str] = []
    router_next: dict[str, str] = {}
    lines: list[str] = []
    edge = 0
    for i, name in enumerate(services):
        lines += [
            f"{name}:",
            "  type: service",
            f"  port: {BASE_PORT + i}",
            "  endpoints:",
            "    - entrypoint: /",
            f"      psize: {rng.randint(*PSIZE)}",
        ]
        if children[i]:
            lines.append("      connections:")
        for child in children[i]:
            hops = []
            if routed[edge]:
                for _ in range(next(chains)):
                    hops.append(f"r{len(routers)}")
                    routers.append(hops[-1])
            hops.append(services[child])
            for a, b in zip(hops, hops[1:]):
                router_next[a] = b
            lines.append(f"        - path: {'->'.join(hops)}")
            lines.append("          url: /")
            if shaped[edge]:
                mbit = rng.choice((10, 50, 100, 200))
                lines.append(f"          rate: {mbit}mbit")
                lines.append(f"          delay: {rng.randint(1, 20)}ms")
                if next(timed):
                    lines += [
                        "          timers:",
                        "            - option: rate",
                        f"              start: {rng.randint(1, 60)}",
                        f"              duration: {rng.randint(5, 120)}",
                        f"              newValue: {mbit * 10}mbit",
                    ]
            edge += 1
    for r in routers:
        lines += [f"{r}:", "  type: router", "  connections:", f"    - path: {router_next[r]}"]
    return Draw(
        text="\n".join(lines) + "\n",
        services=services,
        routers=routers,
        edges=edges,
    )

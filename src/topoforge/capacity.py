"""Analytic capacity of a deterministic topology for one target.

Each resource's service demand per request, in the simulator's model: a
service spends ``service_proc_us`` on every message it handles (the request
and one reply per downstream call), a router ``router_proc_us`` on every
packet it forwards either way, and a shaped link direction ``size * 8 /
rate`` on every packet it sends.  One request alone takes R0, the sum of the
demands and of the delays of the links it crosses.  Operational analysis
bounds a closed system of N clients at X(N) <= min(N / R0, 1 / D_max), with
its knee at N* = R0 / D_max (Denning & Buzen, "The Operational Analysis of
Queueing Network Models", ACM Comput. Surv. 1978).

Only deterministic links are covered: loss, corruption, duplication,
reordering, jitter or a buffer limit on a link the target's requests cross
makes the demands random, and the oracle then has no answer.  A link whose
timers change it during the probe window counts at its loosest: the
fastest rate and the smallest delay.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .model import ImpairmentSpec
from .netplan import impairment_timeline
from .sim import S, ModelParams
from .validation import ValidatedTopology, link_key

_RANDOM = ("jitter", "loss", "corrupt", "duplicate", "reorder")  # draw from the seeded random source


@dataclass(frozen=True)
class Capacity:
    demands_us: dict[str, float]  # entity or "a->b" link direction -> µs per request
    r0_us: float  # one request alone: every demand plus every link delay

    @property
    def bottleneck(self) -> str:
        return max(self.demands_us, key=self.demands_us.get)

    @property
    def d_max_us(self) -> float:
        return self.demands_us[self.bottleneck]

    @property
    def bound(self) -> float:
        """Completion rate no population can exceed, req/s."""
        return S / self.d_max_us

    @property
    def knee(self) -> int:
        """Smallest population whose optimistic rate N / R0 reaches the bound."""
        return math.ceil(self.r0_us / self.d_max_us)


def _loosest(spec: ImpairmentSpec, duration_s: float) -> tuple[float, float] | None:
    """(bits/s, inf when unshaped; delay µs) of the loosest values in force
    during [0, duration_s], or None when any of them is random."""
    segments = [seg for t, seg in impairment_timeline(spec) if t <= duration_s]
    if any(seg.buffer_size is not None or any(getattr(seg, o) for o in _RANDOM) for seg in segments):
        return None
    rate = max(seg.rate.bits_per_second if seg.rate else math.inf for seg in segments)
    return rate, min(seg.delay or 0.0 for seg in segments)


def capacity(
    topology: ValidatedTopology, target: tuple[str, str], params: ModelParams, duration_s: float
) -> Capacity | None:
    """Demands of requests to ``target`` over a probe of ``duration_s``
    virtual seconds, or None when the target is unknown or a link its
    requests cross is random."""
    if target[1] not in topology.paths_by_service.get(target[0], ()):
        return None
    demands: Counter[str] = Counter()
    sends: list[tuple[str, str, int]] = []  # (sender, receiver, bytes) of every packet on a link
    todo = [target]  # a worklist, not recursion: call chains run 1000 deep
    while todo:
        service, entrypoint = todo.pop()
        paths = topology.paths_by_service[service][entrypoint]
        demands[service] += params.service_proc_us * (1 + len(paths))  # the request and each reply
        for rp in paths:
            hops = rp.hops
            for router in hops[1:-1]:
                demands[router] += 2 * params.router_proc_us
            endpoints = topology.services[rp.terminal].endpoints
            psize = next(ep.psize for ep in endpoints if ep.entrypoint == rp.url)
            back = hops[::-1]
            sends.extend((a, b, params.request_bytes) for a, b in zip(hops, hops[1:]))
            sends.extend((a, b, params.header_bytes + psize) for a, b in zip(back, back[1:]))
            todo.append((rp.terminal, rp.url))
    crossed = {link_key(a, b) for a, b, _size in sends}
    links = {key: _loosest(topology.link_graph[key].impairments, duration_s) for key in crossed}
    if None in links.values():
        return None
    delay = 0.0
    for a, b, size in sends:
        rate, link_delay = links[link_key(a, b)]
        demands[f"{a}->{b}"] += size * 8 / rate * S
        delay += link_delay
    if max(demands.values()) <= 0:
        return None
    return Capacity(dict(demands), sum(demands.values()) + delay)

"""Maximum sustainable request rate measurement.

Closed-loop saturation probing: the client population is doubled until the
achieved completion rate stops improving, so the reported rate is the
capacity of the topology's bottleneck rather than an offered-load guess.
Closed-loop clients wait for each response, which keeps every probe far away
from the retransmission storms an overloaded open-loop run would generate.
Deterministic given the seed: every probe rebuilds a fresh world from the
same topology.

When every link the requests cross is deterministic, :mod:`topoforge.capacity`
knows the answer before any probe runs, and the search uses it twice:

- **Seed.** The first probe is the smallest power of two at or above the
  knee N* = R0 / D_max (at most ``max_clients``), the population at which
  the bottleneck saturates.  The ramp from one client would only climb
  through the smaller populations, and every population stays on the
  doubling grid.
- **Bound stop.** The search also stops once the achieved rate is within
  ``precision`` of the bound 1 / D_max, which no larger population can beat.

Loss, corruption, duplication, reordering, jitter or a buffer limit on a
link the requests cross leave the oracle without an answer, and the search
ramps from one client as it always did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .capacity import capacity
from .sim import ModelParams, Workload, build_sim, run
from .validation import ValidatedTopology

PROBE_S = 0.5  # virtual seconds each probe runs


@dataclass
class MaxRateResult:
    rate: float  # best sustained completion rate, req/s
    probes: list[tuple[int, float]]  # (client population, achieved req/s)
    bound: float | None  # the analytic bound 1 / D_max, or None without an oracle


def _probe(
    topology: ValidatedTopology,
    target: tuple[str, str],
    clients: int,
    seed: int,
    params: ModelParams,
    duration_s: float,
) -> float:
    world = build_sim(topology, seed=seed, params=params)
    report = run(
        world,
        Workload(
            service=target[0],
            entrypoint=target[1],
            mode="closed",
            clients=clients,
            duration_s=duration_s,
        ),
    )
    return report.achieved_rate


def measure_max_rate(
    topology: ValidatedTopology,
    target: tuple[str, str],
    precision: float = 0.01,
    seed: int = 0,
    params: ModelParams | None = None,
    duration_s: float = PROBE_S,
    max_clients: int = 1 << 16,
) -> MaxRateResult:
    """Saturating completion rate for requests to ``target``.

    ``precision`` is relative: the ramp stops once doubling the client
    population improves the achieved rate by less than that fraction, or
    once the rate is within that fraction of the analytic bound.
    """
    if not precision >= 0:
        raise ValueError(f"precision must be >= 0, got {precision}")
    params = params or ModelParams()
    probes: list[tuple[int, float]] = []
    best = 0.0
    clients = 1
    oracle = capacity(topology, target, params, duration_s)
    bound = math.inf
    if oracle is not None:
        bound = oracle.bound
        while clients < oracle.knee and clients * 2 <= max_clients:
            clients *= 2
    while clients <= max_clients:
        rate = _probe(topology, target, clients, seed, params, duration_s)
        probes.append((clients, rate))
        stop = rate <= best * (1.0 + precision) or rate * (1.0 + precision) >= bound
        best = max(best, rate)
        if stop:
            break
        clients *= 2
    return MaxRateResult(rate=best, probes=probes, bound=None if oracle is None else bound)

"""Maximum sustainable request rate measurement.

Closed-loop saturation probing: the client population is doubled until the
achieved completion rate stops improving, so the reported rate is the
capacity of the topology's bottleneck rather than an offered-load guess.
Closed-loop clients wait for each response, which keeps every probe far away
from the retransmission storms an overloaded open-loop run would generate.
Deterministic given the seed: every probe rebuilds a fresh world from the
same topology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sim import ModelParams, Workload, build_sim, run
from .validation import ValidatedTopology


@dataclass
class MaxRateResult:
    rate: float  # best sustained completion rate, req/s
    probes: list[tuple[int, float]]  # (client population, achieved req/s)


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
    duration_s: float = 0.5,
    max_clients: int = 1 << 16,
) -> MaxRateResult:
    """Saturating completion rate for requests to ``target``.

    ``precision`` is relative: the ramp stops once doubling the client
    population improves the achieved rate by less than that fraction.
    """
    if not precision >= 0:
        raise ValueError(f"precision must be >= 0, got {precision}")
    params = params or ModelParams()
    probes: list[tuple[int, float]] = []
    best = 0.0
    clients = 1
    while clients <= max_clients:
        rate = _probe(topology, target, clients, seed, params, duration_s)
        probes.append((clients, rate))
        stop = rate <= best * (1.0 + precision)
        best = max(best, rate)
        if stop:
            break
        clients *= 2
    return MaxRateResult(rate=best, probes=probes)

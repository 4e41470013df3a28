"""Service process for the runtime workload.

Hosts three leaf services and a frontend on 127.0.0.1, each on a free port.
The frontend's ``/fanout`` entrypoint calls the three leaves in sequence;
its ``/leaf`` entrypoint calls nothing.  Once every server listens it prints
one JSON line with the ports and the reference-loop time (see harness.py).
For each ``mark`` line on its standard input it prints the mean
reference-loop time since the previous mark.  When its standard input
closes it stops, prints one JSON line with its peak RSS and exits.

    python3 bench/rt_host.py --seed N [--sink spans.ndjson]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys

from harness import SpeedSampler, reference_seconds
from topoforge.runtime import Downstream, EndpointRuntime, Microservice, RuntimeConfig

FRONT_PSIZE = 1024
LEAF_PSIZE = 128
LEAVES = 3


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--sink", default=None, help="span sink file of the frontend")
    args = ap.parse_args()

    leaves = [
        Microservice(RuntimeConfig(
            name=f"leaf{i}", port=0, host="127.0.0.1", payload_seed=args.seed + i + 1,
            endpoints=(EndpointRuntime("/", LEAF_PSIZE),),
        ))
        for i in range(LEAVES)
    ]
    downstreams = tuple(
        Downstream(f"leaf{i}", "127.0.0.1", leaf.port, "/") for i, leaf in enumerate(leaves)
    )
    front = Microservice(RuntimeConfig(
        name="front", port=0, host="127.0.0.1", payload_seed=args.seed,
        endpoints=(
            EndpointRuntime("/fanout", FRONT_PSIZE, downstreams),
            EndpointRuntime("/leaf", FRONT_PSIZE),
        ),
        span_sink_file=args.sink,
    ))
    services = [*leaves, front]
    for svc in services:
        svc.start()
    print(json.dumps({
        "front": front.port,
        "leaves": [leaf.port for leaf in leaves],
        "reference_s": statistics.fmean(reference_seconds() for _ in range(3)),
    }), flush=True)
    with SpeedSampler() as speed:
        while sys.stdin.readline():
            recent = speed.samples or [reference_seconds()]
            print(json.dumps({"reference_s": statistics.fmean(recent)}), flush=True)
            speed.samples = []
    for svc in services:
        svc.stop()
    print(json.dumps({"maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""topoforge benchmark: one command, three workloads, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload generate|simulate|runtime \
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` makes one untraced and one traced pass and reports the per-layer
metrics, including the tracing overhead between the two.  Metric names and
units come from BENCHMARK.json.  Working files go to ``.bench_out/`` in the
checkout.  A failed correctness check prints ``"correct": false`` and
exits with status 1.  See README.md for what each workload measures and why.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

from harness import Context, Outcome

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("generate", "simulate", "runtime")


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over topoforge's sources: identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "topoforge").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import cryptography
    import yaml

    import topoforge

    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "topoforge": topoforge.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "yaml": yaml.__version__,
        "yaml_with_libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "cryptography": cryptography.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "topoforge" / "__init__.py").is_file():
        print(f"error: no topoforge sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    import topoforge

    if Path(topoforge.__file__).resolve().parent != (SRC / "topoforge").resolve():
        print(f"error: imported topoforge from {topoforge.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_out" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds, "trace": args.trace}))

    module = importlib.import_module(f"wl_{args.workload}")
    outcome: Outcome = module.run(ctx)
    if args.trace:
        missing = set(module.LAYER_METRICS) - set(outcome.metrics)
        if missing:
            print(f"error: workload did not measure {sorted(missing)}", file=sys.stderr)
            return 2
        # a layer this workload does not exercise did no work on it
        for m in wanted:
            outcome.metrics.setdefault(m["name"], 0.0)

    for name, ok, detail in outcome.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip())
    metrics = {}
    for m in wanted:
        value = outcome.metrics.get(m["name"])
        if value is None:
            print(f"error: workload did not measure {m['name']}", file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']:<34} {value:>16.6g} {m['unit']}")
    for name in sorted(set(outcome.metrics) - {m["name"] for m in wanted}):
        print(f"info   {name:<34} {outcome.metrics[name]:>16.6g}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())

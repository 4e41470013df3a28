"""generate workload: the `topoforge generate` CLI path, in process.

Three jobs per pass, each on a draw of the seeded routed-tree generator
(``topogen.py``), written to a fresh output directory:

- A: 1000 services, ``--target compose --tracing``, v4 (job1_s)
- B: 300 services, ``--target k8s --ipv6 --https --ioam`` (job2_s)
- C: 500 services, same flags as A (job3_s); A / C gives the growth ratios
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import yaml

import topogen
from harness import Context, Outcome, Timing, passes, reference_seconds, seconds, timed, wall
from tracer import Tracer


@dataclass(frozen=True)
class Job:
    name: str
    services: int
    flags: tuple[str, ...]


COMPOSE = ("--target", "compose", "--tracing")
JOBS = (
    Job("A", 1000, COMPOSE),
    Job("B", 300, ("--target", "k8s", "--ipv6", "--https", "--ioam")),
    Job("C", 500, COMPOSE),
)
# job B is short and swings most between runs, so each pass times it twice,
# apart: A, B, C, B
PASS_ORDER = (JOBS[0], JOBS[1], JOBS[2], JOBS[1])
SETUP_PER_PASS = 3  # CLI import samples, taken at the start of each pass
IMPORT_CLI = (
    "import time; t0 = time.perf_counter(); import topoforge.cli; "
    "print(time.perf_counter() - t0)"
)
# self-time layers reported for jobs A and B together
LAYERS = {
    "cli": "cli.write_s",
    "parser.parse": "parser.parse_s",
    "validation.validate": "validation.validate_s",
    "netplan.allocate": "netplan.allocate_s",
    "netplan.routes": "netplan.routes_s",
    "netplan.timers": "netplan.timers_s",
    "deploy.build_plan": "deploy.build_plan_s",
    "tls.certs": "tls.certs_s",
    "compose.emit": "compose.emit_s",
    "k8s.emit": "k8s.emit_s",
}
GROWTH = {
    "parser.parse": "parser.growth_2x",
    "netplan.allocate": "netplan.allocate.growth_2x",
    "netplan.routes": "netplan.routes.growth_2x",
    "deploy.build_plan": "deploy.growth_2x",
    "compose.emit": "compose.growth_2x",
}
LAYER_METRICS = (
    *LAYERS.values(), *GROWTH.values(), "fib.check_s", "netplan.subnets",
    "netplan.setup_cmds", "compose.bytes", "k8s.bytes", "trace.coverage_compose",
    "trace.coverage_k8s", "tracing_overhead", "failed_share",
)


def _trace_targets():
    from topoforge import cli, deploy, netplan, tls

    return [
        (cli, "parse_config", "parser.parse"),
        (cli, "validate", "validation.validate"),
        (netplan, "allocate_networks", "netplan.allocate"),
        (netplan, "plan_routes", "netplan.routes"),
        (netplan, "plan_timer_scripts", "netplan.timers"),
        (deploy, "build_plan", "deploy.build_plan"),
        (tls, "generate_authority", "tls.certs"),
        (tls, "generate_leaf", "tls.certs"),
        (cli, "emit_compose", "compose.emit"),
        (cli, "emit_k8s", "k8s.emit"),
    ]


def import_cli() -> Timing:
    """Time to import the CLI module in a fresh interpreter, rescaled by
    reference samples this process takes right before and after it."""
    before = [reference_seconds() for _ in range(3)]
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_CLI], capture_output=True, text=True, check=True, timeout=60
    )
    after = [reference_seconds() for _ in range(3)]
    return Timing(float(out.stdout), statistics.fmean(before + after))


def tree_digest(root) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fn in sorted(filenames):
            path = os.path.join(dirpath, fn)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


@contextlib.contextmanager
def capture_plan(store: dict):
    """Keep the (topology, network plan) of the next ``plan_deployment`` call."""
    from topoforge import cli

    original = cli.plan_deployment

    def capturing(t, opts):
        np, plan = original(t, opts)
        store["topology"], store["netplan"], store["plan"] = t, np, plan
        return np, plan

    cli.plan_deployment = capturing
    try:
        yield
    finally:
        cli.plan_deployment = original


def _loader():
    return getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def check_documents(job: Job, draw: topogen.Draw, out) -> tuple[bool, str]:
    """Emitted documents parse and name every entity of the draw."""
    entities = set(draw.entities)
    if job.flags[1] == "compose":
        with open(out / "compose.yml") as fh:
            doc = yaml.load(fh, Loader=_loader())
        named = set(doc["services"]) - {"jaeger"}
        return named == entities, f"{len(named)}/{len(entities)} entities in compose.yml"
    kinds: dict[str, set[str]] = {}
    for path in sorted((out / "manifests").iterdir()):
        with open(path) as fh:
            doc = yaml.load(fh, Loader=_loader())
        kinds.setdefault(doc["kind"], set()).add(doc["metadata"]["name"])
    ok = (
        kinds.get("Deployment") == entities
        and kinds.get("Service") == entities
        and kinds.get("ConfigMap") == {f"{e}-config" for e in entities}
    )
    return ok, f"{len(kinds.get('Deployment', ()))}/{len(entities)} deployments"


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    setup: list[Timing] = []
    from topoforge import cli, fib

    draws = {job.name: topogen.routed_tree(job.services, ctx.seed) for job in JOBS}
    for job in JOBS:
        again = topogen.routed_tree(job.services, ctx.seed)
        outcome.check(f"draw {job.name} byte-identical for seed {ctx.seed}",
                      again.text == draws[job.name].text)
        (ctx.workdir / f"input-{job.name}.yml").write_text(draws[job.name].text)
        ctx.log(f"job {job.name}: {len(draws[job.name].services)} services, "
                f"{len(draws[job.name].routers)} routers, {draws[job.name].edges} call edges")

    tracer = Tracer()
    plans: dict = {}
    digests: dict[str, set[str]] = {job.name: set() for job in JOBS}

    # every run writes to a new directory and none is deleted before the run
    # ends: deleting ~3,000 files right before job B slowed it by up to 20%
    outputs: dict[str, Path] = {}

    def generate(job: Job, traced: bool) -> Timing:
        out = outputs[job.name] = ctx.workdir / f"out-{job.name}-{outcome.attempted}"
        argv = ["generate", str(ctx.workdir / f"input-{job.name}.yml"), "--output", str(out),
                *job.flags]
        main = tracer.wrap(cli.main, "cli") if traced else cli.main
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            timing, rc = timed(main, argv)
        outcome.attempted += 1
        if rc != 0:
            outcome.failed += 1
            ctx.log(f"job {job.name}: exit status {rc}")
        else:
            digests[job.name].add(tree_digest(out))
        return timing

    # fib.check_path_fidelity is quadratic: about 10 s on job A's plan and 2 s
    # on C's.  Traced runs check A and time it; untraced runs check C.
    checked = "A" if ctx.trace else "C"

    def run_job(job: Job, i: int, traced: bool = False) -> Timing:
        tracer.request = f"{job.name}/{i}"
        if i or job.name != checked:
            timing = generate(job, traced)
        else:
            with capture_plan(plans):
                timing = generate(job, traced)
            with tracer.span("fib.check"):
                plans["fib"], check = timed(
                    fib.check_path_fidelity, plans.pop("topology"), plans.pop("netplan")
                )
            outcome.check(f"fib path fidelity on job {checked} plan", check.ok,
                          "; ".join(check.failures[:3]))
            plan = plans.pop("plan")
            plans["subnets"] = len(plan.networks)
            plans["setup_cmds"] = sum(len(c.setup) for c in plan.containers)
            del plan
        ctx.log(f"pass {i} job {job.name}: {timing.wall_s:.3f} s wall, "
                f"{timing.seconds:.3f} s rescaled")
        return timing

    def one_pass(i: int) -> dict[str, list[Timing]]:
        setup.extend(import_cli() for _ in range(SETUP_PER_PASS))
        times: dict[str, list[Timing]] = {job.name: [] for job in JOBS}
        for job in PASS_ORDER:
            times[job.name].append(run_job(job, i))
        return times

    if ctx.trace:
        # each job traced between two untraced runs, so all see the same host
        untraced, traced = {}, {}
        for job in JOBS:
            before = run_job(job, 0)
            with tracer.patch(_trace_targets()):
                traced[job.name] = run_job(job, 1, traced=True)
            untraced[job.name] = statistics.fmean([before.seconds, run_job(job, 2).seconds])
    else:
        runs = passes(ctx, one_pass)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for job in JOBS:
        outcome.check(f"job {job.name} output digest equal across runs",
                      len(digests[job.name]) == 1, ",".join(d[:12] for d in digests[job.name]))
        ok, detail = check_documents(job, draws[job.name], outputs[job.name])
        outcome.check(f"job {job.name} documents parse and name every entity", ok, detail)

    m = outcome.metrics
    m["failed_share"] = outcome.failed / outcome.attempted
    if not ctx.trace:
        m["setup_s"] = seconds(setup)
        m["peak_rss_mib"] = peak_rss_mib
        for slot, wall_name, job in zip(
            ("job1_s", "job2_s", "job3_s"),
            ("gen_compose_wall_s", "gen_k8s_wall_s", "gen_compose_500_wall_s"),
            JOBS,
        ):
            timings = [t for r in runs for t in r[job.name]]
            m[slot], m[wall_name] = seconds(timings), wall(timings)
        return outcome

    # self times of the traced pass, rescaled like the job that contains them
    selfs = {
        job.name: {span: traced[job.name].rescale(t)
                   for span, t in tracer.self_times(f"{job.name}/1").items()}
        for job in JOBS
    }
    for span, metric in LAYERS.items():
        m[metric] = selfs["A"].get(span, 0.0) + selfs["B"].get(span, 0.0)
    for span, metric in GROWTH.items():
        m[metric] = selfs["A"][span] / selfs["C"][span]
    m["fib.check_s"] = plans["fib"].seconds
    m["netplan.subnets"] = plans["subnets"]
    m["netplan.setup_cmds"] = plans["setup_cmds"]
    m["compose.bytes"] = (outputs["A"] / "compose.yml").stat().st_size
    m["k8s.bytes"] = sum(p.stat().st_size for p in (outputs["B"] / "manifests").iterdir())
    for job, metric in (("A", "trace.coverage_compose"), ("B", "trace.coverage_k8s")):
        m[metric] = sum(selfs[job].values()) / untraced[job]
    m["tracing_overhead"] = sum(t.seconds for t in traced.values()) - sum(untraced.values())
    tracer.write(ctx.workdir / f"spans-seed{ctx.seed}.jsonl")
    return outcome

"""Command-line entry point: generate, validate, inspect, simulate."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .compose import emit_compose
from .deploy import (
    DEFAULT_COLLECTOR_IMAGE,
    DEFAULT_ROUTER_IMAGE,
    DEFAULT_SERVICE_IMAGE,
    GenerationOptions,
    plan_deployment,
)
from .errors import OptionConflictError, TopoforgeError
from .k8s import emit_k8s
from .maxrate import measure_max_rate
from .netplan import plan_network, setup_commands
from .parser import parse_config
from .sim import Workload, build_sim, run
from .validation import validate


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="topoforge", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_planned(p):
        # the commands that plan addresses: the config and its address family
        p.add_argument("config", help="topology configuration file")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--ipv4", dest="family", action="store_const", const="v4")
        group.add_argument("--ipv6", dest="family", action="store_const", const="v6")
        p.set_defaults(family="v4")

    def add_bases(p):
        p.add_argument("--base-v4", default=None, help="IPv4 allocation base CIDR")
        p.add_argument("--base-v6", default=None, help="IPv6 allocation base CIDR")

    gen = sub.add_parser("generate", help="emit deployment configuration files")
    add_planned(gen)
    add_bases(gen)
    gen.add_argument("--target", choices=["compose", "k8s"], default="compose")
    gen.add_argument("--https", action="store_true")
    gen.add_argument("--tracing", action="store_true")
    gen.add_argument("--ioam", action="store_true")
    gen.add_argument("--output", default="out", help="output directory")
    gen.add_argument("--seed", type=int, default=0)

    val = sub.add_parser("validate", help="parse, validate and plan addresses; write nothing")
    add_planned(val)

    ins = sub.add_parser("inspect", help="print the resolved topology and network plan")
    add_planned(ins)
    add_bases(ins)

    simp = sub.add_parser("simulate", help="run the in-process simulation harness")
    simp.add_argument("config", help="topology configuration file")
    simp.add_argument("--service", default=None, help="target service (default: first)")
    simp.add_argument("--entrypoint", default="/")
    simp.add_argument("--mode", choices=["closed", "open"], default="closed")
    simp.add_argument("--clients", type=int, default=1)
    simp.add_argument("--rate", type=float, default=None, help="open-loop req/s")
    simp.add_argument("--duration", type=float, default=1.0, help="virtual seconds")
    simp.add_argument("--seed", type=int, default=0)
    simp.add_argument("--max-rate", action="store_true", help="measure the maximum sustainable request rate")
    simp.add_argument("--precision", type=float, default=0.01, help="relative search precision")
    simp.add_argument("--json", action="store_true", help="machine-readable report")
    return ap


def _load(args):
    text = Path(args.config).read_text()
    cfg = parse_config(text)
    topo = validate(cfg)
    for w in topo.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return topo


def _base(args) -> str | None:
    """The chosen family's allocation base; the other family's base flag is a conflict."""
    other = "v4" if args.family == "v6" else "v6"
    if getattr(args, f"base_{other}") is not None:
        raise OptionConflictError(f"--base-{other} does not apply to IP{args.family} addressing")
    return getattr(args, f"base_{args.family}")


def _options(args) -> GenerationOptions:
    return GenerationOptions(
        family=args.family,
        scheme="https" if args.https else "http",
        tracing=args.tracing,
        ioam=args.ioam,
        base=_base(args),
        seed=args.seed,
        service_image=os.environ.get("TOPOFORGE_SERVICE_IMAGE", DEFAULT_SERVICE_IMAGE),
        router_image=os.environ.get("TOPOFORGE_ROUTER_IMAGE", DEFAULT_ROUTER_IMAGE),
        collector_image=os.environ.get("TOPOFORGE_COLLECTOR_IMAGE", DEFAULT_COLLECTOR_IMAGE),
    )


def cmd_generate(args) -> int:
    opts = _options(args)
    topo = _load(args)
    _np, plan = plan_deployment(topo, opts)
    files = emit_k8s(plan) if args.target == "k8s" else emit_compose(plan)
    out = Path(args.output)
    # one mkdir per output directory, not one per file
    for directory in sorted({rel.rpartition("/")[0] for rel, _ in files}):
        (out / directory).mkdir(parents=True, exist_ok=True)
    # each file's path is str(out / rel), joined as a string: no Path per file
    base = str(out)
    prefix = "" if base == "." else base if base.endswith("/") else base + "/"
    paths = [prefix + rel for rel, _ in files]
    for path, (_rel, data) in zip(paths, files):
        with open(path, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_validate(args) -> int:
    topo = _load(args)
    plan_network(topo, family=args.family)
    print(
        f"ok: {len(topo.services)} services, {len(topo.routers)} routers, "
        f"{len(topo.path_table)} paths, {len(topo.link_graph)} links"
    )
    return 0


def cmd_inspect(args) -> int:
    base = _base(args)
    topo = _load(args)
    np = plan_network(topo, family=args.family, base=base)
    print("call graph:")
    for rp in topo.path_table:
        print(f"  {rp.service}{rp.entrypoint} -> {rp.terminal}{rp.url}")
    print("links:")
    for (a, b), edge in sorted(topo.link_graph.items()):
        print(f"  {a} <-> {b}")
    print("subnets:")
    for s in np.subnets:
        print(f"  {s.name:<24} {s.cidr}")
    print("interfaces:")
    for entity, by_subnet in sorted(np.attached.items()):
        for subnet, (addr, iface) in sorted(by_subnet.items()):
            print(f"  {entity:<16} {subnet:<24} {addr} ({iface})")
    print("host ports:")
    for svc, spec in topo.services.items():
        print(f"  {svc:<16} {spec.port}")
    print("setup commands:")
    for entity in topo.entities:
        if cmds := setup_commands(topo, np, entity):
            print(f"  {entity}:")
            for cmd in cmds:
                print(f"    {cmd}")
    print("timer scripts:")
    for entity, script in np.timer_scripts.items():
        print(f"  {entity}:")
        for line in script.splitlines():
            print(f"    {line}")
    return 0


def cmd_simulate(args) -> int:
    topo = _load(args)
    service = args.service or next(iter(topo.services))
    if args.max_rate:
        target = (service, args.entrypoint)
        result = measure_max_rate(topo, target, precision=args.precision, seed=args.seed)
        if args.json:
            print(json.dumps({"max_rate": result.rate, "probes": result.probes, "bound": result.bound}))
        else:
            line = f"max sustainable rate: {result.rate:.1f} req/s ({len(result.probes)} probes)"
            print(line if result.bound is None else f"{line}, bound {result.bound:.1f} req/s")
        return 0
    workload = Workload(
        service=service,
        entrypoint=args.entrypoint,
        mode=args.mode,
        clients=args.clients,
        rate=args.rate,
        duration_s=args.duration,
    )
    world = build_sim(topo, seed=args.seed)
    report = run(world, workload)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.to_text(), end="")
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "validate": cmd_validate,
    "inspect": cmd_inspect,
    "simulate": cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except (OptionConflictError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TopoforgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Serialization of a DeploymentPlan to a single-host compose document."""

from __future__ import annotations

from . import yamlio
from .deploy import (
    CONFIG_MOUNT,
    TIMER_MOUNT,
    ContainerSpec,
    DeploymentPlan,
    runtime_config_json,
    start_command,
)

COMPOSE_FILE = "compose.yml"
CONFIG_DIR = "configs"
TIMER_DIR = "timers"


def _service_entry(c: ContainerSpec, family: str, own_files: list) -> dict:
    entry: dict = {"image": c.image, "container_name": c.name}
    if c.cap_net_admin:
        entry["cap_add"] = ["NET_ADMIN"]
    if c.role != "collector":
        entry["command"] = start_command(c)
    volumes = [f"./{rel}:{mount}:ro" for rel, mount, _ in own_files]
    volumes += [f"./{key}:{mount}:ro" for mount, key in sorted(c.tls_files.items())]
    if volumes:
        entry["volumes"] = volumes
    if c.environment:
        entry["environment"] = dict(sorted(c.environment.items()))
    addr_key = "ipv4_address" if family == "v4" else "ipv6_address"
    if c.attachments:
        entry["networks"] = {net: {addr_key: addr} for net, addr in c.attachments}
    if c.ports:
        entry["ports"] = [f"{host}:{cont}" for host, cont in c.ports]
    return entry


def emit_compose(plan: DeploymentPlan) -> list[tuple[str, str | bytes]]:
    """(relative path, contents) of every file of the compose target: the
    compose document, then each container's own files, then the TLS
    materials in path order.  Output is deterministic, key order stable."""
    family = plan.options.family
    doc: dict = {"services": {}, "networks": {}}
    files = []
    for c in plan.containers:
        own = []  # (relative path, mount path, contents) of each file only c mounts
        if c.role == "service":
            own.append((f"{CONFIG_DIR}/{c.name}.json", CONFIG_MOUNT, runtime_config_json(c)))
        if c.timer_script:
            own.append((f"{TIMER_DIR}/{c.name}.sh", TIMER_MOUNT, c.timer_script))
        doc["services"][c.name] = _service_entry(c, family, own)
        files += [(rel, contents) for rel, _mount, contents in own]
    for subnet in plan.networks:
        net: dict = {"driver": "bridge"}
        if family == "v6":
            net["enable_ipv6"] = True
        net["ipam"] = {"config": [{"subnet": subnet.cidr}]}
        doc["networks"][subnet.name] = net
    return [(COMPOSE_FILE, yamlio.dump(doc)), *files, *sorted(plan.materials.items())]

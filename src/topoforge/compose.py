"""Serialization of a DeploymentPlan to a single-host compose document."""

from __future__ import annotations

from . import yamlio
from .deploy import (
    CONFIG_MOUNT,
    TIMER_MOUNT,
    ContainerSpec,
    DeploymentPlan,
    main_command,
    setup_script,
)

CONFIG_DIR = "configs"
TIMER_DIR = "timers"


def _service_entry(c: ContainerSpec, family: str) -> dict:
    entry: dict = {"image": c.image, "container_name": c.name}
    if c.cap_net_admin:
        entry["cap_add"] = ["NET_ADMIN"]
    if c.role != "collector":
        entry["command"] = ["sh", "-c", f"{setup_script(c)}\nexec {main_command(c)}"]
    volumes = []
    if c.role == "service":
        volumes.append(f"./{CONFIG_DIR}/{c.name}.json:{CONFIG_MOUNT}:ro")
    if c.timer_script:
        volumes.append(f"./{TIMER_DIR}/{c.name}.sh:{TIMER_MOUNT}:ro")
    for mount, key in sorted(c.tls_files.items()):
        volumes.append(f"./{key}:{mount}:ro")
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


def emit_compose(plan: DeploymentPlan) -> str:
    """Render the compose document; output is deterministic, key order stable."""
    family = plan.options.family
    doc = {
        "services": {
            c.name: _service_entry(c, family) for c in plan.containers
        },
        "networks": {},
    }
    for subnet in plan.networks:
        net: dict = {"driver": "bridge"}
        if family == "v6":
            net["enable_ipv6"] = True
        net["ipam"] = {"config": [{"subnet": subnet.cidr}]}
        doc["networks"][subnet.name] = net
    return yamlio.dump(doc)

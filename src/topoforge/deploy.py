"""Target-agnostic deployment planning.

Converts a validated topology plus a network plan into a container set that
the compose and kubernetes emitters serialize.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import OptionConflictError
from .netplan import (
    BRIDGE_NET,
    NetPlan,
    endpoint_addresses,
    ioam_commands,
    plan_network,
    setup_commands,
)
from .validation import ValidatedTopology

DEFAULT_SERVICE_IMAGE = "topoforge/service:latest"
DEFAULT_ROUTER_IMAGE = "topoforge/router:latest"
DEFAULT_COLLECTOR_IMAGE = "jaegertracing/all-in-one:1.57"

COLLECTOR_NAME = "jaeger"
COLLECTOR_UI_PORT = 16686
COLLECTOR_INGEST_PORT = 4318

MOUNT_DIR = "/etc/topoforge"  # where both targets mount a container's files
CONFIG_FILE = "config.json"
TIMER_FILE = "timers.sh"
CONFIG_MOUNT = f"{MOUNT_DIR}/{CONFIG_FILE}"
TIMER_MOUNT = f"{MOUNT_DIR}/{TIMER_FILE}"
CA_NAME = "ca"  # the authority's file name, which no service may take under HTTPS
CA_MATERIAL = f"certs/{CA_NAME}.crt"  # a material key is its path in the output and under MOUNT_DIR

SERVICE_COMMAND = f"topoforge-service --config {CONFIG_MOUNT}"
ROUTER_COMMAND = "sleep infinity"

DOWNSTREAM_TIMEOUT_S = 5.0


@dataclass(frozen=True)
class GenerationOptions:
    family: str = "v4"  # v4 | v6
    scheme: str = "http"  # http | https
    tracing: bool = False
    ioam: bool = False
    base: str | None = None  # address base CIDR override
    seed: int = 0
    service_image: str = DEFAULT_SERVICE_IMAGE
    router_image: str = DEFAULT_ROUTER_IMAGE
    collector_image: str = DEFAULT_COLLECTOR_IMAGE

    def __post_init__(self):
        if self.ioam and self.family != "v6":
            raise OptionConflictError("ioam requires the v6 address family")
        if self.family not in ("v4", "v6"):
            raise OptionConflictError(f"unknown address family {self.family!r}")
        if self.scheme not in ("http", "https"):
            raise OptionConflictError(f"unknown scheme {self.scheme!r}")


@dataclass
class ContainerSpec:
    name: str
    role: str  # service | router | collector
    image: str
    config_payload: dict | None = None
    setup: list[str] = field(default_factory=list)
    timer_script: str | None = None
    attachments: list[tuple[str, str]] = field(default_factory=list)  # (network, address)
    ports: list[tuple[int, int]] = field(default_factory=list)  # (host, container)
    cap_net_admin: bool = False
    environment: dict[str, str] = field(default_factory=dict)
    tls_files: dict[str, str] = field(default_factory=dict)  # mount path -> material key


@dataclass
class DeploymentPlan:
    containers: list[ContainerSpec]
    networks: list  # Subnet list for the compose target
    options: GenerationOptions
    # relative file name -> bytes, written next to the emitted documents
    materials: dict[str, bytes] = field(default_factory=dict)


def start_command(c: ContainerSpec) -> list[str]:
    """The container's command on both targets: its setup commands under
    ``set -e``, its timer script started in the background, then its main process."""
    lines = ["set -e", *c.setup]
    if c.timer_script:
        lines.append(f"(sh {TIMER_MOUNT} &)")
    lines.append(f"exec {SERVICE_COMMAND if c.role == 'service' else ROUTER_COMMAND}")
    return ["sh", "-c", "\n".join(lines)]


def runtime_config_json(c: ContainerSpec) -> str:
    """The container's runtime config as the file both targets mount: the text
    of ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline."""
    return _indented_json(c.config_payload, "\n") + "\n"


def _indented_json(value, newline: str) -> str:
    # json.dumps runs its pure-Python encoder whenever it indents, and that
    # encoder leaves a reference cycle per call; here the C encoder writes
    # every key and leaf.  Payload keys are strings.
    inner = newline + "  "
    if isinstance(value, dict) and value:
        items = ",".join(
            f"{inner}{json.dumps(key)}: {_indented_json(value[key], inner)}"
            for key in sorted(value)
        )
        return f"{{{items}{newline}}}"
    if isinstance(value, (list, tuple)) and value:
        items = ",".join(inner + _indented_json(item, inner) for item in value)
        return f"[{items}{newline}]"
    return json.dumps(value)


def _tls_materials(name: str) -> dict[str, str]:
    """The runtime config's ``tls`` roles of service ``name`` -> their material keys."""
    return {"cert": f"certs/{name}.crt", "key": f"certs/{name}.key", "ca": CA_MATERIAL}


def collector_endpoint(np: NetPlan) -> str:
    addr = np.address(COLLECTOR_NAME, BRIDGE_NET)
    host = f"[{addr}]" if np.family == "v6" else addr
    return f"http://{host}:{COLLECTOR_INGEST_PORT}/v1/traces"


def _downstream_entry(t: ValidatedTopology, np: NetPlan, rp, opts: GenerationOptions) -> dict:
    terminal = rp.terminal
    return {
        "name": terminal,
        "address": endpoint_addresses(np, rp.hops)[0],
        "port": t.services[terminal].port,
        "url": rp.url,
        "scheme": opts.scheme,
    }


def _runtime_config(t: ValidatedTopology, np: NetPlan, name: str, opts: GenerationOptions) -> dict:
    svc = t.services[name]
    endpoints = []
    for ep in svc.endpoints:
        downstreams = [
            _downstream_entry(t, np, rp, opts) for rp in t.paths_by_service[name][ep.entrypoint]
        ]
        endpoints.append(
            {"entrypoint": ep.entrypoint, "psize": ep.psize, "downstreams": downstreams}
        )
    cfg = {
        "name": name,
        "port": svc.port,
        "scheme": opts.scheme,
        "family": opts.family,
        "endpoints": endpoints,
        "downstream_timeout_s": DOWNSTREAM_TIMEOUT_S,
    }
    if opts.scheme == "https":
        cfg["tls"] = {role: f"{MOUNT_DIR}/{key}" for role, key in _tls_materials(name).items()}
    return cfg


def build_plan(t: ValidatedTopology, np: NetPlan, opts: GenerationOptions) -> DeploymentPlan:
    """One container per entity, plus an optional tracing collector."""
    if opts.tracing and COLLECTOR_NAME in t.entities:
        raise OptionConflictError(
            f"tracing reserves the container name '{COLLECTOR_NAME}'"
        )

    if opts.scheme == "https" and CA_NAME in t.services:
        raise OptionConflictError(
            f"https reserves the service name '{CA_NAME}' for the certificate authority"
        )

    materials: dict[str, bytes] = {}
    authority = None
    if opts.scheme == "https":
        from . import tls  # cryptography loads only for the HTTPS target

        authority = tls.generate_authority(opts.seed)
        materials[CA_MATERIAL] = authority.cert_pem

    containers: list[ContainerSpec] = []
    for name in t.entities:
        role = "service" if name in t.services else "router"
        setup = setup_commands(t, np, name) + (ioam_commands(np, name) if opts.ioam else [])
        spec = ContainerSpec(
            name=name,
            role=role,
            image=opts.service_image if role == "service" else opts.router_image,
            setup=setup,
            timer_script=np.timer_scripts.get(name),
            attachments=np.attachments(name),
            cap_net_admin=role == "router" or bool(setup),
        )
        if role == "service":
            spec.config_payload = _runtime_config(t, np, name, opts)
            port = t.services[name].port
            spec.ports = [(port, port)]
            if opts.tracing:
                spec.environment["TRACE_COLLECTOR_ENDPOINT"] = collector_endpoint(np)
            if authority is not None:
                leaf = tls.generate_leaf(
                    authority, name, [a for _n, a in spec.attachments], opts.seed
                )
                keys = _tls_materials(name)
                materials[keys["cert"]] = leaf.cert_pem
                materials[keys["key"]] = leaf.key_pem
                spec.tls_files = {f"{MOUNT_DIR}/{key}": key for key in keys.values()}
        containers.append(spec)

    if opts.tracing:
        containers.append(
            ContainerSpec(
                name=COLLECTOR_NAME,
                role="collector",
                image=opts.collector_image,
                attachments=np.attachments(COLLECTOR_NAME),
                ports=[(COLLECTOR_UI_PORT, COLLECTOR_UI_PORT)],
                environment={"COLLECTOR_OTLP_ENABLED": "true"},
            )
        )

    return DeploymentPlan(
        containers=containers, networks=list(np.subnets), options=opts, materials=materials
    )


def plan_deployment(
    t: ValidatedTopology, opts: GenerationOptions
) -> tuple[NetPlan, DeploymentPlan]:
    """Network planning and deployment planning wired together.

    With tracing enabled, every service and the collector join the shared
    bridge subnet so span export has a route.
    """
    extra: tuple[str, ...] = ()
    if opts.tracing:
        extra = tuple(t.services) + (COLLECTOR_NAME,)
    np = plan_network(t, family=opts.family, base=opts.base, extra_bridge_members=extra)
    return np, build_plan(t, np, opts)

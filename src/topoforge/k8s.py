"""Serialization of a DeploymentPlan to kubernetes manifests.

Per entity: one Deployment, one stable-name Service, and one ConfigMap
carrying a service's runtime config and any timer script; per HTTPS service, one Secret
carrying its TLS material.  The pod mounts the ConfigMap and the Secret as
one projected volume at ``/etc/topoforge``, the TLS files under ``certs/``;
the container runs the compose target's command, setup before the main
process.  That command names the compose plan's interfaces and gateways,
but a pod has only ``eth0``: fig4's ``frontend`` runs ``tc qdisc add dev
eth1 ...`` and ``ip route add 10.0.4.2/32 via 10.0.8.3`` under ``set -e``,
so the container exits before its main process starts.
"""

from __future__ import annotations

import re

from . import yamlio
from .deploy import (
    CONFIG_FILE,
    MOUNT_DIR,
    TIMER_FILE,
    ContainerSpec,
    DeploymentPlan,
    runtime_config_json,
    start_command,
)
from .errors import ValidationError

# a Service name is an RFC 1035 label (kubernetes.io, "Object Names and IDs")
SERVICE_NAME_RE = re.compile(r"[a-z]([-a-z0-9]{0,61}[a-z0-9])?")
MANIFEST_DIR = "manifests"


def _configmap(c: ContainerSpec) -> dict:
    data = {}
    if c.config_payload is not None:
        data[CONFIG_FILE] = runtime_config_json(c)
    if c.timer_script:
        data[TIMER_FILE] = c.timer_script
    return {
        "apiVersion": "v1",
        "kind": "ConfigMap",
        "metadata": {"name": f"{c.name}-config"},
        "data": data,
    }


def _secret_key(material: str) -> str:
    return material.rpartition("/")[2]


def _secret(c: ContainerSpec, materials: dict[str, bytes]) -> dict:
    return {
        "apiVersion": "v1",
        "kind": "Secret",
        "metadata": {"name": f"{c.name}-tls"},
        "type": "Opaque",
        "stringData": {
            _secret_key(key): materials[key].decode() for key in sorted(c.tls_files.values())
        },
    }


def _volume_sources(c: ContainerSpec) -> list[dict]:
    sources: list[dict] = [{"configMap": {"name": f"{c.name}-config"}}]
    if c.tls_files:
        items = [
            {"key": _secret_key(key), "path": mount.removeprefix(f"{MOUNT_DIR}/")}
            for mount, key in sorted(c.tls_files.items())
        ]
        sources.append({"secret": {"name": f"{c.name}-tls", "items": items}})
    return sources


def _deployment(c: ContainerSpec) -> dict:
    container: dict = {"name": c.name, "image": c.image}
    pod_spec: dict = {"containers": [container]}
    if c.role != "collector":
        container["command"] = start_command(c)
        container["volumeMounts"] = [{"name": "config", "mountPath": MOUNT_DIR}]
        pod_spec["volumes"] = [{"name": "config", "projected": {"sources": _volume_sources(c)}}]
    if c.ports:
        container["ports"] = [{"containerPort": cont} for _host, cont in c.ports]
    if c.environment:
        container["env"] = [
            {"name": k, "value": v} for k, v in sorted(c.environment.items())
        ]
    if c.cap_net_admin:
        container["securityContext"] = {"capabilities": {"add": ["NET_ADMIN"]}}
    return {
        "apiVersion": "apps/v1",
        "kind": "Deployment",
        "metadata": {"name": c.name, "labels": {"app": c.name}},
        "spec": {
            "replicas": 1,
            "selector": {"matchLabels": {"app": c.name}},
            "template": {
                "metadata": {"labels": {"app": c.name}},
                "spec": pod_spec,
            },
        },
    }


def _service(c: ContainerSpec) -> dict:
    # routers expose nothing; a headless service still gives a stable name
    spec: dict = {} if c.ports else {"clusterIP": "None"}
    spec["selector"] = {"app": c.name}
    if c.ports:
        spec["ports"] = [
            {"name": f"port-{cont}", "port": cont, "targetPort": cont} for _host, cont in c.ports
        ]
    return {"apiVersion": "v1", "kind": "Service", "metadata": {"name": c.name}, "spec": spec}


def emit_k8s(plan: DeploymentPlan) -> list[tuple[str, str]]:
    """(relative path, manifest text) of every file of the k8s target, one
    manifest per file under ``manifests/``.

    Raises ValidationError for a container whose name is not a valid
    Kubernetes Service name.
    """
    for c in plan.containers:
        if not SERVICE_NAME_RE.fullmatch(c.name):
            raise ValidationError(
                "not a valid Kubernetes Service name: use at most 63 lowercase letters, "
                "digits or '-', starting with a letter and ending with a letter or digit",
                c.name,
            )
    docs = []
    for c in plan.containers:
        if c.role != "collector":  # the one pod that mounts no ConfigMap
            docs.append((f"{c.name}-configmap.yaml", _configmap(c)))
        if c.tls_files:
            docs.append((f"{c.name}-secret.yaml", _secret(c, plan.materials)))
        docs.append((f"{c.name}-deployment.yaml", _deployment(c)))
        docs.append((f"{c.name}-service.yaml", _service(c)))
    texts = yamlio.dump_each(doc for _name, doc in docs)
    return [(f"{MANIFEST_DIR}/{name}", text) for (name, _doc), text in zip(docs, texts)]

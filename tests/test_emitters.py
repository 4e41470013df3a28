"""Compose and kubernetes emission, generation options, TLS materials."""

import json
from pathlib import Path

import pytest
import yaml
from cryptography import x509
from hypothesis import given, settings
from hypothesis import strategies as st

import topoforge as tf
from topoforge import k8s, tls
from topoforge.deploy import (
    COLLECTOR_NAME,
    ContainerSpec,
    GenerationOptions,
    plan_deployment,
    runtime_config_json,
)
from topoforge.errors import OptionConflictError

from conftest import container

DATA = Path(__file__).parent / "data"
SHOP = Path(__file__).parent.parent / "topologies" / "shop_demo.yml"
ALL_FLAGS = dict(family="v6", scheme="https", tracing=True, ioam=True)

_json_keys = st.text(max_size=6)
_json_payloads = st.dictionaries(
    _json_keys,
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_json_keys, inner, max_size=4),
        max_leaves=20,
    ),
    max_size=5,
)


def _indented(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _plan(topology, **kw):
    return plan_deployment(topology, GenerationOptions(**kw))


class TestCompose:
    def test_golden_snapshot(self, fig4_topology):
        _np, plan = _plan(fig4_topology)
        golden = (DATA / "compose_fig4.yml").read_text()
        assert dict(tf.emit_compose(plan))["compose.yml"] == golden

    def test_byte_stable(self, fig4_topology):
        _np, plan_a = _plan(fig4_topology)
        _np, plan_b = _plan(fig4_topology)
        assert tf.emit_compose(plan_a) == tf.emit_compose(plan_b)

    def test_document_shape(self, fig4_topology):
        _np, plan = _plan(fig4_topology)
        doc = yaml.safe_load(dict(tf.emit_compose(plan))["compose.yml"])
        assert sorted(doc["services"]) == ["db", "frontend", "payment", "r1"]
        assert sorted(doc["networks"]) == ["bridge", "link_db_r1", "link_frontend_r1"]
        frontend = doc["services"]["frontend"]
        assert frontend["ports"] == ["80:80"]
        assert frontend["cap_add"] == ["NET_ADMIN"]
        script = frontend["command"][2]
        assert "tc qdisc add dev eth1 root netem rate 100mbit" in script
        assert script.startswith("set -e\n")
        assert script.endswith("exec topoforge-service --config /etc/topoforge/config.json")
        assert "(sh /etc/topoforge/timers.sh &)" in script
        # the plain service needs no NET_ADMIN and no setup
        assert "cap_add" not in doc["services"]["payment"]

    def test_network_addresses_match_plan(self, fig4_topology):
        np, plan = _plan(fig4_topology)
        doc = yaml.safe_load(dict(tf.emit_compose(plan))["compose.yml"])
        for name, entry in doc["services"].items():
            for net, netconf in entry.get("networks", {}).items():
                assert netconf["ipv4_address"] == np.address(name, net)

    def test_writes_exactly_the_mounted_files(self, fig4_topology):
        _np, plan = _plan(fig4_topology, scheme="https")
        files = dict(tf.emit_compose(plan))
        doc = yaml.safe_load(files.pop("compose.yml"))
        mounted = {
            volume.split(":")[0].removeprefix("./")
            for entry in doc["services"].values() for volume in entry.get("volumes", ())
        }
        assert mounted == files.keys()
        assert "timers/frontend.sh" in files and "certs/payment.key" in files

    def test_v6_document(self, fig4_topology):
        _np, plan = _plan(fig4_topology, family="v6")
        doc = yaml.safe_load(dict(tf.emit_compose(plan))["compose.yml"])
        for net in doc["networks"].values():
            assert net["enable_ipv6"] is True
        assert (
            doc["services"]["frontend"]["networks"]["bridge"]["ipv6_address"]
            == "fd00::2"
        )


class TestRuntimeConfigPayload:
    def test_downstreams(self, fig4_topology):
        np, plan = _plan(fig4_topology)
        cfg = container(plan, "frontend").config_payload
        assert cfg["name"] == "frontend"
        assert cfg["port"] == 80
        by_ep = {ep["entrypoint"]: ep for ep in cfg["endpoints"]}
        (db_ds,) = by_ep["/"]["downstreams"]
        assert db_ds == {
            "name": "db",
            "address": np.address("db", "link_db_r1"),
            "port": 10001,
            "url": "/",
            "scheme": "http",
        }
        (pay_ds,) = by_ep["/payment"]["downstreams"]
        assert pay_ds["address"] == np.address("payment", "bridge")

    def test_leaf_has_no_downstreams(self, fig4_topology):
        _np, plan = _plan(fig4_topology)
        cfg = container(plan, "db").config_payload
        assert cfg["endpoints"][0]["downstreams"] == []

    @pytest.mark.parametrize("path", [DATA / "fig4.yml", SHOP], ids=["fig4", "shop_demo"])
    @pytest.mark.parametrize("kw", [{}, ALL_FLAGS], ids=["plain", "all-flags"])
    def test_json_text_is_the_indenting_encoders(self, path, kw):
        topology = tf.validate(tf.parse_config(path.read_text()))
        _np, plan = _plan(topology, **kw)
        services = [c for c in plan.containers if c.config_payload is not None]
        assert services
        for c in services:
            assert runtime_config_json(c) == _indented(c.config_payload)

    @settings(max_examples=200, deadline=None)
    @given(_json_payloads)
    def test_json_text_of_any_payload(self, payload):
        spec = ContainerSpec(name="s", image="i", role="service", config_payload=payload)
        assert runtime_config_json(spec) == _indented(payload)


class TestKubernetes:
    def test_manifest_set(self, fig4_topology):
        _np, plan = _plan(fig4_topology)
        files = dict(tf.emit_k8s(plan))
        assert len(files) == 12  # 4 entities x (configmap, deployment, service)
        for entity in ("frontend", "r1", "db", "payment"):
            for kind in ("configmap", "deployment", "service"):
                assert f"manifests/{entity}-{kind}.yaml" in files

    def test_deployment_content(self, fig4_topology):
        _np, plan = _plan(fig4_topology)
        files = dict(tf.emit_k8s(plan))
        dep = yaml.safe_load(files["manifests/frontend-deployment.yaml"])
        (container,) = dep["spec"]["template"]["spec"]["containers"]
        assert container["securityContext"] == {"capabilities": {"add": ["NET_ADMIN"]}}
        script = container["command"][2]
        assert "tc qdisc add dev eth1 root netem rate 100mbit" in script
        assert "(sh /etc/topoforge/timers.sh &)" in script
        assert "lifecycle" not in container
        cm = yaml.safe_load(files["manifests/frontend-configmap.yaml"])
        assert set(cm["data"]) == {"config.json", "timers.sh"}

    @pytest.mark.parametrize("path", [DATA / "fig4.yml", SHOP], ids=["fig4", "shop_demo"])
    @pytest.mark.parametrize(
        "kw",
        [{}, dict(family="v6", ioam=True), dict(scheme="https"), dict(tracing=True)],
        ids=["v4", "v6-ioam", "https", "tracing"],
    )
    def test_every_container_starts_as_on_compose(self, path, kw):
        # setup, timers and the main process run in one command on both targets
        topology = tf.validate(tf.parse_config(path.read_text()))
        _np, plan = _plan(topology, **kw)
        services = yaml.safe_load(dict(tf.emit_compose(plan))["compose.yml"])["services"]
        files = dict(tf.emit_k8s(plan))
        for c in plan.containers:
            dep = yaml.safe_load(files[f"manifests/{c.name}-deployment.yaml"])
            (pod_container,) = dep["spec"]["template"]["spec"]["containers"]
            assert pod_container.get("command") == services[c.name].get("command")
            assert "lifecycle" not in pod_container

    def test_https_pods_mount_their_tls_files(self, fig4_topology):
        _np, plan = _plan(fig4_topology, scheme="https")
        files = dict(tf.emit_k8s(plan))
        for name in ("frontend", "db", "payment"):
            secret = yaml.safe_load(files[f"manifests/{name}-secret.yaml"])
            dep = yaml.safe_load(files[f"manifests/{name}-deployment.yaml"])
            pod = dep["spec"]["template"]["spec"]
            (mount,) = pod["containers"][0]["volumeMounts"]
            (volume,) = pod["volumes"]
            assert volume["name"] == mount["name"]
            sources = volume["projected"]["sources"]
            assert sources[0] == {"configMap": {"name": f"{name}-config"}}
            assert sources[1]["secret"]["name"] == secret["metadata"]["name"]
            mounted = {
                f"{mount['mountPath']}/{item['path']}": secret["stringData"][item["key"]]
                for item in sources[1]["secret"]["items"]
            }
            tls = container(plan, name).config_payload["tls"]
            assert set(mounted) == set(tls.values())
            assert mounted[tls["cert"]].encode() == plan.materials[f"certs/{name}.crt"]
            assert mounted[tls["key"]].encode() == plan.materials[f"certs/{name}.key"]
            assert mounted[tls["ca"]].encode() == plan.materials["certs/ca.crt"]
        assert "manifests/r1-secret.yaml" not in files

    @pytest.mark.parametrize("path", [DATA / "fig4.yml", SHOP], ids=["fig4", "shop_demo"])
    @pytest.mark.parametrize("kw", [{}, {"tracing": True}, ALL_FLAGS], ids=["plain", "tracing", "all-flags"])
    def test_every_configmap_is_mounted(self, path, kw):
        topology = tf.validate(tf.parse_config(path.read_text()))
        _np, plan = _plan(topology, **kw)
        docs = [yaml.safe_load(text) for _rel, text in tf.emit_k8s(plan)]
        configmaps = {d["metadata"]["name"] for d in docs if d["kind"] == "ConfigMap"}
        mounted = {
            source["configMap"]["name"]
            for d in docs if d["kind"] == "Deployment"
            for volume in d["spec"]["template"]["spec"].get("volumes", [])
            for source in volume["projected"]["sources"] if "configMap" in source
        }
        assert configmaps
        assert configmaps == mounted

    def test_router_service_headless(self, fig4_topology):
        _np, plan = _plan(fig4_topology)
        svc = yaml.safe_load(dict(tf.emit_k8s(plan))["manifests/r1-service.yaml"])
        assert svc["spec"]["clusterIP"] == "None"

    @pytest.mark.parametrize(
        "name, valid",
        [
            ("a", True), ("s1", True), ("r-1", True), ("a" * 63, True),
            ("b_c", False), ("S1", False), ("1a", False), ("-a", False), ("a-", False),
            ("a" * 64, False),
        ],
    )
    def test_service_name_rule(self, name, valid):
        assert bool(k8s.SERVICE_NAME_RE.fullmatch(name)) is valid

    def test_service_ports(self, fig4_topology):
        _np, plan = _plan(fig4_topology)
        svc = yaml.safe_load(dict(tf.emit_k8s(plan))["manifests/db-service.yaml"])
        assert svc["spec"]["ports"] == [
            {"name": "port-10001", "port": 10001, "targetPort": 10001}
        ]


class TestTracing:
    def test_collector_container(self, fig4_topology):
        np, plan = _plan(fig4_topology, tracing=True)
        names = [c.name for c in plan.containers]
        assert names[-1] == COLLECTOR_NAME
        collector = container(plan, COLLECTOR_NAME)
        assert collector.role == "collector"
        # every service shares the bridge with the collector
        bridge_members = {e for e, by_subnet in np.attached.items() if "bridge" in by_subnet}
        assert {"frontend", "db", "payment", COLLECTOR_NAME} <= bridge_members

    def test_services_get_endpoint_env(self, fig4_topology):
        np, plan = _plan(fig4_topology, tracing=True)
        endpoint = container(plan, "db").environment["TRACE_COLLECTOR_ENDPOINT"]
        assert endpoint == f"http://{np.address(COLLECTOR_NAME, 'bridge')}:4318/v1/traces"
        assert "TRACE_COLLECTOR_ENDPOINT" not in container(plan, "r1").environment

    def test_collector_name_collision(self):
        from conftest import make_topology

        t = make_topology(
            "jaeger:\n  type: service\n  port: 8000\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
        )
        with pytest.raises(OptionConflictError):
            plan_deployment(t, GenerationOptions(tracing=True))


class TestHttps:
    def test_materials(self, fig4_topology):
        _np, plan = _plan(fig4_topology, scheme="https")
        assert set(plan.materials) == {
            "certs/ca.crt",
            "certs/frontend.crt",
            "certs/frontend.key",
            "certs/db.crt",
            "certs/db.key",
            "certs/payment.crt",
            "certs/payment.key",
        }
        cfg = container(plan, "frontend").config_payload
        assert cfg["tls"]["cert"] == "/etc/topoforge/certs/frontend.crt"
        assert cfg["endpoints"][0]["downstreams"][0]["scheme"] == "https"

    def test_deterministic_for_fixed_seed(self, fig4_topology):
        _np, a = _plan(fig4_topology, scheme="https", seed=7)
        _np, b = _plan(fig4_topology, scheme="https", seed=7)
        assert a.materials == b.materials

    def test_seed_changes_keys(self, fig4_topology):
        _np, a = _plan(fig4_topology, scheme="https", seed=7)
        _np, b = _plan(fig4_topology, scheme="https", seed=8)
        assert a.materials["certs/ca.crt"] != b.materials["certs/ca.crt"]

    def test_leaves_verify_with_the_authority_key(self, fig4_topology):
        _np, plan = _plan(fig4_topology, scheme="https", seed=7)
        ca = x509.load_pem_x509_certificate(plan.materials["certs/ca.crt"])
        leaves = [plan.materials[f"certs/{name}.crt"] for name in ("frontend", "db", "payment")]
        # a leaf seed other than the authority's still signs with the CA's key
        leaves.append(tls.generate_leaf(tls.generate_authority(7), "svc", [], seed=8).cert_pem)
        for pem in leaves:
            leaf = x509.load_pem_x509_certificate(pem)
            assert leaf.issuer == ca.subject
            # raises InvalidSignature unless the CA's key signed the leaf
            ca.public_key().verify(leaf.signature, leaf.tbs_certificate_bytes)


class TestOptionConflicts:
    def test_ioam_requires_v6(self, fig4_topology):
        with pytest.raises(OptionConflictError):
            plan_deployment(fig4_topology, GenerationOptions(ioam=True, family="v4"))

    def test_ioam_v6_hooks(self, fig4_topology):
        _np, plan = _plan(fig4_topology, ioam=True, family="v6")
        assert any(
            cmd.startswith("sysctl -w net.ipv6.conf.eth0.ioam6_enabled=1")
            for cmd in container(plan, "frontend").setup
        )

    @pytest.mark.parametrize(
        "kw",
        [{"family": "v5"}, {"scheme": "spdy"}],
    )
    def test_bad_option_values(self, fig4_topology, kw):
        with pytest.raises(OptionConflictError):
            plan_deployment(fig4_topology, GenerationOptions(**kw))

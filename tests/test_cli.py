"""The command-line entry point: files written, exit statuses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from cryptography import x509
from cryptography.hazmat.primitives import serialization

import topoforge
from topoforge import cli

from conftest import breadth_config, colliding_links_config, loss_chain_config, route_conflict_config

DATA = Path(__file__).parent / "data"
FIG4 = str(DATA / "fig4.yml")
SHOP = Path(__file__).parent.parent / "topologies" / "shop_demo.yml"


@pytest.fixture(autouse=True)
def default_images(monkeypatch):
    for var in ("TOPOFORGE_SERVICE_IMAGE", "TOPOFORGE_ROUTER_IMAGE", "TOPOFORGE_COLLECTOR_IMAGE"):
        monkeypatch.delenv(var, raising=False)


def _files(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def test_generate_compose(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["generate", FIG4, "--output", str(out)]) == 0
    assert (out / "compose.yml").read_text() == (DATA / "compose_fig4.yml").read_text()
    assert _files(out) == {
        "compose.yml",
        "configs/frontend.json",
        "configs/db.json",
        "configs/payment.json",
        "timers/frontend.sh",
    }
    config = json.loads((out / "configs/frontend.json").read_text())
    assert config["name"] == "frontend"
    assert (out / "timers/frontend.sh").read_text().startswith("#!/bin/sh\n")
    assert f"wrote {out / 'compose.yml'}" in capsys.readouterr().out


@pytest.mark.parametrize("output, root", [("./x/", "x"), (".", ".")])
def test_wrote_lines_name_each_file_as_pathlib_joins_it(tmp_path, monkeypatch, capsys, output, root):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["generate", FIG4, "--target", "k8s", "--output", output]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sorted(lines) == sorted(f"wrote {Path(output) / rel}" for rel in _files(tmp_path / root))
    assert lines[0] == ("wrote x/manifests/" if root == "x" else "wrote manifests/") + (
        "frontend-configmap.yaml")


def test_generate_compose_v6_ioam_tracing(tmp_path):
    out = tmp_path / "out"
    argv = ["generate", FIG4, "--ipv6", "--ioam", "--tracing", "--output", str(out)]
    assert cli.main(argv) == 0
    golden = (DATA / "compose_fig4_v6_ioam_tracing.yml").read_text()
    assert (out / "compose.yml").read_text() == golden


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_generate_independent_of_hash_seed(tmp_path):
    src = str(Path(topoforge.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if not k.startswith("TOPOFORGE_")}
    trees = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / hash_seed
        subprocess.run(
            [sys.executable, "-m", "topoforge.cli", "generate", FIG4, "--target", "k8s",
             "--ipv6", "--https", "--ioam", "--tracing", "--seed", "3", "--output", str(out)],
            capture_output=True, check=True, timeout=60,
            env={**env, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
        )
        trees.append(_tree(out))
    assert trees[0] and trees[0] == trees[1]


def test_image_environment_variables(tmp_path, monkeypatch):
    monkeypatch.setenv("TOPOFORGE_SERVICE_IMAGE", "registry.local/svc:1")
    monkeypatch.setenv("TOPOFORGE_ROUTER_IMAGE", "registry.local/rtr:1")
    monkeypatch.setenv("TOPOFORGE_COLLECTOR_IMAGE", "registry.local/col:1")
    out = tmp_path / "out"
    assert cli.main(["generate", FIG4, "--tracing", "--output", str(out)]) == 0
    services = yaml.safe_load((out / "compose.yml").read_text())["services"]
    assert {name: svc["image"] for name, svc in services.items()} == {
        "frontend": "registry.local/svc:1", "db": "registry.local/svc:1",
        "payment": "registry.local/svc:1", "r1": "registry.local/rtr:1",
        "jaeger": "registry.local/col:1",
    }


def test_generate_compose_https_writes_every_mounted_certificate(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["generate", FIG4, "--https", "--output", str(out)]) == 0
    services = yaml.safe_load((out / "compose.yml").read_text())["services"]
    mounted = {v.split(":")[0] for svc in services.values() for v in svc.get("volumes", [])}
    assert all((out / path).is_file() for path in mounted)
    leaves = ("frontend", "db", "payment")
    assert {path for path in mounted if path.startswith("./certs/")} == {
        "./certs/ca.crt", *(f"./certs/{name}.{ext}" for name in leaves for ext in ("crt", "key"))
    }
    ca = x509.load_pem_x509_certificate((out / "certs/ca.crt").read_bytes())
    raw = (serialization.Encoding.Raw, serialization.PublicFormat.Raw)
    for name in leaves:
        leaf = x509.load_pem_x509_certificate((out / f"certs/{name}.crt").read_bytes())
        leaf.verify_directly_issued_by(ca)  # raises unless the authority signed it
        key = serialization.load_pem_private_key((out / f"certs/{name}.key").read_bytes(), None)
        assert key.public_key().public_bytes(*raw) == leaf.public_key().public_bytes(*raw)


def test_generate_k8s_writes_only_manifests(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["generate", FIG4, "--target", "k8s", "--https", "--output", str(out)]) == 0
    files = _files(out)
    assert {f.partition("/")[0] for f in files} == {"manifests"}
    kinds: dict[str, set[str]] = {}
    for rel in files:
        doc = yaml.safe_load((out / rel).read_text())
        kinds.setdefault(doc["kind"], set()).add(doc["metadata"]["name"])
    assert kinds["Secret"] == {"frontend-tls", "db-tls", "payment-tls"}
    assert kinds["Deployment"] == {"frontend", "r1", "db", "payment"}


@pytest.mark.parametrize("command", [["validate"], ["inspect"]])
def test_read_only_commands(command, capsys):
    assert cli.main([*command, FIG4]) == 0
    assert capsys.readouterr().out


def test_inspect_prints_routes_and_commands(capsys):
    assert cli.main(["inspect", FIG4]) == 0
    out = capsys.readouterr().out
    assert "ip route add 10.0.4.2/32 via 10.0.8.3" in out
    assert "tc qdisc add dev eth1 root netem rate 100mbit" in out
    assert "tc qdisc change dev eth1 root netem rate 1gbit" in out


@pytest.mark.parametrize(
    "argv, golden",
    [
        ([FIG4], "inspect_fig4.txt"),
        ([str(SHOP), "--ipv6"], "inspect_shop_demo_v6.txt"),
    ],
    ids=["fig4-v4", "shop_demo-v6"],
)
def test_inspect_output_golden(argv, golden, capsys):
    assert cli.main(["inspect", *argv]) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text()


def test_simulate_json(tmp_path, capsys):
    # 1100 leaves on one bridge exceed v4 addressing, which simulate never plans
    breadth = tmp_path / "breadth.yml"
    breadth.write_text(breadth_config(1100))
    for config in (FIG4, breadth):
        assert cli.main(["simulate", str(config), "--duration", "0.05", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["completed"] > 0
        assert report["failed"] == 0


def test_simulate_text_golden(capsys):
    assert cli.main(["simulate", FIG4, "--duration", "0.05"]) == 0
    assert capsys.readouterr().out == (DATA / "simulate_fig4.txt").read_text()


def test_simulate_text_names_timers(tmp_path, capsys):
    timer = (
        "          rate: 100mbit\n          timers:\n            - option: rate\n"
        "              start: 0.01\n              duration: 0.02\n              newValue: 1gbit\n"
    )
    config = tmp_path / "timer.yml"
    config.write_text(loss_chain_config(0).replace("          url: /\n", "          url: /\n" + timer))
    assert cli.main(["simulate", str(config), "--duration", "0.05"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:-1] == ["timer        t=0.01s a<->r rate", "timer        t=0.03s a<->r rate"]
    assert lines[-1].startswith("event digest ")


def test_simulate_max_rate_prints_the_bound(monkeypatch, capsys):
    monkeypatch.setattr("topoforge.maxrate._probe", lambda *args: 48_822.0)
    assert cli.main(["simulate", FIG4, "--max-rate"]) == 0
    assert capsys.readouterr().out == (
        "max sustainable rate: 48822.0 req/s (1 probes), bound 48828.1 req/s\n"
    )


@pytest.mark.parametrize(
    "lossy, probes, bound",
    [(False, [[4, 1000.0], [8, 1000.0]], 48_828.125), (True, [[1, 1000.0], [2, 1000.0]], None)],
)
def test_simulate_max_rate_json_bound(lossy, probes, bound, tmp_path, monkeypatch, capsys):
    config = FIG4
    if lossy:
        config = tmp_path / "lossy.yml"
        config.write_text(loss_chain_config(1))
    monkeypatch.setattr("topoforge.maxrate._probe", lambda *args: 1000.0)
    assert cli.main(["simulate", str(config), "--max-rate", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"max_rate": 1000.0, "probes": probes, "bound": bound}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--duration", "-1"], "workload needs duration_s > 0"),
        (["--duration", "0"], "workload needs duration_s > 0"),
        (["--max-rate", "--precision", "-1"], "precision must be >= 0"),
        (["--duration", "inf"], "workload needs a finite duration_s, start_s and rate"),
        (["--mode", "open", "--rate", "inf"], "workload needs a finite duration_s, start_s and rate"),
    ],
)
def test_simulate_rejects_unrunnable_input(argv, message, monkeypatch, capsys):
    def probe(*args, **kwargs):
        raise AssertionError("probed with an invalid precision")

    monkeypatch.setattr("topoforge.maxrate._probe", probe)
    assert cli.main(["simulate", FIG4, *argv]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_ioam_needs_v6(tmp_path, capsys):
    assert cli.main(["generate", FIG4, "--ioam", "--output", str(tmp_path / "out")]) == 2
    assert "ioam requires the v6 address family" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_target_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["generate", FIG4, "--target", "nomad", "--output", str(out)]) == 2
    assert "argument --target: invalid choice: 'nomad'" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path / "absent.yml")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["generate", "inspect"])
def test_base_too_small_is_an_error(command, tmp_path, capsys):
    argv = [command, FIG4, "--base-v4", "10.0.0.0/22"]
    if command == "generate":
        argv += ["--output", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "error: base network 10.0.0.0/22 holds 1 /22 subnets" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_base_of_the_other_version_conflicts(tmp_path, capsys):
    argv = ["generate", FIG4, "--ipv4", "--base-v4", "fd00::/16", "--output", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "error: base network fd00::/16 is not an IPv4 network" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "inspect"])
@pytest.mark.parametrize(
    "family, flag, base",
    [(["--ipv6"], "--base-v4", "192.168.0.0/16"), ([], "--base-v6", "fd00:1::/48")],
    ids=["v4-base-under-ipv6", "v6-base-under-ipv4"],
)
def test_base_of_the_family_not_chosen_conflicts(command, family, flag, base, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, FIG4, *family, flag, base]
    if command == "generate":
        argv += ["--output", str(out)]
    assert cli.main(argv) == 2
    chosen = "v6" if family else "v4"
    assert capsys.readouterr() == ("", f"error: {flag} does not apply to IP{chosen} addressing\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "generate"])
def test_colliding_link_subnet_names_exit_1(command, tmp_path, capsys):
    config = tmp_path / "collide.yml"
    config.write_text(colliding_links_config())
    out = tmp_path / "out"
    argv = [command, str(config)] + (["--output", str(out)] if command == "generate" else [])
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        "error: links 'a<->b_c' and 'a_b<->c' would share the subnet name 'link_a_b_c'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "inspect", "generate"])
def test_route_conflicts_exit_1(command, tmp_path, capsys):
    # validate plans the routes that generate deploys, so it fails the same way
    config = tmp_path / "conflict.yml"
    config.write_text(route_conflict_config())
    out = tmp_path / "out"
    argv = [command, str(config)] + (["--output", str(out)] if command == "generate" else [])
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        "error: entity 'a', field 'path': needs routes to 10.0.8.2 via both 10.0.0.3 and 10.0.4.3\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("name", ["b_c", "S1"])
def test_k8s_rejects_names_kubernetes_refuses(name, tmp_path, capsys):
    config = tmp_path / "topo.yml"
    config.write_text(
        f"{name}:\n  type: service\n  port: 8000\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
    )
    out = tmp_path / "out"
    assert cli.main(["generate", str(config), "--target", "k8s", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: entity '{name}': not a valid Kubernetes Service name")
    assert not out.exists()
    # compose keeps accepting the name
    assert cli.main(["generate", str(config), "--output", str(out)]) == 0


@pytest.mark.parametrize("target", ["compose", "k8s"])
def test_https_reserves_the_service_name_ca(target, tmp_path, capsys):
    # its leaf certificate would take the authority's file, certs/ca.crt
    config = tmp_path / "topo.yml"
    config.write_text("ca:\n  type: service\n  port: 8000\n  endpoints:\n    - entrypoint: /\n      psize: 1\n")
    out = tmp_path / "out"
    argv = ["generate", str(config), "--target", target, "--output", str(out)]
    assert cli.main([*argv, "--https"]) == 2
    assert capsys.readouterr().err == (
        "error: https reserves the service name 'ca' for the certificate authority\n"
    )
    assert not out.exists()
    assert cli.main(argv) == 0


def test_k8s_accepts_shop_demo(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["generate", str(SHOP), "--target", "k8s", "--output", str(out)]) == 0
    assert (out / "manifests" / "frontendproxy-service.yaml").is_file()


@pytest.mark.parametrize(
    "command, flags",
    [
        ("validate", ["--base-v4", "10.0.0.0/8"]),
        ("simulate", ["--base-v4", "10.0.0.0/8"]),
        # simulate plans no addresses, so it takes no address family
        ("simulate", ["--ipv4"]),
        ("simulate", ["--ipv6"]),
    ],
    ids=["validate", "simulate", "simulate-ipv4", "simulate-ipv6"],
)
def test_base_flags_only_where_read(command, flags, capsys):
    assert cli.main([command, FIG4, *flags]) == 2
    assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err


SAMPLES = sorted((Path(__file__).parent.parent / "topologies").glob("*.yml"))


@pytest.mark.parametrize("target", ["compose", "k8s"])
@pytest.mark.parametrize("sample", SAMPLES, ids=lambda p: p.stem)
def test_sample_topology_generates(sample, target, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["generate", str(sample), "--target", target, "--output", str(out)]) == 0
    if target == "compose":
        named = set(yaml.safe_load((out / "compose.yml").read_text())["services"])
    else:
        named = {
            yaml.safe_load(p.read_text())["metadata"]["name"]
            for p in (out / "manifests").glob("*-deployment.yaml")
        }
    assert named == set(yaml.safe_load(sample.read_text()))


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda p: p.stem)
def test_sample_topology_simulates(sample, capsys):
    assert cli.main(["simulate", str(sample), "--duration", "0.05", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["completed"] > 0
    assert report["failed"] == 0


_HUGE = "9" * 400  # beyond the float range: its float() is inf, or OverflowError for an int


def _timer(option: str, start: str, duration: str) -> str:
    return (
        f"\n          timers:\n            - option: {option}\n              start: {start}\n"
        f"              duration: {duration}\n              newValue: 1"
    )


@pytest.mark.parametrize(
    "options, field",
    [
        ("delay: .inf", "delay"),
        ("delay: .nan", "delay"),
        (f"delay: {_HUGE}", "delay"),
        ("delay: 1ms\n          jitter: .inf", "jitter"),
        ("delay: 1ms\n          jitter: .nan", "jitter"),
        (f"rate: {_HUGE}mbit", "rate"),
        (f"loss: {_HUGE}", "loss"),
        ("delay: 1ms" + _timer("delay", ".nan", "5"), "start"),
        ("delay: 1ms" + _timer("delay", "1", ".inf"), "duration"),
        ("delay: 1ms" + _timer("delay", _HUGE, "5"), "start"),
    ],
    ids=["delay-inf", "delay-nan", "delay-huge", "jitter-inf", "jitter-nan", "rate-huge",
         "loss-huge", "timer-start-nan", "timer-duration-inf", "timer-start-huge"],
)
@pytest.mark.parametrize("command", ["validate", "inspect", "simulate", "generate"])
def test_non_finite_numbers_rejected(options, field, command, tmp_path, capsys):
    config = tmp_path / "topo.yml"
    config.write_text(
        "a:\n  type: service\n  port: 9000\n  endpoints:\n"
        "    - entrypoint: /\n      psize: 128\n      connections:\n"
        f"        - path: b\n          url: /\n          {options}\n"
        "b:\n  type: service\n  port: 9001\n  endpoints:\n    - entrypoint: /\n      psize: 128\n"
    )
    out = tmp_path / "out"
    argv = [command, str(config)] + (["--output", str(out)] if command == "generate" else [])
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: entity 'a', field '{field}': ")
    assert not out.exists()

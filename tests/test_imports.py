"""What each module loads: cryptography only for HTTPS generation, PyYAML only in
yamlio, and the service runtime nothing but the standard library it needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import topoforge


def _run_python(code: str) -> str:
    src = str(Path(topoforge.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, timeout=60
    )
    return out.stdout


def test_entry_points_do_not_load_cryptography():
    code = (
        "import sys, topoforge.runtime, topoforge.sim, topoforge.cli; "
        "print('cryptography' in sys.modules)"
    )
    assert _run_python(code) == "False\n"


# modules that a service process or the simulator must not load: PyYAML and
# cryptography, which a service image need not carry, and the standard
# library's HTTP stack, which the runtime does not use, and ssl, which only a
# service that speaks TLS loads
_NOT_LOADED = {
    "topoforge.runtime": (
        "yaml", "cryptography", "http.server", "http.client", "urllib.request", "email", "ssl",
    ),
    "topoforge.sim": ("yaml", "cryptography"),
}


@pytest.mark.parametrize("module", list(_NOT_LOADED))
def test_module_loads_only_what_it_runs(module):
    code = f"import sys, {module}; print([m for m in {_NOT_LOADED[module]!r} if m in sys.modules])"
    assert _run_python(code) == "[]\n"


def test_runtime_serves_without_yaml_or_cryptography():
    code = """
import socket, sys
sys.modules["yaml"] = sys.modules["cryptography"] = None  # importing either fails
from topoforge.runtime import EndpointRuntime, Microservice, RuntimeConfig
svc = Microservice(RuntimeConfig("svc", 0, (EndpointRuntime("/", 7),), host="127.0.0.1"))
svc.start()
with socket.create_connection(("127.0.0.1", svc.port), timeout=5) as sock:
    sock.sendall(b"GET / HTTP/1.1\\r\\nHost: svc\\r\\nConnection: close\\r\\n\\r\\n")
    reply = b""
    while chunk := sock.recv(4096):
        reply += chunk
svc.stop()
head, body = reply.split(b"\\r\\n\\r\\n", 1)
print(head.split(b"\\r\\n")[0].decode(), len(body))
"""
    assert _run_python(code) == "HTTP/1.1 200 OK 7\n"


def test_public_names_resolve_to_their_modules():
    for name in topoforge.__all__:
        assert getattr(topoforge, name).__module__ == f"topoforge.{topoforge._EXPORTS[name]}"
    with pytest.raises(AttributeError):
        topoforge.no_such_name


def test_only_yamlio_imports_yaml():
    importers = set()
    for path in Path(topoforge.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name == "yaml" or name.startswith("yaml.") for name in names):
                importers.add(path.name)
    assert importers == {"yamlio.py"}

"""The microservice runtime.

Listens on configured entrypoints, queries downstream services strictly
sequentially over pooled persistent connections, answers with a random
payload of the configured size, and optionally exports trace spans to a
collector endpoint or a file sink.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import re
import socket
import ssl
import sys
import threading
import time
import urllib.request
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# a service started with start() notices stop() within this many seconds;
# serve_forever() (the container entry point) keeps the default 0.5 s poll
STOP_POLL_S = 0.02
# an accepted connection that sends no request for this long is closed; a
# caller closes its pooled connections after half of it, before the peer does
IDLE_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Downstream:
    name: str
    address: str
    port: int
    url: str
    scheme: str = "http"


@dataclass(frozen=True)
class EndpointRuntime:
    entrypoint: str
    psize: int
    downstreams: tuple[Downstream, ...] = ()


@dataclass(frozen=True)
class RuntimeConfig:
    name: str
    port: int
    endpoints: tuple[EndpointRuntime, ...]
    scheme: str = "http"
    family: str = "v4"
    host: str = ""
    span_sink_file: str | None = None
    payload_seed: int | None = None
    downstream_timeout_s: float = 5.0
    tls: dict | None = None

    @staticmethod
    def from_dict(d: dict) -> "RuntimeConfig":
        endpoints = tuple(
            EndpointRuntime(**{
                **ep, "downstreams": tuple(Downstream(**ds) for ds in ep.get("downstreams", ())),
            })
            for ep in d["endpoints"]
        )
        return RuntimeConfig(**{**d, "endpoints": endpoints})

    @staticmethod
    def load(path: str) -> "RuntimeConfig":
        with open(path) as fh:
            return RuntimeConfig.from_dict(json.load(fh))


@dataclass(frozen=True)
class SpanRecord:
    trace_id: str
    span_id: str
    parent_span_id: str | None
    name: str
    start_ns: int
    end_ns: int
    attributes: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.end_ns < self.start_ns:
            raise ValueError("span end precedes start")

    def to_wire(self) -> dict:
        return {
            "traceId": self.trace_id,
            "spanId": self.span_id,
            "parentSpanId": self.parent_span_id,
            "name": self.name,
            "startNs": self.start_ns,
            "endNs": self.end_ns,
            "attributes": dict(self.attributes),
        }


class SpanExporter:
    """Best-effort asynchronous span delivery behind a bounded queue.

    Overflow drops the oldest record and increments ``dropped``; export
    never blocks the request path.
    """

    def __init__(self, endpoint: str | None = None, sink_file: str | None = None, maxlen: int = 4096):
        self.endpoint = endpoint
        self.sink_file = sink_file
        self.dropped = 0
        self._queue: deque[SpanRecord] = deque()
        self._delivering = False  # a drained batch is still being written
        self._maxlen = maxlen
        self._lock = threading.Lock()
        self._delivered = threading.Condition(self._lock)  # notified after each batch
        self._wake = threading.Event()
        self._closed = False
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def export(self, record: SpanRecord):
        with self._lock:
            if len(self._queue) >= self._maxlen:
                self._queue.popleft()
                self.dropped += 1
            self._queue.append(record)
        self._wake.set()

    def _drain(self) -> list[SpanRecord]:
        with self._lock:
            batch = list(self._queue)
            self._queue.clear()
            self._delivering = bool(batch)
        return batch

    def _run(self):
        while not (self._closed and not self._queue):
            self._wake.wait()
            self._wake.clear()
            batch = self._drain()
            if batch:
                self._deliver(batch)
                with self._lock:
                    self._delivering = False
                    self._delivered.notify_all()

    def _deliver(self, batch: list[SpanRecord]):
        payload = "\n".join(json.dumps(r.to_wire(), sort_keys=True) for r in batch) + "\n"
        lost = False  # a span is dropped once, however many destinations fail
        if self.sink_file:
            try:
                with open(self.sink_file, "a") as fh:
                    fh.write(payload)
            except OSError:
                lost = True
        if self.endpoint:
            try:
                req = urllib.request.Request(
                    self.endpoint,
                    data=payload.encode(),
                    headers={"Content-Type": "application/x-ndjson"},
                )
                urllib.request.urlopen(req, timeout=2.0).read()
            except (OSError, ValueError):  # URLError is an OSError
                lost = True
        if lost:
            with self._lock:  # export() counts overflow drops concurrently
                self.dropped += len(batch)

    def flush(self, timeout: float = 2.0):
        """Wait until every exported span has been delivered (or ``timeout``)."""
        with self._lock:
            self._delivered.wait_for(lambda: not self._queue and not self._delivering, timeout)

    def close(self):
        self._closed = True
        self._wake.set()
        self.flush()


# W3C Trace Context: an all-zero trace-id or parent-id is invalid
_TRACEPARENT_RE = re.compile(r"^00-(?!0{32})([0-9a-f]{32})-(?!0{16})([0-9a-f]{16})-([0-9a-f]{2})$")


def parse_traceparent(value: str | None) -> tuple[str, str] | None:
    if not value:
        return None
    m = _TRACEPARENT_RE.match(value.strip())
    if not m:
        return None
    return m.group(1), m.group(2)


def format_traceparent(trace_id: str, span_id: str) -> str:
    return f"00-{trace_id}-{span_id}-01"


def random_payload(n: int, rng: random.Random | None = None) -> bytes:
    """Exactly ``n`` random bytes; seeded rng gives reproducible output."""
    if n < 1:
        raise ValueError("payload size must be >= 1")
    if rng is not None:
        return rng.randbytes(n)
    return os.urandom(n)


# a chunked request body: the hex size of each chunk, and the longest line
# (size line or trailer field) read before the request is refused
_CHUNK_SIZE_RE = re.compile(rb"[0-9A-Fa-f]{1,16}")
_MAX_LINE = 65536


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "topoforge-service"
    # headers and body go out in two sends: with Nagle on, the body would
    # wait for the client's delayed ACK (40 ms) on a keep-alive connection
    disable_nagle_algorithm = True

    def setup(self):
        self.timeout = IDLE_TIMEOUT_S  # read per connection, not at import
        super().setup()
        self.server.microservice._track_inbound(self.connection, True)

    def finish(self):
        self.server.microservice._track_inbound(self.connection, False)
        super().finish()

    def log_message(self, *args):  # quiet
        pass

    def do_GET(self):
        self._handle()

    def do_POST(self):
        # bodies are read and ignored; method-agnostic GET semantics.  Each
        # send_error below also closes the connection
        codings = self.headers.get_all("Transfer-Encoding")
        if codings is None:
            length = self.headers.get("Content-Length", "0")
            if not (length.isascii() and length.isdigit()):
                self.send_error(400, "malformed Content-Length")
                return
            self.rfile.read(int(length))
        elif "Content-Length" in self.headers:
            # RFC 9112 6.3: a message with both may be request smuggling
            self.send_error(400, "both Transfer-Encoding and Content-Length")
            return
        elif [c.strip().lower() for c in ",".join(codings).split(",")] != ["chunked"]:
            self.send_error(501, "unsupported transfer coding")
            return
        elif not self._discard_chunked_body():
            self.send_error(400, "malformed chunked body")
            return
        self._handle()

    def _discard_chunked_body(self) -> bool:
        """Read a chunked body and its trailers (RFC 9112 7.1); False if malformed."""
        while True:
            size = self.rfile.readline(_MAX_LINE).split(b";", 1)[0].strip()
            if not _CHUNK_SIZE_RE.fullmatch(size):
                return False
            left = int(size, 16)
            if left == 0:
                break
            while left:
                data = self.rfile.read(min(left, 65536))
                if not data:
                    return False
                left -= len(data)
            if self.rfile.readline(_MAX_LINE) not in (b"\r\n", b"\n"):
                return False
        while True:  # trailer fields, up to the empty line
            line = self.rfile.readline(_MAX_LINE)
            if line in (b"\r\n", b"\n"):
                return True
            if not line.endswith(b"\n"):  # the stream ended, or an overlong line
                return False

    def _send(self, status: int, body: bytes, ctype: str = "application/octet-stream"):
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _handle(self):
        server: Microservice = self.server.microservice
        path = self.path.split("?", 1)[0]
        endpoint = server.endpoint(path)
        if endpoint is None:
            self._send(404, b"unknown entrypoint", "text/plain")
            return
        try:
            status, body, ctype = server.handle_request(
                endpoint, self.headers.get("traceparent")
            )
        except Exception as exc:  # never crash the handler thread
            self._send(500, f"internal error: {exc}".encode(), "text/plain")
            return
        self._send(status, body, ctype)


class _ServerV4(ThreadingHTTPServer):
    daemon_threads = True

    def handle_error(self, request, client_address):
        # a client that fails its TLS handshake or drops its connection is
        # no fault of the server; anything else is reported
        if not isinstance(sys.exc_info()[1], OSError):
            super().handle_error(request, client_address)


class _ServerV6(_ServerV4):
    address_family = socket.AF_INET6


class Microservice:
    """One service instance bound to a RuntimeConfig."""

    def __init__(self, config: RuntimeConfig, exporter: SpanExporter | None = None):
        self.config = config
        self._endpoints = {ep.entrypoint: ep for ep in config.endpoints}
        self._rng = (
            random.Random(config.payload_seed) if config.payload_seed is not None else None
        )
        self._rng_lock = threading.Lock()
        self.exporter = exporter
        # deploy hands a service its collector in the environment
        collector = os.environ.get("TRACE_COLLECTOR_ENDPOINT")
        if exporter is None and (collector or config.span_sink_file):
            self.exporter = SpanExporter(collector, config.span_sink_file)
        server_cls = _ServerV6 if config.family == "v6" else _ServerV4
        self._server = server_cls((config.host, config.port), _Handler)
        self._server.microservice = self
        if config.scheme == "https":
            ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            ctx.load_cert_chain(config.tls["cert"], config.tls["key"])
            # each handshake runs in its handler thread, not in the accept loop
            self._server.socket = ctx.wrap_socket(
                self._server.socket, server_side=True, do_handshake_on_connect=False
            )
        self._client_tls: ssl.SSLContext | None = None
        if any(ds.scheme == "https" for ep in config.endpoints for ds in ep.downstreams):
            self._client_tls = ssl.create_default_context()
            if config.tls and config.tls.get("ca"):
                self._client_tls.load_verify_locations(config.tls["ca"])
            self._client_tls.check_hostname = False
        # idle downstream connections by (scheme, address, port), shared by
        # every handler thread; None once stopped
        self._idle: dict[tuple[str, str, int], list[http.client.HTTPConnection]] | None = {}
        # accepted connections still open, for stop() to shut down
        self._inbound: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def endpoint(self, path: str) -> EndpointRuntime | None:
        return self._endpoints.get(path)

    def start(self):
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(STOP_POLL_S,), daemon=True
        )
        self._thread.start()

    def stop(self):
        """Stop serving and close every connection, inbound and pooled."""
        self._server.shutdown()
        self._server.server_close()
        with self._conn_lock:
            idle = [conn for conns in (self._idle or {}).values() for conn in conns]
            self._idle = None
            inbound = list(self._inbound)
        for conn in idle:
            conn.close()  # ends the peer's handler thread for this connection
        for sock in inbound:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # ends our handler thread
            except OSError:
                pass
        if self.exporter:
            self.exporter.close()

    def serve_forever(self):
        self._server.serve_forever()

    # --- request handling ---------------------------------------------------

    def _payload(self, n: int) -> bytes:
        if self._rng is not None:
            with self._rng_lock:
                return random_payload(n, self._rng)
        return random_payload(n)

    def _new_id(self, nbytes: int) -> str:
        return os.urandom(nbytes).hex()

    def handle_request(
        self, endpoint: EndpointRuntime, traceparent: str | None
    ) -> tuple[int, bytes, str]:
        parent = parse_traceparent(traceparent)
        trace_id = parent[0] if parent else self._new_id(16)
        server_span_id = self._new_id(8)
        # spans are timed on the monotonic clock, so a wall-clock step cannot
        # end one before it starts; one wall-clock reading places them all
        start_ns = time.monotonic_ns()
        calls = []  # (span id, downstream, start, end, ok)
        for ds in endpoint.downstreams:
            span_id = self._new_id(8)
            call_start = time.monotonic_ns()
            ok = self._call_downstream(ds, trace_id, span_id)
            calls.append((span_id, ds, call_start, time.monotonic_ns(), ok))
            if not ok:  # fail fast; remaining downstreams are not queried
                reply = 502, f"downstream '{ds.name}' failed".encode(), "text/plain"
                break
        else:
            reply = 200, self._payload(endpoint.psize), "application/octet-stream"

        if self.exporter:
            end_ns = time.monotonic_ns()
            to_wall = time.time_ns() - end_ns
            svc, entrypoint = self.config.name, endpoint.entrypoint
            spans = [SpanRecord(
                trace_id=trace_id, span_id=server_span_id,
                parent_span_id=parent[1] if parent else None,
                name=f"{svc}{entrypoint}",
                start_ns=start_ns + to_wall, end_ns=end_ns + to_wall,
                attributes={"peer": svc, "entrypoint": entrypoint, "status": str(reply[0])},
            )]
            spans += (
                SpanRecord(
                    trace_id=trace_id, span_id=span_id, parent_span_id=server_span_id,
                    name=f"call {ds.name}{ds.url}",
                    start_ns=start + to_wall, end_ns=end + to_wall,
                    attributes={
                        "peer": ds.name, "entrypoint": ds.url, "status": "ok" if ok else "error",
                    },
                )
                for span_id, ds, start, end, ok in calls
            )
            for record in spans:
                self.exporter.export(record)
        return reply

    def _call_downstream(self, ds: Downstream, trace_id: str, span_id: str) -> bool:
        key = (ds.scheme, ds.address, ds.port)
        headers = {"traceparent": format_traceparent(trace_id, span_id)}
        stale_before = time.monotonic() - IDLE_TIMEOUT_S / 2
        with self._conn_lock:
            idle = self._idle.get(key) if self._idle is not None else None
            stale = []
            while idle and idle[0].pooled_at < stale_before:  # pooled oldest first
                stale.append(idle.pop(0))
            conn = idle.pop() if idle else None
        for old in stale:
            old.close()
        if conn is not None:
            try:
                return self._exchange(key, conn, ds.url, headers)
            except (ConnectionResetError, BrokenPipeError):
                pass  # the peer closed the idle connection: retry once, fresh
        timeout = self.config.downstream_timeout_s
        if ds.scheme == "https":
            conn = http.client.HTTPSConnection(
                ds.address, ds.port, timeout=timeout, context=self._client_tls
            )
        else:
            conn = http.client.HTTPConnection(ds.address, ds.port, timeout=timeout)
        try:
            return self._exchange(key, conn, ds.url, headers)
        except (ConnectionResetError, BrokenPipeError):
            return False

    def _exchange(
        self, key: tuple[str, str, int], conn: http.client.HTTPConnection, url: str, headers: dict
    ) -> bool:
        """One GET on ``conn``, read in full; the connection is pooled after it.

        Raises ConnectionResetError or BrokenPipeError (``RemoteDisconnected``
        is one) when the connection broke before a status line arrived; every
        other failure returns False.  A failed connection is closed.
        """
        resp = None
        try:
            conn.request("GET", url, headers=headers)
            resp = conn.getresponse()
            resp.read()
        except (http.client.HTTPException, OSError, ValueError) as exc:
            conn.close()
            if resp is None and isinstance(exc, (ConnectionResetError, BrokenPipeError)):
                raise
            return False
        if not resp.will_close:
            with self._conn_lock:
                if self._idle is not None:
                    conn.pooled_at = time.monotonic()
                    self._idle.setdefault(key, []).append(conn)
                    return resp.status == 200
        conn.close()
        return resp.status == 200

    def _track_inbound(self, sock: socket.socket, is_open: bool):
        with self._conn_lock:
            if is_open:
                self._inbound.add(sock)
            else:
                self._inbound.discard(sock)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="topoforge-service", description=__doc__)
    ap.add_argument("--config", required=True, help="runtime config JSON path")
    args = ap.parse_args(argv)
    service = Microservice(RuntimeConfig.load(args.config))
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        service.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())

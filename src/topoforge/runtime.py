"""The microservice runtime.

Listens on configured entrypoints, queries downstream services strictly
sequentially over pooled persistent connections, answers with a random
payload of the configured size, and optionally exports trace spans to a
collector endpoint or a file sink.  It reads and writes HTTP/1.1 itself and
needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import random
import re
import select
import socket
import socketserver
import sys
import threading
import time
import urllib.parse
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # ssl is loaded only by a service that speaks TLS
    import ssl

# a service started with start() notices stop() within this many seconds;
# serve_forever() (the container entry point) keeps the default 0.5 s poll
STOP_POLL_S = 0.02
# an accepted connection that sends no request for this long is closed; a
# caller closes its pooled connections after half of it, before the peer does
IDLE_TIMEOUT_S = 60.0
# the most spans an exporter queues; past it the oldest are dropped first
SPAN_QUEUE_LIMIT = 4096


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


# --- HTTP/1.1 messages (RFC 9112) ------------------------------------------

# the longest start or field line, its CRLF included, and the most field
# lines in one head; a longer line or a larger head is refused
_MAX_LINE = 65536
_MAX_FIELDS = 100
# a field line is a token, a colon and a value between optional whitespace;
# whitespace before the colon and an obs-fold line do not match (5.1, 5.2).
# The whitespace is stripped after the match: a pattern with whitespace
# quantifiers on both sides of the value backtracks in quadratic time.
_FIELD_RE = re.compile(rb"([!#$%&'*+\-.^_`|~0-9A-Za-z]+):(.*)\n")
_VERSION_RE = re.compile(rb"HTTP/([0-9])\.([0-9])")
_STATUS_RE = re.compile(rb"HTTP/1\.([0-9]) ([0-9]{3})(?: [^\r\n]*)?\r?\n")
# the hex size of a chunk, and a Content-Length (int() refuses long numbers)
_CHUNK_SIZE_RE = re.compile(rb"[0-9A-Fa-f]{1,16}")
_LENGTH_RE = re.compile(r"[0-9]{1,18}")
_CHUNKED = -1  # the body length of a chunked message

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 414: "URI Too Long",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    501: "Not Implemented", 502: "Bad Gateway", 505: "HTTP Version Not Supported",
}
_SERVER = "topoforge-service Python/" + sys.version.split()[0]
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


class _Malformed(Exception):
    """A message that cannot be read; ``status`` is a server's answer to it."""

    def __init__(self, status: int, reason: str):
        super().__init__(reason)
        self.status = status


def _read_fields(rfile) -> dict[str, str]:
    """The field lines of a head, up to its empty line: lower-case name ->
    value, the values of a repeated name joined by ", " (RFC 9110 5.3)."""
    fields: dict[str, str] = {}
    for _ in range(_MAX_FIELDS + 1):
        line = rfile.readline(_MAX_LINE + 1)
        if line in (b"\r\n", b"\n"):
            return fields
        if len(line) > _MAX_LINE:
            raise _Malformed(431, "field line too long")
        m = _FIELD_RE.fullmatch(line)
        if m is None:  # also a head that the stream cut short
            raise _Malformed(400, "malformed field line")
        name = m[1].decode().lower()
        value = m[2].removesuffix(b"\r").strip(b" \t").decode("latin-1")
        fields[name] = f"{fields[name]}, {value}" if name in fields else value
    raise _Malformed(431, f"more than {_MAX_FIELDS} fields")


def _body_length(fields: dict[str, str]) -> int | None:
    """The body length a head declares (RFC 9112 6.3): a byte count,
    ``_CHUNKED``, or None when it has neither framing field."""
    codings = fields.get("transfer-encoding")
    if codings is not None:
        if "content-length" in fields:  # both at once may be request smuggling
            raise _Malformed(400, "both Transfer-Encoding and Content-Length")
        if [c.strip().lower() for c in codings.split(",")] != ["chunked"]:
            raise _Malformed(501, "unsupported transfer coding")
        return _CHUNKED
    if "content-length" not in fields:
        return None
    lengths = {v.strip() for v in fields["content-length"].split(",")}
    length = lengths.pop()
    if lengths or not _LENGTH_RE.fullmatch(length):  # differing values, or no number
        raise _Malformed(400, "malformed Content-Length")
    return int(length)


def _skip(rfile, n: int):
    while n:
        data = rfile.read(min(n, 65536))
        if not data:
            raise _Malformed(400, "incomplete body")
        n -= len(data)


def _skip_body(rfile, length: int | None):
    """Read and drop a body of ``length`` bytes, a chunked body with its
    trailer fields (RFC 9112 7.1), or (None) everything up to the close."""
    if length is None:
        while rfile.read(65536):
            pass
    elif length != _CHUNKED:
        _skip(rfile, length)
    else:
        while _CHUNK_SIZE_RE.fullmatch(size := rfile.readline(_MAX_LINE).split(b";", 1)[0].strip()):
            if int(size, 16) == 0:
                _read_fields(rfile)  # the trailer section
                return
            _skip(rfile, int(size, 16))
            if rfile.readline(_MAX_LINE) not in (b"\r\n", b"\n"):
                break
        raise _Malformed(400, "malformed chunked body")


def _keeps_alive(http11: bool, fields: dict[str, str]) -> bool:
    """Whether a message leaves its connection open (RFC 9112 9.3)."""
    tokens = {t.strip().lower() for t in fields.get("connection", "").split(",")}
    return "close" not in tokens if http11 else "keep-alive" in tokens


def _read_reply(rfile, line: bytes) -> tuple[int, bool]:
    """Read the rest of a reply whose status line is ``line``; returns its
    status and whether its connection stays open."""
    m = _STATUS_RE.fullmatch(line) if len(line) <= _MAX_LINE else None
    if m is None:
        raise _Malformed(502, "malformed status line")
    status, fields = int(m[2]), _read_fields(rfile)
    if status < 200:
        raise _Malformed(502, "an interim reply")  # never asked for
    length = 0 if status in (204, 304) else _body_length(fields)
    _skip_body(rfile, length)
    return status, length is not None and _keeps_alive(m[1] != b"0", fields)


def _http_date(seconds: float | None = None) -> str:
    """An IMF-fixdate (RFC 9110 5.6.7), in English whatever the locale."""
    t = time.gmtime(seconds)
    return (
        f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year} "
        f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"
    )


class _Conn:
    """A client connection and the buffered reader on it."""

    def __init__(self, sock: socket.socket):
        self.sock: socket.socket | None = sock  # None once closed
        self.rfile = sock.makefile("rb")
        self.pooled_at = 0.0

    def close(self):
        if self.sock is not None:
            self.rfile.close()
            self.sock.close()
            self.sock = None


class _HttpClient:
    """HTTP/1.1 requests over persistent connections.

    Idle connections are pooled by (scheme, address, port) and shared by
    every thread.  Each socket operation times out after ``timeout`` s.
    """

    def __init__(self, timeout: float, tls: ssl.SSLContext | None):
        self._timeout = timeout
        self._tls = tls
        # idle connections, oldest first; None once closed
        self._idle: dict[tuple[str, str, int], list[_Conn]] | None = {}
        self._conn_lock = threading.Lock()

    def _request(
        self, key: tuple[str, str, int], url: str, headers: dict, *body: bytes
    ) -> int | None:
        """The status of a GET of ``url``, or of a POST of ``body`` if given;
        None if the request failed.

        A pooled connection that broke before a status line arrived has gone
        stale while idle, and the request is retried once on a fresh one.  A
        POST is retried only if it could not be sent, since a peer may have
        acted on it before the connection broke (RFC 9110 9.2.2); a pooled
        connection the peer has already closed is not used for one.
        """
        stale_before = time.monotonic() - IDLE_TIMEOUT_S / 2
        with self._conn_lock:
            idle = self._idle.get(key) if self._idle is not None else None
            stale = []
            while idle and idle[0].pooled_at < stale_before:
                stale.append(idle.pop(0))
            conn = idle.pop() if idle else None
        if conn is not None and body:
            poller = select.poll()  # select.select refuses a descriptor above 1023
            poller.register(conn.sock, select.POLLIN)
            if poller.poll(0):  # an idle connection has nothing to read but its close
                stale.append(conn)
                conn = None
        for old in stale:
            old.close()
        if conn is not None:
            try:
                return self._exchange(key, conn, url, headers, *body)
            except (ConnectionResetError, BrokenPipeError):
                pass
        scheme, address, port = key
        try:
            sock = socket.create_connection((address, port), self._timeout)
            if scheme == "https":
                sock = self._tls.wrap_socket(sock, server_hostname=address)
        except OSError:
            return None
        try:
            return self._exchange(key, _Conn(sock), url, headers, *body)
        except (ConnectionResetError, BrokenPipeError):
            return None

    def _exchange(
        self, key: tuple[str, str, int], conn: _Conn, url: str, headers: dict, *body: bytes
    ) -> int | None:
        """One request on ``conn`` and its reply, read in full; returns the
        reply's status, or None if it could not be read.

        Raises ConnectionResetError or BrokenPipeError when the connection
        broke before a status line arrived, for a POST only while it was sent.
        The connection is pooled after a reply that keeps it open and closed
        otherwise.
        """
        address, port = key[1:]
        host = f"[{address}]:{port}" if ":" in address else f"{address}:{port}"
        head = f"{'POST' if body else 'GET'} {url} HTTP/1.1\r\nHost: {host}\r\n" + "".join(
            f"{name}: {value}\r\n" for name, value in headers.items()
        )
        if body:
            head += f"Content-Length: {len(body[0])}\r\n"
        sent = False
        try:
            conn.sock.sendall(head.encode("ascii") + b"\r\n" + b"".join(body))
            sent = True
            line = conn.rfile.readline(_MAX_LINE + 1)
            if not line:
                raise ConnectionResetError("connection closed before a status line")
        except (ConnectionResetError, BrokenPipeError):
            conn.close()
            if body and sent:
                return None
            raise
        except (OSError, ValueError):  # a timeout, or a url that is not ASCII
            conn.close()
            return None
        try:
            status, keep = _read_reply(conn.rfile, line)
        except (OSError, _Malformed):
            conn.close()
            return None
        if keep:
            with self._conn_lock:
                if self._idle is not None:
                    conn.pooled_at = time.monotonic()
                    self._idle.setdefault(key, []).append(conn)
                    return status
        conn.close()
        return status

    def _close_pool(self):
        """Close every idle connection; one in use is closed when its reply is read."""
        with self._conn_lock:
            idle = [conn for conns in (self._idle or {}).values() for conn in conns]
            self._idle = None
        for conn in idle:
            conn.close()  # frees the peer's worker for another connection


def _collector_target(endpoint: str) -> tuple[tuple[str, str, int], str] | None:
    """The (scheme, host, port) key and request target of an http(s) URL,
    or None for any other URL."""
    try:
        url = urllib.parse.urlsplit(endpoint)
        port = url.port or (443 if url.scheme == "https" else 80)
    except ValueError:  # an unclosed bracket or a port out of range
        return None
    if url.scheme not in ("http", "https") or not url.hostname:
        return None
    return (url.scheme, url.hostname, port), (url.path or "/") + (f"?{url.query}" if url.query else "")


class SpanExporter(_HttpClient):
    """Best-effort asynchronous span delivery behind a bounded queue.

    Export never blocks the request path.  Each batch is POSTed to
    ``endpoint`` as ndjson over a kept-alive connection, and appended to
    ``sink_file``.  ``dropped`` counts each span lost: pushed out of a full
    queue, exported after close(), or in a batch a destination failed.
    """

    def __init__(self, endpoint: str | None = None, sink_file: str | None = None):
        # (key, path) of the collector; None if it has no http(s) URL
        self._target = _collector_target(endpoint) if endpoint else None
        tls = None
        if self._target and self._target[0][0] == "https":
            import ssl

            tls = ssl.create_default_context()
        super().__init__(2.0, tls)
        self.endpoint = endpoint
        self.sink_file = sink_file
        self.dropped = 0
        # guards the queue, the count of spans queued or in delivery, and closed
        self._cond = threading.Condition()
        self._queue: deque[SpanRecord] = deque(maxlen=SPAN_QUEUE_LIMIT)
        self._pending = 0
        self._closed = False
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def export(self, records: list[SpanRecord]):
        """Queue the spans of one request."""
        with self._cond:
            if self._closed:
                self.dropped += len(records)
                return
            overflow = max(0, len(self._queue) + len(records) - SPAN_QUEUE_LIMIT)
            self._queue.extend(records)  # the deque drops the oldest itself
            self.dropped += overflow
            self._pending += len(records) - overflow
            self._cond.notify_all()

    def _run(self):
        batch, lost = [], 0
        while True:
            with self._cond:
                self.dropped += lost
                self._pending -= len(batch)
                self._cond.notify_all()
                self._cond.wait_for(lambda: self._queue or self._closed)
                if not self._queue:
                    return
                batch, self._queue = self._queue, deque(maxlen=SPAN_QUEUE_LIMIT)
            lost = self._deliver(batch)

    def _deliver(self, batch: deque[SpanRecord]) -> int:
        """Write ``batch`` to each destination; returns how many spans it lost."""
        payload = "\n".join(json.dumps(r.to_wire(), sort_keys=True) for r in batch) + "\n"
        ok = True
        if self.sink_file:
            try:
                with open(self.sink_file, "a") as fh:
                    fh.write(payload)
            except OSError:
                ok = False
        if self.endpoint:
            status = self._target and self._request(
                *self._target, {"Content-Type": "application/x-ndjson"}, payload.encode()
            )
            ok = ok and bool(status and 200 <= status < 300)
        return 0 if ok else len(batch)

    def flush(self, timeout: float = 2.0):
        """Wait until every exported span has been delivered or dropped (or ``timeout``)."""
        with self._cond:
            self._cond.wait_for(lambda: not self._pending, timeout)

    def close(self):
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self.flush()
        self._close_pool()


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


class _Handler(socketserver.StreamRequestHandler):
    """Answers the requests of one connection in order, until it closes."""

    def setup(self):
        self.timeout = IDLE_TIMEOUT_S  # read per connection, not at import
        super().setup()
        self.server.microservice._track_inbound(self.connection, True)

    def finish(self):
        self.server.microservice._track_inbound(self.connection, False)
        super().finish()

    def handle(self):
        try:
            while self._answer():
                pass
        except _Malformed as exc:
            self._reply(exc.status, str(exc).encode(), "text/plain", close=True)

    def _answer(self) -> bool:
        """Read one request and answer it; False once the connection is to close."""
        line = self.rfile.readline(_MAX_LINE + 1)
        if not line:
            return False
        if len(line) > _MAX_LINE:
            raise _Malformed(414, "request line too long")
        words = line.split()
        if len(words) != 3:
            raise _Malformed(400, "malformed request line")
        method, target, version = words
        m = _VERSION_RE.fullmatch(version)
        if m is None:
            raise _Malformed(400, "malformed HTTP version")
        if m[1] != b"1":
            raise _Malformed(505, "HTTP version not supported")
        http11 = m[2] != b"0"
        fields = _read_fields(self.rfile)
        if method not in (b"GET", b"POST"):
            raise _Malformed(501, "unsupported method")
        if http11 and fields.get("expect", "").lower() == "100-continue":
            self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        # a body is read and ignored: a POST is answered like a GET
        length = _body_length(fields)
        _skip_body(self.rfile, 0 if length is None else length)
        keep = _keeps_alive(http11, fields)

        server: Microservice = self.server.microservice
        endpoint = server.endpoint(target.split(b"?", 1)[0].decode("latin-1"))
        if endpoint is None:
            self._reply(404, b"unknown entrypoint", "text/plain", not keep)
            return keep
        try:
            status, body, ctype = server.handle_request(endpoint, fields.get("traceparent"))
        except Exception as exc:  # never crash the worker
            status, body, ctype = 500, f"internal error: {exc}".encode(), "text/plain"
        self._reply(status, body, ctype, not keep)
        return keep

    def _reply(self, status: int, body: bytes, ctype: str, close: bool):
        """Send a response in one write."""
        closing = "Connection: close\r\n" if close else ""
        head = (
            f"HTTP/1.1 {status} {_REASONS[status]}\r\nServer: {_SERVER}\r\n"
            f"Date: {_http_date()}\r\nContent-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\n{closing}\r\n"
        )
        self.connection.sendall(head.encode("latin-1") + body)


class _ServerV4(socketserver.TCPServer):
    # serves each connection on a reused worker thread (Half-Sync/Half-Async)
    allow_reuse_address = True

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self._handoff = queue.SimpleQueue()  # (request, address) for an idle worker; None: exit
        self._lock = threading.Lock()
        self._idle = 0  # waiting workers, less the connections queued for them

    def process_request(self, *request):
        with self._lock:
            if self._idle:
                self._idle -= 1
                return self._handoff.put(request)
        threading.Thread(target=self._work, args=(request,), daemon=True).start()

    def _work(self, request):
        while request:
            try:
                self.finish_request(*request)
            except Exception:
                self.handle_error(*request)
            finally:
                self.shutdown_request(request[0])
            with self._lock:
                self._idle += 1
            try:
                request = self._handoff.get(timeout=IDLE_TIMEOUT_S)
            except queue.Empty:
                with self._lock:
                    if self._idle:  # more workers wait than connections are queued
                        self._idle -= 1
                        return
                    request = self._handoff.get_nowait()  # handed over as the wait ended
        self._handoff.put(None)  # stop()'s None, passed on to the next worker

    def handle_error(self, request, client_address):
        # a client that fails its TLS handshake or drops its connection is
        # no fault of the server; anything else is reported
        if not isinstance(sys.exc_info()[1], OSError):
            super().handle_error(request, client_address)


class _ServerV6(_ServerV4):
    address_family = socket.AF_INET6


class Microservice(_HttpClient):
    """One service instance bound to a RuntimeConfig."""

    def __init__(self, config: RuntimeConfig):
        client_tls = None
        if any(ds.scheme == "https" for ep in config.endpoints for ds in ep.downstreams):
            import ssl

            client_tls = ssl.create_default_context()
            if config.tls and config.tls.get("ca"):
                client_tls.load_verify_locations(config.tls["ca"])
            client_tls.check_hostname = False
        super().__init__(config.downstream_timeout_s, client_tls)
        self.config = config
        self._endpoints = {ep.entrypoint: ep for ep in config.endpoints}
        self._rng = (
            random.Random(config.payload_seed) if config.payload_seed is not None else None
        )
        self._rng_lock = threading.Lock()
        collector = os.environ.get("TRACE_COLLECTOR_ENDPOINT")  # deploy sets it
        sink = config.span_sink_file
        self.exporter = SpanExporter(collector, sink) if collector or sink else None
        server_cls = _ServerV6 if config.family == "v6" else _ServerV4
        self._server = server_cls((config.host, config.port), _Handler)
        self._server.microservice = self
        if config.scheme == "https":
            import ssl

            ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            ctx.load_cert_chain(config.tls["cert"], config.tls["key"])
            # each handshake runs in its worker, not in the accept loop
            self._server.socket = ctx.wrap_socket(
                self._server.socket, server_side=True, do_handshake_on_connect=False
            )
        # accepted connections still open, for stop() to shut down
        self._inbound: set[socket.socket] = set()

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def endpoint(self, path: str) -> EndpointRuntime | None:
        return self._endpoints.get(path)

    def start(self):
        threading.Thread(target=self._server.serve_forever, args=(STOP_POLL_S,), daemon=True).start()

    def stop(self):
        """Stop serving and close every connection, inbound and pooled."""
        self._server.shutdown()
        self._server.server_close()
        self._server._handoff.put(None)  # each worker exits once it is idle
        self._close_pool()
        with self._conn_lock:
            for sock in self._inbound:
                try:
                    sock.shutdown(socket.SHUT_RDWR)  # frees our worker, which then exits
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
            self.exporter.export(spans)
        return reply

    def _call_downstream(self, ds: Downstream, trace_id: str, span_id: str) -> bool:
        headers = {"traceparent": format_traceparent(trace_id, span_id)}
        return self._request((ds.scheme, ds.address, ds.port), ds.url, headers) == 200

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

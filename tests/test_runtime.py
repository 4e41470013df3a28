"""Live-server tests for the microservice runtime on the loopback interface."""

import contextlib
import http.client
import io
import itertools
import json
import os
import queue
import random
import resource
import socket
import ssl
import struct
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from topoforge import runtime, tls
from topoforge.runtime import (
    SPAN_QUEUE_LIMIT,
    Downstream,
    EndpointRuntime,
    Microservice,
    RuntimeConfig,
    SpanExporter,
    SpanRecord,
    format_traceparent,
    parse_traceparent,
    random_payload,
)


def _service(name, endpoints, tmp_path=None, sink=None, port=0, **kw):
    cfg = RuntimeConfig(
        name=name,
        port=port,  # 0: ephemeral
        endpoints=tuple(endpoints),
        host="127.0.0.1",
        span_sink_file=str(sink) if sink else None,
        **kw,
    )
    svc = Microservice(cfg)
    svc.start()
    return svc


def _get(port, path, headers=None):
    req = urllib.request.Request(f"http://127.0.0.1:{port}{path}", headers=headers or {})
    with urllib.request.urlopen(req, timeout=5) as resp:
        return resp.status, resp.read(), dict(resp.headers)


def _read_spans(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _count_accepts(svc):
    """A list that grows by one for each connection ``svc`` accepts."""
    accepted = []
    get_request = svc._server.get_request

    def counting():
        request = get_request()
        accepted.append(request[1])
        return request

    svc._server.get_request = counting
    return accepted


def _record_workers(svc):
    """A list that grows by the serving thread of each connection ``svc`` opens."""
    workers = []
    track = svc._track_inbound

    def recording(sock, is_open):
        if is_open:
            workers.append(threading.current_thread())
        track(sock, is_open)

    svc._track_inbound = recording
    return workers


def _wait_until(condition, timeout=3):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    return condition()


_GET = b"GET / HTTP/1.1\r\nHost: svc\r\n\r\n"
_OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"


class _RawPeer:
    """A TCP peer that answers the n-th request it reads with ``replies[n]``.

    A reply is bytes to send, a function of the connection, or None, which
    (like running out of replies) leaves the caller waiting.
    """

    def __init__(self, replies):
        self.replies = list(replies)
        self.accepted = 0
        self.received = b""  # every byte read, from all connections
        self._conns = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.accepted += 1
            self._conns.append(conn)
            threading.Thread(target=self._answer, args=(conn,), daemon=True).start()

    def _answer(self, conn):
        buf = b""
        try:
            while True:
                while b"\r\n\r\n" not in buf:
                    chunk = conn.recv(4096)
                    if not chunk:
                        return
                    buf += chunk
                    self.received += chunk
                _, buf = buf.split(b"\r\n\r\n", 1)
                reply = self.replies.pop(0) if self.replies else None
                if callable(reply):
                    reply(conn)
                elif reply is not None:
                    conn.sendall(reply)
        except OSError:
            return

    def close(self):
        for sock in [self._listener, *self._conns]:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # wakes a blocked accept or recv
            except OSError:
                pass
            sock.close()


def _fanout_stack(leaves=3, scheme="http", tls_paths=None):
    """An HTTP front whose ``/`` calls ``leaves`` leaves in sequence; returns (front, leaves)."""
    leaf_svcs = [
        _service(f"leaf{i}", [EndpointRuntime("/", 128)], scheme=scheme, tls=tls_paths)
        for i in range(leaves)
    ]
    front = _service(
        "front",
        [
            EndpointRuntime(
                "/",
                1024,
                tuple(
                    Downstream(f"leaf{i}", "127.0.0.1", leaf.port, "/", scheme)
                    for i, leaf in enumerate(leaf_svcs)
                ),
            )
        ],
        tls=tls_paths,
    )
    return front, leaf_svcs


@pytest.fixture()
def tls_files(tmp_path):
    """CA, certificate and key files for a service on 127.0.0.1."""
    authority = tls.generate_authority(seed=7)
    leaf = tls.generate_leaf(authority, "svc", ["127.0.0.1"], seed=7)
    paths = {"ca": tmp_path / "ca.pem", "cert": tmp_path / "svc.pem", "key": tmp_path / "svc.key"}
    paths["ca"].write_bytes(authority.cert_pem)
    paths["cert"].write_bytes(leaf.cert_pem)
    paths["key"].write_bytes(leaf.key_pem)
    return {k: str(v) for k, v in paths.items()}


def _https_get(port, ca, path="/", timeout=5):
    ctx = ssl.create_default_context(cafile=ca)
    conn = http.client.HTTPSConnection("127.0.0.1", port, timeout=timeout, context=ctx)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


@pytest.fixture()
def stack(tmp_path):
    """leaf <- mid <- front, with span sinks on every tier."""
    services = []

    def up(name, endpoints, sink_name):
        svc = _service(name, endpoints, sink=tmp_path / sink_name)
        services.append(svc)
        return svc

    leaf = up("leaf", [EndpointRuntime("/", 300)], "leaf.ndjson")
    mid = up(
        "mid",
        [
            EndpointRuntime(
                "/",
                150,
                (Downstream("leaf", "127.0.0.1", leaf.port, "/"),),
            )
        ],
        "mid.ndjson",
    )
    front = up(
        "front",
        [
            EndpointRuntime(
                "/",
                512,
                (
                    Downstream("mid", "127.0.0.1", mid.port, "/"),
                    Downstream("leaf", "127.0.0.1", leaf.port, "/"),
                ),
            )
        ],
        "front.ndjson",
    )
    yield {"leaf": leaf, "mid": mid, "front": front, "dir": tmp_path}
    for svc in services:
        svc.stop()


class TestRequestHandling:
    def test_body_length_is_psize(self, stack):
        status, body, headers = _get(stack["front"].port, "/")
        assert status == 200
        assert len(body) == 512
        assert headers["Content-Type"] == "application/octet-stream"

    def test_unknown_entrypoint_404(self, stack):
        with pytest.raises(urllib.error.HTTPError) as ei:
            _get(stack["front"].port, "/nope")
        ei.value.close()  # the error holds the response and its socket
        assert ei.value.code == 404

    def test_downstream_failure_names_hop(self, tmp_path):
        svc = _service(
            "lonely",
            [
                EndpointRuntime(
                    "/",
                    64,
                    (
                        Downstream("dead", "127.0.0.1", 1, "/"),
                        Downstream("never", "127.0.0.1", 1, "/"),
                    ),
                )
            ],
            sink=tmp_path / "s.ndjson",
        )
        try:
            with pytest.raises(urllib.error.HTTPError) as ei:
                _get(svc.port, "/")
            assert ei.value.code == 502
            assert ei.value.read() == b"downstream 'dead' failed"
            svc.exporter.flush()
            spans = _read_spans(tmp_path / "s.ndjson")
            # fail-fast: the second downstream is never queried
            assert [s["name"] for s in spans if s["name"].startswith("call ")] == ["call dead/"]
        finally:
            svc.stop()

    def test_post_is_method_agnostic(self, stack):
        req = urllib.request.Request(
            f"http://127.0.0.1:{stack['leaf'].port}/", data=b"ignored", method="POST"
        )
        with urllib.request.urlopen(req, timeout=5) as resp:
            assert resp.status == 200
            assert len(resp.read()) == 300

    @staticmethod
    def _raw_post(port, headers, body=b""):
        """The status line of one POST on a fresh connection that the server closes."""
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(b"POST / HTTP/1.1\r\nHost: leaf\r\n" + headers + b"\r\n" + body)
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        return reply.split(b"\r\n", 1)[0]

    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_post_with_bad_content_length_is_400(self, stack, length, capfd):
        status = self._raw_post(stack["leaf"].port, b"Content-Length: " + length + b"\r\n")
        assert status.startswith(b"HTTP/1.1 400 ")
        good = b"Content-Length: 3\r\nConnection: close\r\n"
        assert self._raw_post(stack["leaf"].port, good, b"abc") == b"HTTP/1.1 200 OK"
        assert capfd.readouterr().err == ""

    def test_chunked_post_body_is_consumed(self, stack):
        body = b"5;ext=1\r\nhello\r\n1A\r\n" + b"x" * 26 + b"\r\n0\r\nX-Trailer: t\r\n\r\n"
        request = b"POST / HTTP/1.1\r\nHost: leaf\r\nTransfer-Encoding: chunked\r\n\r\n" + body
        get = b"GET / HTTP/1.1\r\nHost: leaf\r\n\r\n"
        with socket.create_connection(("127.0.0.1", stack["leaf"].port), timeout=5) as sock:
            sock.sendall(request + get)  # pipelined on one keep-alive connection
            with sock.makefile("rb") as replies:
                for _ in range(2):
                    assert replies.readline() == b"HTTP/1.1 200 OK\r\n"
                    headers = {}
                    while (line := replies.readline()) != b"\r\n":
                        name, value = line.decode().split(":", 1)
                        headers[name.lower()] = value.strip()
                    assert len(replies.read(int(headers["content-length"]))) == 300

    @pytest.mark.parametrize(
        "headers, body, status",
        [
            (b"Transfer-Encoding: gzip, chunked\r\n", b"0\r\n\r\n", b"501"),
            (b"Transfer-Encoding: chunked\r\nContent-Length: 5\r\n", b"0\r\n\r\n", b"400"),
            (b"Transfer-Encoding: chunked\r\n", b"zz\r\n\r\n", b"400"),
            (b"Transfer-Encoding: chunked\r\n", b"5\r\nhello!!\r\n0\r\n\r\n", b"400"),
        ],
        ids=["other-coding", "both-headers", "bad-size", "long-chunk"],
    )
    def test_unreadable_chunked_post_is_refused(self, stack, headers, body, status, capfd):
        reply = self._raw_post(stack["leaf"].port, headers, body)
        assert reply.startswith(b"HTTP/1.1 " + status + b" ")
        assert capfd.readouterr().err == ""


class TestTracing:
    def _spans_of(self, stack, tier):
        stack[tier].exporter.flush()
        return _read_spans(stack["dir"] / f"{tier}.ndjson")

    def test_trace_id_shared_across_tiers(self, stack):
        trace_id = "ab" * 16
        _get(stack["front"].port, "/", {"traceparent": format_traceparent(trace_id, "cd" * 8)})
        time.sleep(0.1)
        for tier in ("front", "mid", "leaf"):
            spans = self._spans_of(stack, tier)
            assert spans, tier
            assert all(s["traceId"] == trace_id for s in spans)

    def test_server_span_parent_is_caller_span(self, stack):
        trace_id, my_span = "12" * 16, "34" * 8
        _get(stack["front"].port, "/", {"traceparent": format_traceparent(trace_id, my_span)})
        time.sleep(0.1)
        front = self._spans_of(stack, "front")
        server = next(s for s in front if s["name"] == "front/")
        assert server["parentSpanId"] == my_span
        children = [s for s in front if s["parentSpanId"] == server["spanId"]]
        assert [c["name"] for c in children] == ["call mid/", "call leaf/"]

    def test_child_spans_disjoint_and_ordered(self, stack):
        _get(stack["front"].port, "/")
        time.sleep(0.1)
        front = self._spans_of(stack, "front")
        children = [s for s in front if s["name"].startswith("call ")]
        assert [c["name"] for c in children] == ["call mid/", "call leaf/"]
        for a, b in zip(children, children[1:]):
            assert a["endNs"] <= b["startNs"]  # strictly sequential calls
        for c in children:
            assert c["startNs"] <= c["endNs"]

    def test_wall_clock_stepping_back_keeps_spans_ordered(self, stack, monkeypatch):
        countdown = itertools.count(2 * 10**18, -10**9)
        monkeypatch.setattr(time, "time_ns", lambda: next(countdown))
        status, _body, _headers = _get(stack["front"].port, "/")
        assert status == 200
        for tier in ("front", "mid", "leaf"):
            spans = self._spans_of(stack, tier)
            assert spans and all(s["startNs"] <= s["endNs"] for s in spans)
        front = self._spans_of(stack, "front")
        server = next(s for s in front if s["name"] == "front/")
        calls = [s for s in front if s["parentSpanId"] == server["spanId"]]
        assert len(calls) == 2
        for call in calls:
            assert server["startNs"] <= call["startNs"] <= call["endNs"] <= server["endNs"]

    def test_spans_of_a_request_handed_over_at_once(self, stack):
        exporter = stack["front"].exporter
        handed = []
        export = exporter.export
        exporter.export = lambda records: (handed.append([r.name for r in records]), export(records))
        _get(stack["front"].port, "/")
        assert handed == [["front/", "call mid/", "call leaf/"]]

    def test_fresh_trace_id_without_header(self, stack):
        _get(stack["leaf"].port, "/")
        time.sleep(0.1)
        spans = self._spans_of(stack, "leaf")
        assert spans[-1]["parentSpanId"] is None
        assert len(spans[-1]["traceId"]) == 32


class TestDownstreamConnections:
    def test_keepalive_fanout_has_no_stall(self):
        front, leaves = _fanout_stack()
        try:
            conn = http.client.HTTPConnection("127.0.0.1", front.port, timeout=5)
            t0 = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/")
                resp = conn.getresponse()
                assert resp.status == 200
                assert len(resp.read()) == 1024
            elapsed = time.perf_counter() - t0
            conn.close()
            # a 40 ms delayed-ACK stall per request would take 0.8 s
            assert elapsed < 0.4, elapsed
        finally:
            for svc in [front, *leaves]:
                svc.stop()

    def test_leaf_accepts_one_connection(self):
        front, (leaf,) = _fanout_stack(leaves=1)
        accepted = _count_accepts(leaf)
        try:
            for _ in range(10):
                status, body, _ = _get(front.port, "/")
                assert status == 200 and len(body) == 1024
            assert len(accepted) == 1
        finally:
            front.stop()
            leaf.stop()

    def test_pool_shared_by_concurrent_handlers(self):
        front, (leaf,) = _fanout_stack(leaves=1)
        accepted = _count_accepts(leaf)
        failures = []

        def client():
            for _ in range(25):
                try:
                    status, body, _ = _get(front.port, "/")
                except OSError:
                    status, body = None, b""
                if status != 200 or len(body) != 1024:
                    failures.append(status)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert failures == []
            pooled = [conn for conns in front._idle.values() for conn in conns]
            # each leaf connection went back to the pool exactly once
            assert len({id(conn) for conn in pooled}) == len(pooled) == len(accepted) <= 8
        finally:
            front.stop()
            leaf.stop()

    @pytest.mark.parametrize("scheme", ["http", "https"])
    def test_stale_connection_retried_once(self, scheme, tls_files):
        front, (leaf,) = _fanout_stack(leaves=1, scheme=scheme, tls_paths=tls_files)
        try:
            assert _get(front.port, "/")[0] == 200
            port = leaf.port
            leaf.stop()  # closes the connection the front keeps in its pool
            leaf = _service(
                "leaf0", [EndpointRuntime("/", 128)], port=port, scheme=scheme, tls=tls_files
            )
            accepted = _count_accepts(leaf)
            status, body, _ = _get(front.port, "/")
            assert status == 200 and len(body) == 1024
            assert len(accepted) == 1
        finally:
            front.stop()
            leaf.stop()

    def test_timeout_not_retried(self):
        peer = _RawPeer([_OK, None])  # answers once, then keeps the caller waiting
        svc = _service(
            "edge",
            [EndpointRuntime("/", 64, (Downstream("slow", "127.0.0.1", peer.port, "/"),))],
            downstream_timeout_s=0.3,
        )
        try:
            assert _get(svc.port, "/")[0] == 200
            t0 = time.monotonic()
            with pytest.raises(urllib.error.HTTPError) as ei:
                _get(svc.port, "/")
            elapsed = time.monotonic() - t0
            assert ei.value.code == 502
            assert ei.value.read() == b"downstream 'slow' failed"
            assert 0.3 <= elapsed < 2.0, elapsed  # not the 5 s default
            assert peer.accepted == 1  # a retry would open a second connection
        finally:
            svc.stop()
            peer.close()

    def test_reset_after_status_line_not_retried(self):
        def reset_mid_body(conn):
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\npartial")
            time.sleep(0.1)  # the caller has read the status line by now
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            conn.close()  # with a zero linger time: a reset

        peer = _RawPeer([_OK, reset_mid_body])
        svc = _service(
            "edge",
            [EndpointRuntime("/", 64, (Downstream("cut", "127.0.0.1", peer.port, "/"),))],
            downstream_timeout_s=0.3,
        )
        try:
            assert _get(svc.port, "/")[0] == 200
            with pytest.raises(urllib.error.HTTPError) as ei:
                _get(svc.port, "/")
            assert ei.value.code == 502
            assert ei.value.read() == b"downstream 'cut' failed"
            assert peer.accepted == 1
        finally:
            svc.stop()
            peer.close()

    def test_malformed_reply_is_502(self, tmp_path):
        peer = _RawPeer([b"garbage\r\n\r\n"])
        sink = tmp_path / "s.ndjson"
        svc = _service(
            "edge",
            [EndpointRuntime("/", 64, (Downstream("bad", "127.0.0.1", peer.port, "/"),))],
            sink=sink,
        )
        try:
            with pytest.raises(urllib.error.HTTPError) as ei:
                _get(svc.port, "/")
            assert ei.value.code == 502
            assert ei.value.read() == b"downstream 'bad' failed"
            svc.exporter.flush()
            calls = [s for s in _read_spans(sink) if s["name"] == "call bad/"]
            assert [c["attributes"]["status"] for c in calls] == ["error"]
        finally:
            svc.stop()
            peer.close()

    def test_stop_closes_pooled_connections(self):
        front, (leaf,) = _fanout_stack(leaves=1)
        try:
            for _ in range(3):
                assert _get(front.port, "/")[0] == 200
            pooled = [conn for conns in front._idle.values() for conn in conns]
            assert pooled
            front.stop()
            assert all(conn.sock is None for conn in pooled)
            # the leaf's handler thread sees the close and ends
            deadline = time.monotonic() + 2
            while leaf._inbound and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not leaf._inbound
        finally:
            front.stop()
            leaf.stop()


class TestLifecycle:
    def test_stop_right_after_a_request_is_prompt(self):
        svc = _service("svc", [EndpointRuntime("/", 32)])
        assert _get(svc.port, "/")[0] == 200
        t0 = time.monotonic()
        svc.stop()
        # serve_forever's default 0.5 s poll would make this wait about 0.5 s
        assert time.monotonic() - t0 < 0.2

    def test_idle_connections_time_out(self, monkeypatch):
        monkeypatch.setattr(runtime, "IDLE_TIMEOUT_S", 0.2)
        front, (leaf,) = _fanout_stack(leaves=1)
        accepted = _count_accepts(leaf)
        handlers = []  # the leaf's handler threads, in accept order
        track = leaf._track_inbound

        def recording(sock, is_open):
            if is_open:
                handlers.append(threading.current_thread())
            track(sock, is_open)

        leaf._track_inbound = recording
        try:
            with socket.create_connection(("127.0.0.1", leaf.port), timeout=3) as silent:
                assert silent.recv(1) == b""  # the leaf closed the silent connection
            handlers[0].join(timeout=3)
            assert not handlers[0].is_alive()
            assert _get(front.port, "/")[0] == 200
            # the leaf also closes the connection the front keeps in its pool
            handlers[1].join(timeout=3)
            assert not handlers[1].is_alive()
            status, body, _ = _get(front.port, "/")
            assert status == 200 and len(body) == 1024
            assert len(accepted) == 3  # silent, pooled, then a fresh one
        finally:
            front.stop()
            leaf.stop()

    def test_idle_workers_exit(self, monkeypatch):
        svc = _service("svc", [EndpointRuntime("/", 32)])
        workers = _record_workers(svc)
        conns = []
        try:
            for _ in range(50):
                conns.append(socket.create_connection(("127.0.0.1", svc.port), timeout=5))
                conns[-1].sendall(_GET)
                with conns[-1].makefile("rb") as replies:
                    assert _read_response(replies)[0].startswith(b"HTTP/1.1 200 ")
            # each open connection holds a worker of its own
            assert len(set(workers)) == 50
            # shortened only now, so no open connection timed out above
            monkeypatch.setattr(runtime, "IDLE_TIMEOUT_S", 0.2)
            closed = time.monotonic()
            for conn in conns:
                conn.close()
            # every worker goes idle, waits 0.2 s for a connection and exits
            assert _wait_until(lambda: not any(t.is_alive() for t in workers))
            assert time.monotonic() - closed >= 0.2
            assert svc._server._idle == 0
        finally:
            for conn in conns:
                conn.close()
            svc.stop()

    def test_no_connection_lost_as_workers_time_out(self, monkeypatch):
        # workers time out while the accept loop hands them connections;
        # a connection handed to a worker that left would never be answered
        monkeypatch.setattr(runtime, "IDLE_TIMEOUT_S", 0.05)
        svc = _service("svc", [EndpointRuntime("/", 32)])
        workers = _record_workers(svc)
        statuses = []

        def client(rng):
            for _ in range(25):
                time.sleep(rng.uniform(0, 0.06))
                with socket.create_connection(("127.0.0.1", svc.port), timeout=5) as conn:
                    conn.sendall(b"GET / HTTP/1.1\r\nHost: svc\r\nConnection: close\r\n\r\n")
                    with conn.makefile("rb") as replies:
                        statuses.append(_read_response(replies)[0][9:12])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [
                threading.Thread(target=client, args=(random.Random(i),)) for i in range(8)
            ]
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=20)
            assert not any(t.is_alive() for t in clients)
            assert statuses == [b"200"] * 200
            assert _wait_until(lambda: not any(t.is_alive() for t in workers))
            assert svc._server._idle == 0
        finally:
            sys.setswitchinterval(interval)
            svc.stop()

    def test_connection_handed_over_as_the_wait_ends_is_served(self, monkeypatch):
        monkeypatch.setattr(runtime, "IDLE_TIMEOUT_S", 0.1)
        svc = _service("svc", [EndpointRuntime("/", 32)])
        handoff = svc._server._handoff
        late = []  # the client that connects as the idle worker's wait ends

        class LateHandoff:
            put, get_nowait = handoff.put, handoff.get_nowait

            def get(self, timeout):
                try:
                    return handoff.get(timeout=timeout)
                except queue.Empty:
                    if not late:
                        late.append(socket.create_connection(("127.0.0.1", svc.port), timeout=3))
                        late[0].sendall(_GET)
                        # the accept loop hands it to this worker before it gives up
                        assert _wait_until(handoff.qsize)
                    raise

        svc._server._handoff = LateHandoff()
        try:
            assert _get(svc.port, "/")[0] == 200
            assert _wait_until(lambda: late)
            with late[0].makefile("rb") as replies:
                assert _read_response(replies)[0].startswith(b"HTTP/1.1 200 ")
        finally:
            for conn in late:
                conn.close()
            svc.stop()

    def test_idle_keepalive_connections_do_not_starve_a_new_one(self):
        svc = _service("svc", [EndpointRuntime("/", 32)])
        held = []
        try:
            for _ in range(20):
                held.append(socket.create_connection(("127.0.0.1", svc.port), timeout=5))
                held[-1].sendall(_GET)
                with held[-1].makefile("rb") as replies:
                    status_line, fields, _body = _read_response(replies)
                assert status_line.startswith(b"HTTP/1.1 200 ") and "connection" not in fields
            # 20 kept-alive connections wait, each on its worker, for a request
            status, body, _ = _get(svc.port, "/")
            assert status == 200 and len(body) == 32
        finally:
            for conn in held:
                conn.close()
            svc.stop()

    def test_stop_leaves_no_worker_waiting(self):
        svc = _service("svc", [EndpointRuntime("/", 32)])
        workers = _record_workers(svc)
        with socket.create_connection(("127.0.0.1", svc.port), timeout=5) as kept:
            for _ in range(5):
                assert _get(svc.port, "/")[0] == 200
            kept.sendall(_GET)
            with kept.makefile("rb") as replies:
                assert _read_response(replies)[0].startswith(b"HTTP/1.1 200 ")
            # one worker waits on the kept-alive connection, the others for one
            assert _wait_until(lambda: svc._server._idle == len(set(workers)) - 1)
            t0 = time.monotonic()
            svc.stop()
            assert time.monotonic() - t0 < 0.2
            assert _wait_until(lambda: not any(t.is_alive() for t in workers), timeout=1)

    def test_stale_pooled_connections_closed_before_the_peer_does(self, monkeypatch):
        # the caller drops pooled connections after IDLE_TIMEOUT_S / 2, the
        # leaves close theirs after IDLE_TIMEOUT_S
        monkeypatch.setattr(runtime, "IDLE_TIMEOUT_S", 0.4)
        burst = 4
        front, leaves = _fanout_stack()
        accepted = [_count_accepts(leaf) for leaf in leaves]
        for leaf in leaves:
            # hold every request of the burst at each leaf until all have
            # arrived, so each leaf sees ``burst`` concurrent connections
            barrier = threading.Barrier(burst, timeout=5)

            def gated(endpoint, traceparent, barrier=barrier, handle=leaf.handle_request):
                barrier.wait()
                return handle(endpoint, traceparent)

            leaf.handle_request = gated
        exchanges = []  # (connection, exception or None) of each downstream exchange
        exchange = front._exchange

        def recording(key, conn, url, headers):
            try:
                ok = exchange(key, conn, url, headers)
            except Exception as exc:
                exchanges.append((conn, exc))
                raise
            exchanges.append((conn, None))
            return ok

        front._exchange = recording
        try:
            statuses = []
            threads = [
                threading.Thread(target=lambda: statuses.append(_get(front.port, "/")[0]))
                for _ in range(burst)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert statuses == [200] * burst
            stale = [conn for conns in front._idle.values() for conn in conns]
            assert len(stale) == burst * len(leaves)
            assert [len(a) for a in accepted] == [burst] * len(leaves)

            time.sleep(0.6)  # past both bounds: the leaves closed their ends
            for leaf in leaves:
                del leaf.handle_request  # ungated
            del exchanges[:]
            status, body, _ = _get(front.port, "/")
            assert status == 200 and len(body) == 1024
            assert all(conn.sock is None for conn in stale)
            # one exchange per leaf, each on a fresh connection: no reset, no retry
            assert [exc for _conn, exc in exchanges] == [None] * len(leaves)
            assert not {id(conn) for conn, _exc in exchanges} & {id(conn) for conn in stale}
            assert [len(a) for a in accepted] == [burst + 1] * len(leaves)
            assert [len(conns) for conns in front._idle.values()] == [1] * len(leaves)
        finally:
            front.stop()
            for leaf in leaves:
                leaf.stop()


class TestHttps:
    def test_silent_client_does_not_block_handshakes(self, tls_files):
        svc = _service("svc", [EndpointRuntime("/", 32)], scheme="https", tls=tls_files)
        silent = socket.create_connection(("127.0.0.1", svc.port))
        try:
            time.sleep(0.1)  # let the server accept the silent connection first
            status, body = _https_get(svc.port, tls_files["ca"], timeout=3)
            assert status == 200 and len(body) == 32
        finally:
            silent.close()
            svc.stop()

    def test_failed_handshake_is_quiet(self, tls_files, capfd):
        svc = _service("svc", [EndpointRuntime("/", 32)], scheme="https", tls=tls_files)
        try:
            with socket.create_connection(("127.0.0.1", svc.port), timeout=3) as plain:
                plain.sendall(b"GET / HTTP/1.1\r\nHost: svc\r\n\r\n")
                with contextlib.suppress(ConnectionResetError):
                    assert plain.recv(100) == b""  # closed without a reply
            status, _ = _https_get(svc.port, tls_files["ca"], timeout=3)
            assert status == 200
        finally:
            svc.stop()
        assert capfd.readouterr().err == ""

    def test_reused_worker_starts_clean(self, tls_files, capfd):
        svc = _service("svc", [EndpointRuntime("/", 32)], scheme="https", tls=tls_files)
        workers = _record_workers(svc)
        ctx = ssl.create_default_context(cafile=tls_files["ca"])
        try:
            with (
                socket.create_connection(("127.0.0.1", svc.port), timeout=3) as raw,
                ctx.wrap_socket(raw, server_hostname="127.0.0.1") as conn,
                conn.makefile("rb") as replies,
            ):
                conn.sendall(b"GET / HTTP/1.1 extra\r\n")
                status_line, fields, _body = _read_response(replies)
                assert replies.read() == b""
            assert status_line.startswith(b"HTTP/1.1 400 ") and fields["connection"] == "close"
            assert _wait_until(lambda: svc._server._idle == 1)
            # a client that sends its hello, reads the server's first bytes and leaves
            incoming, outgoing = ssl.MemoryBIO(), ssl.MemoryBIO()
            hello = ctx.wrap_bio(incoming, outgoing, server_hostname="127.0.0.1")
            with pytest.raises(ssl.SSLWantReadError):
                hello.do_handshake()
            with socket.create_connection(("127.0.0.1", svc.port), timeout=3) as raw:
                raw.sendall(outgoing.read())
                assert raw.recv(1)
            assert _wait_until(lambda: len(workers) == 2 and svc._server._idle == 1)
            status, body = _https_get(svc.port, tls_files["ca"], timeout=3)
            assert status == 200 and len(body) == 32
            # one worker served all three connections, and still waits for more
            assert len(workers) == 3 and len(set(workers)) == 1
            assert workers[0].is_alive()
        finally:
            svc.stop()
        assert capfd.readouterr().err == ""

    def test_front_to_leaf_over_https(self, tls_files):
        leaf = _service("leaf", [EndpointRuntime("/", 128)], scheme="https", tls=tls_files)
        accepted = _count_accepts(leaf)
        front = _service(
            "front",
            [
                EndpointRuntime(
                    "/", 700, (Downstream("leaf", "127.0.0.1", leaf.port, "/", "https"),)
                )
            ],
            scheme="https",
            tls=tls_files,
        )
        try:
            for _ in range(5):
                status, body = _https_get(front.port, tls_files["ca"])
                assert status == 200 and len(body) == 700
            assert len(accepted) == 1
        finally:
            front.stop()
            leaf.stop()


class TestTraceparent:
    def test_roundtrip(self):
        tp = format_traceparent("ab" * 16, "cd" * 8)
        assert parse_traceparent(tp) == ("ab" * 16, "cd" * 8)

    @pytest.mark.parametrize(
        "bad",
        [
            None, "", "00-xyz-abc-01", "00-" + "a" * 31 + "-" + "b" * 16 + "-01", "garbage",
            "00-" + "0" * 32 + "-" + "b" * 16 + "-01", "00-" + "a" * 32 + "-" + "0" * 16 + "-01",
        ],
    )
    def test_invalid(self, bad):
        assert parse_traceparent(bad) is None


class TestSpanExporter:
    def test_file_sink_ndjson(self, tmp_path):
        sink = tmp_path / "out.ndjson"
        ex = SpanExporter(sink_file=str(sink))
        for i in range(5):
            ex.export([SpanRecord("a" * 32, f"{i:016d}", None, f"s{i}", i, i + 1)])
        ex.close()
        spans = _read_spans(sink)
        assert [s["name"] for s in spans] == [f"s{i}" for i in range(5)]

    def test_overflow_drops_oldest(self, tmp_path):
        sink = tmp_path / "x.ndjson"
        ex = SpanExporter(sink_file=str(sink))
        records = [
            SpanRecord("a" * 32, "b" * 16, None, f"s{i}", 0, 1) for i in range(SPAN_QUEUE_LIMIT + 3)
        ]
        with ex._cond:  # hold the worker back while overflowing
            ex.export(records[:2])
            ex.export(records[2:])
            assert ex.dropped == 3
            assert [r.name for r in ex._queue] == [r.name for r in records[3:]]
        ex.close()
        assert [s["name"] for s in _read_spans(sink)] == [r.name for r in records[3:]]
        assert ex.dropped == 3

    def test_flush_waits_for_batch_in_delivery(self, tmp_path):
        sink = tmp_path / "out.ndjson"
        ex = SpanExporter(sink_file=str(sink))
        deliver = ex._deliver

        def slow_deliver(batch):
            time.sleep(0.3)
            return deliver(batch)

        ex._deliver = slow_deliver
        ex.export([SpanRecord("a" * 32, "b" * 16, None, "s0", 0, 1)])
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            with ex._cond:
                if not ex._queue:
                    break
            time.sleep(0.005)
        # the worker has drained the queue but is still writing the batch
        ex.flush()
        assert [s["name"] for s in _read_spans(sink)] == ["s0"]
        ex.close()

    def test_failed_delivery_counted(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        # nothing listens on the port any more: every POST is refused
        ex = SpanExporter(endpoint=f"http://127.0.0.1:{port}/v1/traces")
        for i in range(3):
            ex.export([SpanRecord("a" * 32, f"{i:016d}", None, f"s{i}", i, i + 1)])
        ex.close()
        ex._thread.join(timeout=5)
        assert not ex._thread.is_alive()
        assert ex.dropped == 3

    def test_failed_sink_write_counted(self, tmp_path):
        ex = SpanExporter(sink_file=str(tmp_path / "missing" / "out.ndjson"))
        ex.export([SpanRecord("a" * 32, f"{i:016d}", None, f"s{i}", i, i + 1) for i in range(3)])
        ex.close()
        assert ex.dropped == 3

    def test_export_after_close_dropped(self, tmp_path):
        sink = tmp_path / "out.ndjson"
        ex = SpanExporter(sink_file=str(sink))
        records = [SpanRecord("a" * 32, f"{i:016d}", None, f"s{i}", i, i + 1) for i in range(3)]
        ex.export(records[:1])
        ex.close()
        ex.export(records[1:])  # a handler finishing its request during stop()
        assert ex.dropped == 2
        start = time.monotonic()
        ex.flush()
        assert time.monotonic() - start < 0.5  # nothing is left to wait for
        assert [s["name"] for s in _read_spans(sink)] == ["s0"]

    def test_every_span_delivered_or_dropped_under_contention(self, tmp_path):
        sink = tmp_path / "out.ndjson"
        ex = SpanExporter(sink_file=str(sink))
        records = [SpanRecord("a" * 32, f"{i:016d}", None, f"s{i}", i, i + 1) for i in range(4)]
        threads = [
            threading.Thread(target=lambda: [ex.export(records) for _ in range(300)])
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            ex.close()  # while exports still run: the later ones are dropped
            for t in [*threads, ex._thread]:
                t.join(timeout=10)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(sink.read_text().splitlines()) + ex.dropped == 8 * 300 * 4

    def test_collector_endpoint_from_the_environment(self, monkeypatch):
        endpoint = "http://127.0.0.1:4318/v1/traces"
        monkeypatch.setenv("TRACE_COLLECTOR_ENDPOINT", endpoint)
        svc = _service("a", [EndpointRuntime("/", 1)])
        try:
            assert svc.exporter is not None and svc.exporter.endpoint == endpoint
        finally:
            svc.stop()
        monkeypatch.delenv("TRACE_COLLECTOR_ENDPOINT")
        svc = _service("a", [EndpointRuntime("/", 1)])
        try:
            assert svc.exporter is None  # neither a collector nor a sink
        finally:
            svc.stop()

    def test_span_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            SpanRecord("a" * 32, "b" * 16, None, "bad", 10, 5)


class TestPayload:
    def test_length(self):
        assert len(random_payload(1)) == 1
        assert len(random_payload(4096)) == 4096

    def test_seeded_reproducible(self):
        assert random_payload(64, random.Random(1)) == random_payload(64, random.Random(1))
        assert random_payload(64, random.Random(1)) != random_payload(64, random.Random(2))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            random_payload(0)


class TestConfigLoading:
    def test_from_dict(self):
        cfg = RuntimeConfig.from_dict(
            {
                "name": "svc",
                "port": 1234,
                "endpoints": [
                    {
                        "entrypoint": "/",
                        "psize": 10,
                        "downstreams": [
                            {"name": "d", "address": "10.0.0.2", "port": 80, "url": "/x"}
                        ],
                    }
                ],
            }
        )
        assert cfg.endpoints[0].downstreams[0].url == "/x"
        assert cfg.scheme == "http"

    def test_load_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"name": "s", "port": 1, "endpoints": [{"entrypoint": "/", "psize": 2}]})
        )
        cfg = RuntimeConfig.load(str(path))
        assert cfg.endpoints[0].psize == 2


def _read_response(rfile):
    """(status line, lower-case fields, body) of one response read from ``rfile``."""
    status = rfile.readline()
    fields = {}
    while (line := rfile.readline()) not in (b"\r\n", b""):
        name, value = line.decode().split(":", 1)
        fields[name.lower()] = value.strip()
    return status, fields, rfile.read(int(fields.get("content-length", 0)))


def _leaf_conn(stack):
    return socket.create_connection(("127.0.0.1", stack["leaf"].port), timeout=5)


class TestRequestWire:
    # each request ends where the server stops reading it: a byte left unread
    # would turn the server's close into a reset, which may discard the
    # answer before the client reads it (RFC 9112 9.6)
    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"GET /" + b"a" * (65537 - 16) + b" HTTP/1.1\r\n", 414),
            (b"GET / HTTP/1.1\r\nX-Long: " + b"a" * (65537 - 10) + b"\r\n", 431),
            (b"GET / HTTP/1.1\r\n" + b"".join(b"X-%d: a\r\n" % i for i in range(101)), 431),
            (b"GET / HTTP/1.1 extra\r\n", 400),
            (b"PUT / HTTP/1.1\r\nHost: leaf\r\n\r\n", 501),
            (b"HEAD / HTTP/1.1\r\nHost: leaf\r\n\r\n", 501),
            (b"get / HTTP/1.1\r\nHost: leaf\r\n\r\n", 501),
            (b"GET / HTTP/2.0\r\n", 505),
            (b"GET / HTTX/1.1\r\n", 400),
            (b"GET /\r\n", 400),
            (b"POST / HTTP/1.1\r\nHost: leaf\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nHost : leaf\r\n", 400),
            (b"GET / HTTP/1.1\r\nX-Folded: a\r\n b\r\n", 400),
            (b"GET / HTTP/1.1\r\nno colon\r\n", 400),
        ],
        ids=[
            "long-request-line", "long-field-line", "101-fields", "four-words", "put", "head",
            "lower-case-method", "http2", "not-http", "no-version", "differing-lengths",
            "space-before-colon", "obs-fold", "no-colon",
        ],
    )
    def test_refused_with_a_status_line_and_closed(self, stack, request_bytes, status, capfd):
        with _leaf_conn(stack) as sock, sock.makefile("rb") as replies:
            sock.sendall(request_bytes)
            status_line, fields, _body = _read_response(replies)
            assert replies.read() == b""  # the server closed the connection
        assert status_line.startswith(b"HTTP/1.1 %d " % status)
        assert fields["connection"] == "close"
        assert capfd.readouterr().err == ""

    def test_pipelined_requests_answered_in_order(self, stack):
        get = b"GET %s HTTP/1.1\r\nHost: leaf\r\n%s\r\n"
        with _leaf_conn(stack) as sock, sock.makefile("rb") as replies:
            sock.sendall(get % (b"/?q=1", b"") + get % (b"/nope", b"") + get % (b"/", b"Connection: close\r\n"))
            status, fields, body = _read_response(replies)  # the query string is ignored
            assert status == b"HTTP/1.1 200 OK\r\n" and len(body) == 300
            assert set(fields) == {"server", "date", "content-type", "content-length"}
            assert fields["server"].startswith("topoforge-service ")
            assert _read_response(replies)[0] == b"HTTP/1.1 404 Not Found\r\n"
            status, fields, body = _read_response(replies)
            assert status == b"HTTP/1.1 200 OK\r\n" and fields["connection"] == "close"
            assert replies.read() == b""

    @pytest.mark.parametrize("keep_alive", [False, True])
    def test_http10_closed_unless_kept_alive(self, stack, keep_alive):
        request = b"GET / HTTP/1.0\r\n" + b"Connection: keep-alive\r\n" * keep_alive + b"\r\n"
        with _leaf_conn(stack) as sock, sock.makefile("rb") as replies:
            sock.sendall(request)
            status, _fields, body = _read_response(replies)
            assert status == b"HTTP/1.1 200 OK\r\n" and len(body) == 300
            if keep_alive:
                sock.sendall(request)
                assert _read_response(replies)[0] == b"HTTP/1.1 200 OK\r\n"
            else:
                assert replies.read() == b""

    def test_long_whitespace_run_inside_a_value_read_in_linear_time(self, stack):
        # a run of k blanks inside a value cost a backtracking field pattern
        # about k*k/2 steps: tens of seconds for a line under the 64 KiB limit
        request = b"GET / HTTP/1.1\r\nHost: leaf\r\nX-Blanks: a" + b" \t" * 30000 + b"b\r\n\r\n"
        start = time.monotonic()
        with _leaf_conn(stack) as sock, sock.makefile("rb") as replies:
            sock.sendall(request)
            status, _fields, body = _read_response(replies)
        assert status == b"HTTP/1.1 200 OK\r\n" and len(body) == 300
        assert time.monotonic() - start < 2

    def test_field_values_stripped_of_surrounding_blanks(self):
        head = io.BytesIO(b"A: \t v \t w \t\r\nB:x\nA:y\r\n\r\n")
        assert runtime._read_fields(head) == {"a": "v \t w, y", "b": "x"}

    def test_100_continue_before_the_body(self, stack):
        head = b"POST / HTTP/1.1\r\nHost: leaf\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\n"
        with _leaf_conn(stack) as sock, sock.makefile("rb") as replies:
            sock.sendall(head)
            assert replies.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert replies.readline() == b"\r\n"
            sock.sendall(b"hello")
            status, _fields, body = _read_response(replies)
            assert status == b"HTTP/1.1 200 OK\r\n" and len(body) == 300

    @pytest.mark.parametrize("seconds", [0, 951782400, 1767225599, 4102444800.5])
    def test_date_is_an_imf_fixdate(self, seconds):
        import email.utils

        assert runtime._http_date(seconds) == email.utils.formatdate(seconds, usegmt=True)


def _then_close(reply):
    """A _RawPeer reply that sends ``reply`` and then closes its side."""

    def send(conn):
        conn.sendall(reply)
        conn.shutdown(socket.SHUT_WR)

    return send


def _edge(peer):
    """A service whose ``/`` calls ``peer`` as downstream 'd'."""
    return _service("edge", [EndpointRuntime("/", 64, (Downstream("d", "127.0.0.1", peer.port, "/"),))])


class TestDownstreamReplies:
    @pytest.mark.parametrize(
        "reply, pooled",
        [
            (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
             b"2;x=y\r\nok\r\n0\r\nX-Trailer: t\r\n\r\n", True),
            (_then_close(b"HTTP/1.1 200 OK\r\n\r\nread up to the close"), False),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok", False),
            (b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", False),
        ],
        ids=["chunked", "no-length", "connection-close", "http10"],
    )
    def test_reply_read_whole(self, reply, pooled):
        peer = _RawPeer([reply, reply])
        svc = _edge(peer)
        try:
            for _ in range(2):
                status, body, _ = _get(svc.port, "/")
                assert status == 200 and len(body) == 64
            assert peer.accepted == (1 if pooled else 2)
            assert [len(conns) for conns in svc._idle.values()] == ([1] if pooled else [])
        finally:
            svc.stop()
            peer.close()

    @pytest.mark.parametrize(
        "reply",
        [
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nok",
            b"HTTP/1.1 200 OK\r\n" + b"".join(b"X-%d: a\r\n" % i for i in range(100))
            + b"Content-Length: 2\r\n\r\nok",
            b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 65536 + b"\r\nContent-Length: 2\r\n\r\nok",
            b"HTTP/1.1 200 " + b"O" * 65536 + b"\r\nContent-Length: 2\r\n\r\nok",
        ],
        ids=["differing-lengths", "101st-field", "long-field-line", "long-status-line"],
    )
    def test_unreadable_reply_is_502(self, reply):
        peer = _RawPeer([reply])
        svc = _edge(peer)
        try:
            with pytest.raises(urllib.error.HTTPError) as ei:
                _get(svc.port, "/")
            assert ei.value.code == 502
            assert ei.value.read() == b"downstream 'd' failed"
            assert svc._idle == {}
        finally:
            svc.stop()
            peer.close()


class TestCollectorDelivery:
    def test_batches_posted_as_ndjson_on_one_connection(self):
        peer = _RawPeer([_OK, _OK])
        ex = SpanExporter(endpoint=f"http://127.0.0.1:{peer.port}/v1/traces")
        records = [SpanRecord("a" * 32, f"{i:016d}", None, f"s{i}", i, i + 1) for i in range(2)]
        body = (json.dumps(records[0].to_wire(), sort_keys=True) + "\n").encode()
        try:
            ex.export(records[:1])
            ex.flush()
            deadline = time.monotonic() + 5
            while not peer.received.endswith(body) and time.monotonic() < deadline:
                time.sleep(0.01)
            head, sent = peer.received.split(b"\r\n\r\n", 1)
            request_line, *lines = head.split(b"\r\n")
            fields = dict(line.split(b": ", 1) for line in lines)
            assert request_line == b"POST /v1/traces HTTP/1.1"
            assert fields[b"Content-Type"] == b"application/x-ndjson"
            assert fields[b"Content-Length"] == b"%d" % len(body)
            assert sent == body
            ex.export(records[1:])
            ex.flush()
            assert ex.dropped == 0
            assert peer.accepted == 1  # the second batch reused the connection
        finally:
            ex.close()
            peer.close()

    def test_post_not_resent_once_sent(self):
        def reply_then_drop(conn):  # the peer may have stored the batch
            conn.shutdown(socket.SHUT_RDWR)

        peer = _RawPeer([_OK, reply_then_drop, _OK])
        ex = SpanExporter(endpoint=f"http://127.0.0.1:{peer.port}/v1/traces")
        try:
            for i in range(2):
                ex.export([SpanRecord("a" * 32, f"{i:016d}", None, f"s{i}", i, i + 1)])
                ex.flush()
            assert ex.dropped == 1
            assert peer.accepted == 1
            assert peer.received.count(b"POST /v1/traces HTTP/1.1") == 2
        finally:
            ex.close()
            peer.close()

    def test_pooled_connection_closed_by_the_collector_not_used(self):
        def reply_then_close(conn):
            conn.sendall(_OK)
            conn.close()

        peer = _RawPeer([reply_then_close, _OK])
        ex = SpanExporter(endpoint=f"http://127.0.0.1:{peer.port}/v1/traces")
        try:
            ex.export([SpanRecord("a" * 32, "0" * 16, None, "s0", 0, 1)])
            ex.flush()
            time.sleep(0.1)  # the close reaches the pooled connection
            ex.export([SpanRecord("a" * 32, "1" * 16, None, "s1", 1, 2)])
            ex.flush()
            assert ex.dropped == 0
            assert peer.accepted == 2
        finally:
            ex.close()
            peer.close()

    def test_pooled_connection_above_descriptor_1023(self):
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if hard != resource.RLIM_INFINITY and hard < 1200:
            pytest.skip(f"hard descriptor limit {hard} is below 1200")
        resource.setrlimit(resource.RLIMIT_NOFILE, (max(soft, 1200), hard))
        fds = []
        peer = _RawPeer([_OK, _OK])
        try:
            fds += [os.open(os.devnull, os.O_RDONLY) for _ in range(1100)]
            # the collector connection opens after them, above descriptor 1023
            ex = SpanExporter(endpoint=f"http://127.0.0.1:{peer.port}/v1/traces")
            try:
                for i in range(2):
                    ex.export([SpanRecord("a" * 32, f"{i:016d}", None, f"s{i}", i, i + 1)])
                    ex.flush()
                assert ex.dropped == 0
                assert peer.accepted == 1  # the second batch used the pooled connection
                assert ex._thread.is_alive()
            finally:
                ex.close()
        finally:
            for fd in fds:
                os.close(fd)
            peer.close()
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))

    @pytest.mark.parametrize(
        "endpoint, target",
        [
            ("http://10.0.0.2:4318/v1/traces", (("http", "10.0.0.2", 4318), "/v1/traces")),
            ("http://[fd00::2]:4318/v1/traces", (("http", "fd00::2", 4318), "/v1/traces")),
            ("https://collector", (("https", "collector", 443), "/")),
            ("http://Collector:4318?x", (("http", "collector", 4318), "/?x")),
            ("http://user@collector/v1/traces?a=b", (("http", "collector", 80), "/v1/traces?a=b")),
            ("ftp://collector/", None),
            ("http://[fd00::2/", None),
            ("collector:4318", None),
        ],
    )
    def test_collector_url(self, endpoint, target):
        ex = SpanExporter(endpoint=endpoint)
        try:
            assert ex._target == target
        finally:
            ex.close()

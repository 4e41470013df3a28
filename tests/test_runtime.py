"""Live-server tests for the microservice runtime on the loopback interface."""

import json
import random
import socket
import time
import urllib.error
import urllib.request

import pytest

from topoforge.runtime import (
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


def _service(name, endpoints, tmp_path=None, sink=None, **kw):
    cfg = RuntimeConfig(
        name=name,
        port=0,  # ephemeral
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

    def test_fresh_trace_id_without_header(self, stack):
        _get(stack["leaf"].port, "/")
        time.sleep(0.1)
        spans = self._spans_of(stack, "leaf")
        assert spans[-1]["parentSpanId"] is None
        assert len(spans[-1]["traceId"]) == 32


class TestTraceparent:
    def test_roundtrip(self):
        tp = format_traceparent("ab" * 16, "cd" * 8)
        assert parse_traceparent(tp) == ("ab" * 16, "cd" * 8)

    @pytest.mark.parametrize(
        "bad",
        [None, "", "00-xyz-abc-01", "00-" + "a" * 31 + "-" + "b" * 16 + "-01", "garbage"],
    )
    def test_invalid(self, bad):
        assert parse_traceparent(bad) is None


class TestSpanExporter:
    def test_file_sink_ndjson(self, tmp_path):
        sink = tmp_path / "out.ndjson"
        ex = SpanExporter(sink_file=str(sink))
        for i in range(5):
            ex.export(SpanRecord("a" * 32, f"{i:016d}", None, f"s{i}", i, i + 1))
        ex.close()
        spans = _read_spans(sink)
        assert [s["name"] for s in spans] == [f"s{i}" for i in range(5)]

    def test_overflow_drops_oldest(self, tmp_path):
        ex = SpanExporter(sink_file=str(tmp_path / "x.ndjson"), maxlen=2)
        ex._drain = lambda: []  # hold the worker back while overflowing
        for i in range(5):
            ex.export(SpanRecord("a" * 32, "b" * 16, None, f"s{i}", 0, 1))
        assert ex.dropped == 3
        with ex._lock:
            assert [r.name for r in ex._queue] == ["s3", "s4"]
        del ex._drain
        ex.close()

    def test_flush_waits_for_batch_in_delivery(self, tmp_path):
        sink = tmp_path / "out.ndjson"
        ex = SpanExporter(sink_file=str(sink))
        deliver = ex._deliver

        def slow_deliver(batch):
            time.sleep(0.3)
            deliver(batch)

        ex._deliver = slow_deliver
        ex.export(SpanRecord("a" * 32, "b" * 16, None, "s0", 0, 1))
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            with ex._lock:
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
            ex.export(SpanRecord("a" * 32, f"{i:016d}", None, f"s{i}", i, i + 1))
        ex.close()
        ex._thread.join(timeout=5)
        assert not ex._thread.is_alive()
        assert ex.dropped == 3

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

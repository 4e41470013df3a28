"""Parsing, literal handling, and serialization round-trips."""

import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import topoforge as tf
from topoforge.errors import ConfigSyntaxError, LocatedError, PathSyntaxError, SchemaError
from topoforge.netplan import timer_window
from topoforge.model import (
    Rate,
    TimerSpec,
    parse_duration_us,
    parse_path,
    parse_percent,
    parse_rate,
    parse_strict_int,
)


class TestExampleDocument:
    def test_entities(self, fig4_config):
        assert list(fig4_config.entities) == ["frontend", "r1", "db", "payment"]
        assert set(fig4_config.services()) == {"frontend", "db", "payment"}
        assert set(fig4_config.routers()) == {"r1"}

    def test_frontend(self, fig4_config):
        frontend = fig4_config.entities["frontend"]
        assert frontend.port == 80
        assert [ep.entrypoint for ep in frontend.endpoints] == ["/", "/payment"]
        root, payment = frontend.endpoints
        assert root.psize == 1024
        assert payment.psize == 512
        (conn,) = root.connections
        assert conn.path.hops == ("r1", "db")
        assert conn.url == "/"
        assert conn.options.rate == Rate(100.0, "mbit")
        (timer,) = conn.options.timers
        assert (timer.option, timer.start, timer.duration) == ("rate", 10.0, 30.0)
        assert timer.new_value == Rate(1.0, "gbit")

    def test_router_and_leaves(self, fig4_config):
        r1 = fig4_config.entities["r1"]
        assert [str(c.path) for c in r1.connections] == ["db"]
        db = fig4_config.entities["db"]
        assert (db.port, db.endpoints[0].psize) == (10001, 128)
        payment = fig4_config.entities["payment"]
        assert (payment.port, payment.endpoints[0].psize) == (10002, 256)


class TestSchemaRejection:
    def test_duplicate_key_reports_line(self):
        text = "a:\n  type: service\n  port: 8000\n  port: 8001\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
        with pytest.raises(ConfigSyntaxError) as ei:
            tf.parse_config(text)
        assert ei.value.line == 4

    @pytest.mark.parametrize(
        "text, error, message",
        [
            # a mapping's keys are checked before the sequences it holds are filled
            ("a: [{x: 1, x: 2}]\nb: 1\nb: 2\n", ConfigSyntaxError, "line 3: duplicate key 'b'"),
            # a sequence can hold the mapping it lies in; a mapping cannot hold itself
            ("&x {a: [*x]}\n", SchemaError, "entity 'a': entity body must be a mapping, got list"),
            ("&x {a: *x}\n", ConfigSyntaxError, "line 1: found unconstructable recursive node"),
        ],
    )
    def test_read_in_safe_constructor_order(self, text, error, message):
        with pytest.raises(error) as ei:
            tf.parse_config(text)
        assert str(ei.value).startswith(message)

    def test_unknown_entity_key(self):
        with pytest.raises(SchemaError, match="unknown key"):
            tf.parse_config(
                "a:\n  type: service\n  port: 8000\n  color: red\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
            )

    def test_unknown_connection_key(self):
        with pytest.raises(SchemaError, match="unknown key"):
            tf.parse_config(
                "a:\n  type: service\n  port: 8000\n  endpoints:\n"
                "    - entrypoint: /\n      psize: 1\n      connections:\n"
                "        - path: b\n          url: /\n          bandwidth: 1mbit\n"
                "b:\n  type: service\n  port: 8001\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
            )

    @pytest.mark.parametrize("port", ['"8000"', "true", "8000.5"])
    def test_port_must_be_integer(self, port):
        with pytest.raises(SchemaError):
            tf.parse_config(
                f"a:\n  type: service\n  port: {port}\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
            )

    def test_missing_port(self):
        with pytest.raises(SchemaError, match="port"):
            tf.parse_config("a:\n  type: service\n  endpoints:\n    - entrypoint: /\n      psize: 1\n")

    def test_empty_endpoints(self):
        with pytest.raises(SchemaError, match="endpoints"):
            tf.parse_config("a:\n  type: service\n  port: 8000\n  endpoints: []\n")

    def test_bad_type(self):
        with pytest.raises(SchemaError, match="type"):
            tf.parse_config("a:\n  type: gateway\n")

    def test_document_must_be_mapping(self):
        with pytest.raises(SchemaError):
            tf.parse_config("- a\n- b\n")
        with pytest.raises(SchemaError):
            tf.parse_config("")

    def test_at_least_one_service(self):
        with pytest.raises(SchemaError, match="at least one service"):
            tf.parse_config("r:\n  type: router\n  connections: []\n")

    def test_bad_entity_name(self):
        with pytest.raises(SchemaError, match="entity name"):
            tf.parse_config("'a b':\n  type: service\n  port: 1\n  endpoints:\n    - entrypoint: /\n      psize: 1\n")

    def test_psize_bounds(self):
        with pytest.raises(SchemaError, match="psize"):
            tf.parse_config("a:\n  type: service\n  port: 8000\n  endpoints:\n    - entrypoint: /\n      psize: 0\n")

    def test_entrypoint_must_start_with_slash(self):
        with pytest.raises(SchemaError, match="entrypoint"):
            tf.parse_config("a:\n  type: service\n  port: 8000\n  endpoints:\n    - entrypoint: root\n      psize: 1\n")

    def test_duplicate_entrypoint(self):
        with pytest.raises(SchemaError, match="duplicate entrypoint"):
            tf.parse_config(
                "a:\n  type: service\n  port: 8000\n  endpoints:\n"
                "    - entrypoint: /\n      psize: 1\n    - entrypoint: /\n      psize: 2\n"
            )

    def test_service_connection_requires_url(self):
        with pytest.raises(SchemaError, match="url"):
            tf.parse_config(
                "a:\n  type: service\n  port: 8000\n  endpoints:\n"
                "    - entrypoint: /\n      psize: 1\n      connections:\n        - path: b\n"
            )

    def test_router_connection_rejects_url(self):
        with pytest.raises(SchemaError, match="unknown key"):
            tf.parse_config(
                "a:\n  type: service\n  port: 8000\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
                "r:\n  type: router\n  connections:\n    - path: a\n      url: /\n"
            )


@pytest.mark.parametrize(
    "exc, message",
    [
        (ConfigSyntaxError("duplicate key 'port'", line=4), "line 4: duplicate key 'port'"),
        (SchemaError("unknown key 'x'", "a"), "entity 'a': unknown key 'x'"),
        (
            SchemaError("must be positive", "a", "port"),
            "entity 'a', field 'port': must be positive",
        ),
        (SchemaError("must be positive", field="port"), "must be positive"),
    ],
    ids=["line", "entity", "entity-field", "field-only"],
)
def test_error_location_prefix(exc, message):
    assert str(exc) == message


def test_syntax_error_keeps_its_line():
    assert ConfigSyntaxError("bad", line=7).line == 7
    assert ConfigSyntaxError("bad").line is None


class TestTimerSchema:
    def _doc(self, timer_body: str) -> str:
        return (
            "a:\n  type: service\n  port: 8000\n  endpoints:\n"
            "    - entrypoint: /\n      psize: 1\n      connections:\n"
            "        - path: b\n          url: /\n          rate: 10mbit\n          timers:\n"
            f"{timer_body}"
            "b:\n  type: service\n  port: 8001\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
        )

    def test_valid_timer(self):
        cfg = tf.parse_config(
            self._doc("            - option: rate\n              start: 1\n              duration: 2\n              newValue: 1gbit\n")
        )
        conn = cfg.entities["a"].endpoints[0].connections[0]
        timer = conn.options.timers[0]
        assert timer == TimerSpec("rate", 1.0, 2.0, Rate(1.0, "gbit"))
        assert timer_window(timer.start, timer.duration) == (1.0, 3.0)

    @pytest.mark.parametrize(
        "body",
        [
            "            - option: speed\n              start: 1\n              duration: 2\n              newValue: 1gbit\n",
            "            - option: rate\n              duration: 2\n              newValue: 1gbit\n",
            "            - option: rate\n              start: -1\n              duration: 2\n              newValue: 1gbit\n",
            "            - option: rate\n              start: 1\n              duration: 0\n              newValue: 1gbit\n",
            "            - option: rate\n              start: true\n              duration: 2\n              newValue: 1gbit\n",
            "            - option: rate\n              start: 1\n              duration: 2\n              newValue: fast\n",
        ],
    )
    def test_invalid_timers(self, body):
        with pytest.raises(SchemaError):
            tf.parse_config(self._doc(body))


class TestPathParsing:
    def test_multi_hop(self):
        assert parse_path("r1->r2->s1").hops == ("r1", "r2", "s1")

    def test_whitespace_trimmed(self):
        assert parse_path(" r1 -> s1 ").hops == ("r1", "s1")

    def test_single_hop(self):
        assert parse_path("s1").hops == ("s1",)

    @pytest.mark.parametrize("bad", ["", "   ", "a->", "->a", "a->->b", None, 7])
    def test_rejected(self, bad):
        with pytest.raises(PathSyntaxError):
            parse_path(bad)

    def test_non_string_named_as_such(self):
        with pytest.raises(PathSyntaxError, match="path must be a string, got True"):
            parse_path(True)

    def test_document_error_names_entity_and_field(self):
        text = (
            "a:\n  type: service\n  port: 9000\n  endpoints:\n"
            "    - entrypoint: /\n      psize: 1\n      connections:\n"
            "        - path: r1->\n          url: /\n"
        )
        with pytest.raises(PathSyntaxError) as ei:
            tf.parse_config(text)
        assert str(ei.value) == "entity 'a', field 'path': empty hop in path 'r1->'"
        assert (ei.value.entity, ei.value.field) == ("a", "path")


class TestLiterals:
    def test_rate(self):
        assert parse_rate("100mbit") == Rate(100.0, "mbit")
        assert parse_rate("1.5gbit").bits_per_second == 1.5e9
        assert str(parse_rate("250kbit")) == "250kbit"
        for bad in ("fast", "100", "100 mb", 100):
            with pytest.raises(SchemaError):
                parse_rate(bad)

    def test_duration(self):
        assert parse_duration_us("200us") == 200.0
        assert parse_duration_us("1.5ms") == 1500.0
        assert parse_duration_us("2s") == 2_000_000.0
        assert parse_duration_us(250) == 250.0
        for bad in ("fast", "2h", True):
            with pytest.raises(SchemaError):
                parse_duration_us(bad)

    def test_percent(self):
        assert parse_percent("10%") == 10.0
        assert parse_percent("0.1%") == 0.1
        assert parse_percent(5) == 5.0
        for bad in ("ten", True):
            with pytest.raises(SchemaError):
                parse_percent(bad)

    def test_strict_int(self):
        assert parse_strict_int(42) == 42
        for bad in ("42", 42.0, True):
            with pytest.raises(SchemaError):
                parse_strict_int(bad)


def _alias_chain(levels: int) -> str:
    """A flow sequence of ``levels`` anchored lists, each holding ten aliases
    of the one before: a few hundred bytes whose full repr grows tenfold per
    level."""
    items = ["&l0 [" + ", ".join(["x"] * 10) + "]"]
    items += [f"&l{k} [" + ", ".join([f"*l{k - 1}"] * 10) + "]" for k in range(1, levels)]
    return "[" + ", ".join(items) + "]"


_SVC = "a:\n  type: service\n  port: 8000\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
_CONN = _SVC + "      connections:\n        - path: b\n          url: /\n"


# a document whose CHAIN is the value of each field
_IN_FIELD = {
    "port": "a:\n  type: service\n  port: CHAIN\n",
    "type": "a:\n  type: CHAIN\n",
    "entrypoint": "a:\n  type: service\n  port: 8000\n  endpoints:\n    - entrypoint: CHAIN\n",
    "url": _SVC + "      connections:\n        - path: b\n          url: CHAIN\n",
    "path": _SVC + "      connections:\n        - path: CHAIN\n",
    "delay": _CONN + "          delay: CHAIN\n",
    "option": _CONN + "          timers:\n            - option: CHAIN\n",
}


@pytest.mark.parametrize("levels", [6, 9])
@pytest.mark.parametrize("field", list(_IN_FIELD))
def test_error_echoes_a_bounded_value(levels, field):
    # aliases make the value huge; its echo in the message stays short
    text = _IN_FIELD[field].replace("CHAIN", _alias_chain(levels))
    start = time.perf_counter()
    with pytest.raises(LocatedError) as ei:
        tf.parse_config(text)
    assert time.perf_counter() - start < 0.1
    assert ei.value.field == field
    assert len(str(ei.value)) < 1024


# --- round-trip property ------------------------------------------------------

_names = st.from_regex(r"[a-z][a-z0-9_-]{0,6}", fullmatch=True)


def _numbers(most: int):
    """Integer literals, and decimal literals down to 1e-7: repr writes a
    float below 1e-4 in exponent notation, which no literal reader takes."""
    return st.one_of(
        st.integers(0, most).map(str),
        st.integers(1, most * 10**7).map(lambda n: f"{n // 10**7}.{n % 10**7:07d}"),
    )


@st.composite
def _configs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    names = draw(
        st.lists(_names, min_size=n, max_size=n, unique=True)
    )
    doc_lines = []
    for i, name in enumerate(names):
        doc_lines.append(f'"{name}":')
        doc_lines.append("  type: service")
        doc_lines.append(f"  port: {8000 + i}")
        doc_lines.append("  endpoints:")
        doc_lines.append("    - entrypoint: /")
        doc_lines.append(f"      psize: {draw(st.integers(1, 65536))}")
        if i + 1 < n and draw(st.booleans()):
            target = names[draw(st.integers(i + 1, n - 1))]
            doc_lines.append("      connections:")
            doc_lines.append(f'        - path: "{target}"')
            doc_lines.append("          url: /")
            delay = draw(st.booleans())
            if delay:
                doc_lines.append(f"          delay: {draw(_numbers(10_000))}us")
            if draw(st.booleans()):
                doc_lines.append(f"          loss: {draw(_numbers(100))}%")
            if draw(st.booleans()):
                doc_lines.append(f"          rate: {draw(_numbers(1000))}mbit")
            if delay and draw(st.booleans()):
                doc_lines.append(
                    "          timers:\n            - option: delay\n              start: 1\n"
                    f"              duration: 2\n              newValue: {draw(_numbers(10_000))}us"
                )
    return "\n".join(doc_lines) + "\n"


# names that YAML 1.1 reads as booleans or null unless quoted
_KEYWORD_NAMES = (
    '"yes":\n  type: service\n  port: 8000\n  endpoints:\n    - entrypoint: /\n'
    '      psize: 5\n      connections:\n        - path: "null"\n          url: /\n'
    '"null":\n  type: service\n  port: 8001\n  endpoints:\n    - entrypoint: /\n'
    "      psize: 7\n"
)


# the smallest decimal of each option and of a timer's new value
_TINY_VALUES = (
    "a:\n  type: service\n  port: 8000\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
    "      connections:\n        - path: b\n          url: /\n          delay: 0.0000001us\n"
    "          loss: 0.0000001%\n          rate: 0.0000001mbit\n          timers:\n"
    "            - option: delay\n              start: 1\n              duration: 2\n"
    "              newValue: 0.0000001us\n"
    "b:\n  type: service\n  port: 8001\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
)


@settings(max_examples=60, deadline=None)
@given(_configs())
@example(_KEYWORD_NAMES)
@example(_TINY_VALUES)
def test_serialize_parse_roundtrip(text):
    cfg = tf.parse_config(text)
    assert tf.parse_config(tf.serialize_config(cfg)) == cfg


def test_fig4_roundtrip(fig4_config):
    assert tf.parse_config(tf.serialize_config(fig4_config)) == fig4_config


# a document whose VALUE is an option's value: one that parses but is out of
# the option's range, so that no literal reads back as the same value
_OUT_OF_RANGE = {
    "delay": _CONN + "          delay: VALUE\n",
    "newValue": _CONN + "          delay: 5us\n          timers:\n            - option: delay\n"
    "              start: 1\n              duration: 2\n              newValue: VALUE\n",
}


@pytest.mark.parametrize("value", [".inf", ".nan", "-1"])
@pytest.mark.parametrize("field", list(_OUT_OF_RANGE))
def test_out_of_range_value_is_not_serialized(field, value):
    cfg = tf.parse_config(_OUT_OF_RANGE[field].replace("VALUE", value))
    with pytest.raises(SchemaError) as ei:
        tf.serialize_config(cfg)
    assert (ei.value.entity, ei.value.field) == ("a", field)
    assert "outside [0, inf)" in str(ei.value)

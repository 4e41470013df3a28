"""The libyaml and the pure-Python YAML backends load the same thing, and the
writer writes what ``yaml.dump`` writes.

Each load check runs once with the backend ``topoforge.yamlio`` chose and once
with PyYAML's pure-Python loader patched in, and compares the results.  Each
dump check compares the writer's text with ``yaml.dump`` through libyaml's
``CSafeDumper``, when PyYAML was built with it, and through ``SafeDumper``.
"""

import gc
import math
import random
import time
import tracemalloc
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import topoforge as tf
from topoforge import cli, yamlio
from topoforge.deploy import GenerationOptions, plan_deployment, runtime_config_json
from topoforge.errors import ConfigSyntaxError, SchemaError, TopoforgeError
from topoforge.parser import config_to_dict

from conftest import breadth_config, chain_config, random_topology_text

DATA = Path(__file__).parent / "data"
TOPOLOGIES = Path(__file__).parent.parent / "topologies"
SHOP = TOPOLOGIES / "shop_demo.yml"
BENCH = Path(__file__).parent.parent / "bench"
ALL_FLAGS = dict(family="v6", scheme="https", tracing=True, ioam=True)
DUMPERS = [yaml.SafeDumper] + ([yaml.CSafeDumper] if yaml.__with_libyaml__ else [])
WIDE = 1 << 30  # a line width that no test document reaches, so yaml.dump folds nothing


class _PureLoader(yaml.SafeLoader):
    used = 0

    def __init__(self, stream):
        _PureLoader.used += 1  # yamlio.load makes one to parse
        super().__init__(stream)


@pytest.fixture
def both(monkeypatch):
    """Call ``fn`` under the chosen loader, then under the pure-Python one."""

    def run(fn):
        chosen = fn()
        _PureLoader.used = 0
        with monkeypatch.context() as m:
            m.setattr(yamlio, "Loader", _PureLoader)
            pure = fn()
        assert _PureLoader.used, "pure-Python loader not used"
        return chosen, pure

    return run


def _yaml_dump(doc, dumper) -> str:
    return yaml.dump(doc, Dumper=dumper, sort_keys=False, default_flow_style=False, width=WIDE)


def _all_keys(doc):
    """Every mapping key in ``doc``, at any depth."""
    if type(doc) is dict:
        yield from doc
        doc = list(doc.values())
    if type(doc) is list:
        for value in doc:
            yield from _all_keys(value)


def _pure_differs(doc) -> bool:
    """Whether PyYAML's pure-Python emitter may write ``doc`` otherwise than libyaml's.

    It ends a document that is one plain scalar with "...".  It writes a key
    after "? " when the key is empty or 128 characters long, where libyaml
    writes it so past 128 UTF-8 bytes; and not when it holds "\r", which
    libyaml takes as a line break.
    """
    if type(doc) is not dict and type(doc) is not list:
        return True
    texts = map(str, _all_keys(doc))
    return any(not t or "\r" in t or len(t) >= 128 or len(t.encode()) > 128 for t in texts)


def _assert_dumps_as_yaml_does(docs):
    """``dump_each(docs)`` and ``dump`` of each write what ``yaml.dump`` writes."""
    texts = yamlio.dump_each(docs)
    assert texts == [yamlio.dump(doc) for doc in docs]
    for doc, text in zip(docs, texts):
        for dumper in DUMPERS:
            if dumper is yaml.SafeDumper and _pure_differs(doc):
                continue
            assert text == _yaml_dump(doc, dumper), dumper.__name__


def _syntax_error_line(text: str) -> int:
    with pytest.raises(ConfigSyntaxError) as ei:
        tf.parse_config(text)
    return ei.value.line


def test_libyaml_chosen_when_installed(monkeypatch):
    assert yamlio.Loader is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
    loaders = []
    parse = yaml.parse
    monkeypatch.setattr(yaml, "parse", lambda text, Loader: loaders.append(Loader) or parse(text, Loader))
    assert yamlio.load("a: [1]\n") == {"a": [1]}
    assert loaders == [yamlio.Loader]


def test_dump_builds_no_events_and_calls_no_emitter(monkeypatch):
    def emit(*args, **kwargs):
        raise AssertionError("the PyYAML emitter called")

    for name in ("emit", "serialize", "dump"):
        monkeypatch.setattr(yaml, name, emit)
    for name in ("ScalarEvent", "MappingStartEvent", "SequenceStartEvent"):
        monkeypatch.setattr(yaml.events, name, emit)
        monkeypatch.setattr(yamlio, name, emit)
    assert yamlio.dump_each([{"a": ["x", 1, {}]}, "b"]) == ["a:\n- x\n- 1\n- {}\n", "b\n"]


def test_fig4_compose_golden(both, fig4_text):
    topologies = both(lambda: tf.validate(tf.parse_config(fig4_text)))
    golden = (DATA / "compose_fig4.yml").read_text()
    for topology in topologies:
        _np, plan = plan_deployment(topology, GenerationOptions())
        assert dict(tf.emit_compose(plan))["compose.yml"] == golden


def _emitted_documents(monkeypatch, emit, plan) -> list:
    """The documents that ``emit`` hands to ``yamlio.dump_each``."""
    docs = []
    dump_each = yamlio.dump_each

    def keep(each):
        docs.extend(each)
        return dump_each(docs)

    with monkeypatch.context() as m:
        m.setattr(yamlio, "dump_each", keep)
        emit(plan)
    return docs


@pytest.mark.parametrize("path", [DATA / "fig4.yml", SHOP], ids=["fig4", "shop_demo"])
def test_k8s_manifests_all_options(both, monkeypatch, path):
    text = path.read_text()
    for topology in both(lambda: tf.validate(tf.parse_config(text))):
        _np, plan = plan_deployment(topology, GenerationOptions(**ALL_FLAGS))
        manifests = tf.emit_k8s(plan)
        docs = _emitted_documents(monkeypatch, tf.emit_k8s, plan)
        assert [body for _rel, body in manifests] == yamlio.dump_each(docs)
        _assert_dumps_as_yaml_does(docs)
    # no scalar is folded: the runtime config sits on one line of its manifest
    configmap = dict(manifests)["manifests/frontend-configmap.yaml"]
    assert any(line.startswith("  config.json: ") for line in configmap.splitlines())


def test_k8s_config_json_is_never_folded():
    # no line is folded, however long: the front's config.json here is one
    # double-quoted line of 143,098 columns
    topology = tf.validate(tf.parse_config(breadth_config(800)))
    _np, plan = plan_deployment(topology, GenerationOptions(family="v6"))
    front = next(c for c in plan.containers if c.name == "front")
    manifest = dict(tf.emit_k8s(plan))["manifests/front-configmap.yaml"]
    line = next(line for line in manifest.splitlines() if line.startswith("  config.json: "))
    assert len(line) == 143_098
    for loader in (yaml.CSafeLoader, yaml.SafeLoader) if yaml.__with_libyaml__ else (yaml.SafeLoader,):
        doc = yaml.load(manifest, Loader=loader)
        assert doc["data"]["config.json"] == runtime_config_json(front)


@pytest.mark.parametrize("path", [DATA / "fig4.yml", SHOP], ids=["fig4", "shop_demo"])
def test_parse_and_serialize_config(both, path):
    text = path.read_text()
    cfg, pure_cfg = both(lambda: tf.parse_config(text))
    assert cfg == pure_cfg
    doc = tf.serialize_config(cfg)
    for dumper in DUMPERS:
        assert doc == _yaml_dump(config_to_dict(cfg), dumper)
    assert both(lambda: tf.parse_config(doc)) == (cfg, cfg)


@pytest.mark.parametrize("seed", range(5))
def test_random_configs(both, seed):
    text = random_topology_text(random.Random(seed))
    cfg, pure_cfg = both(lambda: tf.parse_config(text))
    assert cfg == pure_cfg
    doc = tf.serialize_config(cfg)
    for dumper in DUMPERS:
        assert doc == _yaml_dump(config_to_dict(cfg), dumper)


def test_duplicate_key_line(both):
    text = "a:\n  type: service\n  port: 8000\n  port: 8001\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
    assert both(lambda: _syntax_error_line(text)) == (4, 4)


@pytest.mark.parametrize(
    "text",
    [
        "a:\n  type: service\n  port: [8000\n  endpoints: []\n",
        "a:\n  type: service\n  port: 8000\n endpoints: x\n",
        'a:\n  type: "service\n',
    ],
    ids=["unclosed-flow", "bad-indent", "unclosed-quote"],
)
def test_syntax_error_line(both, text):
    chosen, pure = both(lambda: _syntax_error_line(text))
    assert chosen == pure
    assert chosen is not None


# strings that read back as another type, need quotes, or span lines
TRICKY = (
    "true", "no", "On", "~", "null", "", "0x1F", "0o17", "1_000", "1:30", ".inf", "-.inf",
    ".NaN", "1e3", "1.5", "2024-01-01", "2024-01-01 10:00:00", "<<", "=", "- x", "a: b",
    "#c", "[x]", "{x}", "&a", "*a", "!t", "%x", "@x", "`x", "'q'", '"q"', " lead",
    "trail ", "two\nlines", "end\n", "\n", "tab\there", "ünïcødé", "日本", "\x85", "\u2028",
)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, 1e17, -0.0])
    | st.sampled_from(TRICKY)
    | st.text(max_size=12)
)
_keys = st.sampled_from(TRICKY) | st.text(max_size=8) | st.integers() | st.booleans() | st.none()
_documents = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None)
@given(_documents)
def test_dump_writes_what_yaml_dump_writes(doc):
    _assert_dumps_as_yaml_does([doc, doc])


# what libyaml's CSafeDumper writes where its rules turn on a length, a line
# break or a character: simple keys are at most 128 UTF-8 bytes and one line,
# a longer or multi-line key is written after "? " and its value after ": "
LIBYAML_CASES = {
    "key of 128 bytes": ({"x" * 128: 1}, "x" * 128 + ": 1\n"),
    "key of 129 bytes": ({"x" * 129: 1}, "? " + "x" * 129 + "\n: 1\n"),
    "key of 64 two-byte characters": ({"\xe9" * 64: 1}, '"' + "\\xE9" * 64 + '": 1\n'),
    "key of 65 two-byte characters": ({"\xe9" * 65: 1}, '? "' + "\\xE9" * 65 + '"\n: 1\n'),
    "int key of 130 digits": ({int("9" * 130): 1}, "? " + "9" * 130 + "\n: 1\n"),
    "multi-line key, scalar value": ({"a\nb": "v"}, "? 'a\n\n  b'\n: v\n"),
    "multi-line key, mapping value": (
        {"a\nb": {"k": "v", "l": [1]}}, "? 'a\n\n  b'\n: k: v\n  l:\n  - 1\n"),
    "multi-line key, sequence value": (
        {"a\nb": [1, {"k": "v"}]}, "? 'a\n\n  b'\n: - 1\n  - k: v\n"),
    "multi-line key, empty mapping": ({"a\nb": {}}, "? 'a\n\n  b'\n: {}\n"),
    "multi-line key, empty sequence": ({"a\nb": []}, "? 'a\n\n  b'\n: []\n"),
    "explicit key in a sequence item": (
        [{"c": 1, "a\rb": [2, 3]}], '- c: 1\n  ? "a\\rb"\n  : - 2\n    - 3\n'),
    "explicit keys nested": (
        {"k": {"a\nb": {"c\nd": 1}}}, "k:\n  ? 'a\n\n    b'\n  : ? 'c\n\n      d'\n    : 1\n"),
    "indicators and breaks": (
        ["-", "- x", "a:", "...", "...x", "---x", "a #b", "\x85", "\u2028", "\xe9", "end\n", "\n"],
        "- '-'\n- '- x'\n- 'a:'\n- '...'\n- '...x'\n- '---x'\n- 'a #b'\n- \"\\N\"\n"
        "- \"\\L\"\n- \"\\xE9\"\n- 'end\n\n  '\n- '\n\n  '\n",
    ),
    "a plain scalar alone": ("plain", "plain\n"),
}


@pytest.mark.parametrize("doc, text", LIBYAML_CASES.values(), ids=LIBYAML_CASES.keys())
def test_dump_writes_what_libyaml_writes(doc, text):
    assert yamlio.dump(doc) == text
    if yaml.__with_libyaml__:
        assert _yaml_dump(doc, yaml.CSafeDumper) == text
    _assert_dumps_as_yaml_does([doc])


def test_long_documents_are_joined_in_chunks():
    # 12,001 lines, written as 40,003 pieces and joined a few thousand at a time
    doc = {"services": {f"s{i}": {"ports": [i, "80:80"], "env": {"A": "b c"}} for i in range(2000)}}
    _assert_dumps_as_yaml_does([doc])


def test_dump_rejects_what_yaml_cannot_represent():
    with pytest.raises(yaml.representer.RepresenterError):
        yamlio.dump({"a": [1, (2, 3)]})


def test_shared_sub_objects_are_written_in_full():
    shared = {"k": [1]}
    assert yamlio.dump({"a": shared, "b": shared}) == "a:\n  k:\n  - 1\nb:\n  k:\n  - 1\n"


def test_dump_memory_stays_near_its_output(monkeypatch):
    # dump keeps each line as references to its pieces, most of them strings
    # that exist already, and joins the pieces a few thousand at a time
    topology = tf.validate(tf.parse_config(chain_config(1000)))
    _np, plan = plan_deployment(topology, GenerationOptions(tracing=True))
    docs = []
    with monkeypatch.context() as m:
        m.setattr(yamlio, "dump", lambda doc: docs.append(doc) or "")
        tf.emit_compose(plan)
    gc.collect()
    tracemalloc.start()
    try:
        text = yamlio.dump(docs[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text), f"peak {peak} B for {len(text)} B of YAML"


def _fan_out(levels: int, width: int = 10) -> str:
    """``width ** levels`` leaves if aliases were expanded (the "billion laughs")."""
    lines = ["l0: &l0 [" + ", ".join(["x"] * width) + "]"]
    lines += [f"l{i}: &l{i} [" + ", ".join([f"*l{i - 1}"] * width) + "]" for i in range(1, levels)]
    return "\n".join(lines) + "\n"


_SERVICE = "  type: service\n  port: 8000\n  endpoints:\n    - entrypoint: /\n      psize: 1\n"
# YAML that no topology needs: tags, aliases, complex keys, malformed scalars, nesting bombs
CRAFTED = {
    "unhashable key": "? [1, 2]\n: x\n",
    "unhashable key in a body": "a:\n  ? {b: 1}\n  : 2\n",
    "complex key": "? !!binary aGk=\n: x\n",
    "set body": "a: !!set {type, port}\n",
    "set with an unhashable member": "a: !!set {? [1]}\n",
    "omap body": "a: !!omap [{type: service}, {port: 8000}]\n",
    "foo-tagged service": "a: !foo {type: service, port: 8000, endpoints: [{entrypoint: /, psize: 1}]}\n",
    "map tag on a sequence": "a: !!map [1, 2]\n",
    "bad int": "a:\n  type: service\n  port: 0b_\n",
    "bad bool": "a: !!bool maybe\n",
    "bad date": "a:\n  type: service\n  port: 2024-13-45\n",
    "int past Python's 4300 digits": "a:\n  type: service\n  port: " + "1" * 5000 + "\n",
    "merge key": "base: &b {type: service, port: 8000}\na:\n  <<: *b\n  endpoints: [{entrypoint: /, psize: 1}]\n",
    "self-referencing alias": "&x [*x]\n",
    "self-referencing mapping": "&x {a: *x}\n",
    "shared body": "a: &s\n" + _SERVICE + "b: *s\n",
    "alias fan-out": _fan_out(9),
    "flow nesting bomb": "[" * 50_000 + "\n",
    "block nesting bomb": "- " * 50_000 + "x\n",
    "control character": "a: \x01\n",
    # libyaml counts its position in UTF-8 bytes, PyYAML in characters
    "control character after a non-ASCII line": "a: é\nb: ééé\nc: \x01\n",
    "undefined alias": "a: *x\n",
    "duplicate anchor": "a: &x 1\nb: &x 2\n",
    "second document": "a: 1\n---\nb: 2\n",
    "unclosed quoted scalar": 'a: "x\n',
}


def _outcome(text: str):
    try:
        return tf.parse_config(text)
    except ConfigSyntaxError as exc:
        return ConfigSyntaxError, exc.line  # each backend words its marks its own way
    except TopoforgeError as exc:
        return type(exc), str(exc)


def _examples(test):
    for text in CRAFTED.values():
        test = example(text)(test)
    return test


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_documents.map(yamlio.dump))
@_examples
def test_any_text_parses_or_raises_a_topoforge_error(both, text):
    chosen, pure = both(lambda: _outcome(text))
    assert chosen == pure


@pytest.mark.parametrize("text", CRAFTED.values(), ids=CRAFTED.keys())
def test_syntax_errors_are_one_line(both, text):
    def message():
        try:
            tf.parse_config(text)
        except ConfigSyntaxError as exc:
            return exc.line, str(exc)
        except TopoforgeError:
            return None

    for result in both(message):
        if result is not None:
            line, msg = result
            assert msg.startswith(f"line {line}: ")
            assert "\n" not in msg and "<unicode string>" not in msg


def test_alias_fan_out_builds_each_node_once(both):
    def seconds():
        start = time.perf_counter()
        with pytest.raises(SchemaError):
            tf.parse_config(_fan_out(9))
        return time.perf_counter() - start

    assert max(both(seconds)) < 1.0
    doc = yamlio.load(_fan_out(3))
    assert doc["l2"][0] is doc["l2"][1] is doc["l1"]


@pytest.mark.parametrize(
    "nested, line",
    [
        (lambda depth: "[" * depth + "]" * depth, 1),
        (lambda depth: "- " * depth + "x", 1),
        # one mapping per line, each a column deeper
        (lambda depth: "".join(f"{' ' * k}k:\n" for k in range(depth)) + " " * depth + "x",
         yamlio.MAX_DEPTH + 1),
    ],
    ids=["flow", "compact sequences", "block mappings"],
)
def test_nesting_limit(both, nested, line):
    deep = nested(yamlio.MAX_DEPTH)
    assert both(lambda: yamlio.load(deep) is not None) == (True, True)
    deeper = nested(yamlio.MAX_DEPTH + 1)
    assert both(lambda: _syntax_error_line(deeper)) == (line, line)


def _garbage_after_generate(config: Path, out: Path) -> int:
    """The cyclic objects that one in-process ``generate`` of job A's kind leaves."""
    argv = ["generate", str(config), "--target", "compose", "--tracing", "--output", str(out)]
    cli.main(argv)  # warm-up: lazy imports and caches
    gc.collect()
    gc.disable()
    try:
        cli.main(argv)
        return gc.collect()
    finally:
        gc.enable()


def test_load_leaves_no_garbage(tmp_path, monkeypatch):
    # the reader leaves no reference cycle, and one generate leaves as much cyclic garbage
    # on job A's 1000-service draw as on fig4: it does not grow with the topology
    fig4 = DATA / "fig4.yml"
    gc.collect()
    gc.disable()
    try:
        yamlio.load(fig4.read_text())
        assert gc.collect() == 0
    finally:
        gc.enable()
    monkeypatch.syspath_prepend(str(BENCH))
    import topogen

    tree = tmp_path / "tree.yml"
    tree.write_text(topogen.routed_tree(1000, 1).text)
    small = _garbage_after_generate(fig4, tmp_path / "fig4")
    assert _garbage_after_generate(tree, tmp_path / "tree") == small


def test_load_never_composes_a_node_tree(monkeypatch, fig4_text):
    def compose(*args, **kwargs):
        raise AssertionError("yaml.compose called")

    monkeypatch.setattr(yaml, "compose", compose)
    assert set(tf.parse_config(fig4_text).entities) == {"frontend", "r1", "db", "payment"}


@pytest.mark.parametrize(
    "text, line",
    [
        ("a:\n  b: 1\n  c: !!set {x, y}\n", 3),
        ("a:\n  - !!omap [{x: 1}]\n", 2),
        ("a:\n  type: service\n  port: 8000\n  endpoints: !!pairs []\n", 4),
        ("a: !foo {type: service}\n", 1),
        ("a: !!map [1, 2]\n", 1),
        ("a:\n\n  !!seq {b: 1}\n", 3),
    ],
    ids=["set", "omap", "pairs", "local", "map on a sequence", "seq on a mapping"],
)
def test_tagged_collections_rejected(both, text, line):
    assert both(lambda: _syntax_error_line(text)) == (line, line)


def _file_examples(test):
    for path in [DATA / "fig4.yml", *sorted(TOPOLOGIES.glob("*.yml"))]:
        test = example(path.read_text())(test)
    return test


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_documents.map(yamlio.dump))
@_file_examples
def test_load_reads_what_yaml_load_reads(both, text):
    def same():
        try:
            doc = yamlio.load(text)
        except ConfigSyntaxError:
            return True  # rejected, as a duplicate key is, which yaml.load lets pass
        # repr finds NaN equal to NaN, tells 0.0 from -0.0 and compares dict order
        return repr(doc) == repr(yaml.load(text, Loader=yamlio.Loader))

    assert both(same) == (True, True)

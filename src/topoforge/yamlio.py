"""The YAML reader and writer every load and dump in topoforge goes through.

Reading has two backends: libyaml's C classes when PyYAML was built with them,
else PyYAML's pure-Python classes.  ``load`` builds what SafeLoader builds, in
one pass over the parser's events with no node tree, but raises a one-line
``ConfigSyntaxError`` at its line for any error, a duplicate or unhashable key,
a tagged collection or nesting deeper than ``MAX_DEPTH`` included; only the
scanner's and parser's errors are worded by the backend.

Writing has one writer and no backend choice.  ``dump`` and ``dump_each``
walk each document's dicts, lists and scalars and write block-style text
themselves, with no events, node tree or representer.  Each string is
written plain, single-quoted or double-quoted by the rules libyaml's emitter
applies, so the bytes are what ``yaml.dump`` writes through ``CSafeDumper``
with ``sort_keys=False``, ``default_flow_style=False`` and a line width that
nothing reaches: no line is ever folded, however long.  The writer makes no
anchors: a sub-object that a document holds twice is written out twice.
"""

from __future__ import annotations

import re
from itertools import chain

import yaml
from yaml.constructor import ConstructorError, SafeConstructor
from yaml.events import AliasEvent, DocumentStartEvent, MappingEndEvent, MappingStartEvent
from yaml.events import ScalarEvent, SequenceEndEvent, SequenceStartEvent
from yaml.representer import RepresenterError, SafeRepresenter
from yaml.resolver import Resolver

from .errors import ConfigSyntaxError

Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# collections open at once: the config schema nests 8 deep, and code that
# recurses once per level, as repr and == do, stops at 1000 levels
MAX_DEPTH = 200

_STR_TAG = Resolver.DEFAULT_SCALAR_TAG
# the tag a collection may carry, besides none and the non-specific "!"
_TAGS = {MappingStartEvent: "tag:yaml.org,2002:map", SequenceStartEvent: "tag:yaml.org,2002:seq"}
_KEY, _ITEM = object(), object()  # what an open mapping or sequence awaits next

def load(text: str):
    """The single document in ``text`` as dicts, lists and scalars; None if it is empty.

    A value that cannot be built does not stop the pass, so that a syntax error anywhere
    comes first.  Of several, the one raised is the first in building order: a mapping is
    built when met, and a sequence filled after the mapping holding it, breadth first.
    """
    constructor, anchors, errors, stack = SafeConstructor(), {}, {}, []
    # the innermost open collection: the list or dict being filled, what it awaits (_ITEM,
    # _KEY or a key's value), the place in the filling order of the sequence it lies in,
    # and its start event; the root value goes into a list of its own
    top = doc = []
    pending, fill, opened = _ITEM, (0,), None

    def fail(problem, mark):  # keeps the first error at the current event; the value reads None
        errors.setdefault((fill, index), ConfigSyntaxError(problem, line=mark.line + 1))

    try:
        for index, event in enumerate(yaml.parse(text, Loader=Loader)):
            kind = type(event)
            if kind is ScalarEvent:
                value, tag, node = event.value, event.tag, event
                if tag is None or tag == "!":
                    tag = _plain_tag(value) if event.implicit[0] else _STR_TAG
                if tag != _STR_TAG:
                    try:
                        value = constructor.construct_document(
                            yaml.ScalarNode(tag, value, event.start_mark, event.end_mark))
                    except ConstructorError as exc:  # as in a ``!!binary`` that is not base64
                        value = fail(exc.problem, exc.problem_mark)
                    except (ValueError, KeyError, AttributeError):  # as in ``0b_``, ``!!bool x``
                        value = fail(f"could not construct a value for the tag {tag!r}",
                                     event.start_mark)
                if event.anchor is not None:
                    _anchor(anchors, event, value)
            elif kind is MappingStartEvent or kind is SequenceStartEvent:
                if event.tag not in (None, "!", _TAGS[kind]):
                    fail(f"found the unsupported tag {event.tag!r}", event.start_mark)
                stack.append((top, pending, fill, opened))
                if len(stack) > MAX_DEPTH:
                    line = event.start_mark.line + 1
                    raise ConfigSyntaxError(f"nesting deeper than {MAX_DEPTH} levels", line=line)
                if kind is MappingStartEvent:
                    top, pending = {}, _KEY
                else:  # sequences fill a level at a time, in their parents' order, then their own
                    top, pending, fill = [], _ITEM, (fill[0] + 1, fill, index)
                opened = event
                if event.anchor is not None:
                    _anchor(anchors, event, top)
                continue
            elif kind is MappingEndEvent or kind is SequenceEndEvent:
                value, node = top, opened
                top, pending, fill, opened = stack.pop()
            elif kind is AliasEvent:
                if event.anchor not in anchors:
                    line = event.start_mark.line + 1
                    raise ConfigSyntaxError(f"found undefined alias {event.anchor!r}", line=line)
                value, node = anchors[event.anchor]
                # a mapping still open, with no sequence in between, cannot hold itself
                for holder in chain((top,), (frame[0] for frame in reversed(stack))):
                    if holder is value and type(value) is dict:
                        fail("found unconstructable recursive node", node.start_mark)
                    if holder is value or type(holder) is list:
                        break
            else:  # the stream's or a document's start or end
                if kind is DocumentStartEvent and doc:
                    raise ConfigSyntaxError("expected a single document in the stream, but found "
                                            "another document", line=event.start_mark.line + 1)
                continue
            if pending is _ITEM:
                top.append(value)
            elif pending is not _KEY:
                top[pending] = value
                pending = _KEY
            else:  # a key, checked before its value is built
                try:
                    if value in top:
                        fail(f"duplicate key {value!r}", node.start_mark)
                except TypeError:
                    fail("found unhashable key", node.start_mark)
                    value = object()  # stands in for the key, so that the pass goes on
                pending = value
        if errors:
            raise errors[min(errors)]
    except yaml.reader.ReaderError as exc:  # no mark, and libyaml's position counts bytes
        problem = f"special character #x{exc.character:04x} is not allowed"
        line = text.count("\n", 0, text.index(chr(exc.character))) + 1
        raise ConfigSyntaxError(problem, line=line) from exc
    except yaml.MarkedYAMLError as exc:  # the scanner's or parser's wording, without its marks
        problem = "; ".join(part for part in (exc.context, exc.problem) if part)
        raise ConfigSyntaxError(problem, line=exc.problem_mark.line + 1) from exc
    return doc[0] if doc else None


def _plain_tag(value: str) -> str:
    """The tag that a plain scalar reading ``value`` resolves to."""
    for tag, pattern in Resolver.yaml_implicit_resolvers.get(value[:1], ()):
        if pattern.match(value):
            return tag
    return _STR_TAG


def _anchor(anchors: dict, event, value):
    """Remember an anchored node's value; an anchor may be given only once."""
    if event.anchor in anchors:
        first = anchors[event.anchor][1].start_mark.line + 1
        problem = f"found duplicate anchor {event.anchor!r}, first given at line {first}"
        raise ConfigSyntaxError(problem, line=event.start_mark.line + 1)
    anchors[event.anchor] = value, event


def dump(doc) -> str:
    """Block-style YAML with keys in insertion order and no folded lines."""
    return dump_each((doc,))[0]


def dump_each(docs) -> list[str]:
    """``dump`` of each document, in order, working out each distinct string's
    quoting once for all of them; nothing is kept once the call returns."""
    table: dict = {}  # string -> its written text, shared by every document of the call
    keys: dict = {}  # string key -> its written text, for the keys written before ": "
    return [_write(doc, table, keys) for doc in docs]


def _write(doc, table: dict, keys: dict) -> str:
    if type(doc) is str:  # a root scalar's later lines are indented too
        return _text(table, doc, "  ") + "\n"
    out = _Pieces()
    _item(out, doc, "", "", table, keys)
    out.flush()
    return "".join(out.chunks)


# a piece costs a pointer, about what a piece's text costs, so the pieces are
# joined into a chunk once a mapping entry leaves more than this many
_PIECES_PER_CHUNK = 4096


class _Pieces(list):
    """The pieces of the text being written, and the chunks joined so far."""

    def __init__(self):
        super().__init__()
        self.chunks: list[str] = []

    def flush(self):
        self.chunks.append("".join(self))
        self.clear()


# A collection's keys or dashes sit at column len(pad).  Its first line starts
# with ``first`` instead of ``pad``: with "- " or ": " when the collection is
# an item or an explicit key's value, written on that item's line.  Each line
# goes into ``out`` as its pieces, most of them strings that exist already.
# A scalar's later lines are indented two columns past its collection's pad.


def _mapping(out: list, data: dict, pad: str, first: str, table: dict, keys: dict):
    inner = pad + "  "
    prefix = first
    for key, value in data.items():
        k = keys.get(key)
        if k is None:
            k = _simple_key(key, inner, table, keys)
            if k is None:  # libyaml writes it after "? ", and its value after ": "
                text = _text(table, key, inner) if type(key) is str else _scalar(key)
                out += prefix, "? ", text, "\n"
                _item(out, value, inner, pad + ": ", table, keys)
                prefix = pad
                continue
        kind = type(value)
        if kind is str:
            v = table.get(value)
            if v is None:
                v = _text(table, value, inner)
            out += prefix, k, ": ", v, "\n"
        elif kind is dict and value:
            out += prefix, k, ":\n"
            _mapping(out, value, inner, inner, table, keys)
        elif kind is list and value:  # a sequence in a mapping is not indented
            out += prefix, k, ":\n"
            _sequence(out, value, pad, pad, table, keys)
        else:
            out += prefix, k, ": ", _scalar(value), "\n"
        prefix = pad
        if len(out) > _PIECES_PER_CHUNK:
            out.flush()


def _sequence(out: list, data: list, pad: str, first: str, table: dict, keys: dict):
    inner = pad + "  "
    lead, dash = first + "- ", pad + "- "
    for item in data:
        if type(item) is str:
            v = table.get(item)
            if v is None:
                v = _text(table, item, inner)
            out += lead, v, "\n"
        else:
            _item(out, item, inner, lead, table, keys)
        lead = dash


def _item(out: list, data, pad: str, lead: str, table: dict, keys: dict):
    """``data`` written after ``lead``, on its line; ``lead`` is as long as ``pad``."""
    kind = type(data)
    if kind is dict and data:
        _mapping(out, data, pad, lead, table, keys)
    elif kind is list and data:
        _sequence(out, data, pad, lead, table, keys)
    else:
        text = _text(table, data, pad) if kind is str else _scalar(data)
        out += lead, text, "\n"


# a simple key is at most this many UTF-8 bytes long and on one line
_SIMPLE_KEY_BYTES = 128
# what libyaml takes as a line break
_BREAKS = frozenset("\n\r\x85\u2028\u2029")


def _simple_key(key, indent: str, table: dict, keys: dict) -> str | None:
    """``key`` as written before ": ", remembered in ``keys`` if it is a string;
    None if libyaml writes it after "? " instead."""
    if type(key) is not str:
        text = _scalar(key)
        return text if len(text) <= _SIMPLE_KEY_BYTES else None
    if not _BREAKS.isdisjoint(key) or len(key.encode()) > _SIMPLE_KEY_BYTES:
        return None
    text = keys[key] = _text(table, key, indent)
    return text


_represent = SafeRepresenter()


def _scalar(data) -> str:
    """How a value other than a string or a non-empty collection is written."""
    kind = type(data)
    if kind is int:
        return str(data)
    if kind is bool:
        return "true" if data else "false"
    if data is None:
        return "null"
    if kind is float:
        return _represent.represent_float(data).value
    if kind is dict or kind is list:  # empty, as a flow collection
        return "{}" if kind is dict else "[]"
    raise RepresenterError("cannot represent an object", data)


# the first characters that keep a string from being written plain
_INDICATORS = frozenset("#,[]{}&*!|>'\"%@` ")
# the first and the last line break of each run of them
_RUN_START, _RUN_END = re.compile(r"(?<!\n)\n"), re.compile(r"\n(?!\n)")


def _text(table: dict, s: str, indent: str) -> str:
    """How ``s`` is written, remembered in ``table``; ``indent`` starts its later lines.

    libyaml writes a string plain when it is one line of printable ASCII whose
    plain form reads back as that string, else single-quoted when it is lines
    of printable ASCII with no space next to a line break, else double-quoted.
    """
    text = table.get(s)
    if text is not None:
        return text
    if s.isascii() and s.isprintable():
        text = s if _plain(s) else "'" + s.replace("'", "''") + "'"
    elif s.isascii() and s.replace("\n", "").isprintable() and " \n" not in s and "\n " not in s:
        # a run of line breaks is written with one break more, as a lone one
        # would read back as a space, then the indentation; as the text
        # depends on the indentation, it is not remembered
        body = _RUN_START.sub("\n\n", s.replace("'", "''"))
        return "'" + _RUN_END.sub("\n" + indent, body) + "'"
    else:
        text = _double(s)
    table[s] = text
    return text


def _plain(s: str) -> bool:
    """Whether libyaml writes ``s``, one line of printable ASCII, plain."""
    if not s or s[0] in _INDICATORS or s[-1] in " :" or s.startswith(("---", "...")):
        return False
    if s[0] in "?-" and s[1:2] in ("", " "):  # an indicator followed by a space or the end
        return False
    return ": " not in s and " #" not in s and _plain_tag(s) == _STR_TAG


def _escape(char: str) -> str:
    code = ord(char)
    if code <= 0xFF:
        return f"\\x{code:02X}"
    return f"\\u{code:04X}" if code <= 0xFFFF else f"\\U{code:08X}"


# what a double-quoted string writes for each character it escapes besides
# '\\', '"' and a line break: the other ASCII control characters and, as no
# output is Unicode, every character past ASCII
_ESCAPES = {code: _escape(chr(code)) for code in (*range(0x20), 0x7F)}
_ESCAPES.update({ord(char): "\\" + name for char, name in (
    ("\0", "0"), ("\a", "a"), ("\b", "b"), ("\t", "t"), ("\v", "v"), ("\f", "f"), ("\r", "r"),
    ("\x1b", "e"), ("\x85", "N"), ("\xa0", "_"), ("\u2028", "L"), ("\u2029", "P"),
)})


def _double(s: str) -> str:
    text = s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    if not (text.isascii() and text.isprintable()):
        # one table entry per distinct character past ASCII, not a call per match
        text = text.translate({**{ord(c): _escape(c) for c in set(text) if not c.isascii()},
                               **_ESCAPES})
    return f'"{text}"'

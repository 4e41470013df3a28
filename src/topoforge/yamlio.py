"""The YAML backend every load and dump in topoforge goes through.

libyaml's C classes when PyYAML was built with them, else PyYAML's pure-Python
classes.  ``load`` builds what SafeLoader builds, in one pass over the
parser's events with no node tree, but raises a one-line ``ConfigSyntaxError``
at its line for any error, a duplicate or unhashable key, a tagged collection
or nesting deeper than ``MAX_DEPTH`` included; only the scanner's and parser's
errors are worded by the backend.  ``dump`` walks the document's dicts, lists
and scalars itself and feeds the emitter a stream of ``yaml.events``, so no
node tree is built and no representer runs.  Both emitters write the same
bytes for that stream: they differ only in where they fold long scalars, and
``dump`` uses a line width wide enough that nothing is ever folded.  The
writer makes no anchors: a sub-object that a document holds twice is written
out twice.
"""

from __future__ import annotations

from itertools import chain

import yaml
from yaml.constructor import ConstructorError, SafeConstructor
from yaml.events import AliasEvent, DocumentStartEvent, MappingEndEvent, MappingStartEvent
from yaml.events import ScalarEvent, SequenceEndEvent, SequenceStartEvent
from yaml.representer import RepresenterError, SafeRepresenter
from yaml.resolver import Resolver

from .errors import ConfigSyntaxError

Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

WIDTH = 100000
# collections open at once: the config schema nests 8 deep, and code that
# recurses once per level, as repr and == do, stops at 1000 levels
MAX_DEPTH = 200

_STR_TAG = Resolver.DEFAULT_SCALAR_TAG
# the tag a collection may carry, besides none and the non-specific "!"
_TAGS = {MappingStartEvent: "tag:yaml.org,2002:map", SequenceStartEvent: "tag:yaml.org,2002:seq"}
_KEY, _ITEM = object(), object()  # what an open mapping or sequence awaits next
# the text and tag that SafeDumper writes for every other scalar
_represent = SafeRepresenter()
_SCALARS = {
    bool: _represent.represent_bool,
    int: _represent.represent_int,
    float: _represent.represent_float,
    type(None): _represent.represent_none,
}
_START = (yaml.StreamStartEvent(), yaml.DocumentStartEvent(explicit=False))
_MAP_START = yaml.MappingStartEvent(None, None, True, flow_style=False)
_MAP_END = yaml.MappingEndEvent()
_SEQ_START = yaml.SequenceStartEvent(None, None, True, flow_style=False)
_SEQ_END = yaml.SequenceEndEvent()


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
    return yaml.emit(_document(doc), Dumper=Dumper, width=WIDTH)


def _document(doc):
    # a string is written plain when its plain form reads back as a string,
    # else quoted; each distinct string is resolved once per document
    plain: dict[str, tuple[bool, bool]] = {}
    yield from _START
    # the open containers, innermost last: an iterator over each one's items
    # (a mapping's keys and values in turn) and the event that closes it
    stack = [(iter((doc,)), yaml.DocumentEndEvent(explicit=False))]
    while stack:
        items, end = stack[-1]
        for data in items:
            kind = type(data)
            if kind is str:
                implicit = plain.get(data)
                if implicit is None:
                    implicit = plain[data] = (_plain_tag(data) == _STR_TAG, True)
                yield ScalarEvent(None, _STR_TAG, implicit, data)
            elif kind is dict:
                yield _MAP_START
                stack.append((chain.from_iterable(data.items()), _MAP_END))
                break
            elif kind is list:
                yield _SEQ_START
                stack.append((iter(data), _SEQ_END))
                break
            elif kind in _SCALARS:
                node = _SCALARS[kind](data)
                yield ScalarEvent(None, node.tag, (True, False), node.value)
            else:
                raise RepresenterError("cannot represent an object", data)
        else:
            stack.pop()
            yield end
    yield yaml.StreamEndEvent()

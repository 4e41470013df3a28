"""The YAML backend every load and dump in topoforge goes through.

libyaml's C classes when PyYAML was built with them, else PyYAML's
pure-Python classes.  ``load`` builds what SafeLoader builds, in one walk
over the composed node tree, but raises ``ConfigSyntaxError`` at its line
for any error, a duplicate or unhashable key or nesting deeper than
``MAX_DEPTH`` included.  ``dump`` walks the document's dicts, lists and scalars
itself and feeds the emitter a stream of ``yaml.events``, so no node tree is
built and no representer runs.  Both emitters write the same bytes for that
stream: they differ only in where they fold long scalars, and ``dump`` uses
a line width wide enough that nothing is ever folded.  The writer makes no
anchors: a sub-object that a document holds twice is written out twice.
"""

from __future__ import annotations

from itertools import chain

import yaml
from yaml.constructor import ConstructorError, SafeConstructor
from yaml.events import CollectionEndEvent, CollectionStartEvent, ScalarEvent
from yaml.representer import RepresenterError, SafeRepresenter
from yaml.resolver import Resolver

from .errors import ConfigSyntaxError

Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

WIDTH = 100000
# collections open at once: the config schema nests 8 deep, and both
# composers recurse once per level, libyaml's on the C stack
MAX_DEPTH = 200

_STR_TAG = Resolver.DEFAULT_SCALAR_TAG
_resolve = Resolver().resolve
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

    As in SafeConstructor, an alias shares its anchor's value, and a mapping is built when
    met but a sequence after the mapping holding it: so the same error comes first, and a
    sequence can hold itself but a mapping cannot.
    """
    constructor = SafeConstructor()
    built = {}
    open_mappings = set()
    unfilled = []  # (list, item nodes), in the order SafeConstructor fills them

    def build(node):
        if node.tag == _STR_TAG and type(node) is yaml.ScalarNode:
            return node.value
        if node in built:
            return built[node]
        if node.tag == Resolver.DEFAULT_MAPPING_TAG and type(node) is yaml.MappingNode:
            if node in open_mappings:
                raise ConstructorError(
                    None, None, "found unconstructable recursive node", node.start_mark
                )
            open_mappings.add(node)
            value = {}
            for key_node, value_node in node.value:
                key = build(key_node)
                try:
                    duplicate = key in value
                except TypeError:
                    raise ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        "found unhashable key", key_node.start_mark,
                    ) from None
                if duplicate:
                    raise ConfigSyntaxError(
                        f"duplicate key {key!r}", line=key_node.start_mark.line + 1
                    )
                value[key] = build(value_node)
            open_mappings.remove(node)
        elif node.tag == Resolver.DEFAULT_SEQUENCE_TAG and type(node) is yaml.SequenceNode:
            value = []
            unfilled.append((value, node.value))
        else:
            try:
                value = constructor.construct_document(node)
            except (ValueError, KeyError, AttributeError):
                # SafeConstructor's own parse of a malformed scalar, as in
                # ``0b_`` or ``!!bool maybe``
                raise ConstructorError(
                    None, None, f"could not construct a value for the tag {node.tag!r}",
                    node.start_mark,
                ) from None
        built[node] = value
        return value

    try:
        # a flow collection opens at a bracket and a block one needs a column,
        # so only brackets or a long line can nest that deep
        if text.count("[") + text.count("{") + max(map(len, text.split("\n"))) > MAX_DEPTH:
            _check_depth(text)
        root = yaml.compose(text, Loader=Loader)
        doc = None if root is None else build(root)
        for items, nodes in unfilled:  # grows as the sequences it fills are built
            items.extend([build(node) for node in nodes])
        return doc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        raise ConfigSyntaxError(str(exc), line=mark and mark.line + 1) from exc
    finally:
        del build  # it calls itself: a reference cycle that would keep every node until GC


def _check_depth(text: str):
    depth = 0
    try:
        for event in yaml.parse(text, Loader=Loader):
            if isinstance(event, CollectionStartEvent):
                depth += 1
                if depth > MAX_DEPTH:
                    raise ConfigSyntaxError(
                        f"nesting deeper than {MAX_DEPTH} levels",
                        line=event.start_mark.line + 1,
                    )
            elif isinstance(event, CollectionEndEvent):
                depth -= 1
    except yaml.YAMLError:
        pass  # compose stops at this error, or an earlier one, and reports it


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
                    resolved = _resolve(yaml.ScalarNode, data, (True, False))
                    implicit = plain[data] = (resolved == _STR_TAG, True)
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

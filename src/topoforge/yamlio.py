"""The YAML backend every load and dump in topoforge goes through.

libyaml's C classes when PyYAML was built with them, else PyYAML's
pure-Python classes.  ``dump`` walks the document's dicts, lists and scalars
itself and feeds the emitter a stream of ``yaml.events``, so no node tree is
built and no representer runs.  Both emitters write the same bytes for that
stream: they differ only in where they fold long scalars, and ``dump`` uses
a line width wide enough that nothing is ever folded.  The writer makes no
anchors: a sub-object that a document holds twice is written out twice.
"""

from __future__ import annotations

from itertools import chain

import yaml
from yaml.events import ScalarEvent
from yaml.representer import RepresenterError, SafeRepresenter
from yaml.resolver import Resolver

Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

WIDTH = 100000

_STR_TAG = "tag:yaml.org,2002:str"
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

"""The YAML backend every load and dump in topoforge goes through.

libyaml's C classes when PyYAML was built with them, else PyYAML's
pure-Python classes.  Both write the same bytes for topoforge's documents:
the two emitters differ only in where they fold long scalars, and ``dump``
uses a line width wide enough that nothing is ever folded.
"""

from __future__ import annotations

import yaml

Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

WIDTH = 100000


def dump(doc) -> str:
    """Block-style YAML with keys in insertion order and no folded lines."""
    return yaml.dump(
        doc, Dumper=Dumper, sort_keys=False, default_flow_style=False, width=WIDTH
    )

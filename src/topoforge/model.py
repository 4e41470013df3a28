"""Topology description data model.

The types here mirror the configuration document one-to-one.  Parsing of the
document lives in :mod:`topoforge.parser`; structural validation across
entities lives in :mod:`topoforge.validation`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .errors import PathSyntaxError, SchemaError

NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")

_RATE_BITS = {"kbit": 1_000, "mbit": 1_000_000, "gbit": 1_000_000_000}

# Options given as percentages, in netem parameter order.
PERCENT_OPTIONS = ("loss", "corrupt", "duplicate", "reorder")


@dataclass(frozen=True)
class Rate:
    """A link rate literal, e.g. ``100mbit``."""

    value: float
    unit: str  # a key of _RATE_BITS

    @property
    def bits_per_second(self) -> float:
        return self.value * _RATE_BITS[self.unit]

    def __str__(self) -> str:
        return f"{format_number(self.value)}{self.unit}"


def format_number(x: float) -> str:
    """Render a float without a trailing ``.0`` when it is integral."""
    if x == int(x):
        return str(int(x))
    return repr(x)


def format_us(x: float) -> str:
    return f"{format_number(x)}us"


def format_percent(x: float) -> str:
    return f"{format_number(x)}%"


def to_float(value: int | float, entity=None, fieldname=None) -> float:
    """A document number as a float: an int too large for a float is a
    SchemaError, where ``float`` would raise OverflowError."""
    try:
        return float(value)
    except OverflowError:
        raise SchemaError("number too large for a float", entity, fieldname) from None


_RATE_RE = re.compile(rf"\s*(\d+(?:\.\d+)?)\s*({'|'.join(_RATE_BITS)})\s*")


def parse_rate(value, *, entity=None, fieldname="rate") -> Rate:
    if isinstance(value, Rate):
        return value
    if not isinstance(value, str):
        raise SchemaError(
            f"rate must be a string like '100mbit', got {value!r}", entity, fieldname
        )
    m = _RATE_RE.fullmatch(value)
    if not m:
        raise SchemaError(f"cannot parse rate literal {value!r}", entity, fieldname)
    return Rate(float(m.group(1)), m.group(2))


def parse_duration_us(value, *, entity=None, fieldname=None) -> float:
    """Parse a time literal to microseconds.

    Accepts bare numbers (already microseconds) or strings with a ``us``,
    ``ms``, or ``s`` suffix.
    """
    if isinstance(value, bool):
        raise SchemaError(f"expected a duration, got {value!r}", entity, fieldname)
    if isinstance(value, (int, float)):
        return to_float(value, entity, fieldname)
    if isinstance(value, str):
        m = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*(us|ms|s)?\s*", value)
        if m and m.group(1):
            scale = {"us": 1.0, "ms": 1_000.0, "s": 1_000_000.0, None: 1.0}[m.group(2)]
            return float(m.group(1)) * scale
    raise SchemaError(f"cannot parse time literal {value!r}", entity, fieldname)


def parse_percent(value, *, entity=None, fieldname=None) -> float:
    """Parse a percent literal; the trailing ``%`` is optional."""
    if isinstance(value, bool):
        raise SchemaError(f"expected a percentage, got {value!r}", entity, fieldname)
    if isinstance(value, (int, float)):
        return to_float(value, entity, fieldname)
    if isinstance(value, str):
        m = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*%?\s*", value)
        if m:
            return float(m.group(1))
    raise SchemaError(f"cannot parse percent literal {value!r}", entity, fieldname)


def parse_strict_int(value, *, entity=None, fieldname=None) -> int:
    """Accept only actual integers; no string coercion."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"expected an integer, got {value!r}", entity, fieldname)
    return value


# Each impairment option's (parse, format) pair: ``parse(value, entity=...,
# fieldname=...)`` reads a document literal, ``format`` writes one back.
OPTION_KINDS = {
    "mtu": (parse_strict_int, lambda v: v),
    "buffer_size": (parse_strict_int, lambda v: v),
    "rate": (parse_rate, str),
    "delay": (parse_duration_us, format_us),
    "jitter": (parse_duration_us, format_us),
    "loss": (parse_percent, format_percent),
    "corrupt": (parse_percent, format_percent),
    "duplicate": (parse_percent, format_percent),
    "reorder": (parse_percent, format_percent),
}

# Impairment option names that a timer may override.
TIMED_OPTIONS = tuple(OPTION_KINDS)


@dataclass(frozen=True)
class Path:
    """An ordered hop sequence, e.g. parsed from ``r1->r2->s1``."""

    hops: tuple[str, ...]

    def __post_init__(self):
        if not self.hops:
            raise PathSyntaxError("path has no hops")

    def __str__(self) -> str:
        return "->".join(self.hops)


def parse_path(s: str) -> Path:
    """Split a path string on the two-character ``->`` separator.

    Hops are trimmed of surrounding whitespace; empty hops (including those
    produced by a leading or trailing separator) are rejected.
    """
    if not isinstance(s, str):
        raise PathSyntaxError(f"path must be a string, got {s!r}")
    if not s.strip():
        raise PathSyntaxError(f"empty path string: {s!r}")
    hops = [h.strip() for h in s.split("->")]
    if any(not h for h in hops):
        raise PathSyntaxError(f"empty hop in path {s!r}")
    return Path(tuple(hops))


@dataclass(frozen=True)
class TimerSpec:
    """A scheduled temporary override of one impairment option."""

    option: str
    start: float  # seconds since container launch
    duration: float  # seconds the override stays active
    new_value: object  # typed like the named option


@dataclass(frozen=True)
class ImpairmentSpec:
    """Network options attached to one connection.

    Time values are canonical microseconds, percents are plain floats in
    [0, 100], and ``rate`` is a :class:`Rate`.
    """

    mtu: int | None = None
    buffer_size: int | None = None
    rate: Rate | None = None
    delay: float | None = None
    jitter: float | None = None
    loss: float | None = None
    corrupt: float | None = None
    duplicate: float | None = None
    reorder: float | None = None
    timers: tuple[TimerSpec, ...] = ()


def merge_declarations(
    first: ImpairmentSpec, later: ImpairmentSpec
) -> tuple[ImpairmentSpec, list[str], list[str]]:
    """Merge a later declaration of options for the same link or interface.

    The first declaration of each option, and of the timer list, wins.
    Returns the merged spec, the options taken from ``later``, and the
    options that ``later`` sets to a different value and that are dropped.
    """
    taken: dict[str, object] = {}
    dropped: list[str] = []
    for name in TIMED_OPTIONS + ("timers",):
        value = getattr(later, name)
        if value is None or value == ():
            continue
        current = getattr(first, name)
        if current is None or current == ():
            taken[name] = value
        elif current != value:
            dropped.append(name)
    return (replace(first, **taken) if taken else first), list(taken), dropped


@dataclass(frozen=True)
class ConnectionSpec:
    """A declared connection: a hop path plus optional url and impairments."""

    path: Path
    url: str | None = None  # present only on service-side connections
    options: ImpairmentSpec = field(default_factory=ImpairmentSpec)


@dataclass(frozen=True)
class EndpointSpec:
    entrypoint: str
    psize: int
    connections: tuple[ConnectionSpec, ...] = ()


@dataclass(frozen=True)
class ServiceSpec:
    name: str
    port: int
    endpoints: tuple[EndpointSpec, ...]


@dataclass(frozen=True)
class RouterSpec:
    name: str
    connections: tuple[ConnectionSpec, ...]


EntitySpec = ServiceSpec | RouterSpec


@dataclass(frozen=True)
class TopologyConfig:
    """The parsed, not yet validated, topology description.

    ``entities`` preserves document declaration order.
    """

    entities: dict[str, EntitySpec]

    def services(self) -> dict[str, ServiceSpec]:
        return {n: e for n, e in self.entities.items() if isinstance(e, ServiceSpec)}

    def routers(self) -> dict[str, RouterSpec]:
        return {n: e for n, e in self.entities.items() if isinstance(e, RouterSpec)}

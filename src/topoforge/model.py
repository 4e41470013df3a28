"""Topology description data model.

The types here mirror the configuration document one-to-one.  Parsing of the
document lives in :mod:`topoforge.parser`; structural validation across
entities lives in :mod:`topoforge.validation`.

:data:`OPTION_KINDS` describes each impairment option once, for the parser,
validation and netplan alike: its literal's reader and writer, its valid
range and its netem keyword.
"""

from __future__ import annotations

import math
import re
import reprlib
from dataclasses import dataclass, field, replace
from typing import Callable

from .errors import PathSyntaxError, SchemaError

NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")

# show(value): the repr of a document value in an error message, bounded in
# depth and length, as a few hundred bytes of aliases can nest into gigabytes
_SHOW = reprlib.Repr()
_SHOW.maxlevel = 2
_SHOW.maxstring = _SHOW.maxother = 200
show = _SHOW.repr


# the units of each literal kind, read by _read_literal; the empty unit is a
# bare number
_LITERAL_RE = re.compile(r"\s*(\d+(?:\.\d+)?)\s*([a-z%]*)\s*")
_RATE_BITS = {"kbit": 1_000, "mbit": 1_000_000, "gbit": 1_000_000_000}
_DURATION_US = {"us": 1.0, "ms": 1_000.0, "s": 1_000_000.0, "": 1.0}
_PERCENT = {"%": 1.0, "": 1.0}


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
    """Positional digits that read back as the same float, with no trailing
    ``.0``: repr writes exponents below 1e-4, which no literal reader takes."""
    if x == int(x):
        return str(int(x))
    text = repr(x)
    if "e" in text:  # shift repr's digits behind the point
        digits, _e, exponent = repr(abs(x)).partition("e")
        text = f"{'-' * (x < 0)}0.{'0' * (-int(exponent) - 1)}{digits.replace('.', '')}"
    return text


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


def _read_literal(value, kind: str, units: dict, entity, fieldname) -> tuple[float, str]:
    """(number, unit) of a ``<number><unit>`` literal whose unit is a key of
    ``units``; where the empty unit is one, a document number reads too."""
    if "" in units and isinstance(value, (int, float)) and not isinstance(value, bool):
        return to_float(value, entity, fieldname), ""
    m = _LITERAL_RE.fullmatch(value) if isinstance(value, str) else None
    if not m or m.group(2) not in units:
        raise SchemaError(f"cannot parse {kind} literal {show(value)}", entity, fieldname)
    return float(m.group(1)), m.group(2)


def parse_rate(value, *, entity=None, fieldname="rate") -> Rate:
    return Rate(*_read_literal(value, "rate", _RATE_BITS, entity, fieldname))


def parse_duration_us(value, *, entity=None, fieldname=None) -> float:
    """Microseconds of a time literal; a bare number is microseconds."""
    number, unit = _read_literal(value, "time", _DURATION_US, entity, fieldname)
    return number * _DURATION_US[unit]


def parse_percent(value, *, entity=None, fieldname=None) -> float:
    """The number of a percent literal; the ``%`` is optional."""
    return _read_literal(value, "percent", _PERCENT, entity, fieldname)[0]


def parse_strict_int(value, *, entity=None, fieldname=None) -> int:
    """Accept only actual integers; no string coercion."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"expected an integer, got {show(value)}", entity, fieldname)
    return value


@dataclass(frozen=True)
class OptionKind:
    """``parse(value, entity=..., fieldname=...)`` reads a document literal
    and ``format`` writes one back; valid values (of a rate, its number) are
    finite and in [low, high]; ``keyword`` is the netem parameter, if any."""

    parse: Callable
    format: Callable
    low: float
    high: float
    keyword: str | None

    def out_of_range(self, name: str, value) -> str | None:
        """Why ``value`` of option ``name`` is out of range; None if it is in range."""
        number = value.value if isinstance(value, Rate) else value
        if self.low <= number <= self.high and number < math.inf:
            return None
        end = f"{self.high}]" if self.high < math.inf else "inf)"
        return f"{name} outside [{self.low}, {end}, got {show(number)}"


# One row per option, in netem parameter order (man tc-netem(8)).  A timer
# may override any of them.
OPTION_KINDS = {
    "mtu": OptionKind(parse_strict_int, lambda v: v, 68, 65_535, None),
    # netem's limit is a __u32 (struct tc_netem_qopt)
    "buffer_size": OptionKind(parse_strict_int, lambda v: v, 1, 4_294_967_295, "limit"),
    "rate": OptionKind(parse_rate, str, 0, math.inf, "rate"),
    "delay": OptionKind(parse_duration_us, format_us, 0, math.inf, "delay"),
    # netem takes jitter as delay's second argument
    "jitter": OptionKind(parse_duration_us, format_us, 0, math.inf, None),
    "loss": OptionKind(parse_percent, format_percent, 0, 100, "loss"),
    "corrupt": OptionKind(parse_percent, format_percent, 0, 100, "corrupt"),
    "duplicate": OptionKind(parse_percent, format_percent, 0, 100, "duplicate"),
    "reorder": OptionKind(parse_percent, format_percent, 0, 100, "reorder"),
}


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
        raise PathSyntaxError(f"path must be a string, got {show(s)}")
    if not s.strip():
        raise PathSyntaxError(f"empty path string: {show(s)}")
    hops = [h.strip() for h in s.split("->")]
    if any(not h for h in hops):
        raise PathSyntaxError(f"empty hop in path {show(s)}")
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
    for name in (*OPTION_KINDS, "timers"):
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

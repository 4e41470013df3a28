"""Parsing and serialization of the topology configuration document.

The document is YAML: a top-level mapping of entity name to entity body,
following the service/router templates.  Unknown keys anywhere are hard
errors; numeric fields are never coerced from strings.
"""

from __future__ import annotations

import math

from . import yamlio
from .errors import PathSyntaxError, SchemaError
from .model import (
    NAME_RE,
    OPTION_KINDS,
    ConnectionSpec,
    EndpointSpec,
    ImpairmentSpec,
    RouterSpec,
    ServiceSpec,
    TimerSpec,
    TopologyConfig,
    parse_path,
    parse_strict_int,
    show,
    to_float,
)

_SERVICE_KEYS = {"type", "port", "endpoints"}
_ROUTER_KEYS = {"type", "connections"}
_ENDPOINT_KEYS = {"entrypoint", "psize", "connections"}
_OPTION_KEYS = {*OPTION_KINDS, "timers"}
_SERVICE_CONN_KEYS = {"path", "url"} | _OPTION_KEYS
_ROUTER_CONN_KEYS = {"path"} | _OPTION_KEYS
_TIMER_KEYS = {"option", "start", "duration", "newValue"}


def parse_config(text: str) -> TopologyConfig:
    """Parse a configuration document into a :class:`TopologyConfig`."""
    doc = yamlio.load(text)
    if not isinstance(doc, dict) or not doc:
        raise SchemaError("document must be a non-empty mapping of entities")

    entities = {}
    for name, body in doc.items():
        if not isinstance(name, str) or not NAME_RE.match(name):
            raise SchemaError(
                f"invalid entity name {show(name)} (expected [A-Za-z0-9_-]+)"
            )
        entities[name] = _parse_entity(name, body)
    if not any(isinstance(e, ServiceSpec) for e in entities.values()):
        raise SchemaError("at least one service must be specified")
    return TopologyConfig(entities=entities)


def _mapping(value, entity: str, what: str, allowed: set) -> dict:
    """``value`` as the ``what`` mapping, whose keys must all be in ``allowed``."""
    if not isinstance(value, dict):
        raise SchemaError(f"{what} must be a mapping, got {type(value).__name__}", entity)
    unknown = set(value) - allowed
    if unknown:
        raise SchemaError(
            f"unknown key(s) in {what}: {', '.join(sorted(map(str, unknown)))}", entity
        )
    return value


def _optional_list(body: dict, key: str, entity: str) -> list:
    """An optional list field: absent or null reads as empty."""
    value = body.get(key)
    if value is not None and not isinstance(value, list):
        raise SchemaError(f"{key} must be a list", entity, key)
    return value or []


def _parse_entity(name: str, body) -> ServiceSpec | RouterSpec:
    if not isinstance(body, dict):
        raise SchemaError(f"entity body must be a mapping, got {type(body).__name__}", name)
    kind = body.get("type")
    if kind == "service":
        return _parse_service(name, _mapping(body, name, "service", _SERVICE_KEYS))
    if kind == "router":
        return _parse_router(name, _mapping(body, name, "router", _ROUTER_KEYS))
    raise SchemaError(
        f"type must be 'service' or 'router', got {show(kind)}", name, "type"
    )


def _parse_service(name: str, body: dict) -> ServiceSpec:
    if "port" not in body:
        raise SchemaError("missing required field", name, "port")
    port = parse_strict_int(body["port"], entity=name, fieldname="port")
    eps = body.get("endpoints")
    if not isinstance(eps, list) or not eps:
        raise SchemaError("endpoints must be a non-empty list", name, "endpoints")
    endpoints = tuple(_parse_endpoint(name, ep) for ep in eps)
    seen = set()
    for ep in endpoints:
        if ep.entrypoint in seen:
            raise SchemaError(
                f"duplicate entrypoint {show(ep.entrypoint)}", name, "endpoints"
            )
        seen.add(ep.entrypoint)
    return ServiceSpec(name=name, port=port, endpoints=endpoints)


def _parse_endpoint(entity: str, body) -> EndpointSpec:
    _mapping(body, entity, "endpoint", _ENDPOINT_KEYS)
    entrypoint = body.get("entrypoint")
    if not isinstance(entrypoint, str) or not entrypoint.startswith("/"):
        raise SchemaError(
            f"entrypoint must be a URL path starting with '/', got {show(entrypoint)}",
            entity,
            "entrypoint",
        )
    if "psize" not in body:
        raise SchemaError("missing required field", entity, "psize")
    psize = parse_strict_int(body["psize"], entity=entity, fieldname="psize")
    if psize < 1:
        raise SchemaError(f"psize must be >= 1, got {psize}", entity, "psize")
    conns = _optional_list(body, "connections", entity)
    connections = tuple(_parse_connection(entity, c, service_side=True) for c in conns)
    return EndpointSpec(entrypoint=entrypoint, psize=psize, connections=connections)


def _parse_router(name: str, body: dict) -> RouterSpec:
    conns = _optional_list(body, "connections", name)
    connections = tuple(_parse_connection(name, c, service_side=False) for c in conns)
    return RouterSpec(name=name, connections=connections)


def _parse_connection(entity: str, body, service_side: bool) -> ConnectionSpec:
    _mapping(body, entity, "connection", _SERVICE_CONN_KEYS if service_side else _ROUTER_CONN_KEYS)
    if "path" not in body:
        raise SchemaError("connection is missing 'path'", entity, "path")
    try:
        path = parse_path(body["path"])
    except PathSyntaxError as exc:
        raise PathSyntaxError(str(exc), entity, "path") from None
    url = body.get("url")
    if service_side:
        if not isinstance(url, str) or not url.startswith("/"):
            raise SchemaError(
                f"service connection needs a url starting with '/', got {show(url)}",
                entity,
                "url",
            )
    options = _parse_options(entity, body)
    return ConnectionSpec(path=path, url=url, options=options)


def _parse_options(entity: str, body: dict) -> ImpairmentSpec:
    kwargs = {
        key: kind.parse(body[key], entity=entity, fieldname=key)
        for key, kind in OPTION_KINDS.items()
        if key in body
    }
    kwargs["timers"] = tuple(_parse_timer(entity, t) for t in _optional_list(body, "timers", entity))
    return ImpairmentSpec(**kwargs)


def _parse_timer(entity: str, body) -> TimerSpec:
    _mapping(body, entity, "timer", _TIMER_KEYS)
    option = body.get("option")
    if not isinstance(option, str) or option not in OPTION_KINDS:
        raise SchemaError(
            f"timer option must be one of {', '.join(OPTION_KINDS)}, got {show(option)}",
            entity,
            "option",
        )
    for key in ("start", "duration", "newValue"):
        if key not in body:
            raise SchemaError(f"timer is missing '{key}'", entity, key)
    for key in ("start", "duration"):
        if isinstance(body[key], bool) or not isinstance(body[key], (int, float)):
            raise SchemaError(f"timer {key} must be a number", entity, key)
    start, duration = (to_float(body[key], entity, key) for key in ("start", "duration"))
    if not 0 <= start < math.inf:
        raise SchemaError("timer start must be finite and >= 0", entity, "start")
    if not 0 < duration < math.inf:
        raise SchemaError("timer duration must be finite and > 0", entity, "duration")
    new_value = OPTION_KINDS[option].parse(body["newValue"], entity=entity, fieldname="newValue")
    return TimerSpec(option=option, start=start, duration=duration, new_value=new_value)


# --- serialization -----------------------------------------------------------


def _format_option(name: str, value, entity: str, fieldname: str):
    problem = OPTION_KINDS[name].out_of_range(name, value)
    if problem:  # its literal would not parse back, or would not be the same value
        raise SchemaError(f"cannot serialize {problem}", entity, fieldname)
    return OPTION_KINDS[name].format(value)


def _options_to_dict(entity: str, opt: ImpairmentSpec) -> dict:
    out = {
        key: _format_option(key, getattr(opt, key), entity, key)
        for key in OPTION_KINDS
        if getattr(opt, key) is not None
    }
    if opt.timers:
        out["timers"] = [
            {
                "option": t.option,
                "start": t.start if t.start != int(t.start) else int(t.start),
                "duration": t.duration if t.duration != int(t.duration) else int(t.duration),
                "newValue": _format_option(t.option, t.new_value, entity, "newValue"),
            }
            for t in opt.timers
        ]
    return out


def config_to_dict(cfg: TopologyConfig) -> dict:
    doc = {}
    for name, ent in cfg.entities.items():
        if isinstance(ent, ServiceSpec):
            doc[name] = {
                "type": "service",
                "port": ent.port,
                "endpoints": [
                    {
                        "entrypoint": ep.entrypoint,
                        "psize": ep.psize,
                        **(
                            {
                                "connections": [
                                    {
                                        "path": str(c.path),
                                        "url": c.url,
                                        **_options_to_dict(name, c.options),
                                    }
                                    for c in ep.connections
                                ]
                            }
                            if ep.connections
                            else {}
                        ),
                    }
                    for ep in ent.endpoints
                ],
            }
        else:
            doc[name] = {
                "type": "router",
                "connections": [
                    {"path": str(c.path), **_options_to_dict(name, c.options)}
                    for c in ent.connections
                ],
            }
    return doc


def serialize_config(cfg: TopologyConfig) -> str:
    """Render a TopologyConfig back to the config document format.

    ``parse_config(serialize_config(cfg)) == cfg`` holds for any parsed cfg
    whose option values are in range; an option value out of its range (in
    ``model.OPTION_KINDS``) raises SchemaError naming its entity and field.
    """
    return yamlio.dump(config_to_dict(cfg))


# re-export for API symmetry with parse_config
__all__ = ["parse_config", "parse_path", "serialize_config", "config_to_dict"]

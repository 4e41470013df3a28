"""Structural validation of a parsed topology.

Resolves every declared connection path against the entity table, enforces
the router linkage rule, and builds the service call graph and the link
graph.  Addresses are no concern here: ``netplan`` cuts the subnets and
holds every addressing rule.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass, field, replace

from .errors import (
    CyclicCallGraphError,
    DanglingRouterConnectionError,
    DuplicatePortError,
    MissingRouterLinkageError,
    NonRouterIntermediateHopError,
    OptionRangeError,
    TerminalNotServiceError,
    TimerTargetMissingError,
    UnknownEntityError,
    UnknownEntrypointError,
    ValidationError,
)
from .model import (
    OPTION_KINDS,
    ConnectionSpec,
    EntitySpec,
    ImpairmentSpec,
    RouterSpec,
    ServiceSpec,
    TimerSpec,
    TopologyConfig,
    format_number,
    merge_declarations,
)

MIN_PORT = 1024
MAX_PORT = 65_535
# Linux sends packets with IP TTL 64 (net.ipv4.ip_default_ttl), and each
# router decrements it: the 64th router on a path drops the packet
DEFAULT_TTL = 64


def link_key(a: str, b: str) -> tuple[str, str]:
    """Canonical (sorted) name pair identifying an undirected link."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class ResolvedPath:
    """One service connection resolved to its full hop sequence."""

    service: str
    entrypoint: str
    hops: tuple[str, ...]  # [source service, routers..., terminal service]
    url: str
    options: ImpairmentSpec

    @property
    def terminal(self) -> str:
        return self.hops[-1]


@dataclass
class LinkEdge:
    """An undirected adjacency between two entities with merged impairments."""

    a: str
    b: str
    impairments: ImpairmentSpec = field(default_factory=ImpairmentSpec)
    # name of the entity whose connection declared each option (for iface attribution)
    declared_by: dict = field(default_factory=dict)


@dataclass
class ValidatedTopology:
    services: dict[str, ServiceSpec]
    routers: dict[str, RouterSpec]
    link_graph: dict[tuple[str, str], LinkEdge]
    path_table: list[ResolvedPath]
    # every entity, in declaration order
    entities: dict[str, EntitySpec]
    # routers that lie on at least one resolved path
    referenced_routers: set[str]
    # service -> entrypoint -> resolved paths, in connection order
    paths_by_service: dict[str, dict[str, list[ResolvedPath]]]
    warnings: list[str] = field(default_factory=list)


def _check_impairments(entity: str, opt: ImpairmentSpec):
    for name, kind in OPTION_KINDS.items():
        value = getattr(opt, name)
        if value is None:
            continue
        problem = kind.out_of_range(name, value)
        if problem:
            raise OptionRangeError(problem, entity, name)
        if name == "rate" and value.value <= 0:
            raise OptionRangeError("rate must be > 0", entity, name)
    for key in ("jitter", "reorder"):
        if (getattr(opt, key) or 0) > 0 and (opt.delay or 0) <= 0:
            raise OptionRangeError(f"{key} > 0 requires delay > 0", entity, key)
    for t in opt.timers:
        _check_timer(entity, opt, t)


def _check_timer(entity: str, base: ImpairmentSpec, t: TimerSpec):
    if getattr(base, t.option) is None:
        raise TimerTargetMissingError(
            f"timer overrides '{t.option}' but the connection sets no base value for it",
            entity,
            "timers",
        )
    # range-check newValue with the same rules as a base option value
    substituted = replace(base, **{t.option: t.new_value, "timers": ()})
    _check_impairments(entity, substituted)


def validate(cfg: TopologyConfig) -> ValidatedTopology:
    """Resolve and validate a parsed topology."""
    services = cfg.services()
    routers = cfg.routers()
    warnings: list[str] = []

    _check_ports(services, warnings)

    # resolve every service connection to a full hop sequence
    path_table: list[ResolvedPath] = []
    for sname, svc in services.items():
        for ep in svc.endpoints:
            for conn in ep.connections:
                _check_connection(cfg, sname, conn)
                hops = (sname,) + conn.path.hops
                path_table.append(ResolvedPath(sname, ep.entrypoint, hops, conn.url, conn.options))
    for rname, rtr in routers.items():
        for conn in rtr.connections:
            _check_connection(cfg, rname, conn)

    # router linkage rule: every router on a resolved path must declare a
    # connection whose first hop is the path's next hop; a path's options and
    # each matched connection's merge into their link as they are met
    link_graph: dict[tuple[str, str], LinkEdge] = {}
    dropped: list[str] = []  # warnings, which follow the unreferenced routers'
    matched: dict[tuple[str, str], int] = {}  # (router, next hop) -> connection
    for rp in path_table:
        _merge_impairments(link_graph, rp.hops[0], rp.hops[1], rp.options, dropped)
        for router, nxt in zip(rp.hops[1:-1], rp.hops[2:]):
            if (router, nxt) not in matched:
                connections = routers[router].connections
                match = next((i for i, c in enumerate(connections) if c.path.hops[0] == nxt), None)
                if match is None:
                    raise MissingRouterLinkageError(router, nxt, field="connections")
                matched[(router, nxt)] = match
                _merge_impairments(link_graph, router, nxt, connections[match].options, dropped)

    consumed = {(router, ci) for (router, _nxt), ci in matched.items()}
    referenced_routers = {router for router, _nxt in matched}
    for rname, rtr in routers.items():
        if rname not in referenced_routers:
            warnings.append(f"router '{rname}' is not referenced by any path")
            continue
        for ci in range(len(rtr.connections)):
            if (rname, ci) not in consumed:
                raise DanglingRouterConnectionError(
                    f"connection {ci} (path '{rtr.connections[ci].path}') matches no service path",
                    rname,
                    "connections",
                )
    warnings += dropped

    _reject_cycles([((rp.service, rp.entrypoint), (rp.terminal, rp.url)) for rp in path_table])

    paths_by_service = {
        name: {ep.entrypoint: [] for ep in svc.endpoints} for name, svc in services.items()
    }
    for rp in path_table:
        crossed = len(rp.hops) - 2
        if crossed >= DEFAULT_TTL:
            warnings.append(
                f"service '{rp.service}' path '{'->'.join(rp.hops[1:])}' crosses {crossed} "
                f"routers: packets start at IP TTL {DEFAULT_TTL}, so router {DEFAULT_TTL} drops them"
            )
        paths_by_service[rp.service][rp.entrypoint].append(rp)
    return ValidatedTopology(
        services=services,
        routers=routers,
        link_graph=link_graph,
        path_table=path_table,
        entities=dict(cfg.entities),
        referenced_routers=referenced_routers,
        paths_by_service=paths_by_service,
        warnings=warnings,
    )


def _check_ports(services: dict[str, ServiceSpec], warnings: list[str]):
    seen: dict[int, str] = {}
    for name, svc in services.items():
        if not (1 <= svc.port <= MAX_PORT):
            raise OptionRangeError(
                f"port {svc.port} outside [1, {MAX_PORT}]", name, "port"
            )
        if svc.port < MIN_PORT:
            # system ports work on the host but are best avoided
            warnings.append(
                f"service '{name}' uses system port {svc.port} (below {MIN_PORT})"
            )
        if svc.port in seen:
            raise DuplicatePortError(
                f"port {svc.port} already used by '{seen[svc.port]}'", name, "port"
            )
        seen[svc.port] = name


def _check_connection(cfg: TopologyConfig, entity: str, conn: ConnectionSpec):
    """Every check of one declared connection, in raise order.  A service's
    path also must not name the service, and must cross routers to a service."""
    hops = conn.path.hops
    service = isinstance(cfg.entities[entity], ServiceSpec)
    if len(set(hops)) != len(hops) or (service and entity in hops):
        raise ValidationError("repeated hop in path", entity, "path")
    for hop in hops:
        if hop not in cfg.entities:
            raise UnknownEntityError(f"unknown entity '{hop}' in path", entity, "path")
    if service:
        for hop in hops[:-1]:
            if not isinstance(cfg.entities[hop], RouterSpec):
                raise NonRouterIntermediateHopError(
                    f"intermediate hop '{hop}' is not a router", entity, "path"
                )
        terminal = cfg.entities[hops[-1]]
        if not isinstance(terminal, ServiceSpec):
            raise TerminalNotServiceError(
                f"terminal hop '{hops[-1]}' is not a service", entity, "path"
            )
        if not any(ep.entrypoint == conn.url for ep in terminal.endpoints):
            raise UnknownEntrypointError(
                f"target service '{hops[-1]}' has no entrypoint '{conn.url}'", entity, "url"
            )
    _check_impairments(entity, conn.options)


def _reject_cycles(call_graph):
    sorter = graphlib.TopologicalSorter()
    for caller, callee in call_graph:
        sorter.add(callee, caller)  # a callee comes after its caller
    try:
        sorter.prepare()
    except graphlib.CycleError as exc:
        # each node of the reported cycle is a predecessor of the next one,
        # so it reads in call order
        raise CyclicCallGraphError(exc.args[1]) from None


def _format_option(name: str, value) -> str:
    if name == "timers":
        return "[" + ", ".join(
            f"{tm.option} {_format_option(tm.option, tm.new_value)} "
            f"from {format_number(tm.start)}s for {format_number(tm.duration)}s"
            for tm in value
        ) + "]"
    return str(OPTION_KINDS[name].format(value))


def _merge_impairments(links, declarer: str, peer: str, opt: ImpairmentSpec, warnings):
    """Merge ``declarer``'s options into its link with ``peer``, made on first use."""
    key = link_key(declarer, peer)
    edge = links.get(key)
    if edge is None:
        edge = links[key] = LinkEdge(a=key[0], b=key[1])
    merged, taken, dropped = merge_declarations(edge.impairments, opt)
    for name in dropped:
        warnings.append(
            f"link '{edge.a}<->{edge.b}': keeping {name} "
            f"{_format_option(name, getattr(edge.impairments, name))} "
            f"declared by '{edge.declared_by[name]}', dropping "
            f"{_format_option(name, getattr(opt, name))} declared by '{declarer}'"
        )
    for name in taken:
        edge.declared_by[name] = declarer
    edge.impairments = merged

"""Structural validation of a parsed topology.

Resolves every declared connection path against the entity table, enforces
the router linkage rule, builds the service call graph and the link graph,
and runs capacity checks for the chosen address family.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass, field, replace

from .errors import (
    CapacityExceededError,
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

# Address-family capacity limits for the single-host deployment target.
MAX_SUBNETS_V4 = 2**22 - 1
MAX_HOSTS_PER_SUBNET_V4 = 2**10 - 2
MAX_SUBNETS_V6 = 2**64 - 1
MAX_HOSTS_PER_SUBNET_V6 = 2**64
MAX_SERVICES = 64_510

MIN_PORT = 1024
MAX_PORT = 65_535
# Linux sends packets with IP TTL 64 (net.ipv4.ip_default_ttl), and each
# router decrements it: the 64th router on a path drops the packet
DEFAULT_TTL = 64


def check_capacity(family: str, n_subnets: int, max_hosts_in_subnet: int, n_services: int):
    """Raise CapacityExceededError when a plan would exceed the address-family limits.

    Takes raw counts so boundary conditions can be tested without
    materializing huge topologies.
    """
    if family == "v4":
        max_subnets, max_hosts = MAX_SUBNETS_V4, MAX_HOSTS_PER_SUBNET_V4
    elif family == "v6":
        max_subnets, max_hosts = MAX_SUBNETS_V6, MAX_HOSTS_PER_SUBNET_V6
    else:
        raise ValueError(f"unknown address family {family!r}")
    if n_subnets > max_subnets:
        raise CapacityExceededError(
            f"{n_subnets} subnets exceed the {family} limit of {max_subnets}"
        )
    if max_hosts_in_subnet > max_hosts:
        raise CapacityExceededError(
            f"{max_hosts_in_subnet} hosts in one subnet exceed the {family} limit of {max_hosts}"
        )
    if n_services > MAX_SERVICES:
        raise CapacityExceededError(
            f"{n_services} services exceed the {MAX_SERVICES} host-exposable limit"
        )


def check_plan_capacity(family: str, n_routed: int, n_bridge: int, n_services: int):
    """check_capacity for one link subnet per routed pair (3 hosts: two ends
    and the gateway) plus, with members, one bridge subnet."""
    n_subnets = n_routed + (1 if n_bridge else 0)
    max_hosts = max(3 if n_routed else 0, n_bridge + 1)
    check_capacity(family, n_subnets, max_hosts, n_services)


def link_key(a: str, b: str) -> tuple[str, str]:
    """Canonical (sorted) name pair identifying an undirected link."""
    return (a, b) if a <= b else (b, a)


def link_subnet_name(a: str, b: str) -> str:
    """Subnet name of a link; validate rejects two links with one name."""
    return "link_{}_{}".format(*link_key(a, b))


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
    # adjacent pairs on routed paths (one link subnet each), sorted
    routed_pairs: list[tuple[str, str]]
    # entities on the shared bridge subnet, in declaration order: the ends of
    # direct pairs plus the entities on no link subnet at all
    bridge_members: list[str]
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


def validate(cfg: TopologyConfig, family: str = "v4") -> ValidatedTopology:
    """Resolve and validate a parsed topology for the given address family."""
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

    direct, routed = set(), set()
    paths_by_service = {
        name: {ep.entrypoint: [] for ep in svc.endpoints} for name, svc in services.items()
    }
    for rp in path_table:
        if len(rp.hops) == 2:
            direct.add(link_key(*rp.hops))
        else:
            routed.update(link_key(x, y) for x, y in zip(rp.hops, rp.hops[1:]))
        crossed = len(rp.hops) - 2
        if crossed >= DEFAULT_TTL:
            warnings.append(
                f"service '{rp.service}' path '{'->'.join(rp.hops[1:])}' crosses {crossed} "
                f"routers: packets start at IP TTL {DEFAULT_TTL}, so router {DEFAULT_TTL} drops them"
            )
        paths_by_service[rp.service][rp.entrypoint].append(rp)
    direct_ends = {n for pair in direct for n in pair}
    routed_ends = {n for pair in routed for n in pair}
    bridge_members = [n for n in cfg.entities if n in direct_ends or n not in routed_ends]
    routed_pairs = sorted(routed)
    named: dict[str, tuple[str, str]] = {}
    for pair in routed_pairs:
        first = named.setdefault(link_subnet_name(*pair), pair)
        if first != pair:
            raise ValidationError(
                f"links '{'<->'.join(first)}' and '{'<->'.join(pair)}' would share the "
                f"subnet name '{link_subnet_name(*pair)}'"
            )

    check_plan_capacity(family, len(routed), len(bridge_members), len(services))
    return ValidatedTopology(
        services=services,
        routers=routers,
        link_graph=link_graph,
        path_table=path_table,
        entities=dict(cfg.entities),
        routed_pairs=routed_pairs,
        bridge_members=bridge_members,
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

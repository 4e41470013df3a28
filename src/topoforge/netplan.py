"""Deterministic network planning.

Holds every addressing rule: cuts and names the subnets within the
address-family limits and allocates addresses.  Plans as data the static host
routes that make traffic follow the declared hop sequences (and replies
retrace them) and each interface's egress options.  This module alone renders that data as
``ip``/``tc``/``sysctl`` commands: setup commands and timer scripts, whose
netem parameters follow the keywords and order of ``model.OPTION_KINDS``.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field, replace

from .errors import CapacityExceededError, ConflictingRouteError, OptionConflictError, ValidationError
from .model import OPTION_KINDS, ImpairmentSpec, format_number, format_us, merge_declarations
from .validation import ValidatedTopology, link_key

DEFAULT_BASE_V4 = "10.0.0.0/8"
DEFAULT_BASE_V6 = "fd00::/16"

PREFIX_V4 = 22
PREFIX_V6 = 64

# Address-family capacity limits for the single-host deployment target.
MAX_SUBNETS_V4 = 2**22 - 1
MAX_HOSTS_PER_SUBNET_V4 = 2**10 - 2
MAX_SUBNETS_V6 = 2**64 - 1
MAX_HOSTS_PER_SUBNET_V6 = 2**64
MAX_SERVICES = 64_510

BRIDGE_NET = "bridge"
_UNSHAPED = ImpairmentSpec()  # what the boot-time netem line changes from


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


def link_subnet_name(a: str, b: str) -> str:
    """Subnet name of a link; allocate_networks rejects two links with one name."""
    return "link_{}_{}".format(*link_key(a, b))


@dataclass(frozen=True)
class Subnet:
    name: str
    cidr: str

    @property
    def network(self):
        return ipaddress.ip_network(self.cidr)


@dataclass
class NetPlan:
    family: str
    subnets: list[Subnet] = field(default_factory=list)
    # entity -> subnet name -> (address, in-container interface name), in
    # subnet order; filled by allocate_networks
    attached: dict[str, dict[str, tuple[str, str]]] = field(default_factory=dict)
    # entity -> destination -> gateway, one host route each; filled by plan_routes
    routes: dict[str, dict[str, str]] = field(default_factory=dict)
    timer_scripts: dict[str, str] = field(default_factory=dict)
    # entity -> interface -> the options on its egress, for interfaces that
    # have any; filled by plan_routes
    egress: dict[str, dict[str, ImpairmentSpec]] = field(default_factory=dict)
    # link_key pair -> link subnet name, filled by allocate_networks
    _by_link: dict[tuple[str, str], str] = field(default_factory=dict, repr=False)

    def subnet_between(self, a: str, b: str) -> str:
        """Name of the subnet joining two entities: their link subnet, else
        the bridge."""
        return self._by_link.get(link_key(a, b), BRIDGE_NET)

    def address(self, entity: str, subnet_name: str) -> str:
        return self.attached[entity][subnet_name][0]

    def attachments(self, entity: str) -> list[tuple[str, str]]:
        """(subnet name, address) pairs for one entity, in subnet order."""
        return [(sname, addr) for sname, (addr, _iface) in self.attached.get(entity, {}).items()]


def endpoint_addresses(np: NetPlan, hops: tuple[str, ...]) -> tuple[str, str]:
    """Addresses that a path's packets are sent to: (terminal, source).

    The terminal's address on the subnet toward its last hop, and the
    source's on the subnet toward its first: the bridge for a direct
    connection, a link subnet for a routed path.
    """
    return (
        np.address(hops[-1], np.subnet_between(hops[-2], hops[-1])),
        np.address(hops[0], np.subnet_between(hops[0], hops[1])),
    )


def allocate_networks(
    t: ValidatedTopology,
    family: str = "v4",
    base: str | None = None,
    extra_bridge_members: tuple[str, ...] = (),
) -> NetPlan:
    """Allocate subnets and interface addresses.

    Each adjacent pair on a routed path gets a link subnet (its two ends and
    the gateway); the ends of direct pairs, the entities on no link subnet
    and ``extra_bridge_members`` share the bridge.  Raises on two links with
    one subnet name, then on the address-family limits, then on the base.

    Deterministic: link pairs in lexicographic order step sequential subnets
    out of ``base``; within each subnet, members sorted by name get host
    parts from .2 (or ::2) upward.  Each entity's interfaces are named
    eth0, eth1, ... in subnet allocation order.
    """
    direct_ends, routed = set(), set()
    for rp in t.path_table:
        if len(rp.hops) == 2:
            direct_ends.update(rp.hops)
        else:
            routed.update(link_key(x, y) for x, y in zip(rp.hops, rp.hops[1:]))
    routed_ends = {n for pair in routed for n in pair}
    # in declaration order, then the extra members not yet on the bridge
    bridge = dict.fromkeys(n for n in t.entities if n in direct_ends or n not in routed_ends)
    bridge.update(dict.fromkeys(extra_bridge_members))
    by_name: dict[str, tuple[str, str]] = {}  # link subnet name -> pair, in pair order
    for pair in sorted(routed):
        name = link_subnet_name(*pair)
        first = by_name.setdefault(name, pair)
        if first != pair:
            raise ValidationError(
                f"links '{'<->'.join(first)}' and '{'<->'.join(pair)}' would share the "
                f"subnet name '{name}'"
            )
    needed = len(by_name) + (1 if bridge else 0)
    max_hosts = max(3 if by_name else 0, len(bridge) + 1)
    check_capacity(family, needed, max_hosts, len(t.services))

    version, prefix = (4, PREFIX_V4) if family == "v4" else (6, PREFIX_V6)
    base = base or (DEFAULT_BASE_V4 if family == "v4" else DEFAULT_BASE_V6)
    space = ipaddress.ip_network(base)
    if space.version != version:
        raise OptionConflictError(f"base network {base} is not an IPv{version} network")
    if space.prefixlen > prefix:
        raise CapacityExceededError(
            f"base network {base} is smaller than the /{prefix} subnet size"
        )
    held = 1 << (prefix - space.prefixlen)
    if held < needed:
        raise CapacityExceededError(
            f"base network {base} holds {held} /{prefix} subnets; the plan needs {needed}"
        )

    np = NetPlan(family=family)
    members_of = [(BRIDGE_NET, sorted(bridge))] if bridge else []
    for name, pair in by_name.items():
        np._by_link[pair] = name
        members_of.append((name, pair))
    for (name, members), network in zip(members_of, space.subnets(new_prefix=prefix)):
        np.subnets.append(Subnet(name=name, cidr=str(network)))
        hosts = network.network_address + 2  # .1/::1 is the docker gateway
        for i, member in enumerate(members):
            attached = np.attached.setdefault(member, {})
            attached[name] = (str(hosts + i), f"eth{len(attached)}")
    return np


# --- timer semantics ---------------------------------------------------------


def timer_window(start: float, duration: float) -> tuple[float, float]:
    """Active window of a timer override, in seconds since container launch.

    Window-relative reading: the override is active over
    [start, start + duration).  This is the single place to change if the
    launch-relative reading (active until t = duration) is wanted instead.
    """
    return (start, start + duration)


def impairment_timeline(spec: ImpairmentSpec) -> list[tuple[float, ImpairmentSpec]]:
    """(start seconds, values in force) segments of a connection's options.

    Piecewise constant: one segment from 0 and one from each window edge,
    each holding the base values, timers stripped, with every active
    override applied.  Overlapping overrides of one option: the latest start
    wins, and on equal starts the later declaration.
    """
    if not spec.timers:
        return [(0.0, spec)]
    windows = [(timer_window(tm.start, tm.duration), tm) for tm in spec.timers]
    edges = sorted({0.0, *(t for window, _tm in windows for t in window)})
    timeline = []
    for t in edges:
        # a stable sort by start puts the winner of each option last
        active = sorted((tm for (lo, hi), tm in windows if lo <= t < hi), key=lambda tm: tm.start)
        timeline.append((t, replace(spec, timers=(), **{tm.option: tm.new_value for tm in active})))
    return timeline


# --- command rendering -------------------------------------------------------


def _netem_params(opt: ImpairmentSpec) -> str:
    """netem parameter string: the keyword and value of each set option that
    has a keyword, in table order, with jitter as delay's second argument."""
    parts = []
    for name, kind in OPTION_KINDS.items():
        value = getattr(opt, name)
        if value is not None and kind.keyword:
            parts.append(f"{kind.keyword} {kind.format(value)}")
            if name == "delay" and opt.jitter is not None:
                parts.append(format_us(opt.jitter))
    return " ".join(parts)


def _impairment_commands(prev: ImpairmentSpec, new: ImpairmentSpec, iface: str) -> list[str]:
    """Commands taking one interface from ``prev``'s impairments to ``new``'s.

    Fixed order: MTU first, then a single netem queuing discipline carrying
    everything else, added if ``prev`` had none and changed otherwise.
    """
    cmds = []
    if new.mtu is not None and new.mtu != prev.mtu:
        cmds.append(f"ip link set dev {iface} mtu {new.mtu}")
    params = _netem_params(new)
    if params:
        prev_params = _netem_params(prev)
        if params != prev_params:
            verb = "change" if prev_params else "add"
            cmds.append(f"tc qdisc {verb} dev {iface} root netem {params}")
    return cmds


def render_impairments(opt: ImpairmentSpec, iface: str) -> list[str]:
    """Setup commands applying a connection's impairments on one interface.

    An empty spec renders nothing.
    """
    return _impairment_commands(_UNSHAPED, opt, iface)


def render_timer_script(by_iface: dict[str, ImpairmentSpec]) -> str:
    """POSIX shell script applying one entity's timer overrides and restoring
    base values, the events of all its interfaces in time order.

    Renders an empty script when no interface carries timers.
    """
    events = []
    for iface, opt in by_iface.items():
        if not opt.timers:
            continue
        prev = replace(opt, timers=())
        for t, new in impairment_timeline(opt):
            cmds = _impairment_commands(prev, new, iface)
            if cmds:
                events.append((t, cmds))
            prev = new
    if not events:
        return ""
    lines = ["#!/bin/sh", "# scheduled impairment overrides"]
    now = 0.0
    for t, cmds in sorted(events, key=lambda e: e[0]):
        if t > now:
            lines.append(f"sleep {format_number(t - now)}")
            now = t
        lines.extend(cmds)
    return "\n".join(lines) + "\n"


def _route_cmd(family: str, dst: str, via: str) -> str:
    if family == "v4":
        return f"ip route add {dst}/32 via {via}"
    return f"ip -6 route add {dst}/128 via {via}"


def _forward_cmd(family: str) -> str:
    if family == "v4":
        return "sysctl -w net.ipv4.ip_forward=1"
    return "sysctl -w net.ipv6.conf.all.forwarding=1"


def setup_commands(t: ValidatedTopology, np: NetPlan, name: str) -> list[str]:
    """One entity's setup commands: forwarding on a router that a path
    crosses, then each shaped interface's MTU and netem, then its routes."""
    cmds = [_forward_cmd(np.family)] if name in t.referenced_routers else []
    for iface, opt in np.egress.get(name, {}).items():
        cmds.extend(render_impairments(opt, iface))
    cmds.extend(_route_cmd(np.family, dst, via) for dst, via in np.routes.get(name, {}).items())
    return cmds


def ioam_commands(np: NetPlan, name: str) -> list[str]:
    # enablement hooks only; actual in-band telemetry is outside this tool
    return [
        f"sysctl -w net.ipv6.conf.{iface}.ioam6_enabled=1"
        for _addr, iface in np.attached[name].values()
    ]


# --- route planning ----------------------------------------------------------


def plan_routes(t: ValidatedTopology, np: NetPlan) -> NetPlan:
    """Plan each entity's egress options and static host routes.

    For each resolved path the source gets a host route to the destination
    via the first router; each router forwards toward the destination via
    its next hop; reverse routes mirror the path so replies retrace it.
    """
    # one MTU and one netem per interface, in declaration order
    np.egress = _egress_options(t, np)
    np.routes = {}

    def add(entity: str, dst: str, via: str):
        # destination-based routing holds one gateway per destination
        prev = np.routes.setdefault(entity, {}).setdefault(dst, via)
        if prev != via:
            raise ConflictingRouteError(
                f"needs routes to {dst} via both {prev} and {via}", entity, "path"
            )

    for rp in t.path_table:
        hops = rp.hops
        if len(hops) < 3:
            continue  # direct connection: on-link on the bridge subnet
        dst_ip, src_ip = endpoint_addresses(np, hops)
        # forward direction: every hop but the last two routes via the next
        for i in range(len(hops) - 2):
            add(hops[i], dst_ip, np.address(hops[i + 1], np.subnet_between(hops[i], hops[i + 1])))
        # reverse direction: every hop but the first two routes via the previous
        for i in range(len(hops) - 1, 1, -1):
            add(hops[i], src_ip, np.address(hops[i - 1], np.subnet_between(hops[i - 1], hops[i])))

    return np


def _egress_options(t: ValidatedTopology, np: NetPlan) -> dict[str, dict[str, ImpairmentSpec]]:
    """entity -> interface -> the options of the entity's connections out of
    that interface, merged as the link graph merges them: the first
    declaration of each option, and of the timer list, wins.  Interfaces
    whose merged options are empty are left out."""
    egress = {}
    for name in t.entities:
        if name in t.services:
            conns = [conn for ep in t.services[name].endpoints for conn in ep.connections]
        else:
            conns = t.routers[name].connections
        by_iface: dict[str, ImpairmentSpec] = {}
        for conn in conns:
            iface = _iface_toward(np, name, conn.path.hops[0])
            if iface is None:
                continue  # unreferenced router connection: no subnet exists
            prev = by_iface.get(iface)
            by_iface[iface] = conn.options if prev is None else merge_declarations(prev, conn.options)[0]
        # after the merge: a later declaration can fill an empty first one
        shaped = {iface: opt for iface, opt in by_iface.items() if opt != _UNSHAPED}
        if shaped:
            egress[name] = shaped
    return egress


def _iface_toward(np: NetPlan, name: str, first_hop: str) -> str | None:
    subnet = np.subnet_between(name, first_hop)
    if subnet not in np.attached[first_hop]:
        return None
    return np.attached[name][subnet][1]


def plan_timer_scripts(t: ValidatedTopology, np: NetPlan) -> NetPlan:
    """Render one combined timer script per entity whose interfaces carry
    timers, from the egress options that plan_routes merged."""
    for name, by_iface in np.egress.items():
        script = render_timer_script(by_iface)
        if script:
            np.timer_scripts[name] = script
    return np


def plan_network(
    t: ValidatedTopology,
    family: str = "v4",
    base: str | None = None,
    extra_bridge_members: tuple[str, ...] = (),
) -> NetPlan:
    """allocate_networks + plan_routes + plan_timer_scripts in one call."""
    np = allocate_networks(t, family=family, base=base, extra_bridge_members=extra_bridge_members)
    plan_routes(t, np)
    plan_timer_scripts(t, np)
    return np

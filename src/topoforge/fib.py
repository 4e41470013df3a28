"""Longest-prefix-match forwarding over the planned routes.

Builds a model FIB per entity from a NetPlan's routes and attachments, then
walks packets hop by hop.  Used to check that every declared path is followed
exactly, forward and reverse.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field

from .netplan import NetPlan, endpoint_addresses


@dataclass
class Fib:
    # entity -> list of (prefix network, gateway address | None for on-link)
    tables: dict[str, list[tuple[object, object]]]
    addr_owner: dict[str, str]  # address -> entity

    def lookup(self, entity: str, dst: str):
        dst_ip = ipaddress.ip_address(dst)
        best = None
        for prefix, via in self.tables.get(entity, []):
            if dst_ip in prefix:
                if best is None or prefix.prefixlen > best[0].prefixlen:
                    best = (prefix, via)
        return best


def build_fib(np: NetPlan) -> Fib:
    tables: dict[str, list] = {}
    addr_owner: dict[str, str] = {}
    networks = {s.name: s.network for s in np.subnets}
    for entity, by_subnet in np.attached.items():
        for subnet_name, (addr, _iface) in by_subnet.items():
            addr_owner[addr] = entity
            tables.setdefault(entity, []).append((networks[subnet_name], None))
    for entity, routes in np.routes.items():
        table = tables.setdefault(entity, [])
        for dst, via in routes.items():
            # a bare address is a host network: /32 or /128
            table.append((ipaddress.ip_network(dst), ipaddress.ip_address(via)))
    return Fib(tables=tables, addr_owner=addr_owner)


class ForwardingError(Exception):
    pass


def forward(fib: Fib, src: str, dst_addr: str) -> list[str]:
    """Entity names a packet visits from ``src`` to the holder of ``dst_addr``.

    Each hop depends only on the entity and the destination, so a walk that
    comes back to an entity it already left loops forever; that, not a hop
    count, is the loop test.
    """
    visited = [src]
    seen = {src}
    current = src
    owner = fib.addr_owner.get(dst_addr)
    while owner != current:
        match = fib.lookup(current, dst_addr)
        if match is None:
            raise ForwardingError(f"{current} has no route toward {dst_addr}")
        prefix, via = match
        if via is None:
            # on-link: deliver directly to the address owner, if it has an
            # interface on that subnet too
            if owner is None or (prefix, None) not in fib.tables[owner]:
                raise ForwardingError(f"{dst_addr} not on-link at {current}")
            nxt = owner
        else:
            nxt = fib.addr_owner.get(str(via))
            if nxt is None:
                raise ForwardingError(f"gateway {via} owned by nobody (at {current})")
        visited.append(nxt)
        if nxt in seen:
            raise ForwardingError(f"forwarding loop from {src} toward {dst_addr}: {visited}")
        seen.add(nxt)
        current = nxt
    return visited


@dataclass
class PathCheck:
    ok: bool
    failures: list[str] = field(default_factory=list)


def check_path_fidelity(t, np: NetPlan) -> PathCheck:
    """Verify every resolved path is followed exactly, forward and reverse."""
    fib = build_fib(np)
    failures = []
    for rp in t.path_table:
        hops = rp.hops
        fwd_dst, rev_dst = endpoint_addresses(np, hops)
        try:
            got = forward(fib, hops[0], fwd_dst)
            if tuple(got) != hops:
                failures.append(f"forward {rp.service}->{rp.terminal}: {got} != {list(hops)}")
            back = forward(fib, hops[-1], rev_dst)
            if tuple(back) != tuple(reversed(hops)):
                failures.append(f"reverse {rp.terminal}->{rp.service}: {back}")
        except ForwardingError as exc:
            failures.append(str(exc))
    return PathCheck(ok=not failures, failures=failures)

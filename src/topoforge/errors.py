"""Exception hierarchy for configuration, validation, and planning errors."""


class TopoforgeError(Exception):
    """Base class for all errors raised by this package."""


class LocatedError(TopoforgeError):
    """An error whose message is prefixed with where it is: the document line,
    the offending entity, and the entity's field."""

    def __init__(
        self, message: str, entity: str | None = None, field: str | None = None,
        line: int | None = None,
    ):
        self.entity = entity
        self.field = field
        self.line = line
        loc = [] if line is None else [f"line {line}"]
        if entity:
            loc.append(f"entity '{entity}'")
            if field:
                loc.append(f"field '{field}'")
        super().__init__(f"{', '.join(loc)}: {message}" if loc else message)


class ConfigSyntaxError(LocatedError):
    """The configuration document is not well-formed markup."""


class SchemaError(LocatedError):
    """The document is well-formed but violates the config schema."""


class PathSyntaxError(LocatedError):
    """A hop path string could not be parsed."""


class ValidationError(LocatedError):
    """Base class for topology validation failures.

    Every subclass message names the offending entity and config field.
    """


class UnknownEntityError(ValidationError):
    pass


class UnknownEntrypointError(ValidationError):
    pass


class NonRouterIntermediateHopError(ValidationError):
    pass


class TerminalNotServiceError(ValidationError):
    pass


class MissingRouterLinkageError(ValidationError):
    def __init__(self, router: str, expected_next_hop: str, field: str | None = None):
        self.router = router
        self.expected_next_hop = expected_next_hop
        super().__init__(
            f"router '{router}' has no connection with next hop '{expected_next_hop}'",
            entity=router,
            field=field,
        )


class DanglingRouterConnectionError(ValidationError):
    pass


class CyclicCallGraphError(ValidationError):
    def __init__(self, cycle: list[tuple[str, str]]):
        self.cycle = cycle
        pretty = " -> ".join(f"{svc}{ep}" for svc, ep in cycle)
        super().__init__(f"call graph contains a cycle: {pretty}", entity=cycle[0][0])


class DuplicatePortError(ValidationError):
    pass


class OptionRangeError(ValidationError):
    pass


class TimerTargetMissingError(ValidationError):
    pass


class CapacityExceededError(ValidationError):
    pass


class ConflictingRouteError(ValidationError):
    """Two declared paths need different gateways for one destination address."""


class OptionConflictError(TopoforgeError):
    """Mutually incompatible generation options."""


class WorkloadUnreachableError(TopoforgeError):
    """The simulation workload targets a service or entrypoint that does not exist."""

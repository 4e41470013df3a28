"""Exception hierarchy for configuration, validation, and planning errors."""


class TopoforgeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigSyntaxError(TopoforgeError):
    """The configuration document is not well-formed markup."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class LocatedError(TopoforgeError):
    """An error whose message is prefixed with the offending entity and field."""

    def __init__(self, message: str, entity: str | None = None, field: str | None = None):
        self.entity = entity
        self.field = field
        loc = ""
        if entity:
            loc = f"entity '{entity}'"
            if field:
                loc += f", field '{field}'"
            loc += ": "
        super().__init__(loc + message)


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

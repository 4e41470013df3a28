"""topoforge: microservices topology generation, planning, and simulation."""

import importlib

__version__ = "0.1.0"

# each public name and the module that defines it, imported on first use
# (PEP 562): a service process loads the runtime, not PyYAML or cryptography
_EXPORTS = {
    **dict.fromkeys(
        (
            "ConnectionSpec", "EndpointSpec", "ImpairmentSpec", "Path", "Rate", "RouterSpec",
            "ServiceSpec", "TimerSpec", "TopologyConfig", "parse_path",
        ),
        "model",
    ),
    **dict.fromkeys(("parse_config", "serialize_config"), "parser"),
    **dict.fromkeys(("ValidatedTopology", "validate"), "validation"),
    **dict.fromkeys(("NetPlan", "allocate_networks", "plan_network", "plan_routes"), "netplan"),
    **dict.fromkeys(("DeploymentPlan", "GenerationOptions", "build_plan", "plan_deployment"), "deploy"),
    "emit_compose": "compose",
    "emit_k8s": "k8s",
    **dict.fromkeys(("ModelParams", "SimReport", "SimWorld", "Workload", "build_sim", "run"), "sim"),
    "measure_max_rate": "maxrate",
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value

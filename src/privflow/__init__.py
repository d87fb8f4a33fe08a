"""privflow: privilege-escalation scanning for multi-service codebases.

The engine composes language-agnostic code-search primitives over an
immutable facts database, stitches data flows across service boundaries via
communication-channel matching, validates authN/authZ checks with a pluggable
reasoner, and prunes infeasible flows with an internal constraint checker.
"""

from .model import (
    Channel,
    Edge,
    EdgeKind,
    Element,
    ElementKind,
    Location,
    Manifest,
    Program,
    Service,
    validate_program,
)

__version__ = "0.1.0"

_PIPELINE = ("PrivilegedOperation", "ScanBudget", "ScanOptions", "scan")
_REASONER = ("ScriptedOracle", "load_rules")


def __getattr__(name: str):
    """Import the scan engine on first use of one of its re-exports, so
    ``import privflow.search`` (or a ``privflow query``) does not build it."""
    if name in _PIPELINE:
        from . import pipeline as module
    elif name in _REASONER:
        from . import reasoner as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(module, name)
    return value

__all__ = [
    "Channel",
    "Edge",
    "EdgeKind",
    "Element",
    "ElementKind",
    "Location",
    "Manifest",
    "Program",
    "Service",
    "validate_program",
    "PrivilegedOperation",
    "ScanBudget",
    "ScanOptions",
    "scan",
    "ScriptedOracle",
    "load_rules",
    "__version__",
]

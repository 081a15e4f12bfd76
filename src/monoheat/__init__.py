"""Implicit FEM solver for doubly nonlinear heat flow with monotone-graph
Robin boundaries, plus verification tools for the associated energy and
continuous-dependence estimates."""

from . import errors
from .graphs import (
    CompositeSum,
    GraphConstants,
    Linear,
    PhysicalBeta,
    Power,
    SaturatingBiLipschitz,
    ScalarGraph,
    Sign,
    audit_constants,
    builtin_graphs,
    graph_property_suite,
    moreau_envelope,
    resolvent,
    yosida,
)

__all__ = [
    "errors",
    "ScalarGraph",
    "GraphConstants",
    "Linear",
    "SaturatingBiLipschitz",
    "PhysicalBeta",
    "Power",
    "Sign",
    "CompositeSum",
    "resolvent",
    "yosida",
    "moreau_envelope",
    "graph_property_suite",
    "audit_constants",
    "builtin_graphs",
]

__version__ = "0.1.0"

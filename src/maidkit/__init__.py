"""maidkit: reasoning patterns in multi-agent influence diagrams.

The package models games as directed acyclic graphs of chance, decision,
and utility nodes, detects the four graphical reasoning patterns that can
motivate a decision (direct effect, manipulation, signaling,
revealing-denying), simplifies games by eliminating pattern-free decisions
and pruning uninformative observations, and checks numerically that the
simplification preserved equilibria.
"""
from .core import (
    CyclicGraphError,
    Diagnostic,
    EdgeNotFoundError,
    Maid,
    MaidError,
    Node,
    NodeKind,
    NotADecisionError,
    UnknownAgentError,
    UnknownNodeError,
    ValidationError,
    all_effective,
    ancestors,
    chance_row,
    convert_decision_to_chance,
    descendants,
    is_fully_parameterized,
    parent_configs,
    remove_edge,
    strip_parameters,
    utility_value,
    validate,
)
from .analysis import (
    EdgeMode,
    FirstEdge,
    InteriorDecisions,
    Path,
    PathQuery,
    check_path,
    collider_blocked,
    d_separated,
    find_path,
)
from .patterns import (
    PatternInstance,
    PatternKind,
    PatternReport,
    check_instance,
    decision_is_effective,
    direct_effect,
    enumerate_patterns,
    manipulation,
    reveal_deny,
    signaling,
)
from .simplify import (
    IterationRecord,
    PhaseOutcome,
    SimplificationResult,
    identification_phase,
    retract_edges,
    simplify,
)
from .semantics import (
    DecisionRule,
    LeafMetric,
    ScaleGuardError,
    VerificationReport,
    best_response_gap,
    constant_rule,
    expected_utility,
    find_equilibrium_small,
    is_motivated_bruteforce,
    joint_probability,
    leaf_metric,
    rule_from_function,
    rule_from_rows,
    uniform_profile,
    uniform_rule,
    verify_simplification,
)
from .maidfile import MaidParseError, parse_maidfile, render_maidfile
from .fixtures import card_game, fixture, principal_agent

__version__ = "0.8.0"

__all__ = [
    "CyclicGraphError", "DecisionRule", "Diagnostic",
    "EdgeMode", "EdgeNotFoundError", "FirstEdge", "InteriorDecisions",
    "IterationRecord", "LeafMetric", "Maid", "MaidError", "MaidParseError",
    "Node", "NodeKind", "NotADecisionError", "Path", "PathQuery",
    "PatternInstance", "PatternKind", "PatternReport", "PhaseOutcome",
    "ScaleGuardError", "SimplificationResult", "UnknownAgentError",
    "UnknownNodeError", "ValidationError", "VerificationReport",
    "all_effective", "ancestors", "best_response_gap", "card_game",
    "chance_row", "check_instance", "check_path", "collider_blocked",
    "constant_rule", "convert_decision_to_chance", "d_separated",
    "decision_is_effective", "descendants", "direct_effect",
    "enumerate_patterns", "expected_utility", "find_equilibrium_small",
    "find_path", "fixture", "identification_phase", "is_fully_parameterized",
    "is_motivated_bruteforce", "joint_probability", "leaf_metric",
    "manipulation", "parent_configs", "parse_maidfile", "principal_agent",
    "remove_edge", "render_maidfile", "retract_edges", "reveal_deny",
    "rule_from_function", "rule_from_rows", "signaling", "simplify",
    "strip_parameters", "uniform_profile", "uniform_rule", "utility_value",
    "validate", "verify_simplification",
]

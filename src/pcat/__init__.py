"""Exact engine for partial actions of finite categories on finite sets.

Validate the axioms of a partial action, build its universal globalization
as a quotient of morphism/point pairs, factor other global actions through
it, and push finite topologies through the whole construction.
"""

from .category import (
    Category,
    ValidationReport,
    Violation,
    is_groupoid,
    validate_category,
)
from .action import (
    AxiomReport,
    PartialAction,
    SetFunctor,
    TripleForm,
    Verdict,
    check_category_axioms,
    check_groupoid_axioms,
    from_functor,
    from_triple,
    functor_violations,
    to_functor,
    to_triple,
)
from .globalization import (
    AxiomError,
    Globalization,
    MediationError,
    XBar,
    build_globalization,
    build_xbar,
    check_g_function,
    enumerate_globalizations,
    equiv_closure,
    induces_source,
    mediating,
    mediating_candidates,
)
from .topology import (
    FiniteTopology,
    Space,
    TopGlobalization,
    TopScenario,
    check_continuous_action,
    check_embedding_open,
    check_graph_open,
    check_star_open,
    check_topological_category,
    quotient_space,
    topologize_globalization,
    validate_topology,
)
from .dsl import (
    ParseError,
    Scenario,
    globalization_to_scenario,
    parse,
    serialize,
)
from . import fixtures, oracle

__all__ = [
    "Category",
    "ValidationReport",
    "Violation",
    "is_groupoid",
    "validate_category",
    "AxiomReport",
    "PartialAction",
    "SetFunctor",
    "TripleForm",
    "Verdict",
    "check_category_axioms",
    "check_groupoid_axioms",
    "from_functor",
    "from_triple",
    "functor_violations",
    "to_functor",
    "to_triple",
    "AxiomError",
    "Globalization",
    "MediationError",
    "XBar",
    "build_globalization",
    "build_xbar",
    "check_g_function",
    "enumerate_globalizations",
    "equiv_closure",
    "induces_source",
    "mediating",
    "mediating_candidates",
    "FiniteTopology",
    "Space",
    "TopGlobalization",
    "TopScenario",
    "check_continuous_action",
    "check_embedding_open",
    "check_graph_open",
    "check_star_open",
    "check_topological_category",
    "quotient_space",
    "topologize_globalization",
    "validate_topology",
    "ParseError",
    "Scenario",
    "globalization_to_scenario",
    "parse",
    "serialize",
    "fixtures",
    "oracle",
]

__version__ = "0.1.0"

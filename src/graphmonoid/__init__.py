"""Graph monoids of directed graphs with singular vertices.

Construct the monoid presentation of a graph, decide equality of monoid
elements by commutative completion, build row-finite approximations with
their explicit generator maps, transport elements along CK-morphisms and
chains, and cross-check everything against a path-counting oracle on DAGs.
"""

from .graphs import (
    Edge,
    EdgeIndexDescriptor,
    Graph,
    GraphError,
    ValidationReport,
    VertexClass,
    graph_from_json,
    graph_to_json,
    materialize_edges,
    out_edges,
    validate_graph,
    vertex_class,
)
from .presentation import (
    Generator,
    MonoidElement,
    Presentation,
    PresentationError,
    ZERO,
    apply_generator_map,
    element_from_json,
    element_to_json,
    generators,
    presentation_of,
    relations,
    sgen,
    vgen,
)
from .engine import (
    BudgetExceededError,
    EngineError,
    EqualityResult,
    RewriteSystem,
    complete,
    congruence_bfs,
    equal,
    normal_form,
    replay_chain,
)
from .desingularize import (
    Desingularization,
    MaterializationError,
    TruncationError,
    desingularize,
    phi,
    psi,
    required_truncation,
)
from .limits import (
    CKReport,
    DirectLimit,
    GraphChain,
    GraphColimit,
    GraphMorphism,
    LimitElement,
    MonoidChain,
    MorphismError,
    check_continuity,
    colimit_graph,
    colimit_monoid,
    compose,
    identity_morphism,
    induced_monoid_morphism,
    is_ck_morphism,
    monoid_chain,
    universal_map,
)
from .oracle import (
    OracleError,
    SinkVector,
    check_naturality,
    cross_check,
    gamma_acyclic,
    path_count,
    sink_transfer,
)

__version__ = "0.1.0"

"""Graph monoids of directed graphs with singular vertices.

Construct the monoid presentation of a graph, decide equality of monoid
elements by commutative completion, build row-finite approximations with
their explicit generator maps, transport elements along CK-morphisms and
chains, and cross-check everything against a path-counting oracle on DAGs.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

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
    congruence_bfs,
    equal,
    normal_form,
    replay_chain,
)

__version__ = "0.1.0"

# The approximations, limits and the oracle load on first use (PEP 562), so
# that importing the package for a query does not pay for them.
_LAZY = {
    "desingularize": (
        "Desingularization",
        "MaterializationError",
        "TruncationError",
        "desingularize",
        "phi",
        "psi",
        "required_truncation",
    ),
    "limits": (
        "CKReport",
        "DirectLimit",
        "GraphChain",
        "GraphColimit",
        "GraphMorphism",
        "LimitElement",
        "MonoidChain",
        "MorphismError",
        "check_continuity",
        "colimit_graph",
        "colimit_monoid",
        "compose",
        "identity_morphism",
        "induced_monoid_morphism",
        "is_ck_morphism",
        "monoid_chain",
        "universal_map",
    ),
    "oracle": (
        "OracleError",
        "SinkVector",
        "check_naturality",
        "cross_check",
        "gamma_acyclic",
        "path_count",
        "sink_transfer",
    ),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name)
    if module is not None:
        value = getattr(_import_module(f".{module}", __name__), name)
    elif name in _LAZY:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """The exports and submodules, loaded or lazy, with the module's dunder names; no private helper."""
    public = {name for name in globals() if not name.startswith("_") or name.startswith("__")}
    return sorted(public | set(_LAZY_NAMES) | set(_LAZY))


class _Package(_ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # loading the submodule desingularize binds it here under the name of
        # its main function, which the package exports under that name
        if name == "desingularize" and isinstance(value, _ModuleType):
            value = value.desingularize
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package

"""trusskit: exact and truncated k-truss decomposition for undirected graphs,
extremal truss generators, truss deciders and bound checks.

Public names resolve on first access, so a process imports only the
modules whose names it uses.
"""

from importlib import import_module as _import

_PUBLIC = {
    "graphs": ("Graph", "GraphError", "ParseError", "ValidationError", "InfeasibleError",
               "from_edges", "parse_edge_list"),
    "triangles": ("ResourceLimitError", "TriangleCounts", "triangle_counts"),
    "peel": ("DegeneracyReport", "TrussLabels", "degeneracy", "k_truss_components",
             "truss_decomposition"),
    "witness": ("WitnessConfig", "WitnessState", "EnumerationOutcome", "enumerate_residual",
                "init_witness", "remove_edge", "truncated_decomposition"),
    "generators": ("ConstructionReceipt", "FaceEmbedding", "clique_chain",
                   "clique_chain_remainder", "critical_2truss", "critical_truss", "suspend",
                   "suspension_ladder", "torus_embedding", "truss_from_embedding"),
    "checks": ("BoundReport", "bound_report", "is_critical_k_truss", "is_k_truss"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = [*_HOME]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _PUBLIC:
        return _import(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import(f"{__name__}.{_HOME[name]}"), name)

"""trusskit: exact and truncated k-truss decomposition for undirected graphs,
extremal truss generators, and brute-force verification oracles."""

from .graphs import (
    Graph,
    GraphError,
    ParseError,
    ValidationError,
    DegeneracyReport,
    clustering_coefficient,
    connected_components,
    degeneracy,
    from_edges,
    from_pairs,
    induced_by_edges,
    induced_by_vertices,
    parse_edge_list,
)
from .triangles import TriangleCounts, enumerate_triangles, triangle_counts
from .peel import (
    TrussLabels,
    k_truss_components,
    max_k_truss,
    truss_decomposition,
)
from .witness import (
    WitnessConfig,
    WitnessState,
    EnumerationOutcome,
    ResourceLimitError,
    enumerate_residual,
    init_witness,
    remove_edge,
    truncated_decomposition,
)
from .generators import (
    ConstructionReceipt,
    FaceEmbedding,
    InfeasibleError,
    clique_chain,
    clique_chain_remainder,
    critical_2truss,
    critical_truss,
    gnp_random,
    suspend,
    suspension_ladder,
    torus_embedding,
    truss_from_embedding,
)
from .checks import (
    BoundReport,
    bound_report,
    brute_force_triangles,
    is_critical_k_truss,
    is_k_truss,
    oracle_truss_decomposition,
)

__version__ = "0.1.0"

"""trusskit: exact and truncated k-truss decomposition for undirected graphs,
extremal truss generators, truss deciders and bound checks."""

from .graphs import (
    Graph,
    GraphError,
    ParseError,
    ValidationError,
    DegeneracyReport,
    degeneracy,
    from_edges,
    parse_edge_list,
)
from .triangles import TriangleCounts, triangle_counts
from .peel import (
    TrussLabels,
    k_truss_components,
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
    is_critical_k_truss,
    is_k_truss,
)

__version__ = "0.1.0"

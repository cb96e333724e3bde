"""cdspart: CDS partitions for structured graph classes and conversion of
disjoint dominating trees into connected prescribed-size partitions."""

from .builders import (
    BuilderError,
    CdsFamily,
    InsufficientConnectivity,
    cds_biconvex,
    cds_convex,
    cds_interval,
    extend_to_partition,
    validate_family,
)
from .engine import (
    CdsInput,
    EngineError,
    GLInstance,
    GlPartition,
    PartitionState,
    categorize_trees,
    solve,
    validate_cds_input,
)
from .flows import (
    PathFamily,
    local_connectivity,
    make_induced,
    vertex_disjoint_paths,
)
from .graphs import (
    DominatingTree,
    Graph,
    GraphError,
    dominates,
    is_connected_subset,
    is_k_connected,
    spanning_tree,
    vertex_connectivity,
)
from .models import (
    BiconvexModel,
    ConvexModel,
    IntervalModel,
    PathDecomposition,
    interval_connectivity,
    interval_path_decomposition,
)
from .verify import (
    VerificationReport,
    brute_cds,
    brute_gl,
    brute_min_vertex_cut,
    brute_vertex_connectivity,
    counterexample_chordal,
    counterexample_convex,
    counterexample_convex_model,
    verify_cds_partition,
    verify_gl,
)

__version__ = "0.1.0"

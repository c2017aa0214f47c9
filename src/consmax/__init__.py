"""Model-free consensus maximization for correspondence outlier removal.

Pairwise agreement rules between minimal correspondence subsets compile
into a 0-1 covering program (one constraint per disagreeing edge) solved
exactly by Branch and Bound with an optimality certificate, or via its LP
relaxation. Shipped pipelines: isometric shape-to-shape matching (geodesic
preservation) and 3D-template-to-image matching (piecewise-rigid P3P pose
agreement), plus a voting baseline, synthetic benchmarks, and a CLI.
"""

from .core import (
    INLIER,
    OUTLIER,
    ClusterPartition,
    ConsensusGraph,
    CoveringProgram,
    LabelVector,
    MatchSet,
    build_covering_program,
    kmeans_partition,
)
from .io import EvalReport, emit_mesh, evaluate_labels, load_mesh
from .isometric import IsometryConfig, isometry_agreement, shape_registration
from .mesh import GeodesicTable, TriMesh, geodesic_distances
from .pose import (
    CameraIntrinsics,
    Pose,
    p3p_solve,
    rotation_geodesic_distance,
)
from .solver import (
    SolverConfig,
    SolverResult,
    TraceEntry,
    brute_force_oracle,
    lp_lower_bound,
    solve_exact,
    solve_relaxed,
)
from .synth import SynthSpec, synth_isometric_instance, synth_template_instance
from .template import (
    TemplateMatchConfig,
    build_triangle_graph,
    local_filtering,
    template_image_registration,
)

__version__ = "0.1.0"

# The kernels are numpy-only. The constant stays because the benchmark
# script e2ebench/run.py reads it to print the backend name.
NUMBA_ENABLED = False

__all__ = [
    "INLIER",
    "OUTLIER",
    "ClusterPartition",
    "ConsensusGraph",
    "CoveringProgram",
    "LabelVector",
    "MatchSet",
    "build_covering_program",
    "kmeans_partition",
    "EvalReport",
    "evaluate_labels",
    "emit_mesh",
    "load_mesh",
    "IsometryConfig",
    "isometry_agreement",
    "shape_registration",
    "GeodesicTable",
    "TriMesh",
    "geodesic_distances",
    "CameraIntrinsics",
    "Pose",
    "p3p_solve",
    "rotation_geodesic_distance",
    "SolverConfig",
    "SolverResult",
    "TraceEntry",
    "brute_force_oracle",
    "lp_lower_bound",
    "solve_exact",
    "solve_relaxed",
    "SynthSpec",
    "synth_isometric_instance",
    "synth_template_instance",
    "TemplateMatchConfig",
    "build_triangle_graph",
    "local_filtering",
    "template_image_registration",
]

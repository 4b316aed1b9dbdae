"""semloc: structure-based visual localization with a dense semantic map
and hybrid feature families.

The library supports the full pipeline: building a labeled dense point
cloud from posed depth/label images, retrieving candidate database images
by global descriptor, matching several feature families at once, scoring
retrieved images by semantic consistency, and estimating query poses with
a semantically weighted RANSAC-PnP solver followed by nonlinear
refinement.  A synthetic street-canyon harness provides exact ground truth
for every stage.
"""

from .geometry import (
    CameraIntrinsics,
    PoseError,
    RigidPose,
    back_project,
    pose_error,
    position_error_m,
    project,
    rotation_error_deg,
)
from .semantic_map import (
    DEFAULT_UNSTABLE_CLASS_IDS,
    DatabaseImageRecord,
    DenseMap,
    DepthFilterConfig,
    QueryImage,
    build_dense_map,
    filter_depth_map,
    fuse_depth_maps,
)
from .retrieval import GlobalDescriptor, RetrievalConfig, build_index, query_top_k
from .matching import (
    CorrespondenceBatch,
    FeatureSet,
    lift_to_3d,
    match_family,
)
from .scoring import (
    SemanticScore,
    gate_visible,
    normalize_weights,
    semantic_consistency_score,
)
from .pnp import (
    PnPSolution,
    RansacConfig,
    estimate_temporary_pose,
    refine_pose,
    solve_p3p,
    weighted_ransac_pnp,
)
from .evaluation import (
    DAY_BUCKETS,
    NIGHT_BUCKETS,
    RecallReport,
    ThresholdBucket,
    evaluate,
    render_report,
)
from .config import PipelineConfig, parse_config_file, render_config
from .pipeline import LocalizationResult, build_map, localize_all, localize_query
from .synthetic import (
    FacadePlane,
    SceneSpec,
    generate_scene,
    street_canyon_spec,
    symmetric_canyon_spec,
)

__version__ = "0.1.0"

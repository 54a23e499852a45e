"""roadlift: geometry, losses, and metrics for roadside monocular 3D
detection, validated against synthetic scenes with exact ground truth."""

from .camera_geometry import (
    Box3D,
    CameraRig,
    GeometryError,
    GroundPlane,
    LabelFrame,
    RigidTransform,
    corners_of,
    depth_to_ground,
    ground_plane_from_extrinsics,
    height_sensitivity,
    lift_to_ground,
    project_to_image,
    rig_from_pose,
)
from .evaluation import (
    MatchResult,
    PRCurve,
    average_precision_r40,
    bev_iou,
    detection_ratio_curve,
    distance_error,
    iou3d,
    match,
    overlap_matrix,
)
from .loss_functions import (
    Box3DParams,
    gradient_descent_fit,
    loss_gradient,
)
from .position_embedding import embed_depth_map, sine_encode
from .scene_cue_bank import (
    CueMask,
    FeatureGrid,
    SceneBank,
    bank_memory_elements,
    extract_cues,
    make_mask,
)
from .scene_scheduler import (
    AugmentationParams,
    SceneScheduler,
    SchedulerConfig,
    apply_augmentation,
    sample_augmentation,
)
from .synthetic_world import (
    FrameRecord,
    GroundField,
    NoiseModel,
    SceneConfig,
    SyntheticScene,
    generate_scene,
    render_cue_grid,
    resample_objects,
    simulate_predictions,
)

__version__ = "0.1.0"

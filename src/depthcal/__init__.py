"""depthcal: two-stage RGB-D depth sensor calibration toolkit.

Estimates a binned per-pixel depth undistortion map, a four-corner global
depth correction map and the camera-depth sensor rigid transform from wall
shots of a checkerboard, then applies the corrections to depth frames in
real time. A synthetic sensor bench makes the whole pipeline verifiable
without hardware.
"""

from .geometry import (
    CameraIntrinsics,
    DepthImage,
    GeometryError,
    KINECT1_QUANTIZATION,
    OrganizedCloud,
    Plane,
    RigidTransform,
    depth_to_cloud,
    estimate_transform_from_planes,
    fit_plane,
    lm_minimize,
    project_point,
    solve_pnp,
    transform_plane,
)
from .maps import (
    FitMoments,
    GlobalMap,
    MapError,
    PolyFn,
    UndistortionMap,
    apply_global,
    apply_undistortion,
)
from .calib_undistort import (
    BoardSpec,
    CalibrationError,
    Frame,
    UndistortConfig,
    estimate_undistortion_map,
    fit_reference_plane,
    select_wall_points,
    sort_frames_by_distance,
    update_map,
)
from .calib_global import (
    GlobalConfig,
    RefinementState,
    build_observations,
    init_global,
    refine,
)
from .pipeline import CalibrationResult, apply_calibration, calibrate
from .synthbench import (
    GroundTruthDistortion,
    LabeledFrame,
    SceneSpec,
    bowl_distortion,
    depth_vs_ground_truth,
    generate_dataset,
    global_error,
    planarity_error,
    render_frame,
    rotation_error,
    standard_scene,
)

__version__ = "0.1.0"

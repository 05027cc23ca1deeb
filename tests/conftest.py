"""Shared fixtures: acceptance-scale synthetic datasets and calibrations.

The heavyweight fixtures are session-scoped and lazy, so unit-test runs do
not pay for them; the acceptance module drives the full-size pipelines.
"""

import time

import numpy as np
import pytest

import depthcal as dc
from depthcal import synthbench as sb
from depthcal.maps import PolyFn
from oracles import correct_depth_image

ACCEPT_SEED_A = 11
ACCEPT_SEED_B = 21
FACTORY_GUESS = dc.RigidTransform((1, 0, 0, 0), (0.025, 0.0, 0.0))


def acceptance_ucfg(degree=2):
    return dc.UndistortConfig(chi=2, psi=2, degree=degree, seed=1,
                              min_inliers=200, fit_radius=48)


def acceptance_gcfg():
    return dc.GlobalConfig(max_points_per_frame=800)


def _render_scene(scene):
    return [sb.render_frame(scene, k) for k in range(scene.n_frames)]


class StageOneRun:
    """Stage one on one dataset variant plus its per-distance planarity table."""

    def __init__(self, scene, frames, degree):
        self.scene = scene
        self.frames = frames
        train = [f.frame for f in frames if not f.is_test]
        tic = time.perf_counter()
        self.umap, _, _ = dc.estimate_undistortion_map(
            train, FACTORY_GUESS, scene.intr_rgb, scene.intr_depth,
            scene.board, acceptance_ucfg(degree))
        self.elapsed = time.perf_counter() - tic
        self.planarity = {}  # distance -> (uncorrected, corrected)
        for lf in frames:
            if not lf.is_test:
                continue
            cloud = dc.depth_to_cloud(lf.frame.depth, scene.intr_depth)
            und = dc.depth_to_cloud(dc.apply_undistortion(self.umap, lf.frame.depth),
                                    scene.intr_depth)
            wall = (lf.labels == sb.LABEL_WALL) & und.valid
            self.planarity[round(lf.wall_distance, 3)] = (
                sb.planarity_error(cloud, wall), sb.planarity_error(und, wall))


class PipelineRun:
    """Full two-stage calibration on one dataset variant plus test metrics."""

    def __init__(self, scene, frames):
        self.scene = scene
        self.frames = frames
        train = [f.frame for f in frames if not f.is_test]
        self.result = dc.calibrate(train, FACTORY_GUESS, scene.intr_rgb,
                                   scene.intr_depth, scene.board,
                                   acceptance_ucfg(), acceptance_gcfg())
        self.depth_vs_gt = {}
        self.rotation_errors = {}
        for k, lf in enumerate(frames):
            if not lf.is_test:
                continue
            corrected = correct_depth_image(self.result.umap, self.result.gmap,
                                            lf.frame.depth)
            cloud = dc.depth_to_cloud(corrected, self.result.intr_depth)
            wall = (lf.labels == sb.LABEL_WALL) & cloud.valid
            dist = round(lf.wall_distance, 3)
            self.depth_vs_gt[dist] = sb.depth_vs_ground_truth(
                cloud, wall, lf.wall_distance)
            rot_w2s = scene.pose(k).inverse().rotation_matrix
            normal = dc.fit_plane(cloud.points_at(wall)).normal
            self.rotation_errors[dist] = tuple(
                sb.rotation_error(normal, rot_w2s @ axis)
                for axis in ((1.0, 0, 0), (0, 1.0, 0)))


def _scene_a(noise):
    return sb.standard_scene(
        n_train=50, n_test=8, seed=ACCEPT_SEED_A, noise=noise,
        width=320, height=240, tilt_deg=15.0,
        distortion=sb.bowl_distortion(320, 240, grid_bin=(2, 2)))


def _scene_b(noise):
    bias = PolyFn((0.0, 0.97, 0.008), constant_zero=True)
    return sb.standard_scene(
        n_train=50, n_test=8, seed=ACCEPT_SEED_B, noise=noise,
        width=320, height=240, tilt_deg=15.0,
        distortion=sb.bowl_distortion(320, 240, grid_bin=(2, 2),
                                      global_correction=bias))


@pytest.fixture(scope="session")
def dataset_a_clean():
    scene = _scene_a(noise=False)
    return scene, _render_scene(scene)


@pytest.fixture(scope="session")
def dataset_a_noisy():
    scene = _scene_a(noise=True)
    return scene, _render_scene(scene)


@pytest.fixture(scope="session")
def stage_one_runs(dataset_a_clean, dataset_a_noisy):
    """Degree-2 stage-one runs on both variants of dataset A."""
    return {
        "clean": StageOneRun(*dataset_a_clean, degree=2),
        "noisy": StageOneRun(*dataset_a_noisy, degree=2),
    }


@pytest.fixture(scope="session")
def degree_study(dataset_a_clean, dataset_a_noisy, stage_one_runs):
    """Planarity tables for degrees 1-3 on both variants of dataset A."""
    runs = {("clean", 2): stage_one_runs["clean"],
            ("noisy", 2): stage_one_runs["noisy"]}
    for name, (scene, frames) in (("clean", dataset_a_clean),
                                  ("noisy", dataset_a_noisy)):
        for degree in (1, 3):
            runs[(name, degree)] = StageOneRun(scene, frames, degree)
    return runs


@pytest.fixture(scope="session")
def pipeline_b_clean():
    scene = _scene_b(noise=False)
    return PipelineRun(scene, _render_scene(scene))


@pytest.fixture(scope="session")
def pipeline_b_noisy():
    scene = _scene_b(noise=True)
    return PipelineRun(scene, _render_scene(scene))


@pytest.fixture(scope="session")
def small_refine_setup():
    """A compact stage-two problem at the ground truth, for solver checks."""
    from depthcal.calib_global import FrameObservations, _RefineProblem

    scene = sb.standard_scene(
        n_train=6, n_test=1, seed=13, noise=False, width=80, height=60,
        tilt_deg=15.0,
        distortion=sb.bowl_distortion(80, 60, peak=0.015, grid_bin=(2, 2)))
    frames = [sb.render_frame(scene, k) for k in range(scene.n_train)]
    uu, vv = np.meshgrid(np.arange(80.0), np.arange(60.0))
    observations = []
    poses = []
    for lf in frames:
        fixed = scene.distortion.undistortion_field.pixel_coefficients(uu, vv)
        d = lf.frame.depth.data
        dhat = fixed[:, :, 0] + fixed[:, :, 1] * d + fixed[:, :, 2] * d * d
        v, u = np.nonzero(lf.labels == sb.LABEL_WALL)
        take = np.unique(np.linspace(0, len(u) - 1, 60).astype(int))
        uv = np.column_stack([u, v])[take]
        observations.append(FrameObservations(
            lf.frame.frame_id, lf.frame.corner_points.copy(), uv,
            dhat[uv[:, 1], uv[:, 0]]))
        poses.append(lf.true_board_pose)
    state = dc.RefinementState(
        extrinsic=scene.true_extrinsic, board_poses=tuple(poses),
        intr_depth=scene.intr_depth, gmap=dc.GlobalMap.identity(80, 60))
    problem = _RefineProblem(state, observations, scene.intr_rgb, scene.board)
    return scene, state, observations, problem

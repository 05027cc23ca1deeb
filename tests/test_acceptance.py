"""Acceptance suite: every release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines. All tolerances are pinned here.
"""

import contextlib
import os
import time

import numpy as np
import pytest

import depthcal as dc
from depthcal import formats, pipeline
from depthcal import synthbench as sb
from depthcal.calib_global import refine
from depthcal.cli import main as cli_main
from depthcal.geometry import horner, lm_jacobian
from oracles import correct_depth_image, surrounding


def SIGMA(z):
    return horner(dc.KINECT1_QUANTIZATION, z)


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_undistortion_round_trip(stage_one_runs):
    with criterion(1, "undistortion round trip"):
        clean = stage_one_runs["clean"]
        for dist, (_, corrected) in sorted(clean.planarity.items()):
            assert corrected < 1e-4, \
                f"noiseless planarity {corrected:.2e} at {dist} m"
        noisy = stage_one_runs["noisy"]
        for dist, (uncorrected, corrected) in sorted(noisy.planarity.items()):
            assert corrected <= 1.5 * SIGMA(dist), \
                f"noisy planarity {corrected:.2e} at {dist} m"
            if dist >= 3.0:
                assert uncorrected > 3.0 * SIGMA(dist), \
                    f"uncorrected {uncorrected:.2e} at {dist} m under 3 sigma"
        assert clean.elapsed < 120.0, f"stage one took {clean.elapsed:.1f} s"


def test_criterion_2_degree_study(degree_study):
    # The 4x gap between degree-1 and degree-2 maps is evaluated on the
    # noiseless variant: with noise on, every map is floored at sigma(z)
    # (2.3 cm at 4 m) while the uncorrected input is ~9 cm, which caps the
    # attainable ratio below 4 regardless of the estimator. The degree-3
    # comparison runs on the noisy variant, where both degrees sit at the
    # physical floor; on noiseless data it is a ratio of two near-zero
    # numbers.
    with criterion(2, "degree study"):
        at4 = lambda run: run.planarity[min(run.planarity,
                                            key=lambda d: abs(d - 4.0))][1]
        d1 = at4(degree_study[("clean", 1)])
        d2 = at4(degree_study[("clean", 2)])
        assert d1 >= 4.0 * d2, f"degree-1 {d1:.2e} vs degree-2 {d2:.2e}"
        n2 = at4(degree_study[("noisy", 2)])
        n3 = at4(degree_study[("noisy", 3)])
        assert abs(n3 - n2) <= 0.2 * n2, f"degree-3 {n3:.2e} vs degree-2 {n2:.2e}"


def test_criterion_3_global_correction(pipeline_b_clean, pipeline_b_noisy):
    with criterion(3, "global correction"):
        for dist, err in sorted(pipeline_b_noisy.depth_vs_gt.items()):
            assert abs(err) <= 0.02, f"noisy depth error {err:+.4f} m at {dist} m"
        for dist, err in sorted(pipeline_b_clean.depth_vs_gt.items()):
            assert abs(err) <= 1e-3, f"noiseless depth error {err:+.5f} m at {dist} m"
        # forward-inverse consistency on held-out frames: the noiseless
        # calibration recovers the true per-pixel depth, not just the mean
        run = pipeline_b_clean
        for lf in run.frames:
            if not lf.is_test:
                continue
            corrected = correct_depth_image(run.result.umap, run.result.gmap,
                                            lf.frame.depth)
            wall = (lf.labels == sb.LABEL_WALL) & corrected.valid
            mae = float(np.mean(np.abs(corrected.data[wall]
                                       - lf.true_depth.data[wall])))
            assert mae < 1e-4, f"held-out MAE {mae:.2e} m at {lf.wall_distance} m"


def test_criterion_4_extrinsic_recovery(pipeline_b_clean, pipeline_b_noisy):
    with criterion(4, "extrinsic recovery"):
        for run, t_tol, r_tol in ((pipeline_b_clean, 5e-4, 0.05),
                                  (pipeline_b_noisy, 5e-3, 0.5)):
            true = run.scene.true_extrinsic
            est = run.result.extrinsic
            t_err = np.linalg.norm(est.translation - true.translation)
            r_err = np.degrees(est.compose(true.inverse()).rotation_angle())
            assert t_err <= t_tol, f"translation error {t_err * 1e3:.3f} mm"
            assert r_err <= r_tol, f"rotation error {r_err:.4f} deg"


def test_criterion_5_rotation_error(pipeline_b_clean, pipeline_b_noisy):
    with criterion(5, "rotation error"):
        for run, tol in ((pipeline_b_clean, 0.01), (pipeline_b_noisy, 0.5)):
            for dist, (ex, ey) in sorted(run.rotation_errors.items()):
                assert abs(ex) <= tol and abs(ey) <= tol, \
                    f"e_rot ({ex:+.4f}, {ey:+.4f}) deg at {dist} m, tol {tol}"


def test_criterion_6_gradient_integrity(small_refine_setup, pipeline_b_clean,
                                        pipeline_b_noisy):
    with criterion(6, "gradient and objective integrity"):
        scene, state, observations, problem = small_refine_setup
        x0 = problem.pack_initial()
        rng = np.random.default_rng(17)
        cost = lambda x: float(np.sum(problem.residual(x) ** 2))
        for _ in range(10):
            x = x0 + rng.normal(0, 5e-4, x0.size)
            r = problem.residual(x)
            jac = lm_jacobian(problem.residual, x, r)
            v = rng.normal(size=x.size)
            v /= np.linalg.norm(v)
            jv = 2.0 * r @ (jac @ v)
            h = 1e-6
            fd = (cost(x + h * v) - cost(x - h * v)) / (2 * h)
            assert jv == pytest.approx(fd, rel=1e-4, abs=1e-9)
            # the block normal equations that refine passes to the solver
            _, jtr = problem.normal_equations(problem.residual, x, r)
            jv_refine = 2.0 * jtr @ v
            assert jv_refine == pytest.approx(fd, rel=1e-4, abs=1e-9)
        for run in (pipeline_b_clean, pipeline_b_noisy):
            trace = np.asarray(run.result.cost_trace)
            assert np.all(np.diff(trace) <= 0.0)


def test_criterion_7_invariants(small_refine_setup, pipeline_b_clean, tmp_path):
    with criterion(7, "invariant suites"):
        rng = np.random.default_rng(23)

        # bilinear partition of unity over random bin sizes and pixels
        checked = 0
        while checked < 10_000:
            chi = int(rng.integers(1, 33))
            psi = int(rng.integers(1, 33))
            w = int(rng.integers(2, 200))
            h = int(rng.integers(2, 200))
            m = dc.UndistortionMap.identity(w, h, chi, psi)
            for _ in range(50):
                u = int(rng.integers(0, w))
                v = int(rng.integers(0, h))
                weights = [wt for _, wt in surrounding(m, u, v)]
                assert abs(sum(weights) - 1.0) < 1e-12
                checked += 1

        # dependent-corner identity at every solver evaluation of a real
        # refine run (a superset of the accepted steps)
        from depthcal import calib_global

        scene, state, observations, problem = small_refine_setup
        recorded = []
        original_residual = calib_global._RefineProblem.residual

        def recording(self, x):
            recorded.append((self, np.array(x)))
            return original_residual(self, x)

        calib_global._RefineProblem.residual = recording
        try:
            bent = dc.RefinementState(
                extrinsic=dc.RigidTransform(
                    state.extrinsic.quaternion,
                    state.extrinsic.translation + (0.003, 0, -0.002)),
                board_poses=state.board_poses, intr_depth=state.intr_depth,
                gmap=dc.GlobalMap.from_free_coefficients(
                    80, 60, [1.01, 0.002, 0.99, -0.001, 1.0, 0.003]))
            refine(bent, observations, scene.intr_rgb, scene.board)
        finally:
            calib_global._RefineProblem.residual = original_residual
        assert len(recorded) > 10
        d = np.linspace(0.5, 5.0, 20)
        for prob, x in recorded:
            g = prob.unpack(x).gmap
            g00, gw0, g0h = g.corners
            expected = gw0 + g0h - g00
            # G's value at its dependent corner (W, H)
            assert np.max(np.abs(g.correct(g.width, g.height, d)
                                 - horner(expected, d))) < 1e-12

        # a valid global map keeps exact planes exact: the blended field is
        # affine over the image, so a fronto-parallel plane's corrected
        # depth field is still a plane (checked per fitted height field)
        for _ in range(20):
            free = rng.normal(0, 0.02, 6) + [1, 0, 1, 0, 1, 0]
            g = dc.GlobalMap.from_free_coefficients(64, 48, free)
            depth = float(rng.uniform(0.8, 4.5))
            img = dc.DepthImage(64, 48, np.full((48, 64), depth))
            out = dc.apply_global(g, img)
            uu, vv = np.meshgrid(np.arange(64.0), np.arange(48.0))
            field = np.column_stack([uu.ravel(), vv.ravel(), out.data.ravel()])
            plane = dc.fit_plane(field[:: 7])
            rms = float(np.sqrt(np.mean(plane.signed_distance(field) ** 2)))
            assert rms < 1e-9

        # identity-map idempotence, bit exact
        data = rng.uniform(0.5, 4.5, (48, 64))
        data[rng.uniform(size=(48, 64)) < 0.05] = 0.0
        img = dc.DepthImage(64, 48, data)
        ident_u = dc.UndistortionMap.identity(64, 48, 4, 4)
        ident_g = dc.GlobalMap.identity(64, 48)
        assert np.array_equal(dc.apply_undistortion(ident_u, img).data, img.data)
        assert np.array_equal(dc.apply_global(ident_g, img).data, img.data)
        assert np.array_equal(correct_depth_image(ident_u, ident_g, img).data,
                              img.data)

        # serialization round trips, byte exact
        res = pipeline_b_clean.result
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        formats.write_calibration(a, res.umap, res.gmap, res.extrinsic,
                                  res.intr_depth, res.intr_rgb)
        formats.write_calibration(b, *formats.read_calibration(a))
        assert a.read_bytes() == b.read_bytes()
        pgm = tmp_path / "d.pgm"
        formats.write_depth_pgm(pgm, dc.DepthImage(64, 48, np.round(data, 3)))
        first = pgm.read_bytes()
        formats.write_depth_pgm(pgm, formats.read_depth_pgm(pgm))
        assert pgm.read_bytes() == first

        # fixed-seed full-pipeline determinism through the CLI, byte exact
        ds = tmp_path / "ds"
        assert cli_main(["simulate", "--out", str(ds), "--train", "12",
                         "--test", "2", "--seed", "5"]) == 0
        outs = []
        for name in ("c1.txt", "c2.txt"):
            out = tmp_path / name
            assert cli_main(["calibrate", "--dataset", str(ds), "--out",
                             str(out), "--bin", "2x2", "--fit-radius", "48",
                             "--min-inliers", "100", "--seed", "9"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def _bench_calibration():
    rng = np.random.default_rng(31)
    umap = dc.UndistortionMap.identity(640, 480, 4, 4, 2)
    coeffs = umap.coefficients + rng.normal(0, 1e-3, umap.coefficients.shape)
    umap = umap.with_coefficients(coeffs)
    gmap = dc.GlobalMap.from_free_coefficients(
        640, 480, [0.99, 0.002, 1.01, 0.001, 0.98, 0.003])
    intr = dc.CameraIntrinsics(fx=580.0, fy=580.0, cx=319.5, cy=239.5,
                               width=640, height=480)
    v, u = np.mgrid[0:480, 0:640]
    img = dc.DepthImage(640, 480, 1.5 + 2.0 * u / 639.0)
    return umap, gmap, intr, img


def test_criterion_8_runtime_budget():
    with criterion(8, "single-thread runtime budget"):
        umap, gmap, intr, img = _bench_calibration()
        pipeline.apply_calibration(umap, gmap, img, intr, 1)  # warmup + cache
        times = []
        for _ in range(30):
            tic = time.perf_counter()
            single = pipeline.apply_calibration(umap, gmap, img, intr, 1)
            times.append((time.perf_counter() - tic) * 1000.0)
        mean_ms = float(np.mean(times))
        assert mean_ms < 33.3, f"640x480 correction took {mean_ms:.2f} ms mean"
        multi = pipeline.apply_calibration(umap, gmap, img, intr, 2)
        assert np.array_equal(single.points, multi.points)
        assert np.array_equal(single.valid, multi.valid)


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="multi-thread speedup needs >= 2 CPU cores; "
                           "this machine has 1")
def test_criterion_8_multithread_speedup():
    with criterion(8, "multi-thread speedup"):
        umap, gmap, intr, img = _bench_calibration()
        threads = min(os.cpu_count() or 1, 4)

        # the two thread counts alternate call by call, so a change in host
        # load between two timing blocks cannot decide the comparison
        counts = (1, threads)
        for n_threads in counts:
            pipeline.apply_calibration(umap, gmap, img, intr, n_threads)  # warmup
        times = {n_threads: [] for n_threads in counts}
        for _ in range(30):
            for n_threads in counts:
                tic = time.perf_counter()
                pipeline.apply_calibration(umap, gmap, img, intr, n_threads)
                times[n_threads].append(time.perf_counter() - tic)
        single = float(np.mean(times[1]))
        multi = float(np.mean(times[threads]))
        assert multi < single, (f"{threads} threads: {multi * 1e3:.2f} ms vs "
                                f"single {single * 1e3:.2f} ms")

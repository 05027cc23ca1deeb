"""Which program bindings the traced run wraps, and the per-layer metrics.

Each binding is wrapped under the name its caller looks it up by. A module
that imports a function holds its own binding, so `calib_undistort.update_map`
(stage one) and `calib_global.update_map` (global init) are wrapped
separately, as are `solve_pnp` in both calibration stages and the two
`lm_minimize` bindings. `maps.correct_depth_image` is wrapped on `maps`
because `apply_calibration` imports it when it is called.

Every metric is normalised per op of the workload family that exercises the
layer: per calibration, per stream frame, or per file op. The comment on each
entry of `PER_LAYER` names the end-to-end metric it should move.
"""

from __future__ import annotations

import numpy as np

# name -> unit; the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = {
    # calib_undistort -> op_p50_ms on calib-accept
    "calib_undistort.stage1.s": "s",
    "calib_undistort.sort.s": "s",
    "calib_undistort.ransac.s": "s",
    "calib_undistort.ransac.calls": "count",
    "calib_undistort.wall.inliers": "count",
    "calib_undistort.refplane.s": "s",
    # map updates also move peak_rss_mb: SampleGrid copies on every call
    "calib_undistort.map_update.stage1.s": "s",
    "calib_undistort.map_update.stage1.calls": "count",
    "calib_undistort.map_update.global_init.s": "s",
    "calib_undistort.map_update.global_init.calls": "count",
    # a skipped frame can push the accuracy past its tolerance (failed ops)
    "calib_undistort.frames.skipped": "count",
    # maps -> op_p50_ms on calib-accept
    "maps.curve_fit.s": "s",
    "maps.curve_fit.calls": "count",
    "maps.curve_fit.rows": "count",
    "maps.curve_fit.ok_ratio": "ratio",
    "maps.undistort_apply.s": "s",
    "maps.undistort_apply.calls": "count",
    # maps -> op_p50_ms on correct-stream
    "maps.correct_depth.s": "s",
    "maps.u_eval.s": "s",
    "maps.g_eval.s": "s",
    # maps -> op_p50_ms on correct-file (cold caches on a freshly read map)
    "maps.dense_cache.s": "s",
    "maps.dense_cache.bytes": "bytes",
    # geometry -> op_p50_ms on calib-accept
    "geometry.pnp.s": "s",
    "geometry.pnp.calls": "count",
    # geometry -> op_p50_ms on correct-stream
    "geometry.back_project.s": "s",
    # geometry, the refinement's LM solve only -> op_p50_ms on calib-accept
    "geometry.lm.iterations": "count",
    "geometry.lm.residual_evals": "count",
    "geometry.lm.rejected_steps": "count",
    "geometry.lm.jacobian.s": "s",
    "geometry.lm.jacobian.calls": "count",
    "geometry.lm.jacobian.bytes": "bytes",
    "geometry.lm.self.s": "s",
    # calib_global -> op_p50_ms on calib-accept
    "calib_global.global_init.s": "s",
    "calib_global.refine.s": "s",
    "calib_global.refine.residual.s": "s",
    "calib_global.refine.points": "count",
    # pipeline -> op_p50_ms on calib-accept
    "pipeline.calibrate.s": "s",
    "pipeline.calibrate.self.s": "s",
    # pipeline -> op_p50_ms on correct-stream (apply_mt: the mt times it prints)
    "pipeline.apply.s": "s",
    "pipeline.apply_mt.s": "s",
    # pipeline accuracy of the traced calibration; deterministic per seed.
    # A speed change must leave these inside the checked tolerances, or its
    # calibration ops fail
    "pipeline.extrinsic_t_err_mm": "mm",
    "pipeline.extrinsic_r_err_deg": "deg",
    "pipeline.depth_err_mm": "mm",
    "pipeline.planarity_err_mm": "mm",
    # formats -> op_p50_ms on calib-accept
    "formats.dataset_read.s": "s",
    "formats.calib_write.s": "s",
    # formats -> op_p50_ms on correct-file
    "formats.calib_read.s": "s",
    "formats.pgm_read.s": "s",
    "formats.pgm_read.bytes": "bytes",
    "formats.ply_write.s": "s",
    "formats.ply_write.bytes": "bytes",
    # the tracer itself: traced op median / untraced op median - 1, per
    # correction family, and whether the traced calibration wrote identical
    # bytes
    "trace.overhead.stream": "ratio",
    "trace.overhead.file": "ratio",
    "trace.calib_bytes_equal": "count",
}


# Recording hooks. A hook that no longer fits a signature is reported by the
# tracer and leaves the call alone, so they need no defensive code.


def _count_ok(span, args, kwargs, result):
    span.attrs["rows"] = int(np.shape(args[0])[0])
    span.attrs["ok"] = int(np.count_nonzero(result[1]))


def _count_inliers(span, args, kwargs, result):
    span.attrs["inliers"] = len(result)


def _count_points(span, args, kwargs, result):
    span.attrs["points"] = sum(len(o.uv) for o in args[1])


def _jacobian_size(span, args, kwargs, result):
    span.attrs["bytes"] = int(np.size(result)) * 8


def _lm_stats(span, args, kwargs, result):
    span.attrs["iterations"] = result.iterations
    span.attrs["accepted"] = len(result.cost_trace) - 1


def install_calibration(tracer, modules):
    """Wrap the bindings one calibration goes through."""
    cu, cg, geo, pl = (modules[k] for k in
                       ("calib_undistort", "calib_global", "geometry", "pipeline"))

    def trace_residual(span, args, kwargs):
        return (tracer.traced_callable(args[0], "residual"),) + args[1:], kwargs

    tracer.wrap(pl, "estimate_undistortion_map", "stage1")
    tracer.wrap(pl, "init_global", "global_init")
    tracer.wrap(pl, "refine", "refine", after=_count_points)
    tracer.wrap(cu, "sort_frames_by_distance", "sort")
    tracer.wrap(cu, "select_wall_points", "ransac", after=_count_inliers)
    tracer.wrap(cu, "fit_reference_plane", "refplane")
    tracer.wrap(cu, "update_map", "map_update")
    tracer.wrap(cg, "update_map", "map_update")
    tracer.wrap(cu, "fit_weighted_poly_batch", "curve_fit", after=_count_ok)
    tracer.wrap(cu, "apply_undistortion", "undistort_apply")
    tracer.wrap(cu, "solve_pnp", "pnp")
    tracer.wrap(cg, "solve_pnp", "pnp")
    tracer.wrap(cg, "lm_minimize", "lm", before=trace_residual, after=_lm_stats)
    tracer.wrap(geo, "lm_minimize", "lm", before=trace_residual, after=_lm_stats)
    tracer.wrap(geo, "lm_jacobian", "jacobian", after=_jacobian_size)


def install_correction(tracer, modules):
    """Wrap the bindings one correction goes through, for one op.

    The first `dense_coefficients` call on each map is marked cold. Install
    once per op: within one op the maps stay alive, so their ids cannot be
    reused.
    """
    maps, pl = modules["maps"], modules["pipeline"]
    seen = set()

    def mark_cold(span, args, kwargs):
        key = id(args[0]) if args else None
        span.attrs["cold"] = key not in seen
        seen.add(key)
        return args, kwargs

    def dense_size(span, args, kwargs, result):
        span.attrs["bytes"] = int(getattr(result, "nbytes", 0))

    tracer.wrap(maps, "correct_depth_image", "correct_depth")
    tracer.wrap(pl, "depth_to_cloud", "back_project")
    tracer.wrap(getattr(maps, "UndistortionMap", None), "dense_coefficients",
                "dense_cache", before=mark_cold, after=dense_size)


def calibration_metrics(tracer, n_ops):
    """Per-calibration layer metrics from the spans of `n_ops` calibrations."""
    t = tracer
    n = max(n_ops, 1)
    refine_lm = t.select("lm", under="refine")
    rows = t.attr_sum("curve_fit", "rows", under="calibrate")
    ok = t.attr_sum("curve_fit", "ok", under="calibrate")
    residual_direct = sum(1 for s in t.select("residual", under="refine")
                          if s.parent is not None and s.parent.name == "lm")
    accepted = sum(s.attrs.get("accepted", 0) for s in refine_lm)
    lm_evals = residual_direct - len(refine_lm)  # minus each initial evaluation
    jac = t.select("jacobian", under="refine")
    return {
        "calib_undistort.stage1.s": t.total("stage1") / n,
        "calib_undistort.sort.s": t.total("sort") / n,
        "calib_undistort.ransac.s": t.total("ransac") / n,
        "calib_undistort.ransac.calls": t.count("ransac") / n,
        "calib_undistort.wall.inliers": t.attr_sum("ransac", "inliers") / n,
        "calib_undistort.refplane.s": t.total("refplane") / n,
        "calib_undistort.map_update.stage1.s": t.total("map_update", under="stage1") / n,
        "calib_undistort.map_update.stage1.calls": t.count("map_update", under="stage1") / n,
        "calib_undistort.map_update.global_init.s":
            t.total("map_update", under="global_init") / n,
        "calib_undistort.map_update.global_init.calls":
            t.count("map_update", under="global_init") / n,
        "maps.curve_fit.s": t.total("curve_fit", under="calibrate") / n,
        "maps.curve_fit.calls": t.count("curve_fit", under="calibrate") / n,
        "maps.curve_fit.rows": rows / n,
        "maps.curve_fit.ok_ratio": ok / rows if rows else 0.0,
        "maps.undistort_apply.s": t.total("undistort_apply", under="calibrate") / n,
        "maps.undistort_apply.calls": t.count("undistort_apply", under="calibrate") / n,
        "geometry.pnp.s": t.total("pnp", under="calibrate") / n,
        "geometry.pnp.calls": t.count("pnp", under="calibrate") / n,
        "geometry.lm.iterations": sum(s.attrs.get("iterations", 0) for s in refine_lm) / n,
        "geometry.lm.residual_evals": residual_direct / n,
        "geometry.lm.rejected_steps": (lm_evals - accepted) / n,
        "geometry.lm.jacobian.s": sum(s.duration for s in jac) / n,
        "geometry.lm.jacobian.calls": len(jac) / n,
        "geometry.lm.jacobian.bytes": max((s.attrs.get("bytes", 0) for s in jac), default=0),
        "geometry.lm.self.s": sum(t.self_time(s) for s in refine_lm) / n,
        "calib_global.global_init.s": t.total("global_init") / n,
        "calib_global.refine.s": t.total("refine") / n,
        "calib_global.refine.residual.s": t.total("residual", under="refine") / n,
        "calib_global.refine.points": t.attr_sum("refine", "points") / n,
        "pipeline.calibrate.s": t.total("calibrate") / n,
        "pipeline.calibrate.self.s": t.total_self("calibrate") / n,
        "formats.dataset_read.s": t.total("dataset_read") / n,
        "formats.calib_write.s": t.total("calib_write") / n,
    }


def stream_metrics(tracer, n_frames):
    """Per-frame layer metrics from traced stream frames."""
    t = tracer
    n = max(n_frames, 1)
    return {
        "maps.correct_depth.s": t.total("correct_depth", under="apply") / n,
        "maps.u_eval.s": t.total("u_eval") / n,
        "maps.g_eval.s": t.total("g_eval") / n,
        "geometry.back_project.s": t.total("back_project", under="apply") / n,
        "pipeline.apply.s": t.total("apply") / n,
        "pipeline.apply_mt.s": t.total("apply_mt") / n,
    }


def file_metrics(tracer, n_ops):
    """Per-op layer metrics from traced correct-file ops."""
    t = tracer
    n = max(n_ops, 1)
    cold = [s for s in t.select("dense_cache", under="file_op") if s.attrs.get("cold")]
    return {
        "maps.dense_cache.s": sum(s.duration for s in cold) / n,
        "maps.dense_cache.bytes": sum(s.attrs.get("bytes", 0) for s in cold) / n,
        "formats.calib_read.s": t.total("calib_read") / n,
        "formats.pgm_read.s": t.total("pgm_read") / n,
        "formats.pgm_read.bytes": t.attr_sum("pgm_read", "bytes") / n,
        "formats.ply_write.s": t.total("ply_write") / n,
        "formats.ply_write.bytes": t.attr_sum("ply_write", "bytes") / n,
    }

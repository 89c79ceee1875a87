"""Command-line interface: simulation, registration, sampling, prediction,
and post-processing, all emitting plot-ready CSV plus a JSON run summary."""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import io
from .avb import avb_fit, avb_fit_noisy, presmooth_only, registered_curves
from .errors import DataError, GpalignError, NumericalError
from .mcmc import check_chain_args, run_chain
from .metrics import mean_warp_correction, sls
from .model import Hyperparams, ModelConfig, check_level
from .penalties import build_penalty_set, build_time_grid
from .prediction import PartialObservation, bootstrap_bands
from .simulate import KINDS, simulate_dataset
from .warping import warp_from_base

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

CONFIG_KEYS = {
    "gamma_r": float, "gamma_w": str, "lambda_w": float,
    "a": float, "b": float, "c": float, "d": float,
    "tol": float, "max_iters": int, "seed": int, "w_penalty_order": int,
}


def _read_config_file(path: str) -> dict:
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = CONFIG_KEYS[key](val.strip())
    return values


def _parse_gamma_w(text: str):
    parts = [float(v) for v in str(text).split(",") if v.strip()]
    return parts[0] if len(parts) == 1 else np.asarray(parts)


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value file; flags override it")
    parser.add_argument("--gamma-r", type=float, default=None,
                        help="registration penalty (default 1000)")
    parser.add_argument("--gamma-w", type=str, default=None,
                        help="warping penalty; comma-separate for per-curve values")
    parser.add_argument("--lambda-w", type=float, default=None,
                        help="base-function smoothing penalty (default 100)")
    parser.add_argument("--w-penalty-order", type=int, choices=(1, 2), default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--max-iters", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)


DEFAULTS = {
    "gamma_r": 1000.0, "gamma_w": "10.0", "lambda_w": 100.0,
    "a": 0.001, "b": 0.001, "c": 0.001, "d": 0.001,
    "tol": 1e-6, "max_iters": 200, "seed": 0, "w_penalty_order": 2,
}


def _resolve(args) -> dict:
    values = dict(DEFAULTS)
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config))
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    values["gamma_w"] = _parse_gamma_w(values["gamma_w"])
    return values


def _model_config(values: dict, noisy: bool = False) -> ModelConfig:
    cfg = ModelConfig(
        gamma_R=values["gamma_r"], gamma_w=values["gamma_w"],
        lambda_w=values["lambda_w"], noisy=noisy,
        hyper=Hyperparams(values["a"], values["b"], values["c"], values["d"]),
    )
    return cfg


def _write_band(path: str, grid, estimate, lower, upper) -> None:
    io.write_table(path, ["time", "estimate", "lower", "upper"],
                   [grid.points, estimate, lower, upper])


def _config_echo(values: dict) -> dict:
    echo = dict(values)
    if isinstance(echo["gamma_w"], np.ndarray):
        echo["gamma_w"] = echo["gamma_w"].tolist()
    return echo


def _outdir(args) -> str:
    os.makedirs(args.output_dir, exist_ok=True)
    return args.output_dir


def cmd_simulate(args) -> int:
    values = _resolve(args)
    grid = build_time_grid(np.linspace(args.t0, args.t1, args.points))
    sim = simulate_dataset(args.kind, args.n_curves, grid,
                           noise_sd=args.noise_sd, seed=values["seed"])
    out = _outdir(args)
    io.write_curves(os.path.join(out, "curves.csv"), grid, sim.Y)
    io.write_curves(os.path.join(out, "noiseless.csv"), grid, sim.X)
    io.write_curves(os.path.join(out, "warps_true.csv"), grid, sim.warps)
    io.write_curves(os.path.join(out, "target_true.csv"), grid, sim.target)
    io.write_table(os.path.join(out, "z_true.csv"), ["z0", "z1"], [sim.z0, sim.z1])
    io.write_summary(os.path.join(out, "summary.json"), {
        "command": "simulate", "kind": sim.kind, "n_curves": args.n_curves,
        "noise_sd": args.noise_sd, "seed": values["seed"],
        "grid": {"t0": args.t0, "t1": args.t1, "points": args.points},
    })
    return 0


def _fit_summary(state, elapsed: float) -> dict:
    return {
        "iterations": state.n_iterations,
        "converged": state.converged,
        "stop_reason": state.stop_reason,
        "elbo_trace": list(state.elbo_trace),
        # index of the first noiseless bound value in elbo_trace; null when
        # the fit was noiseless throughout
        "freeze_iteration": state.freeze_iteration,
        "elbo_warnings": list(state.elbo_warnings),
        "line_search_failures": state.line_search_failures,
        "seconds": elapsed,
    }


def cmd_register(args) -> int:
    values = _resolve(args)
    grid, data = io.load_curves(args.input)
    penalties = build_penalty_set(grid, derivative_order_w=values["w_penalty_order"])
    config = _model_config(values)
    t0 = time.perf_counter()
    state = avb_fit(data, config, penalties, tol=values["tol"],
                    max_iters=values["max_iters"])
    elapsed = time.perf_counter() - t0
    registered = registered_curves(state, data, penalties)
    warps = warp_from_base(state.w_hat, grid)
    out = _outdir(args)
    io.write_curves(os.path.join(out, "registered.csv"), grid, registered)
    io.write_curves(os.path.join(out, "warps.csv"), grid, warps)
    io.write_curves(os.path.join(out, "bases.csv"), grid.points[:-1], state.w_hat)
    io.write_curves(os.path.join(out, "target.csv"), grid, state.mu_f)
    report = sls(data, registered, grid)
    io.write_summary(os.path.join(out, "summary.json"), {
        "command": "register", "config": _config_echo(values),
        "sls_before": 1.0, "sls_after": report.sls,
        "fit": _fit_summary(state, elapsed),
    })
    return 0


def cmd_smooth_register(args) -> int:
    values = _resolve(args)
    grid, data = io.load_curves(args.input)
    penalties = build_penalty_set(grid, derivative_order_w=values["w_penalty_order"])
    config = _model_config(values, noisy=True)
    out = _outdir(args)
    # unset, each pipeline keeps its own smoothing length
    freeze = {} if args.freeze_x_after is None else {"freeze_X_after": args.freeze_x_after}
    t0 = time.perf_counter()
    if args.presmooth_only:
        smooth_state = presmooth_only(data, config, penalties, **freeze)
        state = avb_fit(smooth_state.mu_X, _model_config(values), penalties,
                        tol=values["tol"], max_iters=values["max_iters"])
        pipeline = "presmooth+register"
    else:
        state = avb_fit_noisy(data, config, penalties, tol=values["tol"],
                              max_iters=values["max_iters"], **freeze)
        smooth_state, pipeline = state, "simultaneous"
    elapsed = time.perf_counter() - t0
    smoothed = smooth_state.mu_X
    registered = registered_curves(state, smoothed, penalties)
    warps = warp_from_base(state.w_hat, grid)
    sigma_y = smooth_state.b_q_sigma_Y / max(smooth_state.a_q_sigma_Y - 1.0, 1e-12)
    io.write_curves(os.path.join(out, "smoothed.csv"), grid, smoothed)
    io.write_curves(os.path.join(out, "registered.csv"), grid, registered)
    io.write_curves(os.path.join(out, "warps.csv"), grid, warps)
    io.write_curves(os.path.join(out, "target.csv"), grid, state.mu_f)
    report = sls(data, registered, grid)
    io.write_summary(os.path.join(out, "summary.json"), {
        "command": "smooth-register", "pipeline": pipeline,
        "config": _config_echo(values),
        "sigma_Y_sq_estimate": sigma_y,
        "sls_after": report.sls,
        "fit": _fit_summary(state, elapsed),
    })
    return 0


def cmd_mcmc(args) -> int:
    # before the init fit, which takes long and would be wasted
    check_chain_args(args.iters, args.burn_in, args.thin, args.step_scale)
    check_level(args.level)
    values = _resolve(args)
    grid, data = io.load_curves(args.input)
    penalties = build_penalty_set(grid, derivative_order_w=values["w_penalty_order"])
    config = _model_config(values, noisy=args.noisy)
    init = None
    t0 = time.perf_counter()
    if not args.no_init:
        # config.noisy chooses whether the fit smooths
        init = avb_fit(data, config, penalties, tol=values["tol"],
                       max_iters=values["max_iters"])
    chain = run_chain(data, config, penalties, iters=args.iters,
                      burn_in=args.burn_in, thin=args.thin, init=init,
                      seed=values["seed"], step_scale=args.step_scale)
    elapsed = time.perf_counter() - t0
    out = _outdir(args)
    chain.to_csv(out)
    lower, upper = chain.credible_band("f", args.level)
    _write_band(os.path.join(out, "band_f.csv"), grid, chain.f.mean(axis=0), lower, upper)
    io.write_curves(os.path.join(out, "registered_mean.csv"), grid,
                    chain.registered_posterior_mean())
    summary = {
        "command": "mcmc", "config": _config_echo(values),
        "iters": args.iters, "burn_in": args.burn_in, "thin": args.thin,
        "draws": chain.n_draws, "noisy": args.noisy,
        "acceptance_rates": chain.acceptance_rates,
        "seconds": elapsed,
    }
    if args.noisy:
        summary["sigma_Y_sq_posterior_mean"] = float(chain.sigma_Y_sq.mean())
    io.write_summary(os.path.join(out, "summary.json"), summary)
    return 0


def cmd_predict(args) -> int:
    check_level(args.level)
    values = _resolve(args)
    grid, data = io.load_curves(args.input)
    partial_grid, partial_rows = io.load_curves(args.partial)
    if partial_rows.shape[0] != 1:
        raise DataError("partial file must contain exactly one curve")
    r = partial_grid.p
    if r >= grid.p:
        print("error: partial observation must cover fewer points than the grid",
              file=sys.stderr)
        return EXIT_USAGE
    if not np.allclose(partial_grid.points, grid.points[:r]):
        raise DataError("partial times must be a prefix of the training grid")

    penalties = build_penalty_set(grid, derivative_order_w=values["w_penalty_order"])
    config = _model_config(values)
    t0 = time.perf_counter()
    state = avb_fit(data, config, penalties, tol=values["tol"],
                    max_iters=values["max_iters"])
    registered = registered_curves(state, data, penalties)
    window = [float(v) for v in args.window.split(",") if v.strip()]
    partial = PartialObservation(partial_rows[0])
    bands = bootstrap_bands(
        partial, registered, state.w_hat, window, grid, config, penalties,
        M=args.m_outer, S=args.s_inner, quantile_level=args.level,
        sigma_z0_sq=state.b_q_sigma_z0 / state.a_q_sigma_z0,
        sigma_z1_sq=state.b_q_sigma_z1 / state.a_q_sigma_z1,
        ridge_fraction=args.ridge_fraction,
        seed=values["seed"])
    elapsed = time.perf_counter() - t0
    out = _outdir(args)
    point = bands.point
    io.write_table(os.path.join(out, "prediction.csv"),
                   ["time", "registered", "warp", "unregistered"],
                   [grid.points, point.registered_full, point.warp_full,
                    point.unregistered_full])
    for block in ("registered", "warp", "unregistered"):
        _write_band(os.path.join(out, f"bands_{block}.csv"), grid,
                    getattr(point, f"{block}_full"), getattr(bands, f"{block}_lower"),
                    getattr(bands, f"{block}_upper"))
    io.write_summary(os.path.join(out, "summary.json"), {
        "command": "predict", "config": _config_echo(values),
        "t_f": point.t_f, "window": window,
        "M": bands.M, "S": bands.S, "skipped": bands.skipped,
        "skip_reasons": bands.skip_reasons,
        "level": bands.level, "seconds": elapsed,
    })
    return 0


def cmd_sls(args) -> int:
    grid, original = io.load_curves(args.original)
    _, registered = io.load_curves(args.registered)
    report = sls(original, registered, grid)
    summary = {"command": "sls", "sls": report.sls,
               "numerator": report.numerator, "denominator": report.denominator}
    if args.output_dir:
        io.write_summary(os.path.join(_outdir(args), "summary.json"), summary)
    print(f"sls = {report.sls:.6g}")
    return 0


def cmd_correct_time(args) -> int:
    grid, registered = io.load_curves(args.registered)
    _, warps = io.load_curves(args.warps)
    corr = mean_warp_correction(warps, registered, grid)
    out = _outdir(args)
    io.write_curves(os.path.join(out, "corrected_times.csv"), grid, corr.t_tilde)
    io.write_curves(os.path.join(out, "corrected_registered.csv"), grid, corr.registered)
    io.write_curves(os.path.join(out, "corrected_warps.csv"), grid, corr.warps)
    io.write_summary(os.path.join(out, "summary.json"), {
        "command": "correct-time",
        "max_mean_warp_deviation": float(np.max(np.abs(
            corr.warps_on_t_tilde.mean(axis=0) - corr.t_tilde))),
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpalign",
        description="Bayesian curve registration, smoothing, and prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a seeded synthetic dataset")
    p.add_argument("--kind", choices=KINDS, default="gauss3mix")
    p.add_argument("--n-curves", type=int, default=20)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--noise-sd", type=float, default=0.0)
    p.add_argument("--output-dir", required=True)
    _add_model_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("register", help="register noiseless curves (AVB)")
    p.add_argument("--input", required=True)
    p.add_argument("--output-dir", required=True)
    _add_model_args(p)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("smooth-register",
                       help="smooth and register noisy curves in one model")
    p.add_argument("--input", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--freeze-x-after", type=int, default=None,
                   help="smoothing iterations before the smoothed curves are "
                        "frozen (default 5; 25 with --presmooth-only)")
    p.add_argument("--presmooth-only", action="store_true",
                   help="cautionary two-stage pipeline: smooth, then register")
    _add_model_args(p)
    p.set_defaults(func=cmd_smooth_register)

    p = sub.add_parser("mcmc", help="Metropolis-within-Gibbs sampling")
    p.add_argument("--input", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--step-scale", type=float, default=0.05)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--noisy", action="store_true")
    p.add_argument("--no-init", action="store_true",
                   help="skip the variational initialization")
    _add_model_args(p)
    p.set_defaults(func=cmd_mcmc)

    p = sub.add_parser("predict", help="complete a partially observed curve")
    p.add_argument("--input", required=True, help="training curves CSV")
    p.add_argument("--partial", required=True, help="one-curve CSV on a grid prefix")
    p.add_argument("--window", required=True,
                   help="comma-separated candidate final registration times")
    p.add_argument("--m-outer", type=int, default=20)
    p.add_argument("--s-inner", type=int, default=50)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--ridge-fraction", type=float, default=0.05,
                   help="covariance shrinkage for the empirical laws")
    p.add_argument("--output-dir", required=True)
    _add_model_args(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sls", help="alignment quality metric")
    p.add_argument("--original", required=True)
    p.add_argument("--registered", required=True)
    p.add_argument("--output-dir")
    p.set_defaults(func=cmd_sls)

    p = sub.add_parser("correct-time",
                       help="relabel time so the mean warp is the identity")
    p.add_argument("--registered", required=True)
    p.add_argument("--warps", required=True)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_correct_time)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GpalignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

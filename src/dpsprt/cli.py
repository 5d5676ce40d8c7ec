"""Command-line front end: simulate | bounds | compare | tune-kappa.

Configuration comes from a flat key=value text file (``#`` comments), with
every key overridable by a flag; flags win. A manifest is serialized next
to the outputs so that any result can be re-run bit-identically by passing
the manifest as the config file. Exit codes: 0 success, 2 configuration
error, 3 infeasible calibration or tuning, 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

from . import __version__
from .baselines import CalibrationError, PrivSprtConfig, calibrate_privsprt
from .bounds import build_report
from .dp_sprt import (
    Classical,
    Gaussian,
    Laplace,
    LaplaceSub,
    TestConfig,
    default_gamma,
    default_subsample_rate,
    gaussian_scales,
)
from .noise import CorrectionParams
from .exp_family import HypothesisPair
from .harness import (
    ExperimentPlan,
    PlannedVariant,
    run_experiment,
    write_summary_csv,
    write_trials_csv,
)
from .privacy_accounting import estimate_tau_sq, gaussian_rdp_profile, rdp_to_approx_dp
from .rngcore import StreamKey, Substream, derive, fnv1a64
from .svg import write_line_chart

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

ALL_VARIANTS = ["classical", "laplace", "gaussian", "laplace_sub", "privsprt"]

DEFAULTS = {
    "p0": "0.3",
    "p1": "0.7",
    "alpha": "0.05",
    "beta": "0.05",
    "gamma": "auto",
    "rate": "auto",
    "eps": "0.1,1,5",
    "variants": ",".join(ALL_VARIANTS),
    "trials": "1000",
    "seed": "",
    "horizon": "1000000",
    "s": "2.0",
    "kappa": "1.0",
    "truth": "H0",
    "delta": "1e-5",
    "privsprt_pilot": "100",
}


class ConfigError(Exception):
    """Invalid configuration; message carries a file:line anchor when known."""


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    if path.endswith(".json"):
        try:
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: cannot read manifest ({exc})") from None
        cfg = manifest.get("config", manifest)
        if not isinstance(cfg, dict):
            raise ConfigError(f"{path}: manifest has no config mapping")
        return {str(k): str(v) for k, v in cfg.items()}
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config ({exc})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value
    return out


def _resolve_options(args) -> dict[str, str]:
    opts = dict(DEFAULTS)
    if args.config:
        opts.update(_read_config(args.config))
    flag_map = {
        "p0": args.p0, "p1": args.p1, "alpha": args.alpha, "beta": args.beta,
        "gamma": args.gamma, "rate": args.rate, "eps": args.eps,
        "variants": getattr(args, "variants", None), "trials": args.trials,
        "seed": args.seed, "horizon": args.horizon, "s": args.s,
        "kappa": args.kappa, "truth": getattr(args, "truth", None),
        "delta": getattr(args, "delta", None),
        "privsprt_pilot": getattr(args, "privsprt_pilot", None),
    }
    for key, val in flag_map.items():
        if val is not None:
            opts[key] = str(val)
    if not opts.get("seed"):
        opts["seed"] = os.environ.get("DPSPRT_SEED", "0")
    return opts


def _parse_float(opts, key, lo=None, hi=None, open_lo=True, open_hi=True):
    try:
        v = float(opts[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: not a number: {opts[key]!r}") from None
    if lo is not None and (v <= lo if open_lo else v < lo):
        raise ConfigError(f"key {key!r}: value {v} out of range")
    if hi is not None and (v >= hi if open_hi else v > hi):
        raise ConfigError(f"key {key!r}: value {v} out of range")
    return v


def _parse_int(opts, key, minimum):
    try:
        v = int(opts[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: not an integer: {opts[key]!r}") from None
    if v < minimum:
        raise ConfigError(f"key {key!r}: must be >= {minimum}, got {v}")
    return v


def _flag_or_saved(flag, opts, key, default):
    """Subcommand parameters outside the common key set: explicit flag wins,
    then a value restored from a manifest, then the built-in default."""
    if flag is not None:
        return flag
    return opts.get(key, default)


def _parse_eps_list(opts) -> list[float]:
    try:
        eps = [float(tok) for tok in opts["eps"].split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"key 'eps': not a number list: {opts['eps']!r}") from None
    if not eps or any(e <= 0 for e in eps):
        raise ConfigError("key 'eps': need a nonempty list of positive values")
    return eps


def _parse_common(opts):
    p0 = _parse_float(opts, "p0", 0.0, 1.0)
    p1 = _parse_float(opts, "p1", 0.0, 1.0)
    if p0 >= p1:
        raise ConfigError(f"need p0 < p1, got p0={p0}, p1={p1}")
    alpha = _parse_float(opts, "alpha", 0.0, 1.0)
    beta = _parse_float(opts, "beta", 0.0, 1.0)
    seed = _parse_int(opts, "seed", 0)
    return HypothesisPair.of(p0, p1), alpha, beta, seed


def _gamma_opt(opts) -> float | None:
    if opts["gamma"].strip().lower() == "auto":
        return None
    return _parse_float(opts, "gamma", 0.0, 1.0)


def _rate_opt(opts) -> float | None:
    if opts["rate"].strip().lower() == "auto":
        return None
    return _parse_float(opts, "rate", 0.0, 1.0, open_hi=False)


def _build_cells(opts):
    """Expand (variant family) x (epsilon grid) into planned cells.

    PrivSPRT cells come back uncalibrated; the caller calibrates them.
    """
    hyp, alpha, beta, seed = _parse_common(opts)
    eps_list = _parse_eps_list(opts)
    horizon = _parse_int(opts, "horizon", 1)
    s = _parse_float(opts, "s", 1.0)
    kappa = _parse_float(opts, "kappa", 0.0, 1.0, open_hi=False)
    delta = _parse_float(opts, "delta", 0.0, 1.0)
    gamma = _gamma_opt(opts)
    rate = _rate_opt(opts)
    names = [tok.strip() for tok in opts["variants"].split(",") if tok.strip()]
    for name in names:
        if name not in ALL_VARIANTS:
            raise ConfigError(f"key 'variants': unknown variant {name!r}")
    params = CorrectionParams(s=s, kappa=kappa)
    cells = []
    for eps in eps_list:
        for name in names:
            vid = f"{name}@eps={eps:g}"
            if name == "classical":
                cfg = TestConfig(hyp, alpha, beta, Classical(), horizon=horizon)
            elif name == "laplace":
                cfg = TestConfig(hyp, alpha, beta, Laplace(eps), gamma=gamma,
                                 correction=params, horizon=horizon)
            elif name == "gaussian":
                sy, sz = gaussian_scales(eps, delta)
                g = gamma if gamma is not None else default_gamma(eps)
                cfg = TestConfig(hyp, alpha, beta, Gaussian(sy, sz), gamma=g,
                                 correction=params, horizon=horizon)
            elif name == "laplace_sub":
                r = rate if rate is not None else default_subsample_rate(eps)
                cfg = TestConfig(hyp, alpha, beta, LaplaceSub(eps, r), gamma=gamma,
                                 correction=params, horizon=horizon)
            else:
                cfg = PrivSprtConfig.from_epsilon(hyp, eps, delta, horizon=horizon)
            cells.append(PlannedVariant(vid, cfg, eps))
    return cells, hyp, alpha, beta, seed


def _calibrate_privsprt_cells(cells, alpha, beta, seed, pilot):
    out = []
    for cell in cells:
        cfg = cell.config
        if isinstance(cfg, PrivSprtConfig) and cfg.thresh_a is None:
            rng = derive(StreamKey(seed, fnv1a64(cell.variant_id), 0, Substream.PILOT))
            cal = calibrate_privsprt(cfg, alpha, beta, pilot_trials=pilot, rng=rng)
            cfg = replace(cfg, thresh_a=cal.thresh_a, thresh_b=cal.thresh_b)
            cell = replace(cell, config=cfg)
        out.append(cell)
    return out


def _truths(opts) -> list[int]:
    raw = opts["truth"].strip().lower()
    if raw == "both":
        return [0, 1]
    if raw in ("h0", "0"):
        return [0]
    if raw in ("h1", "1"):
        return [1]
    raise ConfigError(f"key 'truth': expected H0, H1, or both, got {opts['truth']!r}")


def _manifest(command: str, opts: dict, outputs: list[str], extra: dict | None = None) -> dict:
    doc = {
        "tool": "dpsprt",
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "config": opts,
        "outputs": outputs,
    }
    if extra:
        doc.update(extra)
    return doc


def _write_outputs(out_dir, command, opts, writers: dict, extra=None) -> None:
    """Write all declared outputs plus the manifest; nothing else."""
    os.makedirs(out_dir, exist_ok=True)
    names = list(writers) + ["manifest.json"]
    for name, writer in writers.items():
        writer(os.path.join(out_dir, name))
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(_manifest(command, opts, names, extra), fh, indent=2)
        fh.write("\n")


def _accounting(cells, opts, args, seed):
    """Privacy-guarantee metadata per cell, for the manifest."""
    notes = {}
    rdp_alpha = float(getattr(args, "rdp_alpha", 2.0) or 2.0)
    tau_bound = getattr(args, "tau_sq_bound", None)
    for cell in cells:
        cfg = cell.config
        if isinstance(cfg, PrivSprtConfig):
            continue
        v = cfg.variant
        if isinstance(v, (Laplace, LaplaceSub)):
            notes[cell.variant_id] = {"kind": "pure_dp", "epsilon": v.epsilon,
                                      "delta": 0.0, "alpha_order": None,
                                      "tau_sq_source": None}
        elif isinstance(v, Gaussian):
            if tau_bound is not None:
                tsq, source = float(tau_bound), "asserted"
            elif getattr(args, "accounting", False):
                rng = derive(StreamKey(seed, fnv1a64(cell.variant_id), 0, Substream.PILOT))
                est = estimate_tau_sq(cfg, 100, rng)
                tsq, source = est.value, f"pilot:{est.n_pilot}" + ("" if est.reliable else ":unreliable")
            else:
                notes[cell.variant_id] = {
                    "kind": "rdp", "epsilon": None, "delta": None,
                    "alpha_order": rdp_alpha,
                    "tau_sq_source": "unavailable (pass --accounting or --tau-sq-bound)",
                }
                continue
            eps_alpha = gaussian_rdp_profile(v.sigma_y, v.sigma_z, tsq, rdp_alpha)
            approx = rdp_to_approx_dp(lambda a: eps_alpha, rdp_alpha, 2.0 * eps_alpha)
            notes[cell.variant_id] = {
                "kind": "rdp_to_approx_dp", "epsilon": approx.epsilon,
                "delta": approx.delta, "alpha_order": rdp_alpha,
                "tau_sq_source": source,
            }
    return notes


def cmd_simulate(args) -> int:
    opts = _resolve_options(args)
    cells, hyp, alpha, beta, seed = _build_cells(opts)
    pilot = _parse_int(opts, "privsprt_pilot", 1)
    trials = _parse_int(opts, "trials", 1)
    truths = _truths(opts)
    cells = _calibrate_privsprt_cells(cells, alpha, beta, seed, pilot)
    results = []
    for truth in truths:
        plan = ExperimentPlan(hyp.mu0, hyp.mu1, truth, tuple(cells), trials, seed)
        results.extend(run_experiment(plan, workers=args.workers))
    kappa = _parse_float(opts, "kappa", 0.0, 1.0, open_hi=False)
    extra = {"privacy_guarantees": _accounting(cells, opts, args, seed)}
    if kappa < 1.0:
        extra["warning"] = "kappa < 1: no formal correctness guarantee"
        print("warning: kappa < 1 voids the formal correctness guarantee", file=sys.stderr)
    _write_outputs(
        args.out, "simulate", opts,
        {
            "trials.csv": lambda p: write_trials_csv(p, results, hyp.mu0, hyp.mu1),
            "summary.csv": lambda p: write_summary_csv(p, results),
        },
        extra,
    )
    print(f"wrote {len(results)} summary rows to {args.out}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    opts = _resolve_options(args)
    hyp, alpha, beta, _ = _parse_common(opts)
    if alpha + beta >= 1.0:
        raise ConfigError(f"need alpha + beta < 1, got {alpha} + {beta}")
    s = _parse_float(opts, "s", 1.0)
    kappa = _parse_float(opts, "kappa", 0.0, 1.0, open_hi=False)
    saved = _flag_or_saved(args.eps, opts, "bounds_eps", None)
    eps = float(saved) if saved is not None else None
    if eps is not None and eps <= 0:
        raise ConfigError(f"epsilon must be positive, got {eps}")
    if eps is not None:
        opts["bounds_eps"] = f"{eps:g}"
    gamma = _gamma_opt(opts)
    if gamma is None:
        gamma = default_gamma(eps) if eps is not None else 0.5
    report = build_report(hyp, alpha, beta, gamma, eps, s, kappa)
    fields = [
        "lower_h0", "lower_h1", "upper_h0", "upper_h1",
        "closed_upper_h0", "closed_upper_h1", "gamma_used", "epsilon_used", "s_used",
    ]
    row = {f: getattr(report, f) for f in fields}
    text = ",".join(fields) + "\n" + ",".join(
        "" if row[f] is None else repr(float(row[f])) for f in fields
    ) + "\n"
    sys.stdout.write(text)
    if args.out:
        _write_outputs(
            args.out, "bounds", opts,
            {
                "bounds.csv": lambda p: _write_text(p, text),
                "bounds.json": lambda p: _write_json(p, row),
            },
        )
    return EXIT_OK


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def cmd_compare(args) -> int:
    opts = _resolve_options(args)
    opts["truth"] = "H0"
    cells, hyp, alpha, beta, seed = _build_cells(opts)
    pilot = _parse_int(opts, "privsprt_pilot", 1)
    trials = _parse_int(opts, "trials", 1)
    cells = _calibrate_privsprt_cells(cells, alpha, beta, seed, pilot)
    plan = ExperimentPlan(hyp.mu0, hyp.mu1, 0, tuple(cells), trials, seed)
    results = run_experiment(plan, workers=args.workers)

    rows = []
    for res in results:
        family = res.variant.variant_id.split("@", 1)[0]
        s = res.stats
        rows.append([res.variant.epsilon, family, s.mean_tau, s.tau_p5, s.tau_p95,
                     s.error_rate, s.error_ci_halfwidth])

    def write_comparison(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["epsilon", "variant_id", "mean_tau", "tau_p5", "tau_p95",
                        "type1_hat", "type1_ci"])
            for row in rows:
                w.writerow([repr(float(row[0])), row[1]] + [
                    repr(float(v)) if isinstance(v, float) else v for v in row[2:]
                ])

    writers = {
        "trials.csv": lambda p: write_trials_csv(p, results, hyp.mu0, hyp.mu1),
        "summary.csv": lambda p: write_summary_csv(p, results),
        "comparison.csv": write_comparison,
    }
    if args.svg:
        series = {}
        for eps, family, mean_tau, *_ in rows:
            series.setdefault(family, []).append((eps, mean_tau))

        def write_svg(path):
            write_line_chart(path, series, "epsilon", "mean stopping time")

        writers["comparison.svg"] = write_svg
    _write_outputs(args.out, "compare", opts, writers)
    print(f"wrote comparison for {len(rows)} cells to {args.out}")
    return EXIT_OK


def cmd_tune_kappa(args) -> int:
    opts = _resolve_options(args)
    hyp, alpha, beta, seed = _parse_common(opts)
    eps = float(_flag_or_saved(args.eps, opts, "tune_eps", "1.0"))
    if eps <= 0:
        raise ConfigError(f"epsilon must be positive, got {eps}")
    s = _parse_float(opts, "s", 1.0)
    horizon = _parse_int(opts, "horizon", 1)
    gamma = _gamma_opt(opts)
    grid_text = str(_flag_or_saved(args.kappa_grid, opts, "tune_kappa_grid",
                                   "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"))
    pilot_trials = int(_flag_or_saved(args.pilot_trials, opts, "tune_pilot_trials", "200"))
    confirm_trials = int(_flag_or_saved(args.confirm_trials, opts, "tune_confirm_trials", "1000"))
    if pilot_trials < 1 or confirm_trials < 1:
        raise ConfigError("pilot and confirmation trial counts must be positive")
    try:
        grid = sorted(float(tok) for tok in grid_text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"--kappa-grid: not a number list: {grid_text!r}") from None
    if not grid or any(not 0.0 < k <= 1.0 for k in grid):
        raise ConfigError("--kappa-grid: values must lie in (0, 1]")
    opts.update({
        "tune_eps": f"{eps:g}",
        "tune_kappa_grid": grid_text,
        "tune_pilot_trials": str(pilot_trials),
        "tune_confirm_trials": str(confirm_trials),
    })

    def errors_for(kappa: float, n_trials: int, tag: str) -> tuple[float, float]:
        cfg = TestConfig(hyp, alpha, beta, Laplace(eps), gamma=gamma,
                         correction=CorrectionParams(s=s, kappa=kappa), horizon=horizon)
        pair = []
        for truth in (0, 1):
            plan = ExperimentPlan(
                hyp.mu0, hyp.mu1, truth,
                (PlannedVariant(f"tune:{tag}@kappa={kappa:g}", cfg, eps),),
                n_trials, seed,
            )
            res = run_experiment(plan, workers=args.workers)[0]
            pair.append(res.stats.error_rate)
        return pair[0], pair[1]

    selected = None
    pilot_errors = None
    for kappa in grid:  # ascending: the smallest feasible kappa wins
        e0, e1 = errors_for(kappa, pilot_trials, "pilot")
        if e0 <= alpha and e1 <= beta:
            selected, pilot_errors = kappa, (e0, e1)
            break
    if selected is None:
        print("tune-kappa: no kappa in the grid met both error targets", file=sys.stderr)
        return EXIT_INFEASIBLE
    c0, c1 = errors_for(selected, confirm_trials, "confirm")
    doc = {
        "selected_kappa": selected,
        "pilot_trials": pilot_trials,
        "pilot_type1": pilot_errors[0],
        "pilot_type2": pilot_errors[1],
        "confirm_trials": confirm_trials,
        "confirm_type1": c0,
        "confirm_type2": c1,
        "warning": "formal correctness guarantees require kappa = 1",
    }
    print(json.dumps(doc, indent=2))
    if args.out:
        _write_outputs(
            args.out, "tune-kappa", opts,
            {"tune_kappa.json": lambda p: _write_json(p, doc)},
        )
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, with_out=True) -> None:
    p.add_argument("--config", help="flat key=value config file, or a manifest.json")
    if with_out:
        p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="master seed (fallback: DPSPRT_SEED)")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--p0", type=float, default=None)
    p.add_argument("--p1", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--gamma", default=None, help="error allocation in (0,1), or 'auto'")
    p.add_argument("--rate", default=None, help="subsampling rate in (0,1], or 'auto'")
    p.add_argument("--s", type=float, default=None, help="zeta exponent of the correction")
    p.add_argument("--kappa", type=float, default=None, help="correction scale in (0,1]")
    p.add_argument("--horizon", type=int, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpsprt", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dpsprt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a seeded Monte Carlo experiment grid")
    _add_common(p_sim)
    p_sim.add_argument("--eps", default=None, help="comma-separated epsilon grid")
    p_sim.add_argument("--variants", default=None, help=f"subset of {','.join(ALL_VARIANTS)}")
    p_sim.add_argument("--truth", default=None, help="H0, H1, or both")
    p_sim.add_argument("--delta", type=float, default=None, help="Gaussian DP delta")
    p_sim.add_argument("--privsprt-pilot", dest="privsprt_pilot", type=int, default=None)
    p_sim.add_argument("--accounting", action="store_true",
                       help="estimate the Gaussian RDP tau^2 term from pilot runs")
    p_sim.add_argument("--tau-sq-bound", dest="tau_sq_bound", type=float, default=None,
                       help="asserted bound for the Gaussian RDP tau^2 term")
    p_sim.add_argument("--rdp-alpha", dest="rdp_alpha", type=float, default=2.0)
    p_sim.set_defaults(func=cmd_simulate)

    p_b = sub.add_parser("bounds", help="emit the bound report for one instance")
    _add_common(p_b)
    p_b.add_argument("--eps", type=float, default=None, help="privacy parameter (optional)")
    p_b.set_defaults(func=cmd_bounds, out=None)
    p_b.set_defaults(workers=1)

    p_cmp = sub.add_parser("compare", help="calibrate PrivSPRT and run a head-to-head grid")
    _add_common(p_cmp)
    p_cmp.add_argument("--eps", default=None, help="comma-separated epsilon grid")
    p_cmp.add_argument("--variants", default=None)
    p_cmp.add_argument("--delta", type=float, default=None)
    p_cmp.add_argument("--privsprt-pilot", dest="privsprt_pilot", type=int, default=None)
    p_cmp.add_argument("--svg", action="store_true", help="also write an SVG chart")
    p_cmp.set_defaults(func=cmd_compare)

    p_tk = sub.add_parser("tune-kappa", help="search the smallest correction scale "
                          "whose pilot errors stay below the targets")
    _add_common(p_tk)
    p_tk.add_argument("--eps", type=float, default=None)
    p_tk.add_argument("--kappa-grid", dest="kappa_grid", default=None,
                      help="comma list in (0,1]; default 0.1..1.0 in steps of 0.1")
    p_tk.add_argument("--pilot-trials", dest="pilot_trials", type=int, default=None)
    p_tk.add_argument("--confirm-trials", dest="confirm_trials", type=int, default=None)
    p_tk.set_defaults(func=cmd_tune_kappa, out=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

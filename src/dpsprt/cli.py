"""Command-line front end: simulate | bounds | compare | tune-kappa.

Every option is one key of OPTIONS. A key can be set by its flag, by a line
of a flat key=value text file (``#`` comments), or by a manifest; flags win.
A manifest is serialized next to the outputs so that any result can be
re-run bit-identically by passing the manifest as the config file. Exit
codes: 0 success, 2 configuration error, 3 infeasible calibration or
tuning, 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone

from . import __version__
from .baselines import CalibrationError, PrivSprtConfig, calibrate_privsprt
from .bounds import BoundOverflowError, build_report
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

# key: (default text, help). A key's flag is --key with "_" written as "-",
# unless FLAGS names it. Values stay text until a subcommand parses them, so
# a flag, a config line and a manifest entry all pass the same _parse_* check.
OPTIONS = {
    "seed": ("", "master seed; when unset, DPSPRT_SEED or else 0"),
    "trials": ("1000", "Monte Carlo trials per cell"),
    "p0": ("0.3", "null-hypothesis success probability"),
    "p1": ("0.7", "alternative success probability"),
    "alpha": ("0.05", "target type I error"),
    "beta": ("0.05", "target type II error"),
    "gamma": ("auto", "error allocation in (0,1), or 'auto'"),
    "rate": ("auto", "subsampling rate in (0,1], or 'auto'"),
    "s": ("2.0", "zeta exponent of the correction"),
    "kappa": ("1.0", "correction scale in (0,1]"),
    "horizon": ("1000000", "step budget of one trial"),
    "eps": ("0.1,1,5", "comma-separated epsilon grid"),
    "variants": (",".join(ALL_VARIANTS), "comma-separated subset of the variants"),
    "truth": ("H0", "H0, H1, or both"),
    "delta": ("1e-5", "Gaussian DP delta"),
    "privsprt_pilot": ("100", "pilot paths per PrivSPRT calibration"),
    "accounting": ("no", "estimate the Gaussian RDP tau^2 term from pilot runs"),
    "tau_sq_bound": ("", "asserted bound (>= 1) for the Gaussian RDP tau^2 term"),
    "rdp_alpha": ("2.0", "Renyi order (> 1) of the Gaussian accounting"),
    "svg": ("no", "also write an SVG chart"),
    "bounds_eps": ("", "privacy parameter; unset gives the non-private report"),
    "tune_eps": ("1.0", "privacy parameter"),
    "tune_kappa_grid": ("0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
                        "comma-separated kappa grid in (0,1]"),
    "tune_pilot_trials": ("200", "pilot trials per kappa and truth"),
    "tune_confirm_trials": ("1000", "confirmation trials per truth"),
}
FLAGS = {
    "bounds_eps": "--eps",
    "tune_eps": "--eps",
    "tune_kappa_grid": "--kappa-grid",
    "tune_pilot_trials": "--pilot-trials",
    "tune_confirm_trials": "--confirm-trials",
}
SWITCHES = ("accounting", "svg")  # their flags take no value and set "yes"


class ConfigError(Exception):
    """Invalid configuration; message carries a file:line anchor when known."""


def _read_config(path: str) -> dict[str, str]:
    """The key = value pairs of a config file, or the config of a manifest."""
    if path.endswith(".json"):
        try:
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: cannot read manifest ({exc})") from None
        cfg = manifest.get("config", manifest) if isinstance(manifest, dict) else None
        if not isinstance(cfg, dict):
            raise ConfigError(f"{path}: manifest has no config mapping")
        entries = [(path, str(k), str(v)) for k, v in cfg.items()]
    else:
        try:
            lines = open(path, encoding="utf-8").read().splitlines()
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read config ({exc})") from None
        entries = []
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            entries.append((f"{path}:{lineno}", key, value))
    for where, key, _ in entries:
        if key not in OPTIONS:
            raise ConfigError(f"{where}: unknown key {key!r}")
    return {key: value for _, key, value in entries}


def _resolve_options(args) -> dict[str, str]:
    """The subcommand's keys: defaults, then the config file, then flags.
    Keys of other subcommands in the config file are ignored."""
    opts = {key: OPTIONS[key][0] for key in args.keys}
    if args.config:
        saved = _read_config(args.config)
        opts.update((key, saved[key]) for key in args.keys if key in saved)
    for key in args.keys:
        if getattr(args, key) is not None:
            opts[key] = getattr(args, key)
    if opts.get("seed") == "":
        opts["seed"] = os.environ.get("DPSPRT_SEED", "0")
    return opts


def _parse_float(opts, key, lo=None, hi=None, open_lo=True, open_hi=True):
    try:
        v = float(opts[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: not a number: {opts[key]!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"key {key!r}: not a finite number: {opts[key]!r}")
    if lo is not None and (v <= lo if open_lo else v < lo):
        raise ConfigError(f"key {key!r}: value {v} out of range")
    if hi is not None and (v >= hi if open_hi else v > hi):
        raise ConfigError(f"key {key!r}: value {v} out of range")
    return v


def _parse_optional(opts, key, unset, *bounds, **sides) -> float | None:
    """None when the key reads `unset` (such as 'auto'), else a checked float."""
    if opts[key].strip().lower() == unset:
        return None
    return _parse_float(opts, key, *bounds, **sides)


def _parse_int(opts, key, minimum):
    try:
        v = int(opts[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: not an integer: {opts[key]!r}") from None
    if v < minimum:
        raise ConfigError(f"key {key!r}: must be >= {minimum}, got {v}")
    return v


def _parse_list(opts, key, hi=math.inf) -> list[float]:
    """A nonempty comma-separated list of finite numbers in (0, hi]."""
    try:
        vals = [float(tok) for tok in opts[key].split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"key {key!r}: not a number list: {opts[key]!r}") from None
    if not vals or any(not 0.0 < v <= hi or math.isinf(v) for v in vals):
        raise ConfigError(f"key {key!r}: need a nonempty list of finite values in (0, {hi:g}]")
    return vals


def _parse_switch(opts, key) -> bool:
    value = opts[key].strip().lower()
    if value not in ("yes", "no"):
        raise ConfigError(f"key {key!r}: expected yes or no, got {opts[key]!r}")
    return value == "yes"


def _parse_common(opts):
    p0 = _parse_float(opts, "p0", 0.0, 1.0)
    p1 = _parse_float(opts, "p1", 0.0, 1.0)
    if p0 >= p1:
        raise ConfigError(f"need p0 < p1, got p0={p0}, p1={p1}")
    alpha = _parse_float(opts, "alpha", 0.0, 1.0)
    beta = _parse_float(opts, "beta", 0.0, 1.0)
    return HypothesisPair.of(p0, p1), alpha, beta


def _run_grid(opts, truths, workers):
    """Build the (variant family) x (epsilon grid) cells, calibrate the
    PrivSPRT cells, and run the grid under each truth. Every grid key is
    parsed before the first trial. Also returns each PrivSPRT cell's
    calibration, for the manifest."""
    hyp, alpha, beta = _parse_common(opts)
    seed = _parse_int(opts, "seed", 0)
    eps_list = _parse_list(opts, "eps")
    horizon = _parse_int(opts, "horizon", 1)
    s = _parse_float(opts, "s", 1.0)
    kappa = _parse_float(opts, "kappa", 0.0, 1.0, open_hi=False)
    delta = _parse_float(opts, "delta", 0.0, 1.0)
    gamma = _parse_optional(opts, "gamma", "auto", 0.0, 1.0)
    rate = _parse_optional(opts, "rate", "auto", 0.0, 1.0, open_hi=False)
    trials = _parse_int(opts, "trials", 1)
    pilot = _parse_int(opts, "privsprt_pilot", 1)
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
                if not sy**2 + sz**2 > 0.0:  # the correction needs a positive variance
                    raise ConfigError(f"key 'eps': {eps:g} is too large for the gaussian "
                                      "variant: its noise variance underflows to 0")
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
    calibration = {}
    for i, cell in enumerate(cells):
        if isinstance(cell.config, PrivSprtConfig):
            rng = derive(StreamKey(seed, fnv1a64(cell.variant_id), 0, Substream.PILOT))
            cal = calibrate_privsprt(cell.config, alpha, beta, pilot_trials=pilot, rng=rng)
            calibration[cell.variant_id] = asdict(cal)
            cfg = replace(cell.config, thresh_a=cal.thresh_a, thresh_b=cal.thresh_b)
            cells[i] = replace(cell, config=cfg)
    results = []
    for truth in truths:
        plan = ExperimentPlan(hyp.mu0, hyp.mu1, truth, tuple(cells), trials, seed)
        results.extend(run_experiment(plan, workers=workers))
    return cells, hyp, results, calibration


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


def _accounting(opts):
    """Parse the accounting keys; return the function that gives each cell's
    privacy guarantee, for the manifest."""
    pilot = _parse_switch(opts, "accounting")
    # tau >= 1, so E[tau^2] >= 1
    tau_bound = _parse_optional(opts, "tau_sq_bound", "", 1.0, open_lo=False)
    rdp_alpha = _parse_float(opts, "rdp_alpha", 1.0)
    seed = _parse_int(opts, "seed", 0)

    def guarantees(cells) -> dict:
        notes = {}
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
                    tsq, source = tau_bound, "asserted"
                elif pilot:
                    rng = derive(StreamKey(seed, fnv1a64(cell.variant_id), 0, Substream.PILOT))
                    est = estimate_tau_sq(cfg, 100, rng)
                    tsq = est.value
                    source = f"pilot:{est.n_pilot}" + ("" if est.reliable else ":unreliable")
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

    return guarantees


def cmd_simulate(opts, args) -> int:
    truths = _truths(opts)
    guarantees = _accounting(opts)
    cells, hyp, results, calibration = _run_grid(opts, truths, args.workers)
    extra = {"privacy_guarantees": guarantees(cells), "privsprt_calibration": calibration}
    if _parse_float(opts, "kappa", 0.0, 1.0, open_hi=False) < 1.0:
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


def cmd_bounds(opts, args) -> int:
    hyp, alpha, beta = _parse_common(opts)
    if alpha + beta >= 1.0:
        raise ConfigError(f"need alpha + beta < 1, got {alpha} + {beta}")
    s = _parse_float(opts, "s", 1.0)
    kappa = _parse_float(opts, "kappa", 0.0, 1.0, open_hi=False)
    eps = _parse_optional(opts, "bounds_eps", "", 0.0)
    gamma = _parse_optional(opts, "gamma", "auto", 0.0, 1.0)
    if gamma is None:
        gamma = default_gamma(eps) if eps is not None else 0.5
    try:
        report = build_report(hyp, alpha, beta, gamma, eps, s, kappa)
    except BoundOverflowError as exc:
        raise ConfigError(f"no bound report for this instance: {exc}") from None
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


def cmd_compare(opts, args) -> int:
    svg = _parse_switch(opts, "svg")
    _, hyp, results, calibration = _run_grid(opts, [0], args.workers)

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
    if svg:
        series = {}
        for eps, family, mean_tau, *_ in rows:
            series.setdefault(family, []).append((eps, mean_tau))

        def write_svg(path):
            write_line_chart(path, series, "epsilon", "mean stopping time")

        writers["comparison.svg"] = write_svg
    _write_outputs(args.out, "compare", opts, writers, {"privsprt_calibration": calibration})
    print(f"wrote comparison for {len(rows)} cells to {args.out}")
    return EXIT_OK


def cmd_tune_kappa(opts, args) -> int:
    hyp, alpha, beta = _parse_common(opts)
    seed = _parse_int(opts, "seed", 0)
    eps = _parse_float(opts, "tune_eps", 0.0)
    s = _parse_float(opts, "s", 1.0)
    horizon = _parse_int(opts, "horizon", 1)
    gamma = _parse_optional(opts, "gamma", "auto", 0.0, 1.0)
    grid = sorted(_parse_list(opts, "tune_kappa_grid", 1.0))
    pilot_trials = _parse_int(opts, "tune_pilot_trials", 1)
    confirm_trials = _parse_int(opts, "tune_confirm_trials", 1)

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


_INSTANCE = ("p0", "p1", "alpha", "beta", "gamma")
_GRID = ("seed", "trials") + _INSTANCE + ("rate", "s", "kappa", "horizon", "eps", "variants",
                                          "delta", "privsprt_pilot")
# subcommand: (handler, default output directory, help, option keys)
COMMANDS = {
    "simulate": (cmd_simulate, "out", "run a seeded Monte Carlo experiment grid",
                 _GRID + ("truth", "accounting", "tau_sq_bound", "rdp_alpha")),
    "bounds": (cmd_bounds, None, "emit the bound report for one instance",
               _INSTANCE + ("s", "kappa", "bounds_eps")),
    "compare": (cmd_compare, "out", "calibrate PrivSPRT and run a head-to-head grid",
                _GRID + ("svg",)),
    "tune-kappa": (cmd_tune_kappa, None, "search the smallest correction scale whose "
                   "pilot errors stay below the targets",
                   ("seed",) + _INSTANCE + ("s", "horizon", "tune_eps", "tune_kappa_grid",
                                            "tune_pilot_trials", "tune_confirm_trials")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpsprt", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dpsprt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, out, about, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=about)
        p.set_defaults(func=func, keys=keys)
        p.add_argument("--config", help="flat key=value config file, or a manifest.json")
        p.add_argument("--out", default=out, help="output directory")
        if name != "bounds":  # the one subcommand that runs no trials
            p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                           help="worker processes (default: the CPU count)")
        for key in keys:
            default, text = OPTIONS[key]
            flag = FLAGS.get(key, "--" + key.replace("_", "-"))
            if key in SWITCHES:
                p.add_argument(flag, dest=key, action="store_const", const="yes", help=text)
            else:
                p.add_argument(flag, dest=key, help=f"{text} (default: {default or 'unset'})")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "workers", 1) < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        return args.func(_resolve_options(args), args)
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

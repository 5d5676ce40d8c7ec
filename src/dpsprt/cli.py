"""Command-line front end: simulate | bounds | tune-kappa.

Every option is one key of OPTIONS, which declares its default text, its
parser (type and range) and its help. A key can be set by its flag, by a line
of a flat key=value text file (``#`` comments), or by a manifest; flags win.
main parses every key of the subcommand before the subcommand runs. A manifest is serialized next to the outputs so that any result can be
re-run bit-identically by passing the manifest as the config file. Exit
codes: 0 success, 2 configuration error, 3 infeasible calibration or
tuning, 1 internal error.
"""

from __future__ import annotations

import argparse
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
from .exp_family import HypothesisPair
from .harness import (
    ExperimentPlan,
    PlannedVariant,
    run_experiment,
    write_summary_csv,
    write_trials_csv,
)
from .privacy_accounting import estimate_tau_sq, gaussian_epsilon
from .rngcore import StreamKey, Substream, derive, fnv1a64
from .svg import write_line_chart

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

ALL_VARIANTS = ["classical", "laplace", "gaussian", "laplace_sub", "privsprt"]


def _number(lo=None, hi=None, open_lo=True, open_hi=True, unset=None):
    """Parser of a finite number in the range from lo to hi, each end open
    unless said otherwise; the text `unset` (such as 'auto') gives None."""
    def parse(text):
        if text.strip().lower() == unset:
            return None
        try:
            v = float(text)
        except ValueError:
            raise ValueError(f"not a number: {text!r}") from None
        if not math.isfinite(v):
            raise ValueError(f"not a finite number: {text!r}")
        if lo is not None and (v <= lo if open_lo else v < lo):
            raise ValueError(f"value {v} out of range")
        if hi is not None and (v >= hi if open_hi else v > hi):
            raise ValueError(f"value {v} out of range")
        return v
    return parse


def _integer(minimum):
    def parse(text):
        try:
            v = int(text)
        except ValueError:
            raise ValueError(f"not an integer: {text!r}") from None
        if v < minimum:
            raise ValueError(f"must be >= {minimum}, got {v}")
        return v
    return parse


def _numbers(hi=math.inf):
    """Parser of a nonempty comma-separated list of finite numbers in (0, hi]."""
    def parse(text):
        try:
            vals = [float(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise ValueError(f"not a number list: {text!r}") from None
        if not vals or any(not 0.0 < v <= hi or math.isinf(v) for v in vals):
            raise ValueError(f"need a nonempty list of finite values in (0, {hi:g}]")
        return vals
    return parse


def _switch(text) -> bool:
    value = text.strip().lower()
    if value not in ("yes", "no"):
        raise ValueError(f"expected yes or no, got {text!r}")
    return value == "yes"


def _truth(text) -> tuple[int, ...]:
    truths = {"both": (0, 1), "h0": (0,), "0": (0,), "h1": (1,), "1": (1,)}
    try:
        return truths[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected H0, H1, or both, got {text!r}") from None


def _variants(text) -> list[str]:
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not names:
        raise ValueError("need a nonempty list of variants")
    for name in names:
        if name not in ALL_VARIANTS:
            raise ValueError(f"unknown variant {name!r}")
    return names


# key: (default text, parser, help). A key's flag is --key with "_" written
# as "-", unless FLAGS names it; a key parsed by _switch has a flag that takes
# no value and sets "yes". Values stay text until main has resolved them, so
# a flag, a config line and a manifest entry all pass the same parser.
OPTIONS = {
    "seed": ("", _integer(0), "master seed; when unset, DPSPRT_SEED or else 0"),
    "trials": ("1000", _integer(1), "Monte Carlo trials per cell"),
    "p0": ("0.3", _number(0.0, 1.0), "null-hypothesis success probability"),
    "p1": ("0.7", _number(0.0, 1.0), "alternative success probability"),
    "alpha": ("0.05", _number(0.0, 1.0), "target type I error"),
    "beta": ("0.05", _number(0.0, 1.0), "target type II error"),
    "gamma": ("auto", _number(0.0, 1.0, unset="auto"), "error allocation in (0,1), or 'auto'"),
    "rate": ("auto", _number(0.0, 1.0, open_hi=False, unset="auto"),
             "subsampling rate in (0,1], or 'auto'"),
    "s": ("2.0", _number(1.0), "zeta exponent of the correction"),
    "kappa": ("1.0", _number(0.0, 1.0, open_hi=False), "correction scale in (0,1]"),
    "horizon": ("1000000", _integer(1), "step budget of one trial"),
    "eps": ("0.1,1,5", _numbers(), "comma-separated epsilon grid"),
    "variants": (",".join(ALL_VARIANTS), _variants, "comma-separated subset of the variants"),
    "truth": ("H0", _truth, "H0, H1, or both"),
    "delta": ("1e-5", _number(0.0, 1.0), "Gaussian DP delta"),
    "privsprt_pilot": ("100", _integer(1), "pilot paths per PrivSPRT calibration"),
    "accounting": ("no", _switch, "estimate the Gaussian RDP tau^2 term from pilot runs"),
    # tau >= 1, so E[tau^2] >= 1
    "tau_sq_bound": ("", _number(1.0, open_lo=False, unset=""),
                     "asserted bound (>= 1) for the Gaussian RDP tau^2 term"),
    "svg": ("no", _switch, "also write comparison.svg, mean tau against eps"),
    "bounds_eps": ("", _number(0.0, unset=""),
                   "privacy parameter; unset gives the non-private report"),
    "tune_eps": ("1.0", _number(0.0), "privacy parameter"),
    "tune_kappa_grid": ("0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0", _numbers(1.0),
                        "comma-separated kappa grid in (0,1]"),
    "tune_pilot_trials": ("200", _integer(1), "pilot trials per kappa and truth"),
    "tune_confirm_trials": ("1000", _integer(1), "confirmation trials per truth"),
}
FLAGS = {
    "bounds_eps": "--eps",
    "tune_eps": "--eps",
    "tune_kappa_grid": "--kappa-grid",
    "tune_pilot_trials": "--pilot-trials",
    "tune_confirm_trials": "--confirm-trials",
}


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
        # versions before 0.3.0 recorded the Renyi order that is now found in closed form
        entries = [(path, str(k), str(v)) for k, v in cfg.items() if k != "rdp_alpha"]
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
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


def _parse(opts: dict[str, str]) -> dict:
    """Each key's value as its OPTIONS parser reads it. Runs before a
    subcommand does, so every value is checked before the first trial."""
    values = {}
    for key, text in opts.items():
        try:
            values[key] = OPTIONS[key][1](text)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from None
    if values["p0"] >= values["p1"]:
        raise ConfigError(f"need p0 < p1, got p0={values['p0']}, p1={values['p1']}")
    return values


def _variant(v, name, eps):
    """The DP-SPRT variant `name` at `eps`."""
    if name == "classical":
        return Classical()
    if name == "laplace":
        return Laplace(eps)
    if name == "laplace_sub":
        return LaplaceSub(eps, v["rate"] if v["rate"] is not None else default_subsample_rate(eps))
    sy, sz = gaussian_scales(eps, v["delta"])
    var = sy * sy + sz * sz  # the correction needs it positive and finite
    if not 0.0 < var < math.inf:
        how = "large" if var == 0.0 else "small"
        fate = "underflows to 0" if var == 0.0 else "overflows"
        raise ConfigError(f"key 'eps': {eps:g} is too {how} for the gaussian "
                          f"variant: its noise variance {fate}")
    return Gaussian(sy, sz)


def _pilot_rng(v, cell):
    """The generator of a cell's pilot paths: PrivSPRT calibration or tau^2 pilots."""
    return derive(StreamKey(v["seed"], fnv1a64(cell.variant_id), 0, Substream.PILOT))


def _build_plan(v):
    """The run's one plan: build the (variant family) x (epsilon grid)
    cells, each id once, then calibrate the PrivSPRT cells (a
    CalibrationError names the cell that failed), so that a config error
    stops the run before any calibration. Also returns the manifest's
    record of the run: each PrivSPRT cell's calibration, and a warning when
    kappa < 1, which is printed too."""
    hyp = HypothesisPair.of(v["p0"], v["p1"])
    alpha, beta, horizon = v["alpha"], v["beta"], v["horizon"]
    cells = []
    for eps in v["eps"]:
        # what a Laplace variant resolves an unset gamma to; classical ignores it
        gamma = v["gamma"] if v["gamma"] is not None else default_gamma(eps)
        for name in v["variants"]:
            vid = f"{name}@eps={eps:g}"
            if any(cell.variant_id == vid for cell in cells):
                key = "variants" if v["variants"].count(name) > 1 else "eps"
                raise ConfigError(f"key {key!r}: the grid repeats the cell {vid!r}")
            if name == "privsprt":
                cfg = PrivSprtConfig.from_epsilon(hyp, eps, v["delta"], horizon=horizon)
            else:
                try:
                    cfg = TestConfig(hyp, alpha, beta, _variant(v, name, eps), gamma=gamma,
                                     s=v["s"], kappa=v["kappa"], horizon=horizon)
                except ValueError as exc:
                    if name != "gaussian" or "overflows" in str(exc):  # noise or correction
                        raise ConfigError(f"key 'eps': {exc}") from None
                    key = "alpha" if alpha > beta else "beta"  # the correction's domain
                    raise ConfigError(f"key {key!r}: {v[key]:g} is too large: {exc}") from None
            cells.append(PlannedVariant(vid, cfg, eps))
    calibration = {}
    for i, cell in enumerate(cells):
        if isinstance(cell.config, PrivSprtConfig):
            try:
                cal = calibrate_privsprt(cell.config, alpha, beta,
                                         pilot_trials=v["privsprt_pilot"], rng=_pilot_rng(v, cell))
            except CalibrationError as exc:
                raise CalibrationError(f"{cell.variant_id}: {exc}") from None
            calibration[cell.variant_id] = asdict(cal)
            cfg = replace(cell.config, thresh_a=cal.thresh_a, thresh_b=cal.thresh_b)
            cells[i] = replace(cell, config=cfg)
    record = {"privsprt_calibration": calibration}
    if v["kappa"] < 1.0:
        record["warning"] = "kappa < 1: no formal correctness guarantee"
        print("warning: kappa < 1 voids the formal correctness guarantee", file=sys.stderr)
    return ExperimentPlan(v["truth"], tuple(cells), v["trials"], v["seed"]), record


def _write_outputs(args, opts, writers: dict, extra=None) -> None:
    """Write all declared outputs plus the manifest; nothing else."""
    os.makedirs(args.out, exist_ok=True)
    for name, writer in writers.items():
        writer(os.path.join(args.out, name))
    manifest = {
        "tool": "dpsprt",
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "command": args.command,
        "config": opts,
        "outputs": list(writers) + ["manifest.json"],
        **(extra or {}),
    }
    _write_json(os.path.join(args.out, "manifest.json"), manifest)


_NOTE_KEYS = ("kind", "epsilon", "delta", "alpha_order", "tau_sq_source")


def _guarantees(v, cells) -> dict:
    """Each private cell's privacy guarantee, for the manifest; a ConfigError
    names the key that makes a Gaussian cell's RDP profile overflow."""
    notes = {}
    for cell in cells:
        var = getattr(cell.config, "variant", None)  # a PrivSPRT cell has none
        if isinstance(var, Laplace):
            note = ("pure_dp", var.epsilon, 0.0, None, None)
        elif isinstance(var, LaplaceSub):  # a stop at step 1 shows observation 1 was kept
            note = ("unaccounted", None, None, None, None)
        elif not isinstance(var, Gaussian):
            continue
        elif v["tau_sq_bound"] is None and not v["accounting"]:
            note = ("rdp", None, None, None,
                    "unavailable (pass --accounting or --tau-sq-bound)")
        else:
            if v["tau_sq_bound"] is not None:
                tsq, source = v["tau_sq_bound"], "asserted"
            else:
                tsq, reliable = estimate_tau_sq(cell.config, 100, _pilot_rng(v, cell))
                source = "pilot:100" + ("" if reliable else ":unreliable")
            eps, order = (gaussian_epsilon(var.sigma_y, var.sigma_z, tsq, v["delta"])
                          if var.sigma_z**2 > 0.0 else (math.inf, None))
            if not math.isfinite(eps):  # sigma_z^2 underflows, the profile or 2 tau^2 overflows
                key, value = ("tau_sq_bound", tsq) if 2 * tsq == math.inf else ("eps", cell.epsilon)
                raise ConfigError(f"key {key!r}: {value:g} is too large: "
                                  "the RDP profile overflows")
            note = ("rdp_mironov", eps, v["delta"], order, source)
        notes[cell.variant_id] = dict(zip(_NOTE_KEYS, note))
    return notes


def cmd_simulate(v, opts, args) -> int:
    plan, record = _build_plan(v)
    guarantees = _guarantees(v, plan.variants)
    results = run_experiment(plan, workers=args.workers)
    writers = {
        "trials.csv": lambda p: write_trials_csv(p, results),
        "summary.csv": lambda p: write_summary_csv(p, results),
    }
    if v["svg"]:
        series = {}  # one per family and truth, named "laplace" at H0, "laplace H1" at H1
        for res in results:
            name = res.variant.variant_id.split("@", 1)[0] + (" H1" if res.truth else "")
            series.setdefault(name, []).append((res.variant.epsilon, res.stats.mean_tau))
        writers["comparison.svg"] = lambda p: write_line_chart(
            p, series, "epsilon", "mean stopping time")
    _write_outputs(args, opts, writers, {"privacy_guarantees": guarantees, **record})
    print(f"wrote {len(results)} summary rows to {args.out}")
    return EXIT_OK


def cmd_bounds(v, opts, args) -> int:
    alpha, beta, eps = v["alpha"], v["beta"], v["bounds_eps"]
    if alpha + beta >= 1.0:
        raise ConfigError(f"need alpha + beta < 1, got {alpha} + {beta}")
    gamma = v["gamma"]
    if gamma is None:
        gamma = default_gamma(eps) if eps is not None else 0.5
    try:
        report = build_report(HypothesisPair.of(v["p0"], v["p1"]), alpha, beta, gamma, eps,
                              v["s"], v["kappa"])
    except BoundOverflowError as exc:
        raise ConfigError(f"no bound report for this instance: {exc}") from None
    row = asdict(report)
    text = ",".join(row) + "\n" + ",".join(
        "" if x is None else repr(float(x)) for x in row.values()
    ) + "\n"
    sys.stdout.write(text)
    if args.out:
        _write_outputs(args, opts, {"bounds.csv": lambda p: _write_text(p, text),
                                    "bounds.json": lambda p: _write_json(p, row)})
    return EXIT_OK


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def cmd_tune_kappa(v, opts, args) -> int:
    hyp = HypothesisPair.of(v["p0"], v["p1"])
    alpha, beta, eps = v["alpha"], v["beta"], v["tune_eps"]
    pilot_trials, confirm_trials = v["tune_pilot_trials"], v["tune_confirm_trials"]

    try:  # every kappa's cell, before the first trial
        cfgs = {kappa: TestConfig(hyp, alpha, beta, Laplace(eps), gamma=v["gamma"], s=v["s"],
                                  kappa=kappa, horizon=v["horizon"])
                for kappa in v["tune_kappa_grid"]}
    except ValueError as exc:  # the Laplace noise or correction overflows
        raise ConfigError(f"key 'tune_eps': {exc}") from None

    def errors_for(kappa: float, n_trials: int, tag: str) -> tuple[float, float]:
        cell = PlannedVariant(f"tune:{tag}@kappa={kappa:g}", cfgs[kappa], eps)
        plan = ExperimentPlan((0, 1), (cell,), n_trials, v["seed"])
        h0, h1 = run_experiment(plan, workers=args.workers)
        return h0.stats.error_rate, h1.stats.error_rate

    selected = None
    pilot_errors = None
    for kappa in sorted(cfgs):  # ascending: the smallest feasible kappa wins
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
        _write_outputs(args, opts, {"tune_kappa.json": lambda p: _write_json(p, doc)})
    return EXIT_OK


_INSTANCE = ("p0", "p1", "alpha", "beta", "gamma")
# subcommand: (handler, default output directory, help, option keys)
COMMANDS = {
    "simulate": (cmd_simulate, "out", "run a seeded Monte Carlo experiment grid",
                 ("seed", "trials") + _INSTANCE + ("rate", "s", "kappa", "horizon", "eps",
                                                   "variants", "delta", "privsprt_pilot", "truth",
                                                   "accounting", "tau_sq_bound", "svg")),
    "bounds": (cmd_bounds, None, "emit the bound report for one instance",
               _INSTANCE + ("s", "kappa", "bounds_eps")),
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
            default, parse, text = OPTIONS[key]
            flag = FLAGS.get(key, "--" + key.replace("_", "-"))
            if parse is _switch:
                p.add_argument(flag, dest=key, action="store_const", const="yes", help=text)
            else:
                p.add_argument(flag, dest=key, help=f"{text} (default: {default or 'unset'})")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "workers", 1) < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        opts = _resolve_options(args)
        return args.func(_parse(opts), opts, args)
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

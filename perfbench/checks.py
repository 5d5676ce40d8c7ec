"""Correctness checks on the CSVs one `dpsprt simulate` run wrote.

A (cell, truth) output fails when

- at the workload's default seed, the digest of its rows in ``trials.csv``
  or of its row in ``summary.csv`` differs from the pinned digest;
- at any seed, it breaks one of the paper's guarantees: an exhausted trial,
  an error rate above target + 3 sigma, or (for the Laplace, Gaussian and
  subsampled-Laplace tests) a mean stopping time whose one-standard-error
  band misses the interval [lower bound, upper bound on E[tau]];
- its rows are missing or unreadable.

A damaged file never raises here: it fails the cells it touches.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

# the CLI defaults, which every workload runs under
P0, P1 = 0.3, 0.7
ALPHA = BETA = 0.05
GAUSS_DELTA = 1e-5

ENVELOPE_FAMILIES = ("laplace", "gaussian", "laplace_sub")


def _rows(path: Path) -> dict[tuple[str, str], list[bytes]]:
    """Raw data lines of a CSV (header dropped), grouped by (variant_id, truth)."""
    out: dict[tuple[str, str], list[bytes]] = {}
    lines = path.read_bytes().splitlines(keepends=True)
    for line in lines[1:]:
        fields = line.decode("utf-8", errors="replace").split(",")
        key = (fields[0], fields[1].strip() if len(fields) > 1 else "")
        out.setdefault(key, []).append(line)
    return out


def digests(out_dir) -> dict[str, dict[str, str]]:
    """SHA-256 of each (cell, truth)'s trial rows and of its summary row."""
    out_dir = Path(out_dir)
    trials = _rows(out_dir / "trials.csv")
    summary = _rows(out_dir / "summary.csv")
    return {
        f"{vid}|{truth}": {
            "trials": hashlib.sha256(b"".join(trials.get((vid, truth), []))).hexdigest(),
            "summary": hashlib.sha256(b"".join(summary.get((vid, truth), []))).hexdigest(),
        }
        for vid, truth in sorted(set(trials) | set(summary))
    }


def _envelope(family: str, eps: float, truth: int) -> tuple[float, float]:
    """(lower bound, upper bound) on the expected stopping time."""
    from dpsprt.bounds import lower_bound, upper_bound_expected_tau
    from dpsprt.dp_sprt import default_gamma, gaussian_scales
    from dpsprt.exp_family import HypothesisPair
    from dpsprt.noise import CorrectionParams, NoiseFamily

    hyp = HypothesisPair.of(P0, P1)
    if family == "gaussian":
        sy, sz = gaussian_scales(eps, GAUSS_DELTA)
        params, noise = CorrectionParams(sigma_sum_sq=sy**2 + sz**2), NoiseFamily.GAUSSIAN
    else:
        # the subsampled rule has no finite-n bound of its own; it is held
        # to the plain-Laplace envelope
        params, noise = CorrectionParams(epsilon=eps), NoiseFamily.LAPLACE
    lo = lower_bound(hyp, ALPHA, BETA, eps)[truth]
    up = upper_bound_expected_tau(hyp, f"h{truth}", ALPHA, BETA, default_gamma(eps), params, noise)
    return lo, up


def _guarantee_failures(vid: str, truth: str, row: dict, n_rows: int, n_trials: int) -> list[str]:
    n = int(row["n_trials"])
    n_ex = int(row["n_exhausted"])
    bad = []
    if n != n_trials or n_rows != n_trials:
        bad.append(f"{n} trials in summary and {n_rows} rows, expected {n_trials}")
    if n_ex != 0:
        bad.append(f"{n_ex} exhausted trials")
    decided = n - n_ex
    target = ALPHA if truth == "H0" else BETA
    band = target + 3.0 * math.sqrt(target * (1.0 - target) / max(decided, 1))
    rate = float(row["error_rate"])
    if not rate <= band:
        bad.append(f"error rate {rate} above {band:.4f}")
    family, _, eps = vid.partition("@eps=")
    if family in ENVELOPE_FAMILIES:
        mean = float(row["mean_tau"])
        se = math.sqrt(float(row["var_tau"]) / max(decided, 1))
        lo, up = _envelope(family, float(eps), int(truth[1:]))
        if not (lo < mean + se and mean - se < up):
            bad.append(f"mean tau {mean:.2f} +/- {se:.2f} outside [{lo:.2f}, {up:.2f}]")
    return bad


def check_outputs(out_dir, cells, truths, n_trials: int, pinned=None) -> dict[str, list[str]]:
    """Failure reasons for every expected (cell, truth); an empty list passes.

    `cells` are variant ids such as "laplace@eps=0.1", `truths` are "H0"
    and/or "H1", and `pinned` maps "vid|truth" to the digests of `digests`
    (None skips the byte comparison).
    """
    out_dir = Path(out_dir)
    keys = [f"{vid}|{truth}" for truth in truths for vid in cells]
    try:
        trials = _rows(out_dir / "trials.csv")
        summary = _rows(out_dir / "summary.csv")
        found = digests(out_dir)
        header = (out_dir / "summary.csv").read_bytes().splitlines()[0].decode("utf-8", "replace")
    except (OSError, IndexError) as exc:
        return {key: [f"outputs unreadable: {exc}"] for key in keys}
    columns = header.split(",")
    failures: dict[str, list[str]] = {}
    for key in keys:
        vid, truth = key.split("|")
        bad = []
        if pinned is not None and found.get(key) != pinned.get(key):
            bad.append("bytes differ from the pinned digest")
        lines = summary.get((vid, truth), [])
        if len(lines) != 1:
            bad.append(f"{len(lines)} summary rows")
        else:
            values = next(csv.reader([lines[0].decode("utf-8", "replace")]))
            try:
                bad += _guarantee_failures(vid, truth, dict(zip(columns, values)),
                                           len(trials.get((vid, truth), [])), n_trials)
            except (KeyError, ValueError) as exc:
                bad.append(f"summary row unreadable: {exc!r}")
        failures[key] = bad
    return failures

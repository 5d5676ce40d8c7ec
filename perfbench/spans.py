"""Span tracer that times dpsprt's layers from outside the program.

Nothing under ``src/`` is edited. Each entry of a wrap table names a public
attribute that one dpsprt module imported from another (``harness.run_test``
is ``dp_sprt.run_test`` as harness sees it), or a public method. While a
:class:`Tracer` is active it replaces those attributes with timing wrappers;
on exit it puts every original back, even when the traced call raised.

A span records its name, start, end, parent span, trial index, the grid
cell it ran for, and one work count (steps for a test run, values for a
noise draw, bits for a ``take``). Spans stay in memory until
:meth:`Tracer.write_csv` and :func:`summarize`.
"""

from __future__ import annotations

import csv
import functools
import importlib
import time
from array import array

import numpy as np

_OBS = 1  # dpsprt.rngcore.Substream.OBS: the observation stream of a trial

# (module, attribute, span name, work count read from the call's result)
PROGRAM_WRAPS = (
    ("cli", "main", "cli.main", None),
    ("cli", "calibrate_privsprt", "baselines.calibrate_privsprt", "points_tried"),
    ("cli", "estimate_tau_sq", "privacy_accounting.estimate_tau_sq", None),
    ("cli", "run_experiment", "harness.run_experiment", None),
    ("cli", "write_trials_csv", "harness.write_csv", None),
    ("cli", "write_summary_csv", "harness.write_csv", None),
    ("cli", "derive", "rngcore.derive", None),
    ("harness", "derive", "rngcore.derive", None),
    ("harness", "run_test", "dp_sprt.run_test", "tau"),
    ("harness", "run_privsprt", "baselines.run_privsprt", "tau"),
    ("harness", "BitStream.take", "harness.bitstream.take", "size"),
    ("privacy_accounting", "derive", "rngcore.derive", None),
    ("privacy_accounting", "run_test", "dp_sprt.run_test", "tau"),
    ("dp_sprt", "derive", "rngcore.derive", None),
    ("dp_sprt", "sample_y", "noise.sample", "size"),
    ("dp_sprt", "sample_z", "noise.sample", "size"),
    ("dp_sprt", "correction_vec", "noise.correction_vec", "size"),
    ("baselines", "derive", "rngcore.derive", None),
)
# the benchmark's own correctness check reaches critical_n through
# bounds.upper_bound_expected_tau, which looks the name up in bounds
CHECK_WRAPS = (("bounds", "critical_n", "bounds.critical_n", None),)

# harness-level test runs: one span per Monte Carlo trial
_TRIAL_SPANS = ("dp_sprt.run_test", "baselines.run_privsprt")


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash; the harness keys a cell's streams by it."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & ((1 << 64) - 1)
    return h


def _points_tried(args, kwargs, result) -> int:
    """Grid points calibrate_privsprt evaluated: it scans the grid in
    (a+b, a) order and stops at the first feasible point, which it returns."""
    from dpsprt.baselines import default_threshold_grid

    grid = kwargs.get("grid", args[3] if len(args) > 3 else None)
    if grid is None:
        grid = default_threshold_grid(args[0], args[1])
    order = sorted(grid, key=lambda g: (g[0] + g[1], g[0]))
    return order.index((result.thresh_a, result.thresh_b)) + 1


_COUNTS = {
    None: lambda args, kwargs, result: 0,
    "tau": lambda args, kwargs, result: result.tau,
    "size": lambda args, kwargs, result: int(np.size(result)),
    "points_tried": _points_tried,
}


def _generator_words(bitgen) -> int:
    """64-bit words drawn so far from a Philox bit generator, read from its
    block counter (4 words per block) and its position in the last block."""
    st = bitgen.state
    return 4 * int(st["state"]["counter"][0]) - 4 + int(st["buffer_pos"])


class Tracer:
    """Context manager that wraps the names in `wraps` while active.

    `cells` lists the grid cells of the run ("laplace@eps=0.1", ...); a
    ``derive`` call whose key carries a cell's hash marks the spans that
    follow as that cell's, and the harness's observation-stream key marks
    the trial index.
    """

    def __init__(self, wraps=PROGRAM_WRAPS, cells=()):
        self._wraps = wraps
        self.cells = list(cells)
        self._cell_of_vid = {fnv1a64(c): i for i, c in enumerate(self.cells)}
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trial = array("q")
        self.cell = array("q")
        self.count = array("q")
        self._stack: list[int] = []
        self._trial = -1
        self._cell = -1
        self._generators: list[tuple[bool, object]] = []  # (harness obs stream?, bitgen)
        self._saved: list[tuple[object, str, object]] = []

    # -- installing and restoring -------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for module, attr, span, count in self._wraps:
                owner = importlib.import_module(f"dpsprt.{module}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if path else getattr(owner, leaf)
                wrapper = self._wrap(original, span, _COUNTS[count], module, attr)
                setattr(owner, leaf, wrapper)
                self._saved.append((owner, leaf, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    # -- recording ------------------------------------------------------------

    def _wrap(self, fn, span, count, module, attr):
        name_id = self._name_id.setdefault(span, len(self.names))
        if name_id == len(self.names):
            self.names.append(span)
        before = after = None
        if attr == "derive":
            before = self._harness_derive if module == "harness" else self._derive
            after = self._keep_generator
        elif module == "harness" and span in _TRIAL_SPANS:
            after = self._end_trial

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args[0])
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.trial.append(self._trial)
            self.cell.append(self._cell)
            self.end.append(0)
            self.count.append(0)
            self._stack.append(idx)
            self.start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter_ns()
                self._stack.pop()
            self.count[idx] = count(args, kwargs, result)
            if after is not None:
                after(args[0], result)
            return result

        return wrapper

    def _derive(self, key) -> None:
        self._cell = self._cell_of_vid.get(key.variant_id, self._cell)

    def _harness_derive(self, key) -> None:
        # the harness derives a trial's observation stream first
        self._derive(key)
        if key.substream == _OBS:
            self._trial = key.trial

    def _keep_generator(self, key, result) -> None:
        self._generators.append((self._trial >= 0 and key.substream == _OBS
                                 and key.variant_id in self._cell_of_vid, result.bit_generator))

    def _end_trial(self, key, result) -> None:
        self._trial = -1

    # -- output ----------------------------------------------------------------

    def words_drawn(self) -> tuple[int, int]:
        """(words from every derived generator, words from the harness's
        observation streams)."""
        total = obs = 0
        for is_obs, bitgen in self._generators:
            w = _generator_words(bitgen)
            total += w
            obs += w if is_obs else 0
        return total, obs

    def write_csv(self, path) -> None:
        """Write every span, one row each, in the order the spans opened."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "name", "start_ns", "end_ns", "parent", "trial", "cell", "count"])
            for i in range(len(self.start)):
                cell = self.cells[self.cell[i]] if self.cell[i] >= 0 else ""
                w.writerow([i, self.names[self.name[i]], self.start[i], self.end[i],
                            self.parent[i], self.trial[i], cell, self.count[i]])


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the recorded spans.

    Self time is a span's duration minus the durations of its direct child
    spans. Per-cell step costs are inclusive and use only the harness's
    trial spans, whose work count is the trial's stopping time tau.
    """
    names = tracer.names
    name = np.frombuffer(tracer.name, dtype=np.int64)
    dur = (np.frombuffer(tracer.end, dtype=np.int64)
           - np.frombuffer(tracer.start, dtype=np.int64)).astype(np.float64) * 1e-9
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    trial = np.frombuffer(tracer.trial, dtype=np.int64)
    cell = np.frombuffer(tracer.cell, dtype=np.int64)
    count = np.frombuffer(tracer.count, dtype=np.int64).astype(np.float64)
    # one slot past the last name stands for a name this tracer did not wrap
    n_slots = len(names) + 1

    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
    calls = np.bincount(name, minlength=n_slots)
    self_s = np.bincount(name, weights=dur - child_time, minlength=n_slots)
    incl_s = np.bincount(name, weights=dur, minlength=n_slots)
    work = np.bincount(name, weights=count, minlength=n_slots)

    def nid(span: str) -> int:
        return names.index(span) if span in names else len(names)

    out: dict[str, float] = {}
    for i, span in enumerate(names):
        out[f"{span}.calls"] = int(calls[i])
        out[f"{span}.self_s"] = float(self_s[i])

    values = work[nid("noise.sample")]
    out["noise.sample.values"] = int(values)
    out["noise.sample.ns_per_value"] = (
        float(incl_s[nid("noise.sample")]) * 1e9 / values if values else 0.0)
    out["noise.correction_vec.points"] = int(work[nid("noise.correction_vec")])

    words, obs_words = tracer.words_drawn()
    out["rngcore.words_drawn"] = words

    is_test = (name == nid("dp_sprt.run_test")) & (trial >= 0)
    is_priv = (name == nid("baselines.run_privsprt")) & (trial >= 0)
    tau_test = float(count[is_test].sum())
    tau_priv = float(count[is_priv].sum())
    is_take = name == nid("harness.bitstream.take")
    take_parent = parent[is_take]
    steps_evaluated = float(count[is_take][np.isin(take_parent, np.flatnonzero(is_test))].sum())
    priv_chunks = int(np.isin(take_parent, np.flatnonzero(is_priv)).sum())
    out["dp_sprt.steps_evaluated"] = int(steps_evaluated)
    out["dp_sprt.eval_used_frac"] = tau_test / steps_evaluated if steps_evaluated else 0.0
    out["harness.obs_bits_used_frac"] = (tau_test + tau_priv) / obs_words if obs_words else 0.0
    n_priv = int(is_priv.sum())
    out["baselines.chunks_per_trial"] = priv_chunks / n_priv if n_priv else 0.0

    # inclusive ns per step, per cell and per variant over the run's cells
    by_variant: dict[str, list[float]] = {}
    for c, label in enumerate(tracer.cells):
        sel = (is_test | is_priv) & (cell == c)
        secs, steps = float(dur[sel].sum()), float(count[sel].sum())
        if not steps:
            continue
        variant, eps = label.split("@eps=")
        layer = "baselines" if variant == "privsprt" else "dp_sprt"
        out[f"{layer}.{variant}.eps{eps}.ns_per_step"] = secs * 1e9 / steps
        acc = by_variant.setdefault(f"{layer}.{variant}", [0.0, 0.0])
        acc[0] += secs
        acc[1] += steps
    for key, (secs, steps) in by_variant.items():
        out[f"{key}.ns_per_step"] = secs * 1e9 / steps

    i_cal = nid("baselines.calibrate_privsprt")
    out["baselines.calibrate_privsprt.s"] = float(incl_s[i_cal])
    out["baselines.calibrate_privsprt.points_tried"] = int(work[i_cal])
    for j in np.flatnonzero((name == i_cal) & (cell >= 0)):
        eps = tracer.cells[cell[j]].split("@eps=")[1]
        out[f"baselines.calibrate_privsprt.eps{eps}.s"] = float(dur[j])
        out[f"baselines.calibrate_privsprt.eps{eps}.points_tried"] = int(count[j])
    return out

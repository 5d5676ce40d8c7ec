"""dpsprt benchmark: end-to-end cost of `dpsprt simulate`, and a traced run
that splits it by layer.

    python3 perfbench/run.py --workload short-tau [--seed 7] [--seconds 30] [--trace 0|1]

Run it from the root of a dpsprt checkout; it imports the package from
``src/`` and exits with code 2 if that is missing. Each measurement is one
``dpsprt.cli.main`` call in a fresh interpreter (``child.py``), so set-up
time, CPU time and peak memory belong to that call alone. Every run's CSVs
are checked (``checks.py``). The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where attempted and
failed count (cell, truth) outputs. ``--trace 0`` reports the end-to-end
metrics named in BENCHMARK.json, as medians over the runs that fit in
``--seconds``; ``--trace 1`` reports its per-layer metrics from one traced
1-worker replay, next to untraced runs of the same seed whose CSV bytes it
must match. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PINNED = HERE / "pinned.json"

DEFAULT_SEED = 7
SETUP_PROBES = 3
DEADLINE_S = 170.0  # a run must end within 180 s


@dataclass(frozen=True)
class Workload:
    eps: tuple[float, ...]
    variants: tuple[str, ...]
    truths: tuple[str, ...]
    trials: int
    workers: int
    accounting: bool = False

    @property
    def cells(self) -> list[str]:
        return [f"{v}@eps={e:g}" for e in self.eps for v in self.variants]

    def argv(self, seed: int, out_dir: Path, workers: int) -> list[str]:
        args = [
            "simulate", "--out", str(out_dir), "--seed", str(seed),
            "--trials", str(self.trials), "--workers", str(workers),
            "--eps", ",".join(f"{e:g}" for e in self.eps),
            "--variants", ",".join(self.variants),
            "--truth", "both" if len(self.truths) == 2 else self.truths[0],
        ]
        return args + ["--accounting"] if self.accounting else args


ALL_VARIANTS = ("classical", "laplace", "gaussian", "laplace_sub", "privsprt")
WORKLOADS = {
    # the run users launch: the default grid with accounting at 2 workers; the
    # only workload through the process pool and through the serial parent-side
    # work (PrivSPRT calibration, tau^2 pilots, CSV and manifest writing)
    "grid-default": Workload((0.1, 1.0, 5.0), ALL_VARIANTS, ("H0",), 1000, 2, accounting=True),
    # eps 5: tau of 9 to 170 steps, so fixed per-trial costs dominate
    "short-tau": Workload((5.0,), ALL_VARIANTS, ("H0", "H1"), 500, 1),
    # eps 0.1: tau of 680 to 22,700 steps, so per-step work dominates; PrivSPRT
    # calibration over 200 pilot paths of ~25k steps sets peak memory
    "long-tau": Workload((0.1,), ("laplace", "gaussian", "laplace_sub", "privsprt"), ("H0",), 200, 1),
}


class Run:
    """One `dpsprt simulate` call in a fresh interpreter, checked."""

    def __init__(self, name: str, workload: Workload, seed: int, workers: int,
                 deadline: float, trace: bool = False, check_tracer=None):
        from checks import check_outputs, digests

        self.keys = [f"{vid}|{t}" for t in workload.truths for vid in workload.cells]
        self.label = f"{'traced' if trace else 'untraced'} at {workers} worker(s)"
        out_dir = WORK / f"{name}-{os.getpid()}-{time.monotonic_ns()}"
        out_dir.mkdir(parents=True)
        extra = ["--"] + workload.argv(seed, out_dir / "out", workers)
        if trace:
            extra = ["--trace", str(WORK / f"spans-{name}.csv"), ",".join(workload.cells)] + extra
        pinned = _pins().get(name) if seed == DEFAULT_SEED else None
        try:
            self.result = spawn(out_dir / "result.json", extra, deadline)
            if self.result.get("exit_code") != 0:
                raise RuntimeError(f"dpsprt exited with code {self.result.get('exit_code')}")
            with check_tracer or contextlib.nullcontext():
                self.failures = check_outputs(out_dir / "out", workload.cells,
                                              workload.truths, workload.trials, pinned)
            self.digests = digests(out_dir / "out")
            self.sum_tau = _sum_tau(out_dir / "out" / "trials.csv")
        except (RuntimeError, OSError, ValueError) as exc:
            self.result = None
            self.failures = {key: [f"run failed: {exc}"] for key in self.keys}
            self.digests = {}
            self.sum_tau = 0
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def n_failed(self) -> int:
        return sum(1 for key in self.keys if self.failures.get(key))


def spawn(result_path: Path, extra: list[str], deadline: float) -> dict:
    """Start child.py in a fresh interpreter and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time budget spent before the run started")
    spawned_at = time.monotonic()
    # its own session, so that a timeout also ends the worker processes
    with subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), repr(spawned_at), str(result_path), *extra],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"child still running after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {err.strip()[-500:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if not result["dpsprt"].startswith(str(SRC.resolve()) + os.sep):
        raise RuntimeError(f"imported dpsprt from {result['dpsprt']}, not from {SRC}")
    return result


def _sum_tau(trials_csv: Path) -> int:
    with open(trials_csv, encoding="utf-8", newline="") as fh:
        return sum(int(row["tau"]) for row in csv.DictReader(fh))


def _pins() -> dict:
    if not PINNED.is_file():
        return {}
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh)


def _environment(workers: int, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "nproc": os.cpu_count(), "workers": workers, "seed": seed,
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(name: str, w: Workload, seed: int, seconds: float, deadline: float):
    """End-to-end metrics: medians over as many runs as fit in `seconds`."""
    probe = WORK / f"probe-{os.getpid()}.json"
    setup = [spawn(probe, [], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    probe.unlink()
    runs: list[Run] = []
    began = time.monotonic()
    while True:
        runs.append(Run(name, w, seed, w.workers, deadline))
        spent = time.monotonic() - began
        if spent * (len(runs) + 1) / len(runs) > seconds:
            break
    good = [r.result for r in runs if r.ok]
    # every run starts a fresh interpreter too, so its set-up time counts
    samples = {"setup_s": setup + [r["setup_s"] for r in good]}
    if good:
        samples.update(
            wall_s=[r["wall_s"] for r in good],
            steps_per_s=[run.sum_tau / run.result["wall_s"] for run in runs if run.ok],
            cpu_s=[r["cpu_s"] for r in good],
            peak_rss_mb=[r["peak_rss_mb"] for r in good],
        )
    return runs, samples


def trace(name: str, w: Workload, seed: int, deadline: float):
    """Per-layer metrics from one traced 1-worker replay.

    Untraced runs of the same seed give the base for the tracing overhead
    and, at the workload's worker count, the worker CPU share; every run's
    CSV bytes must match the traced run's.
    """
    from spans import CHECK_WRAPS, Tracer, summarize

    base = Run(name, w, seed, w.workers, deadline)
    base1 = base if w.workers == 1 else Run(name, w, seed, 1, deadline)
    check_tracer = Tracer(CHECK_WRAPS)
    traced = Run(name, w, seed, 1, deadline, trace=True, check_tracer=check_tracer)
    runs = [base, traced] if base1 is base else [base, base1, traced]
    for run in runs[:-1]:
        for key in traced.keys:
            if run.digests.get(key) != traced.digests.get(key):
                traced.failures[key].append("CSV bytes differ between traced and untraced runs")
    layers = {}
    if all(run.ok for run in runs):
        layers = dict(traced.result["layers"])
        checked = summarize(check_tracer)
        layers["bounds.critical_n.calls"] = checked["bounds.critical_n.calls"]
        layers["bounds.critical_n.self_s"] = checked["bounds.critical_n.self_s"]
        layers["harness.worker_cpu_frac"] = (
            base.result["worker_cpu_s"] / (w.workers * base.result["wall_s"])
            if w.workers > 1 else 0.0)
        layers["trace_overhead_frac"] = traced.result["wall_s"] / base1.result["wall_s"] - 1.0
    return runs, layers


def _report(runs: list[Run], metrics: dict, spec_metrics: list[dict]) -> dict:
    """The result line; it is incorrect when a check failed, a run did not
    finish, or a metric could not be measured."""
    failed = sum(run.n_failed for run in runs)
    return {
        "correct": failed == 0 and all(run.ok for run in runs)
        and all(m["name"] in metrics for m in spec_metrics),
        "attempted": sum(len(run.keys) for run in runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec_metrics if m["name"] in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="run once at the default seed and pin its CSV digests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "dpsprt" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no dpsprt source under {SRC} or no BENCHMARK.json", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    w = WORKLOADS[args.workload]

    if args.write_pins:
        run = Run(args.workload, w, DEFAULT_SEED, w.workers, deadline)
        if not run.ok:
            print(f"perfbench: {run.failures[run.keys[0]][0]}", file=sys.stderr)
            return 1
        pins = _pins()
        pins[args.workload] = run.digests
        PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"pinned {len(run.digests)} (cell, truth) digests for {args.workload}")
        return 0

    env = _environment(1 if args.trace else w.workers, args.seed)
    print("environment " + json.dumps(env))
    if args.trace:
        runs, metrics = trace(args.workload, w, args.seed, deadline)
        spec_metrics = spec["per_layer"]
        for run in runs:
            if run.ok:
                print(f"wall_s {run.label}: {run.result['wall_s']:.6g}")
        print("layers " + json.dumps(metrics, sort_keys=True))
        (WORK / f"layers-{args.workload}.json").write_text(
            json.dumps({"environment": env, "layers": metrics}, indent=1, sort_keys=True),
            encoding="utf-8")
    else:
        runs, samples = measure(args.workload, w, args.seed, seconds, deadline)
        spec_metrics = spec["end_to_end"]
        metrics = {}
        for key, values in samples.items():
            q1, med, q3 = _quartiles(values)
            metrics[key] = med
            print(f"{key}: median {med:.6g} (quartiles {q1:.6g} .. {q3:.6g}, n={len(values)})")
    report = _report(runs, metrics, spec_metrics)
    print(f"cells_failed_frac: {report['failed'] / report['attempted']:.6g} "
          f"({report['failed']} of {report['attempted']} (cell, truth) outputs)")
    for run in runs:
        for key, reasons in run.failures.items():
            for reason in reasons:
                print(f"FAIL {key}: {reason}")
    print(json.dumps(report))
    return 0 if len(report["metrics"]) == len(spec_metrics) else 1


if __name__ == "__main__":
    sys.exit(main())

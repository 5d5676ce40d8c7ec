"""One dpsprt CLI call in a fresh interpreter, with its cost.

    python3 child.py SPAWNED_AT RESULT_JSON [--trace SPANS_CSV CELL,...] [-- CLI_ARGS...]

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
interpreter (the clock is shared by all processes on Linux), so ``setup_s``
spans interpreter start-up and ``import dpsprt.cli``. Without CLI_ARGS the
call stops there. With them it runs ``dpsprt.cli.main(CLI_ARGS)`` and
records wall time, CPU time of this process and of its worker processes,
and peak resident memory; with ``--trace`` it runs ``main`` under the span
tracer, writes the spans to SPANS_CSV and adds the per-layer summary. The
result goes to RESULT_JSON.
"""

import contextlib
import json
import os
import resource
import sys
import time


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    spawned_at = float(sys.argv[1])
    result_path = sys.argv[2]
    rest = sys.argv[3:]
    cli_args = rest[rest.index("--") + 1:] if "--" in rest else []
    trace = rest[1:3] if rest[:1] == ["--trace"] else None

    import dpsprt.cli as cli

    setup_s = time.monotonic() - spawned_at
    result = {"setup_s": setup_s, "dpsprt": os.path.realpath(cli.__file__)}
    if cli_args:
        tracer = None
        if trace:
            from spans import Tracer, summarize

            tracer = Tracer(cells=trace[1].split(","))
        self0 = _cpu(resource.getrusage(resource.RUSAGE_SELF))
        t0 = time.perf_counter()
        with tracer or contextlib.nullcontext():
            code = cli.main(cli_args)
        wall_s = time.perf_counter() - t0
        own, workers = (resource.getrusage(who)
                        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        result.update(
            exit_code=code,
            wall_s=wall_s,
            cpu_s=_cpu(own) - self0 + _cpu(workers),
            worker_cpu_s=_cpu(workers),
            peak_rss_mb=max(own.ru_maxrss, workers.ru_maxrss) / 1024.0,
        )
        if trace:
            tracer.write_csv(trace[0])
            result["layers"] = summarize(tracer)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""circlelab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {tune,tongue,linearize,arith} \\
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; circlelab is imported from its src/
directory.  Set-up (imports, input generation, warm-up) comes first: the
import of circlelab is timed in SETUP_REPS fresh interpreters, input
generation and warm-up SETUP_REPS times in this one, and setup_s is the sum
of the two medians.  The timed phase then runs whole rounds of
operations, starting a round only while it is expected to end within S
seconds (the first round always runs).  Each output is checked by the
independent checkers as soon as its operation returns; the checks are
left out of every time the benchmark reports.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics (spans.PER_LAYER) with --trace 1.  The line before it
holds the environment block.  A record of the run, with every operation's
time and, for a traced run, the raw span table, is written to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3
IMPORT = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
          "import circlelab, circlelab.cli; print(time.perf_counter() - t)")


def git_sha(root: Path) -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes
    import glob

    import numpy as np
    base = Path(np.__file__).resolve().parent.parent
    for lib in sorted(glob.glob(str(base / "numpy.libs" / "*openblas*"))
                      + glob.glob(str(base / "scipy_openblas*" / "lib" / "*.so*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return "unknown"


def environment(workers: int, probe_s: float) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "workers": workers,
        "platform": platform.platform(),
        "host_probe_s": probe_s,
    }


def host_probe_s() -> float:
    """Median of three timings of a fixed pure-Python loop: a gauge of the
    host's speed when the run was made.  Runs whose probes differ were made
    on a machine running at different speeds."""
    def once() -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(500_000):
            acc += math.sin(i * 1e-3)
        return time.perf_counter() - t0
    return statistics.median(once() for _ in range(3))


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def import_seconds() -> float:
    """Median time to import circlelab in a fresh interpreter."""
    times = [float(subprocess.run([sys.executable, "-c", IMPORT], cwd=ROOT,
                                  check=True, capture_output=True,
                                  text=True).stdout)
             for _ in range(SETUP_REPS)]
    return statistics.median(times)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "circlelab" / "__init__.py").is_file():
        print(f"perfbench: no circlelab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    clock = time.perf_counter

    import circlelab
    if Path(circlelab.__file__).resolve().parent != (src / "circlelab").resolve():
        print(f"perfbench: circlelab imported from {circlelab.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = import_seconds()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed, bool(args.trace),
                                            OUT / args.workload)
    reps = []
    for _ in range(SETUP_REPS):
        t0 = clock()
        wl.prepare()
        reps.append(clock() - t0)
    setup_s = import_s + statistics.median(reps)

    probe_s = host_probe_s()
    gc.collect()
    if tracer is not None:
        tracer.reset()
    paused = tracer.paused if tracer is not None else contextlib.nullcontext
    ops, op_spans, round_times, problems = [], [], [], []
    attempted = failed = out_bytes = 0
    checking = 0.0
    start = clock()
    while True:
        t_round = clock()
        round_check = 0.0
        for label, spec, op in wl.round_ops():
            attempted += 1
            before = tracer.totals() if tracer is not None else None
            t0 = clock()
            try:
                out = op()
            except Exception:
                failed += 1
                print(f"perfbench: operation {label} failed:\n"
                      f"{traceback.format_exc()}", file=sys.stderr)
                continue
            ops.append((label, clock() - t0))
            t0 = clock()
            if tracer is not None:
                op_spans.append({k: v - before.get(k, 0.0)
                                 for k, v in tracer.totals().items()
                                 if v - before.get(k, 0.0) > 1e-3})
            with paused():
                problems += wl.check(spec, out)
            if hasattr(wl, "output_bytes"):
                out_bytes += wl.output_bytes(out)
            del out
            round_check += clock() - t0
        checking += round_check
        round_times.append(clock() - t_round - round_check)
        if clock() - start - checking + statistics.fmean(round_times) > args.seconds:
            break
    phase_s = clock() - start - checking
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    durations = [d for _, d in ops]

    if tracer is not None:
        metrics = tracer.metrics(len(durations), out_bytes)
    elif durations:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(durations) / phase_s, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(durations), "unit": "s"},
            "op_p90_s": {"value": quantile(durations, 0.9), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    else:
        metrics = {}
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)

    env = environment(wl.workers, probe_s)
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "setup_reps_s": reps, "import_s": import_s, "phase_s": phase_s,
              "check_s": checking, "rounds": len(round_times), "ops": ops,
              "problems": problems, "metrics": metrics}
    if tracer is not None:
        record["spans"] = [{"name": n, "calls": c, "total_s": t, "self_s": s}
                           for n, c, t, s in tracer.table()]
        record["op_spans_total_s"] = op_spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"env": env}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

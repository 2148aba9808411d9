"""gmop benchmark: one workload per process, a closed loop with one client.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-n200 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. Each workload runs in a fresh process
(``worker.py``) with the BLAS thread count fixed at ``nproc``. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
machine, the library versions and a table of every metric.

Only the standard library is imported here; the workers import gmop from
``src/`` of the checkout this script sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench-work"
#: BENCHMARK.json gates all but ``presets``, which is run by name (see README.md).
WORKLOADS = ("presets", "scale-n2000", "sweep-n200", "small-long")
#: Set-up is timed in this many fresh processes and the median reported.
SETUP_RUNS = 5
#: Every run, builds excepted, must end within this many seconds.
TIME_LIMIT_S = 170
#: A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "work_per_s": "work/s",
    "peak_rss_mib": "MiB",
}


def tail(values: list[float]) -> tuple[float, str]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples above it.

    Below 2 * TAIL_BEYOND samples no percentile above the median has that
    many beyond it, so the median stands in and the note says so.
    """
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(values), f"median of {n} ops: under {2 * TAIL_BEYOND}, no tail"
    rank = n - TAIL_BEYOND
    return sorted(values)[rank - 1], f"p{100 * rank / n:.0f} of {n} ops, {TAIL_BEYOND} beyond it"


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("GMOP_SEED", None)  # the CLI would take it over the generated configs
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_workload(name: str, args: argparse.Namespace, deadline: float) -> dict:
    """Time set-up in fresh processes, then run the workload in one more."""
    env = worker_env()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    cmd += ["--workdir", str(workdir)]
    setup_s = []
    try:
        for _ in range(0 if args.trace else SETUP_RUNS - 1):
            start = time.monotonic()
            probe = subprocess.run(cmd + ["--setup-only"], env=env, stdout=subprocess.PIPE,
                                   text=True, check=True, timeout=deadline - start)
            setup_s.append(float(probe.stdout.split()[-1]) - start)
        start = time.monotonic()
        proc = subprocess.run(
            cmd + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, stdout=subprocess.PIPE, text=True, check=True,
            timeout=deadline - start,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    setup_s.append(result["ready"] - start)
    result["setup_s"] = setup_s
    return result


def end_to_end(result: dict) -> tuple[dict, dict]:
    """End-to-end metric values, and a note per metric for the table."""
    ops = result["op_s"]
    op_tail, tail_note = tail(ops)
    values = {
        "setup_s": statistics.median(result["setup_s"]),
        "op_s.p50": statistics.median(ops),
        "op_s.tail": op_tail,
        "work_per_s": statistics.median(w / t for w, t in zip(result["op_work"], ops)),
        "peak_rss_mib": result["peak_rss_kib"] / 1024,
    }
    notes = {
        "setup_s": f"median of {len(result['setup_s'])} processes, "
                   f"{min(result['setup_s']):.3f}..{max(result['setup_s']):.3f}",
        "op_s.p50": f"median of {len(ops)} ops",
        "op_s.tail": tail_note,
        "work_per_s": f"median over ops of {result['work_unit']} per second",
        "peak_rss_mib": "peak resident set of the workload process",
    }
    return values, notes


def report(name: str, result: dict, trace: bool) -> dict:
    """Print one workload's table to stdout; return its metrics."""
    print(f"env {json.dumps(result['env'])}")
    print(f"== {name} ({'traced' if trace else 'untraced'})")
    if trace:
        from tracing import PER_LAYER_UNITS

        values = result["per_layer"]
        units, notes = PER_LAYER_UNITS, {}
        print("   calls in one traced op, by op kind and gmop command:")
        for tag, calls in sorted(result["breakdown"].items()):
            print(f"     {tag}: " + ", ".join(f"{k} {v:g}" for k, v in sorted(calls.items())))
    else:
        values, notes = end_to_end(result)
        units = END_TO_END_UNITS
    metrics = {}
    for metric, unit in units.items():
        metrics[metric] = {"value": values[metric], "unit": unit}
        print(f"   {metric:38s} {values[metric]:14.6g} {unit:7s} {notes.get(metric, '')}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"   {'failed_frac':38s} {failed / attempted:14.6g} {'frac':7s} "
          f"{failed} of {attempted} ops failed")
    print(f"   gmop logged {result['warnings']} warnings in this process")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, to check the harness itself")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "gmop" / "__init__.py").is_file():
        print(f"error: no gmop sources in {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        result = run_workload(name, args, time.monotonic() + TIME_LIMIT_S)
        measured = report(name, result, bool(args.trace))
        attempted += result["attempted"]
        failed += result["failed"]
        if args.workload == "all":
            measured = {f"{name}/{metric}": v for metric, v in measured.items()}
        metrics.update(measured)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one gmop benchmark workload in this process; print its result as JSON.

``run.py`` starts this script with the BLAS thread count and PYTHONPATH
already set, so they hold before numpy loads; set-up is timed from the
moment the process is started. The load is a closed loop with
one client: the next op starts when the last one has ended. Ops run until
their summed time reaches ``--seconds``; each op's output is checked after
its timer stops.

With ``--trace 1`` each op kind runs twice per cycle, first with no spans
installed and then traced. Whole cycles repeat while another one fits in
the time, so every traced count covers complete cycles and repeats exactly.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "artifact_digests.json"


class WarningCounter(logging.Handler):
    """Counts gmop log records at WARNING and above; prints none of them."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


def blas_libraries() -> list[dict]:
    """Every OpenBLAS mapped into this process, with its build and thread count."""
    with open("/proc/self/maps") as f:
        paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "")):
            try:
                config = getattr(lib, f"{prefix}_get_config{suffix}")
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            found.append({"library": os.path.basename(path),
                          "config": config().decode().strip(), "threads": threads()})
            break
    return found


def environment() -> dict:
    import numpy
    import scipy

    with open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), platform.processor())
    return {
        "machine": f"{platform.machine()} {cpu}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
    }


def run_op(wl, kind: str, workdir: Path, counter: WarningCounter, corrupt: bool,
           tracer=None):
    """Time one op, then check its output; returns (seconds, problems, warnings).

    With a tracer its spans are installed around the op only, not the check.
    """
    out = Path(tempfile.mkdtemp(prefix="op-", dir=workdir))
    before = counter.count
    try:
        if tracer is not None:
            tracer.tag = kind
            tracer.install()
        start = time.perf_counter()
        error = None
        try:
            output = wl.op(kind, out)
        except Exception:
            error = traceback.format_exc()
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        warnings = counter.count - before
        if error is not None:
            return elapsed, [error], warnings
        if corrupt:
            wl.corrupt(kind, output)
        try:
            problems = wl.check(kind, output)
        except Exception:
            problems = [traceback.format_exc()]
        return elapsed, problems, warnings
    finally:
        shutil.rmtree(out, ignore_errors=True)


def measure(wl, args, workdir: Path, counter: WarningCounter) -> dict:
    tracer = Tracer()
    op_s, op_work, traced_s, failed, warnings = [], [], [], 0, 0
    corrupt_next = args.corrupt

    def one(kind: str, traced: bool) -> None:
        nonlocal failed, warnings, corrupt_next
        elapsed, problems, warned = run_op(wl, kind, workdir, counter, corrupt_next,
                                           tracer if traced else None)
        corrupt_next = False
        if traced:
            traced_s.append(elapsed)
            warnings += warned
        else:
            op_s.append(elapsed)
            op_work.append(wl.work(kind))
        if problems:
            failed += 1
            print(f"{wl.name} {kind}: op failed:\n  " + "\n  ".join(problems), file=sys.stderr)

    if args.trace:
        # Whole cycles only; stop before a cycle that would overrun the time.
        cycle_s = 0.0
        while not op_s or sum(op_s) + sum(traced_s) + cycle_s <= args.seconds:
            before = sum(op_s) + sum(traced_s)
            for kind in wl.kinds:
                one(kind, traced=False)
                one(kind, traced=True)
            cycle_s = sum(op_s) + sum(traced_s) - before
    else:
        kinds = itertools.cycle(wl.kinds)
        while not op_s or sum(op_s) < args.seconds:
            one(next(kinds), traced=False)

    result = {
        "op_s": op_s,
        "attempted": len(op_s) + len(traced_s),
        "failed": failed,
        "op_work": op_work,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "warnings": counter.count,
    }
    if args.trace:
        layers = tracer.per_layer(traced_s, warnings)
        layers["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(op_s) - 1
        digests = json.loads(DIGESTS.read_text())
        layers["cli.artifacts_identical"] = workloads.artifacts_identical(
            Path(tempfile.mkdtemp(prefix="artifacts-", dir=workdir)), digests)
        result["per_layer"] = layers
        cycles = len(traced_s) // len(wl.kinds)
        result["breakdown"] = {tag: {name: calls / cycles for name, calls in c.items()}
                               for tag, c in tracer.breakdown().items()}
    if getattr(wl, "tolerance_misses", 0):
        print(f"{wl.name}: empirics.within_tolerance was false in {wl.tolerance_misses} "
              f"of {result['attempted']} ops (reported, not gated)", file=sys.stderr)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the monotonic time at which the first op is ready, then exit")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage the first op's output before its check (self-test)")
    args = parser.parse_args(argv)

    counter = WarningCounter()
    logging.getLogger("gmop").addHandler(counter)
    wl = workloads.make(args.workload, args.seed, args.workdir, args.smoke)
    ready = time.monotonic()
    if args.setup_only:
        print(ready)
        return 0
    result = measure(wl, args, args.workdir, counter)
    result["ready"] = ready
    result["work_unit"] = wl.work_unit
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one fresh process; prints its raw result as a JSON line.

``run.py`` starts this file once per set-up sample (``--setup-only``) and
once for the measured run.  The process imports shmgp from ``src/`` of the
checkout, sets the workload up, then runs units of work until the next one
would overrun ``--seconds`` (at least one; in a traced run at least one
untraced and one traced unit, alternating).  Every run wraps the counted
and clocked calls (``tracing.install_core``); the other layer wrappers are
put on only for traced units and a traced run's set-up, whose spans are
written to ``spans.json`` in the work directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# counters checked against expected.json after every operation
COUNTED = ("gp.fit", "kernels.gram", "statespace.filter", "gp.predict", "tuning.objective")


def import_program():
    """Import shmgp from this checkout's src/, never from anywhere else."""
    if not (SRC / "shmgp" / "__init__.py").is_file():
        raise SystemExit(f"shmgp sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import shmgp

    if Path(shmgp.__file__).resolve().parent != (SRC / "shmgp").resolve():
        raise SystemExit(f"imported shmgp from {shmgp.__file__}, not from {SRC}")


def blas_facts() -> list[dict]:
    """Vendor build string and thread count of each OpenBLAS loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    facts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        facts.append(entry)
    return facts


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "blas": blas_facts(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_unit(workload, tracer, index: int, traced: bool, draw: int) -> dict:
    """One unit of work on the workload's ``draw``-th set of inputs: every
    operation's answers, counts and error, the unit's wall and CPU time, and
    its work and the time spent doing it."""
    layers = tracing.install_layers(tracer) if traced else None
    tracer.unit, tracer.timing = index, traced
    busy = sum(tracer.busy[name] for name in workload.work_spans)
    ops = []
    start, cpu = time.perf_counter(), time.process_time()
    for name, seed_index, op in workload.ops(draw):
        before = {key: tracer.counts[key] for key in COUNTED}
        try:
            answers, points = op()
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            answers, points, error = {}, 0, f"{type(exc).__name__}: {exc}"
        counts = {key: tracer.counts[key] - before[key] for key in COUNTED}
        ops.append({"name": name, "seed_index": seed_index, "answers": answers, "points": points,
                    "counts": counts, "error": error})
    solve_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu
    tracer.timing = False
    if traced:
        tracer.restore(layers)
    work_s = sum(tracer.busy[name] for name in workload.work_spans) - busy
    return {"traced": traced, "solve_s": solve_s, "cpu_s": cpu_s,
            "work": workload.work_done(ops), "work_s": work_s, "ops": ops}


def measure(workload, tracer, seconds: float, trace: bool) -> tuple[list[dict], float]:
    """Units of work until the next would overrun ``seconds``, and the peak
    resident memory in MB through set-up and the first unit (later units
    reuse that memory, so the figure does not depend on the run length).

    A traced run alternates untraced and traced units on the same inputs,
    so their difference is the tracing overhead and not another draw's cost.
    """
    units = []
    start = time.perf_counter()
    while True:
        n = len(units)
        units.append(run_unit(workload, tracer, n, trace and n % 2 == 1, n // 2 if trace else n))
        if len(units) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace and len(units) < 2:
            continue
        typical = statistics.median(u["solve_s"] for u in units)
        if time.perf_counter() - start + typical > seconds:
            return units, peak_rss_mb


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed-index", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    tracer = tracing.Tracer(time.perf_counter)
    tracing.install_core(tracer)
    workload = WORKLOADS[args.workload]()
    tracer.clocked = frozenset(workload.work_spans)
    work = Path(args.work_dir)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.trace:
        layers = tracing.install_layers(tracer)
        tracer.timing = True
    workload.setup(args.seed_index, work)
    if args.trace:
        tracer.timing = False
        tracer.restore(layers)
    setup_s = time.time() - args.spawned_at
    result = {"setup_s": setup_s}
    if not args.setup_only:
        units, peak_rss_mb = measure(workload, tracer, args.seconds, bool(args.trace))
        result.update(units=units, facts=machine_facts(), peak_rss_mb=peak_rss_mb)
        if args.trace:
            traced = {i: u["solve_s"] for i, u in enumerate(units) if u["traced"]}
            untraced = [u["solve_s"] for u in units if not u["traced"]]
            result["layers"] = tracing.layer_metrics(tracer.spans, traced, untraced)
            (work / "spans.json").write_text(json.dumps(tracer.span_dicts()))
    tracer.restore()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

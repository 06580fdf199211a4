"""shmgp benchmark: seeded workloads, checked answers, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload narx_tune --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in fresh processes started one after another from this
one (``worker.py``): ``SETUP_SAMPLES - 1`` processes that only set up, then
one that sets up and measures.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run.  Every
operation's answers are checked against ``expected.json`` for the seed
(relative tolerance ``REL_TOL``) and its exact work counts against the
counts recorded there; a changed count is changed work, not a speed-up.
The last line of stdout is one JSON object; the exit code is 0 only when
every check passed.  Machine facts (cores, CPU, BLAS and its threads,
versions, commit) are printed with every result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"
WORKLOADS = ("narx_tune", "exact_gp_1d", "predict")
SETUP_SAMPLES = 5
SEED_INDICES = 8  # --seed s runs seed index s mod 8; expected.json holds answers for each
REL_TOL = 1e-9  # on every nMSE and log marginal likelihood
RUN_BUDGET_S = 170.0  # a workload's processes together, so one run ends inside 180 s

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "cpu_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "experiments.self_ms": "ms", "generators.sim_s": "s",
    "tuning.evals": "count", "tuning.nonfinite_frac": "fraction",
    "tuning.objective_ms": "ms", "tuning.gls_ms": "ms", "pso.self_ms": "ms",
    "gp.fit_ms": "ms", "gp.fit_self_ms": "ms", "gp.chol_ms": "ms",
    "gp.jitter_retries": "count", "gp.chol_failures": "count",
    "gp.predict_us_per_point": "us", "kernels.gram_ms": "ms",
    "kernels.gram_calls": "count", "kernels.gram_share": "fraction",
    "kernels.cross_gram_ms": "ms", "statespace.filter_ms": "ms",
    "statespace.filter_step_us": "us", "statespace.rts_ms": "ms",
    "statespace.build_ms": "ms", "statespace.discretize_ms": "ms",
    "statespace.passes": "count", "narx.free_run_step_us": "us", "narx.lag_ms": "ms",
    "reduced_rank.fit_ms": "ms", "reduced_rank.predict_us_per_point": "us",
    "model_io.load_ms": "ms", "model_io.read_csv_ms": "ms", "model_io.write_ms": "ms",
    "cli.predict_ms": "ms", "trace.uncovered_share": "fraction", "trace.overhead_s": "s",
}


def rel_err(got: float, ref: float) -> float:
    if got == ref:
        return 0.0
    if not (math.isfinite(got) and math.isfinite(ref)):
        return math.inf
    return abs(got - ref) / abs(ref) if ref else abs(got)


def check_op(op: dict, answers: dict | None, counts: dict | None) -> tuple[float, list[str]]:
    """Largest relative answer error of one operation and what failed in it."""
    problems = []
    if op["error"]:
        problems.append(op["error"])
    worst = 0.0
    if answers is None:
        problems.append("no reference answers recorded for this seed")
    else:
        for key, ref in answers.items():
            err = rel_err(op["answers"].get(key, math.nan), ref) if not op["error"] else math.inf
            worst = max(worst, err)
            if not err <= REL_TOL:
                problems.append(f"{key} = {op['answers'].get(key)!r}, reference {ref!r}")
    if counts is None:
        problems.append("no work counts recorded")
    else:
        for key, want in counts.items():
            got = op["counts"].get(key)
            if got != want:
                problems.append(f"changed work: {key} ran {got} times, recorded {want}")
    return worst, problems


def score(units: list[dict], expected: dict):
    """(attempted, failed, largest relative error, problem lines) over all units."""
    attempted = failed = 0
    worst = 0.0
    problems = []
    for unit in units:
        for op in unit["ops"]:
            attempted += 1
            answers = expected["answers"].get(str(op["seed_index"]), {}).get(op["name"])
            err, found = check_op(op, answers, expected["counts"].get(op["name"]))
            worst = max(worst, err)
            if found:
                failed += 1
                problems += [f"{op['name']}: {p}" for p in found]
    return attempted, failed, worst, problems


def run_worker(workload: str, index: int, seconds: float, trace: int,
               setup_only: bool, work_dir: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed-index", str(index), "--seconds", repr(seconds),
           "--trace", str(trace), "--work-dir", str(work_dir), "--spawned-at", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit_facts() -> dict:
    facts = {"commit": None}
    if (ROOT / ".git").exists():
        try:
            facts["commit"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "configs").glob("*.json")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    facts["source_sha256"] = digest.hexdigest()
    return facts


def run_workload(workload: str, seed: int, seconds: float, trace: int, expected: dict) -> dict:
    index = seed % SEED_INDICES
    deadline = time.monotonic() + RUN_BUDGET_S
    setups = []
    if not trace:
        for i in range(SETUP_SAMPLES - 1):
            r = run_worker(workload, index, seconds, trace, True,
                           OUT / workload / f"setup{i}", deadline)
            setups.append(r["setup_s"])
    main = run_worker(workload, index, seconds, trace, False,
                      OUT / workload / "run", deadline)
    setups.append(main["setup_s"])
    units = main["units"]
    attempted, failed, worst, problems = score(units, expected)
    plain = [u for u in units if not u["traced"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(u["solve_s"] for u in plain),
        "cpu_s": statistics.median(u["cpu_s"] for u in plain),
        "work_per_s": statistics.median(u["work"] / u["work_s"] for u in plain),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    return {
        "workload": workload, "seed": seed, "seed_index": index, "trace": trace,
        "samples": {"setup": len(setups), "units": len(plain),
                    "traced_units": len(units) - len(plain)},
        "attempted": attempted, "failed": failed, "answer_rel_err": worst,
        "problems": problems, "metrics": metrics, "layers": main.get("layers"),
        "facts": main["facts"],
    }


def report_lines(r: dict) -> list[str]:
    """Human-readable metric lines, one per metric, with units."""
    w = r["workload"]
    if r["trace"]:
        return [f"{w:<13} {name:<34} " + ("absent" if r["layers"][name] is None
                                          else f"{r['layers'][name]:.6g} {unit}")
                for name, unit in PER_LAYER_UNITS.items()]
    m, n = r["metrics"], r["samples"]
    evals = None if w == "predict" else m["work_per_s"]
    points = m["work_per_s"] if w == "predict" else None
    rows = [
        ("setup_s", m["setup_s"], "s", f"median of {n['setup']} processes"),
        ("solve_s", m["solve_s"], "s", f"median of {n['units']} units"),
        ("cpu_s", m["cpu_s"], "s", "process CPU incl. BLAS threads, median"),
        ("evals_per_s", evals, "1/s", "objective evaluations per second of swarm (work_per_s)"),
        ("pred_points_per_s", points, "1/s", "points per second of predict calls (work_per_s)"),
        ("peak_rss_mb", m["peak_rss_mb"], "MB", "measuring process, set-up and first unit"),
        ("answer_rel_err", r["answer_rel_err"], "1", f"tolerance {REL_TOL:g}"),
        ("failed_frac", r["failed"] / r["attempted"], "1",
         f"{r['failed']} of {r['attempted']} operations"),
    ]
    return [f"{w:<13} {name:<18} "
            + ("absent" if value is None else f"{value:<14.6g} {unit:<4} {note}")
            for name, value, unit, note in rows]


def summary(results: list[dict]) -> dict:
    """The final JSON line; metric names gain a workload prefix for 'all'."""
    metrics = {}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        if r["trace"]:
            values = {k: (v if v is not None else 0.0) for k, v in r["layers"].items()}
            units = PER_LAYER_UNITS
        else:
            values, units = r["metrics"], END_TO_END
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    return {
        "correct": all(not r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shmgp").is_dir() or not (ROOT / "configs").is_dir():
        print(f"error: no shmgp checkout at {ROOT} (src/shmgp and configs/ needed)",
              file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, args.trace, expected))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print("machine " + json.dumps({**results[0]["facts"], **commit_facts()}))
    for r in results:
        for line in report_lines(r):
            print(line)
        for problem in r["problems"]:
            print(f"{r['workload']}: FAILED {problem}", file=sys.stderr)
    result = summary(results)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

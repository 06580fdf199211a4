"""Record the reference answers in expected.json by running each workload once.

    python3 perfbench/record.py [--workload NAME ...]

Runs one unit of every workload at each seed index the benchmark uses
(0 .. ``run.SEED_INDICES`` - 1) and stores each operation's nMSE (and log
marginal likelihood where one exists) under ``answers``.  Recorded work
counts are left as they are; the run reports any operation whose counts
differ from them.  Re-record only when a change is meant to alter the
answers, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import time

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", default=list(run.WORKLOADS))
    args = parser.parse_args(argv)

    expected = json.loads(run.EXPECTED.read_text())
    for index in range(run.SEED_INDICES):
        answers = expected["answers"].setdefault(str(index), {})
        for workload in args.workload:
            deadline = time.monotonic() + run.RUN_BUDGET_S
            result = run.run_worker(workload, index, 0.0, 0, False,
                                    run.OUT / workload / "record", deadline)
            for op in result["units"][0]["ops"]:
                if op["error"]:
                    raise SystemExit(f"seed index {index}, {op['name']}: {op['error']}")
                answers[op["name"]] = op["answers"]
                print(index, op["name"], op["answers"], op["counts"], flush=True)
            run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

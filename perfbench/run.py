"""Whole-run benchmark of the dosids pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dosids checkout. The workload's inputs are made
from the seed and written under .perfbench/ before any timing starts.
Then the pipeline runs end to end, each repeat in a fresh interpreter
(perfbench/child.py), until the next repeat would end after S seconds,
and at least twice so that two runs of one input can be compared byte
for byte. Every repeat's outputs are checked (checks.py). The last line
of standard output is one JSON object: correct, attempted and failed
stages, and the metrics (medians over the repeats) with their units:
the end-to-end ones with --trace 0, the per-layer ones with --trace 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

WORK_ROOT = ".perfbench"
# One BLAS thread: on a shared 2-core machine the default two threads made
# one desk tune take 56-59 s against 46-49 s with one, and vary more.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_REPEATS = 2
CHILD_TIMEOUT_S = 150
BUDGET_S = 150            # never start a repeat expected to end later than this
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("macro_f1", "ratio"))


def run_child(config, preset, report, trace) -> dict:
    spawned = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), config, preset or "none",
         report, repr(spawned), str(trace)],
        env=dict(os.environ, **CHILD_ENV), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pipeline process exited with {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    with open(report, encoding="utf-8") as fh:
        return json.load(fh)


def measure(inputs, work, seconds, trace) -> tuple[list, list]:
    """Repeat the whole pipeline in fresh processes; returns the reports
    and output directories of every repeat."""
    csv_path = os.path.join(work, "flows.csv")
    reports, runs = [], []
    started = time.perf_counter()
    while True:
        out = os.path.join(work, f"run{len(runs)}")
        config = f"{out}.cfg"
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(config_text(inputs, csv_path, out))
        reports.append(run_child(config, inputs.preset, f"{out}.json", trace))
        runs.append(out)
        elapsed = time.perf_counter() - started
        next_end = elapsed + elapsed / len(runs)
        if len(runs) >= MIN_REPEATS and (next_end > seconds or next_end > BUDGET_S):
            return reports, runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "dosids", "pipeline.py")):
        print("perfbench: src/dosids not found; run from the root of a dosids checkout",
              file=sys.stderr)
        return 2

    work = os.path.join(WORK_ROOT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inputs = WORKLOADS[args.workload](args.seed)
    with open(os.path.join(work, "flows.csv"), "w", encoding="utf-8") as fh:
        fh.write(inputs.csv_text)

    reports, runs = measure(inputs, work, args.seconds, args.trace)

    finished = [run for run, rep in zip(runs, reports) if not rep["stages_failed"]]
    if not finished:
        print("every repeat failed a stage", file=sys.stderr)
        return 1
    correct = True
    try:
        for run in finished:
            checks.check_run(run, inputs)
        checks.check_identical(finished)
    except checks.CheckError as exc:
        correct = False
        print(f"check failed: {exc}", file=sys.stderr)

    ok = [rep for rep in reports if not rep["stages_failed"]]
    if args.trace:
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in ok),
                          "unit": unit} for name, unit, _ in LAYER_METRICS}
        traced_run_s = statistics.median(r["run_s"] for r in ok)
        print(f"traced run_s {traced_run_s:.4f} s")
    else:
        with open(os.path.join(finished[0], "evaluate", "metrics.json"), encoding="utf-8") as fh:
            f1 = json.load(fh)["macro"]["f1"]
        values = {name: statistics.median(r[name] for r in ok)
                  for name in ("run_s", "setup_s", "peak_rss_mb")}
        values["macro_f1"] = f1
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(f"{args.workload} seed {args.seed}: {len(reports)} repeats, run_s "
          + " ".join(f"{r['run_s']:.3f}" for r in reports))
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["stages_attempted"] for r in reports),
                      "failed": sum(r["stages_failed"] for r in reports),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

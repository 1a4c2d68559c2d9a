"""One pipeline run in a fresh interpreter, launched by run.py.

    python3 perfbench/child.py CONFIG PRESET REPORT SPAWNED TRACE

Goes through the program's public entry points exactly as `dosids run`
does: load the config file, apply the preset, validate, `run_pipeline`.
Writes REPORT (JSON) with the set-up and run times, the peak resident
set size, the stages attempted and failed, and with TRACE=1 the
per-layer metrics. SPAWNED is the parent's wall clock just before it
started this process, so set-up time covers interpreter start too.
"""

import json
import os
import resource
import sys
import time


def main(argv) -> int:
    config, preset, report_path, spawned, trace = argv
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    from dosids import pipeline

    if not os.path.abspath(pipeline.__file__).startswith(src + os.sep):
        raise SystemExit(f"dosids imported from {pipeline.__file__}, not from {src}")
    cfg = pipeline.config_from_file(config)
    if preset != "none":
        cfg = pipeline.apply_preset(cfg, preset)
    cfg.validate()
    tracer = None
    if trace == "1":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    setup_s = time.time() - float(spawned)
    t0 = time.perf_counter()
    failed_stage = None
    try:
        pipeline.run_pipeline(cfg)
    except pipeline.StageError as exc:
        failed_stage = exc.stage
    run_s = time.perf_counter() - t0

    attempted = (pipeline.STAGES.index(failed_stage) + 1 if failed_stage
                 else len(pipeline.STAGES))
    report = {"setup_s": setup_s, "run_s": run_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "stages_attempted": attempted, "stages_failed": int(failed_stage is not None),
              "failed_stage": failed_stage}
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.metrics(cfg.out_dir)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

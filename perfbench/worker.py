"""One pass of the library workload (extensions) in a fresh process.

    python3 perfbench/worker.py READY_FD INPUTS OUT [--check] [--trace|--scaled] [--probe]

Writes "ready" to READY_FD once f2dyn is imported and INPUTS is read (the
set-up the parent times), runs every job, records the pass's peak RSS, and
only then (with --check) checks the answers, so neither the checks nor the
tracer's bookkeeping land in the timed region or the memory figure.  With
--scaled, times are read from clock.ReferenceClock (seconds at a fixed
reference speed); otherwise they are wall time.  The
parent checks one pass and compares the others' output digests with it.
With --probe it exits right after "ready".  The pass record goes to OUT as
JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import f2dyn

import jobs
from clock import ReferenceClock


def run_pass(job_list, seed, tracer, check, now):
    ctx = jobs.Context()
    records, answers = [], {}
    start = now()
    for job in job_list:
        record = {"id": job["id"], "kind": jobs.KIND[job["kind"]]}
        t0 = now()
        try:
            if tracer is None:
                text, answer = jobs.run(ctx, job)
            else:
                text, answer = tracer.run_job(job["id"], jobs.run, ctx, job)
        except f2dyn.ResourceLimitError as exc:
            record.update(status="refused", error=str(exc))
        except Exception as exc:  # a failing job must not end the pass
            record.update(status="error", error=f"{type(exc).__name__}: {exc}",
                          traceback=traceback.format_exc())
        else:
            answers[job["id"]] = answer
            record.update(status="ok", bytes=len(text),
                          digest=hashlib.sha256(text.encode()).hexdigest())
        record["latency_s"] = now() - t0
        records.append(record)
    wall = now() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = None
    if tracer is not None:
        tracer.uninstall()
        summary = tracer.summary()
    for job, record in zip(job_list, records):
        if not check or record["status"] != "ok":
            continue
        try:
            error = jobs.check(ctx, job, answers[job["id"]], seed)
        except Exception as exc:  # an oracle that raises is a failed check
            error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            record.update(status="wrong", error=error)
    return {"wall_s": wall, "peak_rss_mb": peak_kb / 1024, "jobs": records,
            "trace": summary}


def main(argv: list[str]) -> int:
    ready_fd, inputs_path, out_path = int(argv[0]), argv[1], argv[2]
    with open(inputs_path) as fh:
        inputs = json.load(fh)
    os.write(ready_fd, b"ready\n")
    if "--probe" in argv:
        return 0
    tracer, clock, now = None, None, perf_counter
    if "--trace" in argv:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    elif "--scaled" in argv:
        clock = ReferenceClock()
        clock.start()
        now = clock.now
    result = run_pass(inputs["jobs"], inputs["seed"], tracer, "--check" in argv,
                      now)
    if clock is not None:
        clock.stop()
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""f2dyn benchmark: end-to-end metrics per workload, per-layer metrics from a
traced run.

    python3 perfbench/run.py --workload ladder|extensions|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/``
(nothing is installed) and run artifacts go to ``.perfbench/``.  Inputs are
drawn from the seed (see inputs.py); the program only ever sees them.

--trace 0 runs whole passes over the workload's jobs while the next pass
is expected to end within S seconds (at least MIN_PASSES), one process at a
time, and reports medians over the passes.  Job times are read from
clock.ReferenceClock, in seconds at a fixed reference speed, because the
speed of a shared machine drifts; set-up times (process start to ready)
are scaled by the reference loop's time around each start.  --trace 1
runs one untraced and one traced pass, both timed by the wall clock, and
reports the per-layer metrics of the traced one, the tracing overhead, and
checks that both passes produced the same outputs.
Every job's answer is checked by an independent oracle (jobs.py); a job
that fails, is refused, times out or fails its check counts in ``failed``.
The last line of stdout is the JSON result; the lines before it print every
metric with its unit.  Metric definitions and the layer -> end-to-end
table are in METRICS.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from clock import NOMINAL, reference

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ladder", "extensions")
KINDS = ("orbits", "curve", "conjugate", "bluher")
PROBES = 3           # extra set-up-only worker starts per untraced library pass
MIN_PASSES = 3       # untraced passes per run, whatever --seconds says
JOB_TIMEOUT = 120.0  # seconds for one ladder job or one library pass
MB = 1024            # ru_maxrss is in KiB on Linux


class Checkout:
    """Paths and the child environment of the checkout being measured."""

    def __init__(self, root: Path, workload: str, seed: int, trace: int):
        self.root = root
        self.src = root / "src"
        self.out = root / ".perfbench" / f"{workload}-seed{seed}-trace{trace}"
        self.out.mkdir(parents=True, exist_ok=True)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(self.src) + (
            os.pathsep + path if path else ""))


# -- child processes -----------------------------------------------------------------


def reference_time() -> float:
    """Seconds clock.reference takes now: the median of five runs."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        reference()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def spawn(checkout: Checkout, script: str, args: list[str], name: str) -> dict:
    """Run perfbench/<script> with a ready pipe and return its timings.

    setup_s runs from just before the spawn to the child's "ready" line,
    scaled to the reference speed of clock.py by the reference loop's time
    just before the spawn and just after "ready"; wall_s runs to the child's
    exit, read through os.wait4 with its rusage; job_s is what the child
    reports on a "done SECONDS" line, if it does.
    """
    speed = [reference_time()]
    read_fd, write_fd = os.pipe()
    stdout_path = checkout.out / f"{name}.out"
    with open(stdout_path, "wb") as out, \
            open(checkout.out / f"{name}.err", "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / script), str(write_fd), *args],
            stdout=out, stderr=err, pass_fds=(write_fd,), env=checkout.env,
            cwd=checkout.root)
    os.close(write_fd)
    ready, timed_out, received = None, False, b""
    deadline = t0 + JOB_TIMEOUT
    try:
        with os.fdopen(read_fd, "rb", buffering=0) as pipe:
            while True:  # EOF on the pipe means the child has exited
                wait = deadline - perf_counter()
                if wait <= 0 or not select.select([pipe], [], [], wait)[0]:
                    timed_out = True
                    proc.kill()
                    break
                chunk = pipe.read(4096)
                if not chunk:
                    break
                if ready is None:
                    ready = perf_counter()
                    speed.append(reference_time())
                received += chunk
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    end = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    done = [line.split()[1] for line in received.decode().splitlines()
            if line.startswith("done ")]
    return {"rc": proc.returncode, "timed_out": timed_out,
            "setup_s": None if ready is None
            else (ready - t0) * NOMINAL / statistics.mean(speed),
            "job_s": float(done[0]) if done else None,
            "wall_s": end - t0, "peak_rss_mb": usage.ru_maxrss / MB,
            "stdout": stdout_path}


def ladder_pass(checkout, inputs, index, trace, oracle) -> dict:
    import jobs
    runs, setups, peak = [], [], 0.0
    for job in inputs["jobs"]:
        name = f"pass{index}-job{job['id']}"
        trace_out = str(checkout.out / f"{name}.trace.json") if trace else "-"
        runs.append((job, name, trace_out, spawn(
            checkout, "clijob.py", [trace_out, "--", *job["argv"]], name)))
    records, summaries = [], []
    for job, name, trace_out, run in runs:
        # a job that did not report its time failed: charge it the process's
        record = {"id": job["id"], "kind": job["kind"],
                  "latency_s": run["job_s"] if run["job_s"] is not None
                  else run["wall_s"], "process_s": run["wall_s"]}
        if run["setup_s"] is not None:
            setups.append(run["setup_s"])
        peak = max(peak, run["peak_rss_mb"])
        data = run["stdout"].read_bytes()
        if run["timed_out"]:
            record.update(status="timeout", error=f"over {JOB_TIMEOUT} s")
        elif run["rc"] != 0:
            err = (checkout.out / f"{name}.err").read_text(errors="replace")
            record.update(status="error", error=f"exit {run['rc']}: {err[-300:]}")
        else:
            digest = hashlib.sha256(data).hexdigest()
            key = (job["id"], digest)
            if key not in oracle:  # same output, same verdict: check once
                try:
                    oracle[key] = jobs.check_ladder(job, data.decode(),
                                                    inputs["seed"])
                except Exception as exc:  # a report the oracle cannot read
                    oracle[key] = f"check raised {type(exc).__name__}: {exc}"
            record.update(status="wrong" if oracle[key] else "ok",
                          digest=digest, bytes=len(data))
            if oracle[key]:
                record["error"] = oracle[key]
        if trace and run["rc"] == 0:
            with open(trace_out) as fh:
                summaries.append(json.load(fh))
        records.append(record)
    # the jobs' own times: interpreter start and imports are in setup_s
    wall = sum(record["latency_s"] for record in records)
    return {"wall_s": wall, "peak_rss_mb": peak, "jobs": records,
            "setup": setups,
            "trace": merge_traces(summaries) if trace else None}


def library_pass(checkout, inputs_path, index, trace) -> dict:
    name = f"pass{index}"
    out = checkout.out / f"{name}.json"
    # the first pass is checked; the others must match its output digests
    args = [str(inputs_path), str(out)] + (["--check"] if index == 0 else []) \
        + (["--trace"] if trace else ["--scaled"])
    run = spawn(checkout, "worker.py", args, name)
    if run["rc"] != 0 or run["timed_out"]:
        err = (checkout.out / f"{name}.err").read_text(errors="replace")
        raise RuntimeError(f"worker pass {index} failed "
                           f"(exit {run['rc']}, timeout {run['timed_out']}): "
                           f"{err[-500:]}")
    with open(out) as fh:
        result = json.load(fh)
    result["setup"] = [run["setup_s"]]
    # more set-up samples, spread over the run like the passes
    for i in range(0 if trace else PROBES):
        probe = spawn(checkout, "worker.py",
                      [str(inputs_path), "-", "--probe"], f"{name}-probe{i}")
        if probe["rc"] != 0 or probe["setup_s"] is None:
            raise RuntimeError(f"set-up probe failed with exit {probe['rc']}")
        result["setup"].append(probe["setup_s"])
    return result


def merge_traces(summaries: list[dict]) -> dict:
    """Sum the trace summaries of the ladder's job processes."""
    merged = {"calls": defaultdict(int), "busy": defaultdict(float),
              "extra": defaultdict(float), "jobs": [], "absent": set(),
              "extension_cache": {"hits": 0, "misses": 0}, "spans": []}
    for s in summaries:
        for part in ("calls", "busy", "extra"):
            for key, value in s[part].items():
                if key == "fields.ext_degree.max":
                    merged[part][key] = max(merged[part][key], value)
                else:
                    merged[part][key] += value
        merged["jobs"] += s["jobs"]
        merged["spans"] += s["spans"]
        merged["absent"].update(s["absent"])
        for key in ("hits", "misses"):
            merged["extension_cache"][key] += (s["extension_cache"] or {}).get(key, 0)
    merged["absent"] = sorted(merged["absent"])
    return merged


# -- metrics -------------------------------------------------------------------------


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    """Medians over the run's passes: of each pass's wall time and rate, and
    of each job's latency, from which the percentiles and kind times are
    taken.  Set-up and memory are medians too."""
    times, kind = defaultdict(list), {}
    for p in passes:
        for j in p["jobs"]:
            times[j["id"]].append(j["latency_s"])
            kind[j["id"]] = j["kind"]
    per_job = {i: statistics.median(t) for i, t in times.items()}
    latencies = list(per_job.values())
    per_kind = {k: sum(t for i, t in per_job.items() if kind[i] == k)
                for k in KINDS}
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "jobs_per_s": (statistics.median(
            sum(j["status"] == "ok" for j in p["jobs"]) / p["wall_s"]
            for p in passes), "jobs/s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_p90_s": (statistics.quantiles(latencies, n=10)[8], "s"),
        **{f"{kind}_s": (per_kind[kind], "s") for kind in KINDS},
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB"),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    t = traced["trace"]
    calls, busy, extra = t["calls"], t["busy"], t["extra"]

    def c(key):
        return (calls.get(key, 0), "count")

    def b(key):
        return (busy.get(key, 0.0), "s")

    def layer(name):
        return (sum(v for k, v in busy.items() if k.split(".")[0] == name), "s")

    cache = t["extension_cache"]
    lookups = cache["hits"] + cache["misses"] if cache else 0
    return {
        "gf2x.mul.calls": c("gf2x.mul"),
        "gf2x.mod.calls": c("gf2x.mod"),
        "gf2x.sqr.calls": c("gf2x.sqr"),
        "gf2x.busy_s": layer("gf2x"),
        "fields.busy_s": layer("fields"),
        "fields.mul.calls": c("fields.BinaryField.mul"),
        "fields.mul.busy_s": b("fields.BinaryField.mul"),
        "fields.mul.wide_frac": (extra.get("fields.mul.wide", 0)
                                 / max(calls.get("fields.BinaryField.mul", 0), 1),
                                 "fraction"),
        "fields.inv.calls": c("fields.BinaryField.inv"),
        "fields.frob.calls": c("fields.BinaryField.frob"),
        "fields.frob.busy_s": b("fields.BinaryField.frob"),
        "fields.trace.calls": c("fields.BinaryField.trace"),
        "fields.field_builds": c("fields.field_build"),
        "fields.field_build.busy_s": b("fields.field_build"),
        "fields.first_op.busy_s": b("fields.first_op"),
        "fields.extension_of.calls": c("fields.extension_of"),
        "fields.extension_of.busy_s": b("fields.extension_of"),
        "fields.extension_of.hit_ratio": (cache["hits"] / lookups if lookups
                                          else 0.0, "fraction"),
        "fields.ext_degree.max": (extra.get("fields.ext_degree.max", 0), "degree"),
        "fields.polynomial_roots.busy_s": b("fields.polynomial_roots"),
        "fields.ExtensionRootCounter.count.busy_s":
            b("fields.ExtensionRootCounter.count"),
        "fields.SubsetXorSolver.builds": c("fields.SubsetXorSolver.build"),
        "fields.LinearizedPoly.solve.busy_s": b("fields.LinearizedPoly.solve"),
        "fields.nth_roots.busy_s": b("fields.nth_roots"),
        "maps.busy_s": layer("maps"),
        "maps.permutation.busy_s": b("maps.MapSpec.permutation"),
        "maps.cycle_structure.busy_s": b("maps.MapSpec.cycle_structure"),
        "maps.points_enumerated": (extra.get("maps.points_enumerated", 0), "count"),
        "maps.closed_form.busy_s": b("maps.closed_form"),
        "maps.reduce_to_quartic.busy_s": b("maps.reduce_to_quartic"),
        "curves.busy_s": layer("curves"),
        "curves.point_count.calls": c("curves.point_count"),
        "curves.point_count.busy_s": b("curves.point_count"),
        "curves.points_counted": (extra.get("curves.points_counted", 0), "count"),
        "curves.group_structure.busy_s": b("curves.group_structure"),
        "curves.scalar_mul.calls": c("curves.scalar_mul"),
        "curves.cycle_catalog.busy_s": b("curves.cycle_catalog"),
        "conjugacy.busy_s": layer("conjugacy"),
        "conjugacy.solve_conjugation.busy_s": b("conjugacy.solve_conjugation"),
        "conjugacy.extensions_per_solve": (
            extra.get("conjugacy.extensions_tried", 0)
            / max(extra.get("conjugacy.solved", 0), 1), "ratio"),
        "conjugacy.verify_conjugation.busy_s": b("conjugacy.verify_conjugation"),
        "conjugacy.points_verified": (extra.get("conjugacy.points_verified", 0),
                                      "count"),
        "conjugacy.bluher_root_count.calls": c("conjugacy.bluher_root_count"),
        "conjugacy.bluher_root_count.busy_s": b("conjugacy.bluher_root_count"),
        "conjugacy.refused": (extra.get("conjugacy.refused", 0), "count"),
        "reporting.busy_s": layer("reporting"),
        "reporting.point_label.calls": c("reporting.point_label"),
        "reporting.render.busy_s": b("reporting.render"),
        "reporting.bytes_out": (sum(j.get("bytes", 0) for j in traced["jobs"]),
                                "bytes"),
        "cli.main.self_s": b("cli.main"),
        "other.busy_s": (sum(j["layers"]["other"] for j in t["jobs"]), "s"),
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.overhead": (traced["wall_s"] / untraced["wall_s"], "ratio"),
    }


# -- checks across passes ---------------------------------------------------------------


def consistency_errors(passes: list[dict]) -> list[str]:
    """Every job must give the same output digest in every pass, and in a
    traced pass each job's layer self times plus 'other' must add up to its
    traced wall time."""
    errors = []
    digests = defaultdict(set)
    for p in passes:
        for j in p["jobs"]:
            if "digest" in j:
                digests[j["id"]].add(j["digest"])
    errors += [f"job {i}: outputs differ between passes"
               for i, d in sorted(digests.items()) if len(d) > 1]
    for p in passes:
        for j in (p["trace"] or {}).get("jobs", []):
            total = sum(j["layers"].values())
            if abs(total - j["wall_s"]) > 1e-6 + 1e-6 * j["wall_s"]:
                errors.append(f"job {j['job']}: layer self times sum to "
                              f"{total:.9f} s, traced wall {j['wall_s']:.9f} s")
    return errors


def describe(job: dict) -> str:
    if "argv" in job:
        return "f2dyn " + " ".join(job["argv"])
    fields = ("kind", "n", "a", "b", "k", "m", "r")
    return " ".join(f"{f}={hex(job[f]) if f in ('a', 'b') else job[f]}"
                    for f in fields if f in job)


def declared_metrics(root: Path, trace: int) -> dict | None:
    """name -> unit of the metrics BENCHMARK.json lists for this mode."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def git_commit(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# -- one workload ------------------------------------------------------------------------


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    import inputs as gen
    checkout = Checkout(root, workload, seed, trace)
    job_list = gen.generate(workload, seed)
    inputs = {"workload": workload, "seed": seed, "jobs": job_list}
    inputs_path = checkout.out / "inputs.json"
    inputs_path.write_text(json.dumps(inputs))
    oracle: dict = {}

    def one_pass(index, traced):
        if workload == "ladder":
            return ladder_pass(checkout, inputs, index, traced, oracle)
        return library_pass(checkout, inputs_path, index, traced)

    passes = []
    if trace:
        passes = [one_pass(0, False), one_pass(1, True)]
    else:
        start, longest = perf_counter(), 0.0
        while True:  # checking the first pass's answers also spends budget
            began = perf_counter()
            passes.append(one_pass(len(passes), False))
            longest = max(longest, perf_counter() - began)
            if (len(passes) >= MIN_PASSES
                    and perf_counter() - start + longest > seconds):
                break
    setups = [s for p in passes for s in p["setup"]]

    attempted = sum(len(p["jobs"]) for p in passes)
    by_id = {job["id"]: job for job in job_list}
    failures = [(j, by_id[j["id"]]) for p in passes for j in p["jobs"]
                if j["status"] != "ok"]
    errors = consistency_errors(passes)
    metrics = (per_layer(passes[1], passes[0]) if trace
               else end_to_end(passes, setups))
    declared = declared_metrics(root, trace)
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if declared is not None and declared != produced:
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: missing "
            f"{sorted(declared.items() - produced.items())}, extra "
            f"{sorted(produced.items() - declared.items())}")
    result = {
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(root), "passes": len(passes),
        "latency_samples": attempted, "errors": errors,
        "absent": passes[-1]["trace"]["absent"] if trace else [],
        "failures": [{"input": describe(job), **j} for j, job in failures],
        "digests": {j["id"]: j.get("digest") for j in passes[0]["jobs"]},
        "result": result,
    }
    (checkout.out / "result.json").write_text(json.dumps(
        {**record, "pass_records": [{k: v for k, v in p.items() if k != "trace"}
                                    for p in passes]}, indent=1))
    if trace:
        with open(checkout.out / "spans.jsonl", "w") as fh:
            for span in passes[1]["trace"]["spans"]:
                fh.write(json.dumps(span) + "\n")
    report(record)
    return result


def report(record: dict) -> None:
    result = record["result"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"passes={record['passes']} python={record['python']} "
          f"nproc={record['nproc']} commit={record['commit']}")
    for name, m in result["metrics"].items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    samples = "" if record["trace"] else (
        f"; percentiles over {result['attempted'] // record['passes']} jobs, "
        f"each its median of {record['passes']} passes")
    print(f"{'failed_frac':42s} {frac:.6g} fraction ({result['failed']} of "
          f"{result['attempted']} jobs attempted{samples})")
    for name in record["absent"]:
        print(f"absent: {name} (not in this version of f2dyn; its metrics read 0)")
    for f in record["failures"]:
        print(f"FAILED {f['status']}: {f['input']}: {f.get('error', '')}")
    for e in record["errors"]:
        print(f"INCONSISTENT: {e}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "f2dyn" / "__init__.py").is_file():
        print(f"run.py: no f2dyn sources under {root / 'src'}; run from the "
              "root of an f2dyn checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # a terminated run raises KeyboardInterrupt, so spawn() kills its child
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(root, name, args.seed, args.seconds, args.trace)
               for name in names}
    print(json.dumps(results[args.workload] if args.workload != "all"
                     else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

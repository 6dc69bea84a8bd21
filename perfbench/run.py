"""Benchmark of the ``tabloids`` package: three closed-loop workloads.

    python3 perfbench/run.py --workload {vote-cli,game-cli,lib-sweep} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout (the directory holding ``src/tabloids``).
Jobs run one at a time.  CLI jobs each run in a fresh interpreter
(``perfbench/job.py``); lib-sweep items run in library sessions, one round of
items per fresh session process, after the session's warm-up
(``perfbench/lib.py``).
A run does whole rounds of jobs (see gen.py) and stops at the round boundary
nearest to --seconds of time spent in jobs; input generation and output
checks between jobs are not counted.  Times are CPU time of the process
that does the work (the job or session process): on a shared host, wall
time also holds the time a process waited while other tenants held the CPU,
which no change to the program can move.  The printed times are further
scaled by a speed gauge timed around each job (speed.py), so that changes in
the host's speed cancel; the report keeps the unscaled figures too.  Every
output is checked, and with the default seed also compared with the
reference digests.

With --trace 0 the last line of stdout holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run, followed by an
untraced replay of the same jobs that gives the tracing overhead.  The full
report (per-job records, property shares, run environment) is written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

JOB_PY = os.path.join(HERE, "job.py")
LIB_PY = os.path.join(HERE, "lib.py")
JOB_TIMEOUT_S = 60
#: Share of --seconds given to the traced phase of a --trace 1 run; the
#: untraced replay of the same jobs takes roughly the rest.
TRACE_SHARE = 0.55
#: Time limit of one lib-sweep session (set-up and one round of items).
SESSION_TIMEOUT_S = 120


def python_cmd(work: str) -> list:
    """This interpreter, isolated from the environment and site packages.

    Byte code is cached under the work directory, so imports after the
    first are as fast as for an installed package and the source tree stays
    untouched.
    """
    return [sys.executable, "-I", "-S", "-X", f"pycache_prefix={os.path.join(work, 'pycache')}"]


# ---------------------------------------------------------------------------
# CLI workloads


def run_cli_job(job: dict, run_dir: str, work: str, trace: bool) -> dict:
    stats_path = os.path.join(run_dir, "stats.json")
    spans_path = os.path.join(run_dir, "spans.bin")
    out_path = os.path.join(run_dir, "out")
    for path in (stats_path, spans_path):
        if os.path.exists(path):
            os.remove(path)
    cmd = python_cmd(work) + [JOB_PY, stats_path, "1" if trace else "0", spans_path, "--"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(cmd + job["argv"], stdout=out, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    record = {"index": job["index"], "command": job["command"], "n": job["n"],
              "wall_s": wall, "cpu_s": cpu}
    if not os.path.exists(stats_path):
        record["failure"] = f"job process ended without stats (exit {proc.returncode}): " + \
            err.decode(errors="replace").strip()[-200:]
        return record
    with open(stats_path, encoding="utf-8") as fh:
        stats = json.load(fh)
    record.update(job_s=stats["job_s"], job_wall_s=stats["job_wall_s"], setup_s=stats["setup_s"],
                  calib_s=stats["calib_s"], maxrss_kb=stats["maxrss_kb"])
    record["cpu_s"] -= stats["gauge_cpu_s"]
    if stats["rc"] != 0:
        record["failure"] = f"exit code {stats['rc']}: " + err.decode(errors="replace").strip()[-200:]
        return record
    with open(out_path, "rb") as fh:
        output = fh.read()
    record["output_bytes"] = len(output)
    record["digest"] = check.digest(output)
    reason = check.check_cli(job, output)
    if reason:
        record["failure"] = reason
    if trace:
        record["trace"] = stats["trace"]
        record["totals"] = stats["totals"]
        record["spans_path"] = spans_path
    return record


def keep_going(workload: str, index: int, busy: float, budget_s: float,
               max_jobs: int | None) -> bool:
    """Whether to start job `index`, after `busy` seconds spent in jobs.

    With max_jobs, exactly that many jobs run.  Otherwise whole rounds of
    the workload's strata run, at least one, and the run stops at the round
    boundary nearest to budget_s, judged by the mean round so far.  Stopping
    only between rounds gives every run the same mix of job kinds, so the
    share of slow jobs, which sets the p90, does not depend on where a run
    ends.
    """
    if max_jobs is not None:
        return index < max_jobs
    size = len(gen.STRATA[workload])
    if index == 0 or index % size:
        return True
    return busy * (index + size) / index - budget_s < budget_s - busy


def cli_loop(args, run_dir: str, work: str, budget_s: float, trace: bool,
             max_jobs: int | None = None, spans: tracing.SpanLog | None = None) -> tuple:
    records, busy = [], 0.0
    index = 0
    while keep_going(args.workload, index, busy, budget_s, max_jobs):
        job = gen.cli_job(args.workload, args.seed, index, run_dir)
        record = run_cli_job(job, run_dir, work, trace)
        record["props"] = {k: job[k] for k in ("support_fraction", "sparse", "self_dual_input")
                           if k in job}
        if spans is not None and "spans_path" in record:
            spans.load(record.pop("spans_path"))
        records.append(record)
        busy += record["cpu_s"]
        index += 1
    return records, busy


def cli_setups(records: list) -> list:
    """(set-up seconds, gauge seconds) of each CLI job: its import."""
    return [(r["setup_s"], r["calib_s"]) for r in records if "setup_s" in r]


# ---------------------------------------------------------------------------
# lib-sweep


def run_session(args, first: int, count: int, run_dir: str, work: str, trace: bool) -> dict:
    """Run lib-sweep items first .. first+count-1 in one fresh session process."""
    stats_path = os.path.join(run_dir, "stats.json")
    spans_path = os.path.join(run_dir, "spans.bin")
    for path in (stats_path, spans_path):
        if os.path.exists(path):
            os.remove(path)
    cmd = python_cmd(work) + [LIB_PY, str(args.seed), str(first), str(count),
                              "1" if trace else "0", stats_path, spans_path]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
    if not os.path.exists(stats_path):
        reason = f"session process ended without stats (exit {proc.returncode}): " + \
            err.decode(errors="replace").strip()[-200:]
        return {"records": [{"index": i, "command": "", "n": 0, "failure": reason, "props": {}}
                            for i in range(first, first + count)]}
    with open(stats_path, encoding="utf-8") as fh:
        stats = json.load(fh)
    if trace:
        stats["spans_path"] = spans_path
    return stats


def lib_loop(args, run_dir: str, work: str, budget_s: float, trace: bool,
             max_jobs: int | None = None, spans: tracing.SpanLog | None = None) -> tuple:
    """Run lib-sweep sessions, one round of items each, as cli_loop runs jobs.

    Returns (records, busy, set-ups as (seconds, gauge seconds), peak KiB,
    summed trace totals).
    Each session is a fresh process, so the run's figures pool several
    processes rather than resting on the memory layout and hash seed of one.
    """
    records, busy, setups, peak_kb, totals = [], 0.0, [], 0, None
    size = len(gen.STRATA[args.workload])
    index = 0
    while keep_going(args.workload, index, busy, budget_s, max_jobs):
        count = size if max_jobs is None else min(size, max_jobs - index)
        stats = run_session(args, index, count, run_dir, work, trace)
        records += stats["records"]
        busy += sum(r.get("job_s", 0.0) for r in stats["records"])
        if "setup_s" in stats:
            setups.append((stats["setup_s"], stats["setup_calib_s"]))
            peak_kb = max(peak_kb, stats["maxrss_kb"])
        if "totals" in stats:
            totals = tracing.add_totals(totals, stats["totals"])
        if spans is not None and "spans_path" in stats:
            spans.load(stats["spans_path"])
        index += count
    return records, busy, setups, peak_kb, totals


# ---------------------------------------------------------------------------
# Reporting


def mark_failures(records: list, reference: dict | None, length: int) -> None:
    for r in records:
        if reference is not None and "failure" not in r:
            if r.get("digest") != reference.get(r["index"] % length):
                r["failure"] = "output digest differs from the reference"
        if "trace" in r and r["trace"]["problem"] and "failure" not in r:
            r["failure"] = r["trace"]["problem"]


def end_to_end(records: list, setups: list, peak_kb: int, scaled: bool = True) -> dict:
    """The end-to-end metrics; `setups` holds (seconds, gauge seconds) pairs.

    With `scaled`, each time is multiplied by speed.REFERENCE_S over the
    gauge time measured around it (see speed.py); without, times are raw
    CPU seconds.  A run in which no job ran reports zeros; it has failed
    anyway.
    """
    def scale(seconds: float, gauge_s: float) -> float:
        return seconds * speed.REFERENCE_S / gauge_s if scaled else seconds

    timed = [r for r in records if "job_s" in r]
    times = [scale(r["job_s"], r["calib_s"]) for r in timed] or [0.0]
    busy = sum(scale(r.get("cpu_s", r["job_s"]), r["calib_s"]) for r in timed) or float("inf")
    setup_times = [scale(s, g) for s, g in setups] or [0.0]
    done = sum(1 for r in records if "failure" not in r)
    p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
    return {
        "job_p50_s": (statistics.median(times), "s"),
        "job_p90_s": (p90, "s"),
        "jobs_per_s": (done / busy, "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def properties(records: list) -> dict:
    def share(key):
        vals = [r["props"][key] for r in records if r["props"].get(key) is not None]
        return round(sum(vals) / len(vals), 4) if vals else None

    hist_n, mix = {}, {}
    for r in records:
        hist_n[r["n"]] = hist_n.get(r["n"], 0) + 1
        mix[r["command"]] = mix.get(r["command"], 0) + 1
    fractions = sorted(r["props"]["support_fraction"] for r in records
                       if r["props"].get("support_fraction") is not None)
    support = None
    if fractions:
        q = statistics.quantiles(fractions, n=4) if len(fractions) > 1 else fractions * 3
        support = {"min": round(fractions[0], 4), "q1": round(q[0], 4),
                   "median": round(q[1], 4), "q3": round(q[2], 4), "max": round(fractions[-1], 4)}
    return {"n_histogram": dict(sorted(hist_n.items())), "command_mix": mix,
            "support_fraction_of_n_factorial": support,
            "self_dual_concept_share": share("self_dual_input"),
            "sparse_game_share": share("sparse")}


def git_commit(root: str) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: str) -> dict:
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu_model": cpu_model(), "git_commit": git_commit(root),
            "platform": platform.platform()}


def fmt_value(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tabloids", "cli.py")):
        print("error: src/tabloids not found; run from the root of a tabloids checkout",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench_work")
    run_dir = os.path.join(work, f"{args.workload}-{args.seed}-{os.getpid()}")
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    load_start = os.getloadavg()
    trace = bool(args.trace)
    cli = args.workload != "lib-sweep"
    budget = args.seconds * (TRACE_SHARE if trace else 1.0)
    spans = tracing.SpanLog() if trace else None
    replay, replay_busy = [], 0.0
    try:
        if cli:
            # An untimed first job compiles the byte-code cache.
            run_cli_job({"index": -1, "command": "", "n": 0, "argv": ["--help"]}, run_dir, work, False)
            records, busy = cli_loop(args, run_dir, work, budget, trace, spans=spans)
            setup_samples = cli_setups(records)
            peak_kb = max((r.get("maxrss_kb", 0) for r in records), default=0)
            if trace:
                replay, replay_busy = cli_loop(args, run_dir, work, 0.0, False, max_jobs=len(records))
        else:
            records, busy, setup_samples, peak_kb, totals = lib_loop(
                args, run_dir, work, budget, trace, spans=spans)
            if trace:
                replay, replay_busy, *_ = lib_loop(args, run_dir, work, 0.0, False,
                                                   max_jobs=len(records))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    reference = check.load_reference(args.workload, args.seed)
    mark_failures(records + replay, reference, gen.list_length(args.workload))
    failures = [r for r in records + replay if "failure" in r]
    attempted = len(records) + len(replay)
    if trace:
        if cli:
            totals = None
            for r in records:
                if "totals" in r:
                    totals = tracing.add_totals(totals, r.pop("totals"))
        traced_jobs = [r["trace"] for r in records if "trace" in r]
        job_time = sum(t["job_s"] for t in traced_jobs)
        first_round = len(gen.STRATA[args.workload])
        output_bytes = sum(r.get("output_bytes", 0) for r in records[:first_round])
        metrics = tracing.layer_metrics(totals, traced_jobs, job_time, output_bytes)
        metrics["trace_overhead"] = ((len(records) / busy) / (len(replay) / replay_busy), "ratio")
    else:
        metrics = end_to_end(records, setup_samples, peak_kb)
        raw_metrics = end_to_end(records, setup_samples, peak_kb, scaled=False)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failed_ratio": len(failures) / attempted,
        "raw_metrics": None if trace else {k: {"value": v, "unit": u}
                                           for k, (v, u) in raw_metrics.items()},
        "attempted": attempted, "failed": len(failures),
        "busy_s": busy, "setup_samples_s": setup_samples,
        "properties": properties(records),
        "environment": dict(environment(root), loadavg_start=load_start,
                            loadavg_end=os.getloadavg()),
        "failures": [{k: r[k] for k in ("index", "command", "n", "failure")} for r in failures],
        "jobs": records, "replay": replay,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    if spans is not None:
        spans.write(os.path.join(out_dir, tag + ".spans.csv.gz"))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {fmt_value(value):>14} {unit}")
    print(f"  {'failed_ratio':<44} {fmt_value(report['failed_ratio']):>14} ratio "
          f"({len(failures)} of {attempted} jobs)")
    if not trace:
        print("  times are CPU seconds at the speed gauge's reference speed (perfbench/speed.py);"
              " raw values are in the report")
    for f in report["failures"][:5]:
        print(f"  failed job {f['index']} ({f['command']}, n={f['n']}): {f['failure']}")
    print("properties: " + json.dumps(report["properties"]))
    print("environment: " + json.dumps(report["environment"]))
    print(f"report: {os.path.relpath(os.path.join(out_dir, tag + '.json'), root)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one ``tabloids`` CLI command in this process and record its timings.

    python3 perfbench/job.py STATS_PATH TRACE SPANS_PATH -- CLI_ARGS...

The command's report goes to this process's stdout.  Job time runs from
just before ``import tabloids.cli`` until ``cli.main`` returns, so the
interpreter's own start-up is left out; set-up time is the import alone.
Both are CPU time of this process, which on an idle machine equals its wall
time; on a shared host it leaves out the time the process waited for a CPU
that other tenants held.  The wall time is recorded beside it, and so is the
mean time of the speed gauge (speed.py), run right before the import and
right after the command, with the CPU time the gauge took.
With TRACE=1 the per-layer wrappers are installed after the import and the
spans are written to SPANS_PATH.  STATS_PATH receives one JSON object.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def peak_rss_kb() -> int:
    """Peak resident set size of this process, in KiB.

    Read from VmHWM, which counts this program alone: ru_maxrss keeps the
    peak of the process that started this one, since it survives exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    stats_path, trace, spans_path = sys.argv[1:4]
    argv = sys.argv[5:]
    import speed
    g0 = time.process_time()
    gauge_before = speed.calibrate()
    gauge_cpu = time.process_time() - g0
    t0, c0 = time.perf_counter(), time.process_time()
    import tabloids.cli as cli
    c_import = time.process_time()
    tracer = None
    if trace == "1":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        before = tracer.begin_job(0, t0)
    rc = cli.main(argv)
    sys.stdout.flush()
    t_end, c_end = time.perf_counter(), time.process_time()
    stats = {
        "rc": rc,
        "job_s": c_end - c0,
        "job_wall_s": t_end - t0,
        "setup_s": c_import - c0,
        "maxrss_kb": peak_rss_kb(),
    }
    g0 = time.process_time()
    stats["calib_s"] = (gauge_before + speed.calibrate()) / 2
    stats["gauge_cpu_s"] = gauge_cpu + time.process_time() - g0
    if tracer is not None:
        stats["trace"] = tracer.end_job(before, t_end)
        stats["totals"] = tracer.totals()
        tracer.dump_spans(spans_path)
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

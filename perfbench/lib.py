"""One lib-sweep session: research items run in one library process.

    python3 perfbench/lib.py SEED FIRST COUNT TRACE STATS_PATH SPANS_PATH

The session sets up (import of ``tabloids`` plus one warm-up item per
distinct n, so that the items run with the package's caches already full),
then runs lib-sweep items FIRST .. FIRST+COUNT-1 one at a time and checks
each result.  Set-up and items are timed as CPU time of this process, which
on an idle machine equals their wall time; the wall time of each item is
recorded beside it, and so is the mean time of the speed gauge (speed.py)
run right before and right after it; set-up carries its own.  With TRACE=1 the per-layer wrappers are installed after
set-up and the spans are written to SPANS_PATH.  STATS_PATH receives one JSON
object with the set-up time, the peak memory and one record per item.
"""

from __future__ import annotations

import json
import os
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import check  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402
from job import peak_rss_kb  # noqa: E402



def setup(seed: int) -> tuple:
    """Import the package and run the warm-up items; returns (package, seconds)."""
    c0 = time.process_time()
    import tabloids
    for item in gen.lib_warmup_items(seed):
        run_item(tabloids, item)
    return tabloids, time.process_time() - c0


def run_item(tb, item: dict) -> dict:
    """Build the item's library objects and make its calls."""
    n, kind = item["n"], item["command"]
    if kind == "construct_profile":
        ws = [tb.WeightingVector(w, allow_unsorted=True) for w in item["weights"]]
        targets = [tb.ModuleVector((1, n - 1), t) for t in item["targets"]]
        built = tb.construct_profile(ws, targets, integer_profile=True)
        tallies = [tb.positional_tally(w, built.solution).scores.to_list() for w in ws]
        return {"built": built, "tallies": tallies}
    shape = (1,) * n
    f = tb.ModuleVector(shape, item["counts"])
    if kind == "kemeny_apply":
        ranking = tb.kemeny_apply(f)
    elif kind == "family_apply":
        ranking = tb.family_apply([Fraction(g) for g in item["gamma"]], f)
    elif kind == "srsf_apply":
        ranking = tb.srsf_apply(tb.ModuleVector(shape, item["template"]), f)
    elif kind == "srsf_kendall":
        ranking = tb.srsf_apply(tb.voting.kendall_score_vector(n), f)
    elif kind == "borda_srsf_apply":
        ranking = tb.borda_srsf_apply(tb.WeightingVector(item["weights"]), f)
    else:
        raise ValueError(f"unknown item kind {kind!r}")
    return {"ranking": ranking, "scores": ranking.scores.to_list()}


def run_items(tb, seed: int, first: int, count: int, gauge: float, tracer=None) -> list:
    """Run and check the items; `gauge` is the speed gauge's latest time.

    The gauge runs after every item, so each item carries the mean of the
    gauge times right before and right after it.
    """
    records = []
    for index in range(first, first + count):
        item = gen.lib_item(seed, index)
        record = {"index": index, "command": item["command"], "n": item["n"],
                  "props": {"support_fraction": gen.support_fraction(item)}}
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            before = tracer.begin_job(index, t0) if tracer else None
            result = run_item(tb, item)
            t1, c1 = time.perf_counter(), time.process_time()
            if tracer:
                record["trace"] = tracer.end_job(before, t1)
        except Exception as exc:  # one failed item must not end the session
            t1, c1 = time.perf_counter(), time.process_time()
            record["failure"] = f"{type(exc).__name__}: {exc}"[:200]
            result = None
        record["job_s"] = c1 - c0
        record["wall_s"] = t1 - t0
        after = speed.calibrate()
        record["calib_s"], gauge = (gauge + after) / 2, after
        if result is not None:
            record["digest"] = check.digest(check.canonical_lib(item, result))
            reason = check.check_lib(item, result)
            if reason:
                record["failure"] = reason
        records.append(record)
    return records


def main() -> int:
    seed, first, count = (int(a) for a in sys.argv[1:4])
    trace, stats_path, spans_path = sys.argv[4:7]
    gauge = speed.calibrate()
    tb, setup_s = setup(seed)
    after = speed.calibrate()
    setup_calib_s, gauge = (gauge + after) / 2, after
    tracer = None
    if trace == "1":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    records = run_items(tb, seed, first, count, gauge, tracer)
    stats = {"setup_s": setup_s, "setup_calib_s": setup_calib_s, "maxrss_kb": peak_rss_kb(),
             "records": records}
    if tracer is not None:
        stats["totals"] = tracer.totals()
        tracer.dump_spans(spans_path)
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

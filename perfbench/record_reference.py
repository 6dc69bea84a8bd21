"""Record the reference digests that runs with the default seed compare to.

    python3 perfbench/record_reference.py

Run it from the root of a checkout whose outputs are trusted.  Every job of
every workload's list (default seed) runs once, untimed; each output must
pass its check, and the SHA-256 digests replace
``perfbench/reference_digests.json``.  Nothing is written if a job fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


def record(workload: str, root: str) -> dict:
    args = argparse.Namespace(workload=workload, seed=check.DEFAULT_SEED)
    work = os.path.join(root, ".perfbench_work")
    run_dir = os.path.join(work, f"reference-{workload}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    length = gen.list_length(workload)
    try:
        loop = run.lib_loop if workload == "lib-sweep" else run.cli_loop
        records = loop(args, run_dir, work, 0.0, False, max_jobs=length)[0]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failed = [r for r in records if "failure" in r]
    if failed:
        raise SystemExit(f"{workload}: {len(failed)} jobs failed, first: {failed[0]}")
    return {str(r["index"]): r["digest"] for r in records}


def main() -> int:
    root = os.getcwd()
    digests = {}
    for workload in gen.WORKLOADS:
        digests[workload] = record(workload, root)
        print(f"{workload}: {len(digests[workload])} digests")
    with open(check.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

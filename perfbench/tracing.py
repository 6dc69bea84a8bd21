"""Per-layer tracing of the ``tabloids`` package from outside its source.

`Tracer.install` replaces each traced function of the package by a wrapper,
in every ``tabloids`` module that holds a reference to it (so internal calls
such as ``voting.unrank`` are counted as well as ``core.unrank``), and
patches the traced methods on their classes, for the rest of the process.

Each wrapped call is timed.  Its self time is its duration minus the time of
the wrapped calls made inside it.  A span (name, start, end, parent, job id)
is kept in memory for every call that crosses a layer boundary, that is,
whose caller is in another layer or is the job itself; calls inside one
layer are counted and timed but not stored as spans.  Hit ratios are read
from the original ``lru_cache`` objects.
"""

from __future__ import annotations

import copy
import gzip
import json
import sys
from array import array
from time import perf_counter

# Layer -> traced names, as "module:function" or "module:Class.method".
LAYERS = {
    "core.index": (
        "core:enumerate_tabloids", "core:lex_rank", "core:unrank",
        "core:cached_tabloids", "core:Tabloid.__init__",
    ),
    "core.vector": (
        "core:ModuleVector.__init__", "core:ModuleVector.__add__",
        "core:ModuleVector.__sub__", "core:ModuleVector.__neg__",
        "core:ModuleVector.__mul__", "core:ModuleVector.__rmul__",
        "core:ModuleVector.__truediv__", "core:ModuleVector.inner",
        "core:ModuleVector.norm2", "core:ModuleVector.sum_values",
    ),
    "linalg": ("linalg:solve_linear", "linalg:rank", "linalg:row_basis"),
    "specht": (
        "specht:LinearMap.__call__", "specht:LinearMap.apply",
        "specht:kemeny_eigenprojections",
    ),
    "voting": (
        "voting:tally_scores", "voting:tally_adjoint", "voting:positional_tally",
        "voting:pairs_map", "voting:pairs_map_adjoint",
        "voting:kemeny_operator_apply", "voting:kemeny_apply",
        "voting:family_apply", "voting:srsf_apply", "voting:borda_srsf_apply",
        "voting:RankingScores.__init__", "voting:construct_profile",
    ),
    "games": (
        "games:solution_apply", "games:marginal_apply", "games:decompose_game",
        "games:dual_game", "games:self_dual_check", "games:fit_marginal",
    ),
    "cli": (
        "cli:main", "cli:_render",
        "cli:_load_json_file", "cli:_load_profile", "cli:_load_weighting",
        "cli:_load_concept", "voting:profile_from_json_dict",
        "voting:profile_from_csv", "voting:weighting_from_json_dict",
        "games:game_from_json_dict", "games:coefficients_from_json_dict",
        "games:marginal_from_json_dict",
    ),
}
LAYER_NAMES = tuple(LAYERS)
NAMES = tuple(name for names in LAYERS.values() for name in names)
NAME_LAYER = tuple(LAYER_NAMES.index(layer) for layer, names in LAYERS.items() for _ in names)
STAGES = {
    "cli:_render": "render",
    **{name: "parse" for name in LAYERS["cli"] if "_load_" in name or "_from_" in name},
}
CACHES = {"core.index.cached_tabloids": "core:cached_tabloids",
          "specht.kemeny_eigenprojections": "specht:kemeny_eigenprojections"}
PROJECTIONS = ("T0", "T1", "T2")
JOB = -1  # name id of a job's root span


def _solve_cells(a, b, *rest, **kw) -> int:
    return len(a) * (len(a[0]) + 1) if len(a) else 0


class Tracer:
    """Installs the wrappers and accumulates counts, self times and spans."""

    def __init__(self):
        k = len(NAMES)
        self.calls = [0] * k
        self.self_s = [0.0] * k
        self.stage_s = {"parse": 0.0, "render": 0.0}
        self._stage_depth = {"parse": 0, "render": 0}
        self.counters = {"linalg.solve_linear.cells": 0, "specht.projection.calls": 0}
        self.top_s = 0.0  # summed duration of the calls made directly by jobs
        # Spans as parallel arrays: name id (-1 = job root), parent, job, start, end.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []
        self._job = [0, -1]  # current job id, root span index
        self._originals: dict = {}
        self.escapes: list = []

    # -- installation

    def install(self) -> None:
        package = _package()
        for fid, name in enumerate(NAMES):
            modname, attr = name.split(":")
            owner = sys.modules.get(f"tabloids.{modname}")
            if owner is None:
                continue  # not imported by this workload, so never called
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._originals[name] = original
                setattr(cls, meth, self._wrap(original, fid, name))
            else:
                original = getattr(owner, attr)
                self._originals[name] = original
                wrapper = self._wrap(original, fid, name)
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        self.escapes = self.escaped()

    def escaped(self) -> list:
        """Places in the package that still hold a traced function unwrapped.

        Looks at module globals, the items of module-level containers, class
        attributes, and the defaults and closures of the package's own
        functions.  A call through any of these would escape the counts, so
        every traced job fails while the list is not empty.
        """
        originals = {id(fn): name for name, fn in self._originals.items()}
        found = []

        def look(where, value):
            if id(value) in originals:
                found.append(f"{where} holds {originals[id(value)]}")

        def look_inside(where, fn):
            fn = getattr(fn, "__wrapped__", fn)  # lru_cache wrappers
            if not getattr(fn, "__module__", "").startswith("tabloids"):
                return
            held = list(getattr(fn, "__defaults__", None) or ())
            held += (getattr(fn, "__kwdefaults__", None) or {}).values()
            for cell in getattr(fn, "__closure__", None) or ():
                try:
                    held.append(cell.cell_contents)
                except ValueError:  # a cell not yet filled
                    pass
            for value in held:
                look(where, value)

        for mod in _package():
            for attr, value in vars(mod).items():
                where = f"{mod.__name__}.{attr}"
                look(where, value)
                look_inside(where, value)
                if isinstance(value, dict):
                    for item in value.values():
                        look(where, item)
                elif isinstance(value, (list, tuple, set, frozenset)):
                    for item in value:
                        look(where, item)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    for cattr, cvalue in vars(value).items():
                        look(f"{where}.{cattr}", cvalue)
                        look_inside(f"{where}.{cattr}", getattr(cvalue, "__func__", cvalue))
        return found

    def _wrap(self, fn, fid: int, name: str):
        layer = NAME_LAYER[fid]
        stack = self._stack
        job = self._job
        calls, self_s, stage_s, counters = self.calls, self.self_s, self.stage_s, self.counters
        s_name, s_parent, s_job = self.span_name, self.span_parent, self.span_job
        s_start, s_end = self.span_start, self.span_end
        stage = STAGES.get(name)
        stage_depth = self._stage_depth
        count_cells = name == "linalg:solve_linear"
        count_projection = name in ("specht:LinearMap.__call__", "specht:LinearMap.apply")
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if count_cells:
                counters["linalg.solve_linear.cells"] += _solve_cells(*args, **kwargs)
            elif count_projection and getattr(args[0], "name", "") in PROJECTIONS:
                counters["specht.projection.calls"] += 1
            t0 = perf_counter()
            if parent is None or parent[0] != layer:
                sid = len(s_start)
                s_name.append(fid)
                s_parent.append(job[1] if parent is None else parent[3])
                s_job.append(job[0])
                s_start.append(t0)
                s_end.append(t0)
                recorded = True
            else:
                sid = parent[3]
                recorded = False
            frame = [layer, t0, 0.0, sid]
            stack.append(frame)
            if stage:
                stage_depth[stage] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                calls[fid] += 1
                self_s[fid] += dur - frame[2]
                if parent is None:
                    tracer.top_s += dur
                else:
                    parent[2] += dur
                if recorded:
                    s_end[sid] = t1
                if stage:
                    stage_depth[stage] -= 1
                    if not stage_depth[stage]:
                        stage_s[stage] += dur

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- jobs

    def cache_counts(self) -> dict:
        out = {}
        for key, name in CACHES.items():
            info = self._originals[name].cache_info()
            out[key] = (info.hits, info.misses)
        return out

    def begin_job(self, job_id: int, start: float) -> dict:
        """Open the root span of a job; returns the state end_job compares to."""
        self._job[0] = job_id
        self._job[1] = len(self.span_start)
        self.span_name.append(JOB)
        self.span_parent.append(-1)
        self.span_job.append(job_id)
        self.span_start.append(start)
        self.span_end.append(start)
        return {"top_s": self.top_s, "self_s": list(self.self_s),
                "caches": self.cache_counts()}

    def end_job(self, before: dict, end: float) -> dict:
        """Close the root span and check the job's trace.

        Returns the job's time, the part of it spent outside every traced
        call (unattributed), the cache lookups it made, and the reason the
        trace check failed, or None.  The layer self times plus the
        unattributed time equal the job time by construction, so that sum
        is no check.  The check is that no traced function escaped the
        wrappers (see escaped), no traced call was left open, and neither
        the unattributed time nor any function's self time is negative,
        which a child call charged to the wrong parent would cause.
        """
        root = self._job[1]
        self.span_end[root] = end
        job_s = end - self.span_start[root]
        unattributed = job_s - (self.top_s - before["top_s"])
        caches = {
            key: (hits - before["caches"][key][0], misses - before["caches"][key][1])
            for key, (hits, misses) in self.cache_counts().items()
        }
        tol = 1e-6 * max(job_s, 1.0)
        problem = None
        if self.escapes:
            problem = "traced function not wrapped: " + "; ".join(self.escapes[:3])
        elif self._stack:
            problem = "a traced call was left open"
        elif unattributed < -tol:
            problem = "traced calls take longer than the job"
        elif any(a - b < -tol for a, b in zip(self.self_s, before["self_s"])):
            problem = "a traced function has negative self time"
        self._job[1] = -1
        return {"job_s": job_s, "unattributed_s": unattributed, "caches": caches,
                "problem": problem}

    # -- persistence

    def totals(self) -> dict:
        return {"calls": list(self.calls), "self_s": list(self.self_s),
                "stage_s": dict(self.stage_s), "counters": dict(self.counters)}

    def dump_spans(self, path: str) -> None:
        """Write the spans of this process as raw arrays (read by SpanLog)."""
        with open(path, "wb") as fh:
            fh.write(json.dumps({"spans": len(self.span_start)}).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_job,
                        self.span_start, self.span_end):
                arr.tofile(fh)


class SpanLog:
    """The spans of a whole run, gathered from its job or session processes."""

    def __init__(self):
        self.arrays = (array("i"), array("i"), array("i"), array("d"), array("d"))

    def load(self, path: str) -> None:
        with open(path, "rb") as fh:
            count = json.loads(fh.readline())["spans"]
            parts = []
            for proto in self.arrays:
                arr = array(proto.typecode)
                arr.fromfile(fh, count)
                parts.append(arr)
        self._append(parts)

    def _append(self, parts) -> None:
        offset = len(self.arrays[0])
        name, parent, job, start, end = parts
        self.arrays[0].extend(name)
        self.arrays[1].extend(p + offset if p >= 0 else -1 for p in parent)
        self.arrays[2].extend(job)
        self.arrays[3].extend(start)
        self.arrays[4].extend(end)

    def write(self, path: str) -> None:
        """One CSV line per span, gzip-compressed, names listed in a header."""
        name, parent, job, start, end = self.arrays
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("# name ids: -1=job " + " ".join(
                f"{i}={n}" for i, n in enumerate(NAMES)) + "\n")
            fh.write("span,name,parent,job,start_s,end_s\n")
            for i in range(len(name)):
                fh.write(f"{i},{name[i]},{parent[i]},{job[i]},{start[i]:.9f},{end[i]:.9f}\n")


def layer_metrics(totals: dict, jobs: list, job_time_s: float, output_bytes: int) -> dict:
    """Per-layer metrics of a traced run from summed totals and per-job records."""
    calls, self_s = totals["calls"], totals["self_s"]
    out = {}
    for lid, layer in enumerate(LAYER_NAMES):
        ids = [i for i, l in enumerate(NAME_LAYER) if l == lid]
        layer_self = sum(self_s[i] for i in ids)
        out[f"{layer}.calls"] = (sum(calls[i] for i in ids), "count")
        out[f"{layer}.self_s"] = (layer_self, "s")
        out[f"{layer}.share"] = (layer_self / job_time_s if job_time_s else 0.0, "ratio")
    unattributed = sum(j["unattributed_s"] for j in jobs)
    out["unattributed.share"] = (unattributed / job_time_s if job_time_s else 0.0, "ratio")

    def fid(name):
        return NAMES.index(name)

    out["core.index.unrank.calls"] = (calls[fid("core:unrank")], "count")
    out["core.index.lex_rank.calls"] = (calls[fid("core:lex_rank")], "count")
    out["core.index.tabloids_built"] = (calls[fid("core:Tabloid.__init__")], "count")
    out["core.vector.vectors_built"] = (calls[fid("core:ModuleVector.__init__")], "count")
    for key in CACHES:
        hits = sum(j["caches"][key][0] for j in jobs)
        lookups = hits + sum(j["caches"][key][1] for j in jobs)
        out[f"{key}.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    out["linalg.solve_linear.cells"] = (totals["counters"]["linalg.solve_linear.cells"], "count")
    out["specht.projection.calls"] = (totals["counters"]["specht.projection.calls"], "count")
    for fn in ("kemeny_operator_apply", "pairs_map_adjoint", "tally_adjoint",
               "srsf_apply", "RankingScores", "construct_profile"):
        name = "voting:RankingScores.__init__" if fn == "RankingScores" else f"voting:{fn}"
        out[f"voting.{fn}.self_s"] = (self_s[fid(name)], "s")
    for fn in ("self_dual_check", "decompose_game", "solution_apply"):
        out[f"games.{fn}.self_s"] = (self_s[fid(f'games:{fn}')], "s")
    verdicts = calls[fid("games:self_dual_check")]
    out["games.dual_games_per_verdict"] = (
        calls[fid("games:dual_game")] / verdicts if verdicts else 0.0, "ratio")
    out["cli.parse_s"] = (totals["stage_s"]["parse"], "s")
    out["cli.render_s"] = (totals["stage_s"]["render"], "s")
    out["cli.output_bytes"] = (output_bytes, "B")
    return out


def add_totals(acc: dict | None, part: dict) -> dict:
    if acc is None:
        return copy.deepcopy(part)
    acc["calls"] = [a + b for a, b in zip(acc["calls"], part["calls"])]
    acc["self_s"] = [a + b for a, b in zip(acc["self_s"], part["self_s"])]
    for key in acc["stage_s"]:
        acc["stage_s"][key] += part["stage_s"][key]
    for key in acc["counters"]:
        acc["counters"][key] += part["counters"][key]
    return acc


def _package() -> list:
    return [mod for key, mod in sys.modules.items()
            if key == "tabloids" or key.startswith("tabloids.")]

"""Seeded input generator for the three workloads.

Every job is a pure function of (workload, seed, job index), so a run can
generate each job just before it starts and keep nothing in memory between
jobs.  Jobs come in rounds: each round holds the same fixed mix of job kinds
(the workload's strata) in a seeded order.  Runs stop only between rounds,
so the fixed mix per round keeps the share of slow jobs, and so the p90, the
same from run to run.

Nothing here imports ``tabloids``: the program only ever sees the files and
plain values written by this module.
"""

from __future__ import annotations

import bisect
import json
import os
import random
from fractions import Fraction
from itertools import accumulate, permutations
from math import factorial

#: Jobs per seeded list; a run that finishes the list starts it again.
ROUNDS = 15

# Strata per workload: (kind, n).  Each round holds a fixed number of the
# package's slow paths, and the round length is chosen so that the 90th
# percentile falls inside one cluster of them, away from its edges, rather
# than between two, where it would swing with the job contents:
# - vote-cli: the n=7 kemeny, family and decompose jobs are 3 of 25, so the
#   p90 has 2.5 of them per round above it, in the middle of the slowest
#   cluster but two, the n=7 kemeny jobs;
# - game-cli: the self-dual game-analyze jobs at n=8 are 3 of 19, so the p90
#   has 1.9 per round above it, inside that cluster;
# - lib-sweep: construct_profile at n=7 is 3 of 20, one with 3 rules and two
#   with 2, so the p90 has 2 per round above it, in the middle of the 2-rule
#   cluster.
# The other jobs are fast, so the median falls among them.
VOTE_ROUND = (
    ("tally", 6), ("tally", 6), ("tally", 6), ("tally", 7), ("tally", 7),
    ("tally", 8), ("tally", 8),
    ("kemeny", 5), ("family", 5), ("decompose", 5),
    ("kemeny", 5), ("family", 5), ("decompose", 5),
    ("kemeny", 5), ("family", 5), ("decompose", 5),
    ("kemeny", 5), ("family", 5), ("decompose", 5),
    ("kemeny", 6), ("family", 6), ("decompose", 6),
    ("kemeny", 7), ("family", 7), ("decompose", 7),
)
GAME_ROUND = (
    ("game-solve", 8), ("game-solve", 8), ("game-solve", 9), ("game-solve", 10),
    ("game-solve", 12), ("game-solve", 14),
    ("game-decompose", 8), ("game-decompose", 8), ("game-decompose", 10),
    ("game-decompose", 12),
    ("game-analyze", 4), ("game-analyze", 5), ("game-analyze", 6), ("game-analyze", 7),
    ("game-analyze", 8),
    ("game-analyze-selfdual", 5), ("game-analyze-selfdual", 8),
    ("game-analyze-selfdual", 8), ("game-analyze-selfdual", 8),
)
LIB_ROUND = (
    ("construct_profile", 5), ("construct_profile", 5), ("construct_profile", 6),
    ("construct_profile", 7), ("construct_profile", 7), ("construct_profile", 7),
    ("kemeny_apply", 5), ("kemeny_apply", 5), ("kemeny_apply", 5), ("kemeny_apply", 6),
    ("family_apply", 5), ("family_apply", 5), ("family_apply", 6),
    ("srsf_apply", 4), ("srsf_apply", 4), ("srsf_apply", 4), ("srsf_apply", 4),
    ("srsf_kendall", 5), ("borda_srsf_apply", 5), ("borda_srsf_apply", 6),
)
STRATA = {"vote-cli": VOTE_ROUND, "game-cli": GAME_ROUND, "lib-sweep": LIB_ROUND}
WORKLOADS = tuple(STRATA)


def list_length(workload: str) -> int:
    return ROUNDS * len(STRATA[workload])


def _rng(workload: str, seed: int, *tag) -> random.Random:
    return random.Random(":".join(str(t) for t in (workload, seed) + tag))


#: Irrational steps of the Kronecker sequences that spread sizes over the slots.
STEPS = (0.6180339887498949, 0.41421356237309503, 0.7320508075688772)


def job_slot(workload: str, seed: int, index: int) -> tuple:
    """Stratum and size coordinates of job `index` in the seeded list.

    Returns (kind, n, u, copy).  u holds three numbers in [0, 1) that set
    the job's sizes (voters or dense/sparse game; dispersion or concept;
    template support).  u depends on the job's slot in the round only: it
    follows Kronecker sequences over the slots, so one round covers the size
    ranges, and every round, whatever the seed, has the same sizes.  A run
    of whole rounds then costs the same however many rounds it does; the
    seed sets the contents (ballots, games, coefficients) and the order
    within rounds.  copy numbers the slots of identical strata in a round;
    it deals out choices that must keep exact shares, such as the rule
    count of a construct_profile slot.
    """
    strata = STRATA[workload]
    rnd, pos = divmod(index, len(strata))
    order = list(range(len(strata)))
    _rng(workload, seed, "round", rnd).shuffle(order)
    slot = order[pos]
    kind, n = strata[slot]
    u = tuple((slot + 0.5) * step % 1.0 for step in STEPS)
    copy = [j for j, stratum in enumerate(strata) if stratum == strata[slot]].index(slot)
    return kind, n, u, copy


# ---------------------------------------------------------------------------
# Ballots


def mallows_counts(rng: random.Random, n: int, phi: float, voters: int) -> dict:
    """Sample `voters` rankings from a Mallows model by repeated insertion.

    Returns {ranking tuple (top first): count}.  The central ranking is a
    random permutation; item i of it lands j places above the bottom of the
    partial ranking with probability proportional to phi**j.
    """
    centre = list(range(1, n + 1))
    rng.shuffle(centre)
    cdfs = [list(accumulate(phi ** j for j in range(i))) for i in range(1, n + 1)]
    counts: dict = {}
    for _ in range(voters):
        order: list = []
        for i, cdf in enumerate(cdfs):
            up = bisect.bisect_right(cdf, rng.random() * cdf[-1])
            order.insert(i - up, centre[i])
        key = tuple(order)
        counts[key] = counts.get(key, 0) + 1
    return counts


def write_ballots(path: str, n: int, counts: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if path.endswith(".csv"):
            for ranking, c in counts.items():
                fh.write(">".join(map(str, ranking)) + f",{c}\n")
        else:
            json.dump({
                "n": n,
                "shape": [1] * n,
                "ballots": [
                    {"ranking": [[e] for e in ranking], "count": c}
                    for ranking, c in counts.items()
                ],
            }, fh)


def read_ballots(path: str) -> dict:
    """Inverse of write_ballots, for the output checks."""
    counts: dict = {}
    with open(path, encoding="utf-8") as fh:
        if path.endswith(".csv"):
            for line in fh:
                ranking, c = line.strip().rsplit(",", 1)
                key = tuple(int(v) for v in ranking.split(">"))
                counts[key] = counts.get(key, 0) + int(c)
        else:
            for b in json.load(fh)["ballots"]:
                key = tuple(row[0] for row in b["ranking"])
                counts[key] = counts.get(key, 0) + b["count"]
    return counts


def _random_profile(rng: random.Random, n: int, u: tuple) -> tuple:
    """Mallows ballots: voters log-uniform on 50..5000, dispersion on 0.3..0.9."""
    voters = int(round(50 * 100 ** u[0]))
    phi = 0.3 + 0.6 * u[1]
    return phi, voters, mallows_counts(rng, n, phi, voters)


def _rational(rng: random.Random, lo: int, hi: int, den: int = 6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _nonzero(rng: random.Random) -> Fraction:
    """A rational with numerator in +-1..4 and denominator 1..6.

    Concept coefficients are never zero: a zero coefficient lets the program
    skip a whole level, which would make job cost depend on the seed.
    """
    return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 6))


def _fmt(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# Games and solution concepts


def dense_game(rng: random.Random, n: int) -> dict:
    return {m: _rational(rng, -20, 20) for m in range(1, 1 << n)}


def sparse_game(rng: random.Random, n: int) -> tuple:
    """A structured integer game: unanimity, glove, or weighted majority."""
    kind = rng.choice(("unanimity", "glove", "majority"))
    full = (1 << n) - 1
    if kind == "unanimity":
        carrier = sum(1 << i for i in rng.sample(range(n), rng.randint(1, n)))
        worth = rng.randint(1, 9)
        v = {m: Fraction(worth) for m in range(1, full + 1) if m & carrier == carrier}
    elif kind == "glove":
        left = sum(1 << i for i in rng.sample(range(n), rng.randint(1, n - 1)))
        v = {}
        for m in range(1, full + 1):
            pairs = min((m & left).bit_count(), (m & ~left & full).bit_count())
            if pairs:
                v[m] = Fraction(pairs)
    else:
        weights = [rng.randint(1, 9) for _ in range(n)]
        quota = sum(weights) // 2 + 1
        v = {
            m: Fraction(1)
            for m in range(1, full + 1)
            if sum(w for i, w in enumerate(weights) if m >> i & 1) >= quota
        }
    return kind, v


def write_game(path: str, n: int, v: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": n, "v": {str(m): _fmt(x) for m, x in v.items()}}, fh)


def read_game(path: str) -> tuple:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["n"], {int(m): Fraction(x) for m, x in data["v"].items()}


def efficient_coefficients(rng: random.Random, n: int) -> tuple:
    """Coordinates of an efficient concept: c0 = (0, .., 0, 1), c1 random."""
    c0 = [Fraction(0)] * (n - 1) + [Fraction(1)]
    c1 = [_nonzero(rng) for _ in range(n - 1)]
    return c0, c1


def random_coefficients(rng: random.Random, n: int) -> tuple:
    c0 = [_rational(rng, -4, 4) for _ in range(n)]
    c1 = [_rational(rng, -4, 4) for _ in range(n - 1)]
    if c1[0] == c1[-1]:
        c1[0] += 1  # break the c1 symmetry so the concept is not self-dual
    return c0, c1


def self_dual_coefficients(rng: random.Random, n: int) -> tuple:
    """Coordinates satisfying c1[k] = c1[n-k] and c0[j]/j = -c0[n-j]/(n-j).

    These relations characterise the self-dual linear symmetric concepts;
    the output checks confirm each verdict on random games independently.
    """
    c1 = [Fraction(0)] * (n - 1)
    for k in range(1, n // 2 + 1):
        c1[k - 1] = c1[n - k - 1] = _nonzero(rng)
    c0 = [Fraction(0)] * n
    for j in range(1, n // 2 + 1):
        if j == n - j:
            continue  # c0[j]/j = -c0[j]/j forces zero at the midpoint
        a = _nonzero(rng)
        c0[j - 1] = a * j
        c0[n - j - 1] = -a * (n - j)
    c0[n - 1] = _nonzero(rng)
    return c0, c1


def write_coefficients(path: str, c0, c1) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"c0": [_fmt(v) for v in c0], "c1": [_fmt(v) for v in c1]}, fh)


# ---------------------------------------------------------------------------
# CLI jobs


def cli_job(workload: str, seed: int, index: int, workdir: str) -> dict:
    """Write the inputs of CLI job `index` under workdir; return its spec.

    The spec holds the argv for ``tabloids.cli.main`` and the properties the
    checks and the property shares need.
    """
    index %= list_length(workload)
    kind, n, u, _ = job_slot(workload, seed, index)
    rng = _rng(workload, seed, "job", index)
    base = os.path.join(workdir, f"in{index}")
    job = {"index": index, "command": kind, "n": n}
    if workload == "vote-cli":
        phi, voters, counts = _random_profile(rng, n, u)
        path = base + rng.choice((".json", ".csv"))
        write_ballots(path, n, counts)
        job.update(ballots=path, voters=voters, phi=phi,
                   support_fraction=len(counts) / factorial(n))
        argv = [kind, path]
        if kind == "tally":
            choice = rng.choice(("borda", "plurality", "antiplurality", "file"))
            if choice == "file":
                ws = sorted((rng.randint(0, 12) for _ in range(n)), reverse=True)
                if ws[0] == ws[-1]:
                    ws[0] += 1
                wpath = base + "-w.json"
                with open(wpath, "w", encoding="utf-8") as fh:
                    json.dump({"weights": [str(w) for w in ws]}, fh)
                argv += ["--weights", wpath]
            else:
                argv += ["--weights-preset", choice]
            job["weights_choice"] = choice
        elif kind == "family":
            gamma = [_rational(rng, -9, 9) for _ in range(3)]
            job["gamma"] = [_fmt(g) for g in gamma]
            argv += [f"--gamma{i}={g}" for i, g in enumerate(job["gamma"])]
    else:
        if kind == "game-analyze-selfdual":
            kind = job["command"] = "game-analyze"
            c0, c1 = self_dual_coefficients(rng, n)
            job["self_dual_input"] = True
        elif kind == "game-analyze":
            c0, c1 = random_coefficients(rng, n)
            job["self_dual_input"] = False
        if kind == "game-analyze":
            path = base + "-c.json"
            write_coefficients(path, c0, c1)
            argv = [kind, "--coeffs", path]
            job["coeffs"] = path
        else:
            sparse = u[0] < 0.5
            if sparse:
                family, v = sparse_game(rng, n)
            else:
                family, v = "dense", dense_game(rng, n)
            path = base + "-g.json"
            write_game(path, n, v)
            job.update(game=path, sparse=sparse, game_family=family)
            argv = [kind, "--game", path]
            if kind == "game-solve":
                if u[1] < 0.5:
                    argv += ["--concept", "shapley"]
                else:
                    cpath = base + "-c.json"
                    write_coefficients(cpath, *efficient_coefficients(rng, n))
                    argv += ["--coeffs", cpath]
                    job["coeffs"] = cpath
    job["argv"] = argv
    return job


# ---------------------------------------------------------------------------
# Library items


def _sum_zero_target(rng: random.Random, n: int) -> list:
    t = [rng.randint(-6, 6) for _ in range(n - 1)]
    return t + [-sum(t)]


def _independent(rows: list) -> bool:
    """Plain rational elimination rank test (no library call)."""
    m = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for c in range(len(m[0])):
        p = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank == len(m)


def _hat(ws: list) -> list:
    mean = Fraction(sum(ws), len(ws))
    return [w - mean for w in ws]


def lib_item(seed: int, index: int) -> dict:
    """Plain-data description of lib-sweep item `index`."""
    index %= list_length("lib-sweep")
    kind, n, u, copy = job_slot("lib-sweep", seed, index)
    rng = _rng("lib-sweep", seed, "item", index)
    return _lib_item(rng, index, kind, n, u, 2 + copy % 2)


#: One set-up item per distinct n of the lib-sweep strata; between them they
#: fill the per-n caches (tabloid lists, spectral projections) the items use.
WARMUP_KINDS = ((4, "srsf_apply"), (5, "family_apply"), (6, "family_apply"),
                (7, "borda_srsf_apply"))


def lib_warmup_items(seed: int) -> list:
    rng = _rng("lib-sweep", seed, "warmup")
    return [_lib_item(rng, -1 - i, kind, n, (0.5, 0.5, 0.5), 2)
            for i, (n, kind) in enumerate(WARMUP_KINDS)]


def _lib_item(rng: random.Random, index: int, kind: str, n: int, u: tuple,
              rules: int) -> dict:
    """One library item; `rules` is the rule count of a construct_profile item.

    The construct_profile slots with the same n take 2 and 3 rules in turn
    (2, 3, 2, ...), since the rule count sets most of their cost.
    """
    item = {"index": index, "command": kind, "n": n}
    if kind == "construct_profile":
        while True:
            weights = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rules)]
            if _independent([_hat(w) for w in weights]):
                break
        item["weights"] = weights
        item["targets"] = [_sum_zero_target(rng, n) for _ in range(rules)]
    elif kind in ("srsf_apply", "srsf_kendall"):
        item["counts"] = _profile_list(rng, n, u)
        if kind == "srsf_apply":
            size = factorial(n)
            support = rng.sample(range(size), 1 + int(u[2] * size))
            item["template"] = {r: rng.randint(-5, 5) or 1 for r in support}
    else:
        item["counts"] = _profile_list(rng, n, u)
        if kind == "family_apply":
            item["gamma"] = [_fmt(_rational(rng, -9, 9)) for _ in range(3)]
        elif kind == "borda_srsf_apply":
            item["weights"] = sorted((rng.randint(0, 12) for _ in range(n)), reverse=True)
            if item["weights"][0] == item["weights"][-1]:
                item["weights"][0] += 1
    return item


def _profile_list(rng: random.Random, n: int, u: tuple) -> list:
    """Mallows ballots as a dense count list in lexicographic rank order."""
    _, _, counts = _random_profile(rng, n, u)
    index = {p: r for r, p in enumerate(permutations(range(1, n + 1)))}
    dense = [0] * factorial(n)
    for ranking, c in counts.items():
        dense[index[ranking]] = c
    return dense


def support_fraction(item: dict) -> float | None:
    counts = item.get("counts")
    if counts is None:
        return None
    return sum(1 for c in counts if c) / len(counts)

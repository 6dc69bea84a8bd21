"""Output checks that do not call the code being timed.

Every check recomputes a few exact quantities in plain Python from the
generated inputs and compares them with what the program returned.  A check
returns None when the output holds, or a one-line reason when it does not.
Reference digests (SHA-256 of each CLI report and of a canonical
serialisation of each library result) are compared separately, for the
default seed only.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial, lcm

import gen

DEFAULT_SEED = 0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_digests.json")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference(workload: str, seed: int) -> dict | None:
    """Digests by job index for the default seed; None for any other seed."""
    if seed != DEFAULT_SEED or not os.path.exists(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return {int(k): v for k, v in json.load(fh)[workload].items()}


# ---------------------------------------------------------------------------
# Plain-Python ranking arithmetic


@lru_cache(maxsize=None)
def rankings(n: int) -> tuple:
    """Full rankings (top first) in lexicographic order."""
    return tuple(permutations(range(1, n + 1)))


@lru_cache(maxsize=None)
def ranking_index(n: int) -> dict:
    return {p: r for r, p in enumerate(rankings(n))}


def positions(ranking) -> dict:
    """candidate -> 0-based place in the ranking."""
    return {c: i for i, c in enumerate(ranking)}


def agreement(x, y_pos: dict) -> int:
    """Candidate pairs that ranking x and the ranking with places y_pos order alike."""
    n = len(x)
    return sum(1 for a in range(n) for b in range(a + 1, n) if y_pos[x[a]] < y_pos[x[b]])


def kemeny_score(x, ballots: dict) -> int:
    return sum(c * agreement(x, positions(y)) for y, c in ballots.items())


def tally(weights, ballots: dict, n: int) -> list:
    scores = [0] * n
    for y, c in ballots.items():
        for place, cand in enumerate(y):
            scores[cand - 1] += c * weights[place]
    return scores


def borda_gram_entry(x, scores: list) -> Fraction:
    """(Borda adjoint of per-candidate scores) at ranking x."""
    n = len(x)
    return sum((Fraction(n - 1 - place) * scores[cand - 1] for place, cand in enumerate(x)),
               Fraction(0))


def family_entry(gamma, x, ballots: dict, n: int) -> Fraction:
    """gamma0*T0 f + gamma1*T1 f + gamma2*T2 f at x, from the eigen-identities."""
    g0, g1, g2 = gamma
    size = factorial(n)
    t0 = Fraction(sum(ballots.values()), size)
    beta0 = Fraction((n - 1) * size, 2) * comb(n, 2)
    beta1 = Fraction(n * factorial(n + 1), 12)
    k0, k1, k2 = Fraction(size, 2) * comb(n, 2), Fraction(factorial(n + 1), 6), Fraction(size, 6)
    borda = tally([n - 1 - i for i in range(n)], ballots, n)
    t1 = (borda_gram_entry(x, borda) - beta0 * t0) / beta1
    t2 = (kemeny_score(x, ballots) - k0 * t0 - k1 * t1) / k2
    return g0 * t0 + g1 * t1 + g2 * t2


def srsf_entry(template: dict, x, ballots: dict, n: int) -> Fraction:
    """Sum over ballots y of f(y) * z(the word of x relabelled by y's places)."""
    index = ranking_index(n)
    total = Fraction(0)
    for y, c in ballots.items():
        pos = positions(y)
        total += c * template.get(index[tuple(pos[e] + 1 for e in x)], 0)
    return total


def _q(value):
    """A report's rational: a bare int, or a "p/q" (or "p") string."""
    if isinstance(value, int):
        return value
    p, _, q = str(value).partition("/")
    return Fraction(int(p), int(q)) if q else Fraction(int(p))


def _sample(rng: random.Random, n: int, extra=()) -> list:
    return list(extra) + [rng.choice(rankings(n)) for _ in range(2)]


def _parse_word(text: str) -> tuple:
    return tuple(int(v) for v in text.split(">"))


# ---------------------------------------------------------------------------
# CLI reports


def check_cli(job: dict, output: bytes) -> str | None:
    try:
        report = json.loads(output)
    except ValueError:
        return "report is not JSON"
    if report.get("command") != job["command"] or report.get("n") != job["n"]:
        return "report names another command or n"
    rng = random.Random(f"check:{job['index']}")
    if "ballots" in job:
        return _check_vote(job, report, rng)
    return _check_game(job, report, rng)


def _check_vote(job: dict, report: dict, rng: random.Random) -> str | None:
    n = job["n"]
    ballots = gen.read_ballots(job["ballots"])
    voters = sum(ballots.values())
    if _q(report["voter_total"]) != voters:
        return "voter total differs from the ballot file"
    command = job["command"]
    if command == "tally":
        weights = [_q(w) for w in report["weights"]]
        scores = [_q(report["scores"][str(i)]) for i in range(1, n + 1)]
        if sum(scores) != voters * sum(weights):
            return "tally total is not voters times the weight sum"
        if scores != tally(weights, ballots, n):
            return "tally scores differ from a direct count"
        top = max(scores)
        if report["winners"] != [i + 1 for i, s in enumerate(scores) if s == top]:
            return "tally winners are not the top scorers"
        return None
    if command == "decompose":
        parts = [report["components"][k]["values"] for k in report["components"]]
        index = ranking_index(n)
        total: dict = {}
        for values in parts:
            for r, v in values.items():
                total[int(r)] = total.get(int(r), 0) + _q(v)
        expected = {index[y]: c for y, c in ballots.items()}
        if {r: v for r, v in total.items() if v} != expected:
            return "decompose components do not add back to the profile"
        for name, comp in report["components"].items():
            if sum(_q(v) ** 2 for v in comp["values"].values()) != _q(report["norm2"][name]):
                return f"decompose norm2 of {name} is wrong"
        return None
    scores = {_parse_word(k): _q(v) for k, v in report["scores"].items()}
    if len(scores) != factorial(n):
        return "not every ranking is scored"
    top = max(scores.values())
    winners = sorted(_parse_word(w) for w in report["winners"])
    if winners != sorted(x for x, s in scores.items() if s == top):
        return "winners are not the top-scoring rankings"
    for x in _sample(rng, n, winners[:1]):
        if command == "kemeny":
            want = kemeny_score(x, ballots)
        else:
            want = family_entry([_q(g) for g in job["gamma"]], x, ballots, n)
        if scores[x] != want:
            return f"{command} score of {x} differs from the direct sum"
    return None


def read_coefficients(path: str) -> tuple:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return [_q(v) for v in data["c0"]], [_q(v) for v in data["c1"]]


def level_sums(n: int, v: dict) -> tuple:
    """Integer sums of a game's values by coalition size, scaled to integers.

    Returns (scale, total, member): total[k] is scale times the sum of v over
    coalitions of size k, and member[k][i] the same sum over those that
    contain player i (0-based).  Integer arithmetic keeps the checks of
    2^n-entry games fast.
    """
    scale = lcm(*(x.denominator for x in v.values())) if v else 1
    total = [0] * (n + 1)
    member = [[0] * n for _ in range(n + 1)]
    for m, x in v.items():
        xi = x.numerator * (scale // x.denominator)
        k = m.bit_count()
        total[k] += xi
        row = member[k]
        for i in range(n):
            if m >> i & 1:
                row[i] += xi
    return scale, total, member


def solution_payoffs(c0, c1, n: int, v: dict) -> list:
    """Payoffs of the linear symmetric concept (c0, c1) on game v, directly.

    Player i gets, for each size k, c0[k-1]/k times the level mean, plus
    c1[k-1]/C(n-2, k-1) times the summed deviations from that mean of the
    size-k coalitions that contain i.
    """
    scale, total, member = level_sums(n, v)
    out = [Fraction(0)] * n
    for k in range(1, n + 1):
        avg = Fraction(total[k], scale * comb(n, k))
        for i in range(n):
            out[i] += c0[k - 1] * avg / k
            if k < n and c1[k - 1]:
                deviation = Fraction(member[k][i], scale) - avg * comb(n - 1, k - 1)
                out[i] += c1[k - 1] * deviation / comb(n - 2, k - 1)
    return out


def shapley_payoffs(n: int, v: dict) -> list:
    """Shapley values from the weighted marginal contributions formula.

    Each coalition S with i in it adds (|S|-1)!(n-|S|)!/n! v(S) to player i,
    and each nonempty S without i subtracts |S|!(n-|S|-1)!/n! v(S).
    """
    scale, total, member = level_sums(n, v)
    out = []
    for i in range(n):
        acc = sum(factorial(k - 1) * factorial(n - k) * member[k][i] for k in range(1, n + 1))
        acc -= sum(factorial(k) * factorial(n - k - 1) * (total[k] - member[k][i])
                   for k in range(1, n))
        out.append(Fraction(acc, factorial(n) * scale))
    return out


def dual(v: dict, n: int) -> dict:
    full = (1 << n) - 1
    grand = v.get(full, Fraction(0))
    return {m: grand - v.get(full ^ m, Fraction(0)) for m in range(1, full + 1)}


def marginal_coefficients(m: list) -> tuple:
    n = len(m)
    ext = list(m) + [Fraction(0)]
    c0 = [k * (ext[k - 1] * comb(n - 1, k - 1) - ext[k] * comb(n - 1, k)) for k in range(1, n + 1)]
    c1 = [comb(n - 2, k - 1) * (ext[k - 1] + ext[k]) for k in range(1, n)]
    return c0, c1


def _check_game(job: dict, report: dict, rng: random.Random) -> str | None:
    n = job["n"]
    command = job["command"]
    if command == "game-analyze":
        c0, c1 = read_coefficients(job["coeffs"])
        efficient = all(x == 0 for x in c0[:-1]) and c0[-1] == 1
        if report["efficient"] != efficient:
            return "efficiency verdict differs from the coefficient criterion"
        fit = marginal_coefficients([_q(x) for x in report["marginal"]["m"]])
        if report["marginal"]["exact"] != (fit == (c0, c1)):
            return "marginal verdict disagrees with the fitted weights"
        games = [gen.dense_game(rng, n) for _ in range(2)]
        holds = all(solution_payoffs(c0, c1, n, g) == solution_payoffs(c0, c1, n, dual(g, n))
                    for g in games)
        if report["self_dual"] != holds:
            return "self-dual verdict fails on random games and their duals"
        return None
    n_, v = gen.read_game(job["game"])
    grand = v.get((1 << n) - 1, Fraction(0))
    if _q(report["grand_value"]) != grand:
        return "grand value differs from the game file"
    if command == "game-solve":
        payoffs = [_q(report["payoffs"][str(i)]) for i in range(1, n + 1)]
        if sum(payoffs) != grand or _q(report["payoff_total"]) != grand:
            return "efficient concept's payoffs do not sum to v(N)"
        if "coeffs" in job:
            want = solution_payoffs(*read_coefficients(job["coeffs"]), n, v)
        else:
            want = shapley_payoffs(n, v)
        if payoffs != want:
            return "payoffs differ from the direct formula"
        return None
    for k in range(1, n + 1):
        level = report["levels"][str(k)]
        parts = {key: {int(r): _q(x) for r, x in level[key]["values"].items()}
                 for key in ("average", "deviation", "kernel")}
        masks = [sum(1 << (p - 1) for p in c) for c in combinations(range(1, n + 1), k)]
        want = {r: v[m] for r, m in enumerate(masks) if v.get(m)}
        total: dict = {}
        for values in parts.values():
            for r, x in values.items():
                total[r] = total.get(r, 0) + x
        if {r: x for r, x in total.items() if x} != want:
            return f"level {k} parts do not add back to the level"
        mean = Fraction(sum(want.values()), len(masks))
        if any(parts["average"].get(r, 0) != mean for r in range(len(masks))):
            return f"level {k} average part is not the level mean"
        dev, ker = parts["deviation"], parts["kernel"]
        if sum(dev.values()) or sum(ker.values()) or sum(x * ker.get(r, 0) for r, x in dev.items()):
            return f"level {k} parts are not orthogonal"
    return None


# ---------------------------------------------------------------------------
# Library results


def ballots_of(counts: list, n: int) -> dict:
    return {y: c for y, c in zip(rankings(n), counts) if c}


def check_lib(item: dict, result: dict) -> str | None:
    n, kind = item["n"], item["command"]
    rng = random.Random(f"check:{item['index']}")
    if kind == "construct_profile":
        built = result["built"]
        values = built.solution.to_list()
        if any(v < 0 or v.denominator != 1 for v in values):
            return "constructed profile is not a nonnegative integer vector"
        profile = ballots_of([int(v) for v in values], n)
        total = sum(profile.values())
        for ws, target, scores in zip(item["weights"], item["targets"], result["tallies"]):
            # n times the sum-zero hat of ws keeps the arithmetic in integers.
            hat_n = [n * w - sum(ws) for w in ws]
            if tally(hat_n, profile, n) != [n * built.scale * t for t in target]:
                return "constructed profile misses a target"
            if [n * s for s in scores] != [n * built.scale * t + sum(ws) * total for t in target]:
                return "positional tally of the constructed profile is wrong"
        return None
    ballots = ballots_of(item["counts"], n)
    scores = result["scores"]
    top = max(scores)
    winners = sorted(x.to_ranking() for x in result["ranking"].winners)
    if winners != sorted(rankings(n)[r] for r, s in enumerate(scores) if s == top):
        return "winners are not the top-scoring rankings"
    index = ranking_index(n)
    if kind == "srsf_kendall":
        # kendall_score_vector: pairs ordered as in the reference ranking 1..n.
        reference = positions(tuple(range(1, n + 1)))
        template = {r: agreement(x, reference) for r, x in enumerate(rankings(n))}
    else:
        template = item.get("template")
    for x in _sample(rng, n, winners[:1]):
        if kind == "kemeny_apply":
            want = kemeny_score(x, ballots)
        elif kind == "family_apply":
            want = family_entry([_q(g) for g in item["gamma"]], x, ballots, n)
        elif kind in ("srsf_apply", "srsf_kendall"):
            want = srsf_entry(template, x, ballots, n)
        else:
            w_scores = tally(item["weights"], ballots, n)
            want = borda_gram_entry(x, w_scores)
        if scores[index[x]] != want:
            return f"{kind} score of {x} differs from the direct sum"
    return None


def canonical_lib(item: dict, result: dict) -> bytes:
    """A serialisation of a library result that equal results share."""
    if item["command"] == "construct_profile":
        built = result["built"]
        data = {"solution": [str(v) for v in built.solution.to_list()],
                "affine_dimension": built.affine_dimension,
                "scale": built.scale, "shift": built.shift,
                "tallies": [[str(v) for v in s] for s in result["tallies"]]}
    else:
        data = {"scores": [str(v) for v in result["scores"]],
                "tiers": [sorted(x.to_ranking() for x in tier)
                          for tier in result["ranking"].tiers]}
    return json.dumps(data, sort_keys=True).encode()

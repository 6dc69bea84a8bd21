"""Batch command-line interface.

Exit codes: 0 ok, 2 parse/input error, 3 shape or player-count mismatch,
4 infeasible request, 5 capacity limit.  Reports are exact: rationals are
rendered as "p/q" strings (or bare integers) and floats appear only under
--approx, clearly labeled.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import core, games, specht, voting
from .core import (
    CapacityError,
    InfeasibleError,
    ModuleVector,
    ShapeMismatchError,
    format_rational,
    linear_combination,
    parse_rational,
)

PARSE_ERROR, SHAPE_ERROR, INFEASIBLE, CAPACITY = 2, 3, 4, 5


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_profile(path: str) -> voting.Profile:
    if path.endswith(".csv"):
        with open(path, "r", encoding="utf-8") as fh:
            return voting.profile_from_csv(fh.read())
    return voting.profile_from_json_dict(_load_json_file(path))


def _load_weighting(args, n: int) -> voting.WeightingVector:
    if args.weights is not None and args.weights_preset is not None:
        raise ValueError("pass only one of --weights, --weights-preset")
    if args.weights is not None:
        return voting.weighting_from_json_dict(_load_json_file(args.weights))
    preset = args.weights_preset or "borda"
    maker = {
        "borda": voting.borda_weights,
        "plurality": voting.plurality_weights,
        "antiplurality": voting.antiplurality_weights,
    }[preset]
    return maker(n)


def _approx(value) -> str:
    return f"{float(Fraction(value)):.12g}"


def _approx_map(d: dict) -> dict:
    return {k: _approx(v) for k, v in d.items()}


def _candidate_scores(scores: ModuleVector) -> dict:
    return {str(i + 1): format_rational(v) for i, v in enumerate(scores.to_list())}


# ---------------------------------------------------------------------------
# Command handlers: each returns (report dict, table rows for csv/pretty)


def cmd_tally(args):
    profile = _load_profile(args.ballots)
    w = _load_weighting(args, profile.n)
    result = voting.positional_tally(w, profile)
    report = {
        "command": "tally",
        "n": profile.n,
        "voter_total": format_rational(profile.voter_total),
        "weights": [format_rational(v) for v in w.weights],
        "scores": _candidate_scores(result.scores),
        "winners": [r + 1 for r in result.ranks[0]],
        "tiers": [[r + 1 for r in tier] for tier in result.ranks],
    }
    if args.approx:
        report["scores_approx"] = _approx_map(report["scores"])
    return report, [("candidate", "score")] + list(report["scores"].items())


def _srsf_report(name: str, profile: voting.Profile, result: voting.RankingScores, args):
    names = [core._format_word(profile.shape.parts, w) for w in core.iter_words(profile.shape)]
    report = {
        "command": name,
        "n": profile.n,
        "voter_total": format_rational(profile.voter_total),
        "scores": dict(zip(names, map(format_rational, result.scores.to_list()))),
        "winners": [names[r] for r in result.ranks[0]],
        "tiers": [[names[r] for r in tier] for tier in result.ranks],
    }
    if args.approx:
        report["scores_approx"] = _approx_map(report["scores"])
    table = [("ranking", "score")] + sorted(report["scores"].items())
    return report, table


def cmd_kemeny(args):
    profile = _load_profile(args.ballots)
    return _srsf_report("kemeny", profile, voting.kemeny_apply(profile), args)


def cmd_family(args):
    profile = _load_profile(args.ballots)
    gamma = tuple(parse_rational(g) for g in (args.gamma0, args.gamma1, args.gamma2))
    result = voting.family_apply(gamma, profile)
    report, table = _srsf_report("family", profile, result, args)
    report["gamma"] = [format_rational(g) for g in gamma]
    return report, table


def cmd_decompose(args):
    profile = _load_profile(args.ballots)
    f = profile.counts
    comps = specht.spectral_components(f)
    parts = {f"eigen{i}": comp for i, comp in enumerate(comps)}
    parts["residual"] = linear_combination(f.shape, [(1, f), *((-1, c) for c in comps)])
    norms = {k: format_rational(v.norm2()) for k, v in parts.items()}
    report = {
        "command": "decompose",
        "n": profile.n,
        "voter_total": format_rational(profile.voter_total),
        "components": {k: v.to_json_dict() for k, v in parts.items()},
        "norm2": norms,
    }
    if args.approx:
        report["norm2_approx"] = _approx_map(norms)
    return report, [("component", "norm2")] + list(norms.items())


def cmd_construct_profile(args):
    if not args.weights_files or not args.target_files:
        raise ValueError("need at least one --weights and one --target file")
    ws = [
        voting.weighting_from_json_dict(_load_json_file(p), allow_unsorted=True)
        for p in args.weights_files
    ]
    targets = [
        ModuleVector.from_json_dict(_load_json_file(p)) for p in args.target_files
    ]
    built = voting.construct_profile(
        ws,
        targets,
        integer_profile=args.as_integer_profile,
        shift_bound=args.shift_bound,
    )
    report = {
        "command": "construct-profile",
        "n": built.solution.shape.n,
        "voter_total": format_rational(built.solution.sum_values()),
        "solution": built.solution.to_json_dict(),
        "affine_dimension": built.affine_dimension,
        "scale": built.scale,
        "shift": built.shift,
    }
    table = [("rank", "value")] + [
        (r, format_rational(v)) for r, v in built.solution.support()
    ]
    return report, table


def cmd_game_decompose(args):
    game = games.game_from_json_dict(_load_json_file(args.game))
    decomposition = games.decompose_game(game)
    levels = {}
    for k, level in sorted(decomposition.items()):
        levels[str(k)] = {
            "average": level.average.to_json_dict(),
            "deviation": level.deviation.to_json_dict(),
            "kernel": level.kernel.to_json_dict(),
            "norm2": {
                "average": format_rational(level.average.norm2()),
                "deviation": format_rational(level.deviation.norm2()),
                "kernel": format_rational(level.kernel.norm2()),
            },
        }
    report = {
        "command": "game-decompose",
        "n": game.n,
        "grand_value": format_rational(game.grand_value()),
        "levels": levels,
    }
    table = [("level", "average_norm2", "deviation_norm2", "kernel_norm2")] + [
        (
            k,
            levels[k]["norm2"]["average"],
            levels[k]["norm2"]["deviation"],
            levels[k]["norm2"]["kernel"],
        )
        for k in sorted(levels, key=int)
    ]
    return report, table


def _load_concept(args):
    picked = [
        name
        for name, val in (
            ("--concept", args.concept),
            ("--coeffs", args.coeffs),
            ("--marginal", args.marginal),
        )
        if val
    ]
    if len(picked) > 1:
        raise ValueError(f"pass only one of {', '.join(picked)}")
    if args.coeffs:
        return games.coefficients_from_json_dict(_load_json_file(args.coeffs)), "coefficients"
    if args.marginal:
        m = games.marginal_from_json_dict(_load_json_file(args.marginal))
        return games.marginal_to_coefficients(m), "marginal"
    return None, args.concept or "shapley"


def cmd_game_solve(args):
    game = games.game_from_json_dict(_load_json_file(args.game))
    coeffs, label = _load_concept(args)
    if coeffs is None:
        coeffs = games.shapley_coefficients(game.n)
    payoffs = games.solution_apply(coeffs, game)
    report = {
        "command": "game-solve",
        "n": game.n,
        "grand_value": format_rational(game.grand_value()),
        "concept": label,
        "coefficients": coeffs.to_json_dict(),
        "payoffs": _candidate_scores(payoffs),
        "payoff_total": format_rational(payoffs.sum_values()),
    }
    if args.approx:
        report["payoffs_approx"] = _approx_map(report["payoffs"])
    return report, [("player", "payoff")] + list(report["payoffs"].items())


def cmd_game_analyze(args):
    coeffs, _ = _load_concept(args)
    if coeffs is None:
        raise ValueError("game-analyze needs --coeffs or --marginal")
    # before the O(n^3) fit: self_dual_check refuses more than MAX_PLAYERS players
    self_dual = games.self_dual_check(coeffs)
    fit, exact = games.fit_marginal(coeffs)
    report = {
        "command": "game-analyze",
        "n": coeffs.n,
        "coefficients": coeffs.to_json_dict(),
        "efficient": games.efficiency_check(coeffs),
        "efficiency_criterion": "all average-share coefficients zero except the grand one, which is 1",
        "marginal": {"exact": exact, "m": fit.to_json_dict()["m"]},
        "self_dual": self_dual,
    }
    table = [
        ("property", "verdict"),
        ("efficient", report["efficient"]),
        ("marginal", exact),
        ("self_dual", report["self_dual"]),
    ]
    return report, table


# ---------------------------------------------------------------------------
# Rendering and dispatch


def _render(report: dict, table: list, args) -> str:
    if args.format == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.format == "csv":
        return "\n".join(",".join(str(c) for c in row) for row in table) + "\n"
    lines = [f"{report['command']}  (n={report.get('n', '?')})"]
    for key in ("voter_total", "grand_value"):
        if key in report:
            lines.append(f"{key}: {report[key]}")
    widths = [max(len(str(row[i])) for row in table) for i in range(len(table[0]))]
    for row in table:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    for key in ("winners", "gamma"):
        if key in report:
            lines.append(f"{key}: {report[key]}")
    return "\n".join(lines) + "\n"


def _emit(text: str, args):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    shared.add_argument("--output", default=None, help="write the report here instead of stdout")
    shared.add_argument("--approx", action="store_true",
                        help="add 12-significant-digit float renditions, labeled *_approx")

    parser = argparse.ArgumentParser(
        prog="tabloids",
        description="Exact positional/Kemeny voting analysis and cooperative-game solution concepts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def ballots_cmd(name, help_text):
        p = sub.add_parser(name, parents=[shared], help=help_text)
        p.add_argument("ballots", help="ballot file (.json or .csv)")
        return p

    p = ballots_cmd("tally", "positional tally of a ballot profile")
    p.add_argument("--weights", default=None, help="weighting vector JSON file")
    p.add_argument("--weights-preset", choices=("borda", "plurality", "antiplurality"),
                   default=None)
    p.set_defaults(handler=cmd_tally)

    p = ballots_cmd("kemeny", "Kemeny scores and winning rankings")
    p.set_defaults(handler=cmd_kemeny)

    p = ballots_cmd("family", "spectral-family scoring with three gamma weights")
    p.add_argument("--gamma0", required=True)
    p.add_argument("--gamma1", required=True)
    p.add_argument("--gamma2", required=True)
    p.set_defaults(handler=cmd_family)

    p = ballots_cmd("decompose", "eigencomponent split of a profile")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("construct-profile", parents=[shared],
                       help="build a profile hitting prescribed sum-zero tallies")
    p.add_argument("--weights", dest="weights_files", action="append", default=[],
                   help="weighting vector JSON file (repeatable)")
    p.add_argument("--target", dest="target_files", action="append", default=[],
                   help="sum-zero target vector JSON file (repeatable, one per weights)")
    p.add_argument("--as-integer-profile", action="store_true")
    p.add_argument("--shift-bound", type=int, default=None)
    p.set_defaults(handler=cmd_construct_profile)

    p = sub.add_parser("game-decompose", parents=[shared],
                       help="average/deviation/kernel split per coalition size")
    p.add_argument("--game", required=True, help="game JSON file")
    p.set_defaults(handler=cmd_game_decompose)

    p = sub.add_parser("game-solve", parents=[shared],
                       help="payoffs of a solution concept on a game")
    p.add_argument("--game", required=True, help="game JSON file")
    p.add_argument("--concept", choices=("shapley",), default=None)
    p.add_argument("--coeffs", default=None, help="coefficient JSON file")
    p.add_argument("--marginal", default=None, help="marginal-weights JSON file")
    p.set_defaults(handler=cmd_game_solve)

    p = sub.add_parser("game-analyze", parents=[shared],
                       help="efficiency, marginality fit, and self-duality verdicts")
    p.add_argument("--coeffs", default=None, help="coefficient JSON file")
    p.add_argument("--marginal", default=None, help="marginal-weights JSON file")
    p.set_defaults(handler=cmd_game_analyze, concept=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return PARSE_ERROR if exc.code else 0
    try:
        report, table = args.handler(args)
        _emit(_render(report, table, args), args)
    except ShapeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SHAPE_ERROR
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INFEASIBLE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAPACITY
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())

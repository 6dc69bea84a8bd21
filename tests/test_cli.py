"""Command-line surface: reports, formats, and exit codes."""

import json
import pathlib
import subprocess
import sys

import pytest

from tabloids import games
from tabloids.cli import main

TIE_BALLOTS = {
    "n": 3,
    "shape": [1, 1, 1],
    "ballots": [
        {"ranking": [[1], [2], [3]], "count": 2},
        {"ranking": [[3], [1], [2]], "count": 2},
        {"ranking": [[2], [3], [1]], "count": 1},
    ],
}

WORKED_BALLOTS = {
    "n": 3,
    "shape": [1, 1, 1],
    "ballots": [
        {"ranking": [[1], [2], [3]], "count": 3},
        {"ranking": [[1], [3], [2]], "count": 2},
        {"ranking": [[2], [1], [3]], "count": 4},
        {"ranking": [[2], [3], [1]], "count": 2},
        {"ranking": [[3], [2], [1]], "count": 3},
    ],
}

GLOVE_GAME = {"n": 3, "v": {"3": "1", "5": "1", "7": "1"}}


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_tally_borda_worked_example(tmp_path, capsys):
    ballots = write_json(tmp_path / "b.json", WORKED_BALLOTS)
    report = run_json(capsys, "tally", ballots, "--weights-preset", "borda")
    assert report["scores"] == {"1": 14, "2": 18, "3": 10}
    assert report["winners"] == [2]
    assert report["tiers"] == [[2], [1], [3]]
    assert report["voter_total"] == 14
    assert report["n"] == 3


def test_tally_empty_ballots(tmp_path, capsys):
    ballots = write_json(tmp_path / "b.json", {"n": 3, "shape": [1, 1, 1], "ballots": []})
    report = run_json(capsys, "tally", ballots)
    assert report["scores"] == {"1": 0, "2": 0, "3": 0}
    assert report["winners"] == [1, 2, 3]
    assert report["tiers"] == [[1, 2, 3]]


def test_tally_plurality_tie_profile(tmp_path, capsys):
    ballots = write_json(tmp_path / "b.json", TIE_BALLOTS)
    report = run_json(capsys, "tally", ballots, "--weights-preset", "plurality")
    assert report["scores"] == {"1": 2, "2": 1, "3": 2}
    assert report["winners"] == [1, 3]


def test_tally_csv_ballots_and_weights_file(tmp_path, capsys):
    csv_path = tmp_path / "b.csv"
    csv_path.write_text("1>2>3,2\n3>1>2,2\n2>3>1,1\n", encoding="utf-8")
    weights = write_json(tmp_path / "w.json", {"weights": ["1", "1/2", "0"]})
    report = run_json(capsys, "tally", str(csv_path), "--weights", weights)
    assert report["scores"] == {"1": 3, "2": 2, "3": "5/2"}


def test_kemeny_tie(tmp_path, capsys):
    ballots = write_json(tmp_path / "b.json", TIE_BALLOTS)
    report = run_json(capsys, "kemeny", ballots)
    assert report["winners"] == ["1>2>3", "3>1>2"]
    assert report["scores"]["1>2>3"] == 9
    assert report["scores"]["2>1>3"] == 6
    assert report["voter_total"] == 5


def test_family_zero_gamma_universal_tie(tmp_path, capsys):
    ballots = write_json(tmp_path / "b.json", TIE_BALLOTS)
    report = run_json(
        capsys, "family", ballots, "--gamma0", "0", "--gamma1", "0", "--gamma2", "0"
    )
    assert len(report["tiers"]) == 1
    assert len(report["tiers"][0]) == 6


def test_family_at_kemeny_spectrum_matches_kemeny(tmp_path, capsys):
    ballots = write_json(tmp_path / "b.json", TIE_BALLOTS)
    kemeny_report = run_json(capsys, "kemeny", ballots)
    family_report = run_json(
        capsys, "family", ballots, "--gamma0", "9", "--gamma1", "4", "--gamma2", "1"
    )
    shared = ("n", "voter_total", "scores", "winners", "tiers")
    kemeny_payload = json.dumps({k: kemeny_report[k] for k in shared}, sort_keys=True)
    family_payload = json.dumps({k: family_report[k] for k in shared}, sort_keys=True)
    assert kemeny_payload == family_payload


def test_decompose_constant_profile(tmp_path, capsys):
    ballots = write_json(
        tmp_path / "b.json",
        {
            "n": 3,
            "shape": [1, 1, 1],
            "ballots": [
                {"ranking": [[a], [b], [c]], "count": 2}
                for a, b, c in (
                    (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)
                )
            ],
        },
    )
    report = run_json(capsys, "decompose", ballots)
    assert report["norm2"]["eigen1"] == 0
    assert report["norm2"]["eigen2"] == 0
    assert report["norm2"]["residual"] == 0
    assert report["components"]["eigen0"]["values"] == {str(r): 2 for r in range(6)}


def test_game_solve_shapley(tmp_path, capsys):
    game = write_json(tmp_path / "g.json", GLOVE_GAME)
    report = run_json(capsys, "game-solve", "--game", game)
    assert report["payoffs"] == {"1": "2/3", "2": "1/6", "3": "1/6"}
    assert report["payoff_total"] == 1
    assert report["grand_value"] == 1
    assert report["concept"] == "shapley"


def test_game_solve_with_marginal_file(tmp_path, capsys):
    game = write_json(tmp_path / "g.json", GLOVE_GAME)
    marginal = write_json(tmp_path / "m.json", {"m": ["1/3", "1/6", "1/3"]})
    report = run_json(capsys, "game-solve", "--game", game, "--marginal", marginal)
    assert report["payoffs"] == {"1": "2/3", "2": "1/6", "3": "1/6"}


def test_game_analyze_shapley(tmp_path, capsys):
    coeffs = write_json(tmp_path / "c.json", {"c0": ["0", "0", "1"], "c1": ["1/2", "1/2"]})
    report = run_json(capsys, "game-analyze", "--coeffs", coeffs)
    assert report["efficient"] is True
    assert report["self_dual"] is True
    assert report["marginal"]["exact"] is True
    assert report["marginal"]["m"] == ["1/3", "1/6", "1/3"]


def test_game_analyze_non_marginal(tmp_path, capsys):
    coeffs = write_json(tmp_path / "c.json", {"c0": ["1", "0", "0"], "c1": ["1", "0"]})
    report = run_json(capsys, "game-analyze", "--coeffs", coeffs)
    assert report["efficient"] is False


def test_game_decompose(tmp_path, capsys):
    game = write_json(tmp_path / "g.json", GLOVE_GAME)
    report = run_json(capsys, "game-decompose", "--game", game)
    assert set(report["levels"]) == {"1", "2", "3"}
    for level in report["levels"].values():
        assert level["norm2"]["kernel"] == 0  # n=3 has no kernel at any level


def test_construct_profile_roundtrip(tmp_path, capsys):
    weights = write_json(tmp_path / "w.json", {"weights": ["2", "1", "0"]})
    target = write_json(
        tmp_path / "t.json", {"shape": [1, 2], "values": {"0": "1", "2": "-1"}}
    )
    report = run_json(
        capsys, "construct-profile", "--weights", weights, "--target", target
    )
    assert report["affine_dimension"] == 4
    assert report["scale"] == 1


def test_construct_profile_integer_infeasible(tmp_path, capsys):
    weights = write_json(tmp_path / "w.json", {"weights": ["2", "1", "0"]})
    target = write_json(
        tmp_path / "t.json", {"shape": [1, 2], "values": {"0": "-1", "2": "1"}}
    )
    code, _ = run(
        capsys,
        "construct-profile",
        "--weights",
        weights,
        "--target",
        target,
        "--as-integer-profile",
        "--shift-bound",
        "0",
    )
    assert code == 4


@pytest.mark.parametrize("flags, recorded", [
    ((), "construct_profile_n5.json"),
    (("--as-integer-profile",), "construct_profile_n5_integer.json"),
])
def test_construct_profile_n5_prints_recorded_bytes(tmp_path, capsys, flags, recorded):
    # two rational rules at n=5; the report was recorded from the row-Bareiss solver
    argv = ["construct-profile"]
    for name, weights, target in [
        ("1", ["4", "3", "2", "1", "0"], {"0": "3", "1": "-1/2", "4": "-5/2"}),
        ("2", ["1", "1/2", "0", "0", "0"], {"1": "2", "2": "-1", "3": "-1"}),
    ]:
        argv += ["--weights", write_json(tmp_path / f"w{name}.json", {"weights": weights}),
                 "--target", write_json(tmp_path / f"t{name}.json",
                                        {"shape": [1, 4], "values": target})]
    code, out = run(capsys, *argv, *flags)
    assert code == 0
    assert out == (pathlib.Path(__file__).parent / "cli_outputs" / recorded).read_text(encoding="utf-8")


N5_TIE_BALLOTS = {"n": 5, "ballots": [
    {"ranking": [[1], [2], [3], [4], [5]], "count": 3},
    {"ranking": [[2], [1], [4], [3], [5]], "count": 3},
    {"ranking": [[5], [3], [4], [1], [2]], "count": 2},
    {"ranking": [[4], [5], [3], [2], [1]], "count": 2},
]}


@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("csv", "csv"), ("pretty", "txt")])
@pytest.mark.parametrize("argv", [
    ["tally"], ["kemeny"], ["family", "--gamma0", "1", "--gamma1", "1/2", "--gamma2", "3"],
], ids=lambda argv: argv[0])
def test_voting_n5_prints_recorded_bytes(tmp_path, capsys, argv, fmt, ext):
    # tied winners and tiers in every report; recorded from the Tabloid-based renderers
    ballots = write_json(tmp_path / "b.json", N5_TIE_BALLOTS)
    code, out = run(capsys, argv[0], ballots, *argv[1:], "--format", fmt)
    assert code == 0
    recorded = pathlib.Path(__file__).parent / "cli_outputs" / f"{argv[0]}_n5.{ext}"
    assert out == recorded.read_text(encoding="utf-8")


def test_game_analyze_refuses_both_concept_files(tmp_path, capsys):
    coeffs = write_json(tmp_path / "c.json", {"c0": ["0", "0", "1"], "c1": ["1/2", "1/2"]})
    marginal = write_json(tmp_path / "m.json", {"m": ["1/3", "1/6", "1/3"]})
    assert main(["game-analyze", "--coeffs", coeffs, "--marginal", marginal]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: pass only one of --coeffs, --marginal\n")


def test_game_analyze_needs_a_concept_file(capsys):
    assert main(["game-analyze"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: game-analyze needs --coeffs or --marginal\n")


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _ = run(capsys, "kemeny", str(bad))
    assert code == 2
    code, _ = run(capsys, "kemeny", str(tmp_path / "missing.json"))
    assert code == 2
    code, _ = run(capsys, "game-analyze")
    assert code == 2


def test_exit_code_deeply_nested_json(tmp_path, capsys):
    # 100,000 nested lists used to end in a RecursionError traceback
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert_one_line_parse_error(capsys, ["tally", str(nested)])
    assert_one_line_parse_error(capsys, ["game-solve", "--game", str(nested)])


def test_exit_code_negative_shift_bound(tmp_path, capsys):
    # no shift meets a negative bound; it used to exit 0 with "shift": 0
    weights = write_json(tmp_path / "w.json", {"weights": ["2", "1", "0"]})
    target = write_json(tmp_path / "t.json", {"shape": [1, 2], "values": {"0": "1", "2": "-1"}})
    assert_one_line_parse_error(capsys, [
        "construct-profile", "--weights", weights, "--target", target,
        "--as-integer-profile", "--shift-bound", "-1",
    ])


def test_exit_code_non_integer_count(tmp_path, capsys):
    # a count must be a JSON integer: no fraction, float, boolean or string
    for count in (1.7, 2.0, True, "2"):
        data = dict(TIE_BALLOTS, ballots=[{"ranking": [[1], [2], [3]], "count": count}])
        ballots = write_json(tmp_path / "b.json", data)
        assert main(["tally", ballots]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad ballot #0") and err.count("\n") == 1


def test_exit_code_float_weights(tmp_path, capsys):
    ballots = write_json(tmp_path / "b.json", TIE_BALLOTS)
    for raw in ([1.5, 0.5, 0], ["1", True, "0"], "2,1,0"):
        weights = write_json(tmp_path / "w.json", {"weights": raw})
        assert main(["tally", ballots, "--weights", weights]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def assert_one_line_parse_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_exit_code_non_integer_ballot_n(tmp_path, capsys):
    # "n" must be a JSON integer: 3.7 used to be cut to 3 and tallied
    for n in (3.7, 3.0, True, "3"):
        ballots = write_json(tmp_path / "b.json", dict(TIE_BALLOTS, n=n))
        assert_one_line_parse_error(capsys, ["tally", ballots])


def test_exit_code_non_integer_game_n(tmp_path, capsys):
    # "n": true used to read as n=1, and 3.7 as n=3
    for n in (3.7, 3.0, True, "3"):
        game = write_json(tmp_path / "g.json", dict(GLOVE_GAME, n=n))
        assert_one_line_parse_error(capsys, ["game-solve", "--game", game])


BAD_CONTAINERS = {
    "game-v-list": ("game", {"n": 3, "v": [1, 2]}),
    "game-v-null": ("game", {"n": 3, "v": None}),
    "target-values-list": ("target", {"shape": [1, 2], "values": [1, 0, -1]}),
    "target-shape-string": ("target", {"shape": "12", "values": {"0": 1, "1": -1}}),
    "ranking-int": ("ballots", {"n": 3, "ballots": [{"ranking": 5}]}),
    "ranking-flat": ("ballots", {"n": 3, "ballots": [{"ranking": [1, 2, 3]}]}),
    "ranking-float": ("ballots", {"n": 3, "ballots": [{"ranking": [[1.5], [2], [3]]}]}),
    "ballots-int": ("ballots", {"n": 3, "ballots": 5}),
    "shape-string": ("ballots", dict(TIE_BALLOTS, shape="111")),
    "c0-string": ("coeffs", {"c0": "123", "c1": ["1/2", "1/2"]}),
    "c1-string": ("coeffs", {"c0": ["0", "0", "1"], "c1": "45"}),
    "m-string": ("marginal", {"m": "121"}),
}


@pytest.mark.parametrize("case", sorted(BAD_CONTAINERS))
def test_exit_code_malformed_container(tmp_path, capsys, case):
    # each of these ended in a traceback, or was read one character at a time
    kind, data = BAD_CONTAINERS[case]
    path = write_json(tmp_path / "bad.json", data)
    game = write_json(tmp_path / "g.json", GLOVE_GAME)
    weights = write_json(tmp_path / "w.json", {"weights": ["1", "0", "0"]})
    argv = {
        "game": ["game-solve", "--game", path],
        "target": ["construct-profile", "--weights", weights, "--target", path],
        "ballots": ["tally", path],
        "coeffs": ["game-solve", "--game", game, "--coeffs", path],
        "marginal": ["game-solve", "--game", game, "--marginal", path],
    }[kind]
    assert_one_line_parse_error(capsys, argv)


def test_game_analyze_too_many_players(tmp_path, capsys, monkeypatch):
    def shapley_file(n):
        data = {"c0": ["0"] * (n - 1) + ["1"], "c1": [f"1/{n - 1}"] * (n - 1)}
        return write_json(tmp_path / f"c{n}.json", data)

    assert main(["game-analyze", "--coeffs", shapley_file(17)]) == 2
    assert capsys.readouterr().err == "error: player count must be in 1..16, got 17\n"

    # refused before the O(n^3) marginal fit, so a large concept cannot hang
    def refuse(c):
        raise AssertionError("fit_marginal ran on an oversized concept")

    monkeypatch.setattr(games, "fit_marginal", refuse)
    assert main(["game-analyze", "--coeffs", shapley_file(200)]) == 2
    assert capsys.readouterr().err == "error: player count must be in 1..16, got 200\n"


def test_exit_code_shape_mismatch(tmp_path, capsys):
    ballots = write_json(tmp_path / "b.json", TIE_BALLOTS)
    weights = write_json(tmp_path / "w.json", {"weights": ["3", "2", "1", "0"]})
    code, _ = run(capsys, "tally", ballots, "--weights", weights)
    assert code == 3


def test_exit_code_capacity(tmp_path, capsys):
    n = 11
    ballots = write_json(
        tmp_path / "b.json",
        {
            "n": n,
            "shape": [1] * n,
            "ballots": [{"ranking": [[i] for i in range(1, n + 1)], "count": 1}],
        },
    )
    code, _ = run(capsys, "kemeny", ballots)
    assert code == 5


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_output_file_and_determinism(tmp_path, capsys):
    ballots = write_json(tmp_path / "b.json", TIE_BALLOTS)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["kemeny", ballots, "--output", str(out1)]) == 0
    assert main(["kemeny", ballots, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_and_pretty_formats(tmp_path, capsys):
    ballots = write_json(tmp_path / "b.json", WORKED_BALLOTS)
    code, out = run(capsys, "tally", ballots, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "candidate,score"
    assert "2,18" in out.splitlines()
    code, out = run(capsys, "tally", ballots, "--format", "pretty")
    assert code == 0
    assert "winners: [2]" in out


def test_approx_flag_labels_floats(tmp_path, capsys):
    csv_path = tmp_path / "b.csv"
    csv_path.write_text("1>2>3,1\n", encoding="utf-8")
    weights = write_json(tmp_path / "w.json", {"weights": ["1", "1/3", "0"]})
    report = run_json(capsys, "tally", str(csv_path), "--weights", weights)
    assert "scores_approx" not in report
    report = run_json(capsys, "tally", str(csv_path), "--weights", weights, "--approx")
    assert report["scores_approx"]["2"] == "0.333333333333"
    assert report["scores"]["2"] == "1/3"


def test_console_entry_point(tmp_path):
    ballots = write_json(tmp_path / "b.json", TIE_BALLOTS)
    proc = subprocess.run(
        [sys.executable, "-m", "tabloids", "kemeny", ballots],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["winners"] == ["1>2>3", "3>1>2"]

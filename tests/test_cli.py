import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from elimgame.cli import main
from elimgame.core import MAX_VOTERS
from elimgame.sweep import MC_CHUNK
from helpers import profile, seq


EXAMPLE1 = "a b c d e\ne d c b a\nd e b c a\n"
EXAMPLE2 = "a b c d\nc b a d\nc a d b\n"
MIXED4 = "a b c d e f\ne d c b a f\nf d e b c a\na f e c d b\n"


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, text, name="profile.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSolve:
    def test_sincere(self, tmp_path, capsys):
        path = write(tmp_path, EXAMPLE1)
        code, out, _ = run_main(
            capsys, "solve", "--profile", path, "--sequence", "1,2,3,1"
        )
        assert code == 0
        report = json.loads(out)
        assert report["winner"] == "b"
        assert [s["eliminated"] for s in report["steps"]] == ["e", "a", "c", "d"]

    def test_strategic(self, tmp_path, capsys):
        path = write(tmp_path, EXAMPLE2)
        code, out, _ = run_main(
            capsys, "solve", "--profile", path, "--sequence", "1,2,3",
            "--behavior", "strategic",
        )
        assert code == 0
        assert json.loads(out)["winner"] == "a"

    def test_oracle(self, tmp_path, capsys):
        path = write(tmp_path, EXAMPLE2)
        code, out, _ = run_main(
            capsys, "solve", "--profile", path, "--sequence", "1,2,3",
            "--behavior", "oracle",
        )
        assert code == 0
        assert json.loads(out)["winner"] == "a"

    def test_mixed(self, tmp_path, capsys):
        path = write(tmp_path, "a b c d\nc b a d\nb c a d\n")
        code, out, _ = run_main(
            capsys, "solve", "--profile", path, "--sequence", "1,2,3",
            "--behavior", "mixed", "--sincere-set", "1,3",
        )
        assert code == 0
        assert json.loads(out)["winner"] == "c"

    def test_mixed_four_voters(self, tmp_path, capsys):
        path = write(tmp_path, MIXED4)
        code, out, _ = run_main(
            capsys, "solve", "--profile", path, "--sequence", "1,2,3,4,4",
            "--behavior", "mixed", "--sincere-set", "2,4",
        )
        assert code == 0
        assert json.loads(out)["winner"] == "c"

    def test_stdin_profile(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(EXAMPLE1))
        code, out, _ = run_main(
            capsys, "solve", "--profile", "-", "--sequence", "1,2,3,1"
        )
        assert code == 0
        assert json.loads(out)["winner"] == "b"


class TestExitCodes:
    def test_profile_parse_error_is_2(self, tmp_path, capsys):
        path = write(tmp_path, "a b c\nb b c\n")
        code, _, err = run_main(
            capsys, "solve", "--profile", path, "--sequence", "1,2"
        )
        assert code == 2
        assert "line 2" in err and "PARSE_ERROR" in err

    def test_sequence_parse_error_is_2(self, tmp_path, capsys):
        path = write(tmp_path, EXAMPLE2)
        code, _, err = run_main(
            capsys, "solve", "--profile", path, "--sequence", "1,x,3"
        )
        assert code == 2

    def test_missing_file_is_2(self, capsys):
        code, _, err = run_main(
            capsys, "solve", "--profile", "/nonexistent/p.txt", "--sequence", "1"
        )
        assert code == 2

    def test_length_mismatch_is_3(self, tmp_path, capsys):
        path = write(tmp_path, EXAMPLE2)
        code, _, err = run_main(
            capsys, "solve", "--profile", path, "--sequence", "1,2"
        )
        assert code == 3
        assert "SEQUENCE_LENGTH_MISMATCH" in err

    def test_unknown_sincere_voter_is_3(self, tmp_path, capsys):
        path = write(tmp_path, EXAMPLE2)
        code, _, err = run_main(
            capsys, "solve", "--profile", path, "--sequence", "1,2,3",
            "--behavior", "mixed", "--sincere-set", "9",
        )
        assert code == 3
        assert err == "error [INVALID_VOTER]: voter 9 outside 1..3\n"

    def test_sincere_set_outside_mixed_is_2(self, tmp_path, capsys):
        # voter 9 of 2 would name no voter, but the set is refused before the
        # profile is read, for every behavior but mixed
        path = write(tmp_path, "a b c\nb c a\n")
        for behavior in ["sincere", "strategic", "oracle"]:
            code, out, err = run_main(
                capsys, "solve", "--profile", path, "--sequence", "1,2",
                "--behavior", behavior, "--sincere-set", "9",
            )
            assert (code, out) == (2, "")
            assert err == ("error [PARSE_ERROR]: "
                           "--sincere-set applies only to --behavior mixed\n")
        code, _, err = run_main(capsys, "solve", "--profile", "/nonexistent/p.txt",
                                "--sequence", "1,2", "--sincere-set", "1")
        assert code == 2 and "--sincere-set" in err
        # mixed without the set still plays every voter strategically
        winners = [json.loads(run_main(capsys, "solve", "--profile", path, "--sequence", "1,2",
                                       "--behavior", behavior)[1])["winner"]
                   for behavior in ["mixed", "strategic"]]
        assert winners[0] == winners[1]

    def test_bad_sincere_set_text_is_2(self, tmp_path, capsys):
        path = write(tmp_path, EXAMPLE2)
        code, _, err = run_main(
            capsys, "solve", "--profile", path, "--sequence", "1,2,3",
            "--behavior", "mixed", "--sincere-set", "one",
        )
        assert code == 2

    def test_digits_int_refuses_are_2(self, tmp_path, capsys):
        # "²" is a digit but no decimal one: both lists are refused with one
        # line, not a traceback
        path = write(tmp_path, EXAMPLE2)
        runs = [["bounds", "--n", "2", "--m", "3", "--sequence", "²,1"],
                ["solve", "--profile", path, "--sequence", "1,2,3",
                 "--behavior", "mixed", "--sincere-set", "²"]]
        for argv in runs:
            code, out, err = run_main(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.count("\n") == 1 and "'²'" in err

    def test_fullwidth_digits_are_voters(self, tmp_path, capsys):
        path = write(tmp_path, EXAMPLE2)
        code, out, _ = run_main(capsys, "solve", "--profile", path, "--sequence", "１,2,3",
                                "--behavior", "mixed", "--sincere-set", "１")
        assert code == 0
        code, plain, _ = run_main(capsys, "solve", "--profile", path, "--sequence", "1,2,3",
                                  "--behavior", "mixed", "--sincere-set", "1")
        assert out == plain

    def test_oracle_tree_guard_is_3(self, tmp_path, capsys):
        # solve's oracle and extremal's re-check refuse 11 candidates in one
        # line that names the limit and no option the command line lacks
        m = 11
        row = " ".join(f"c{i}" for i in range(1, m + 1))
        path = write(tmp_path, f"{row}\n{row}\n")
        turns = ",".join(["1"] * (m - 1))
        for argv in [("solve", "--profile", path, "--sequence", turns, "--behavior", "oracle"),
                     ("extremal", "--n", "2", "--m", str(m), "--sequence", turns, "--oracle")]:
            code, out, err = run_main(capsys, *argv)
            assert (code, out) == (3, "")
            assert err == ("error [TREE_TOO_LARGE]: 11 candidates means 2**11 subgames; "
                           "the game-tree oracle stops at 10 candidates\n")

    def test_budget_exceeded_is_5_and_force_overrides(self, capsys, monkeypatch):
        monkeypatch.setenv("ELIMGAME_BUDGET", "10")
        args = ["exhaustive", "--n", "2", "--m", "4", "--sequence", "1,2,1"]
        code, _, err = run_main(capsys, *args)
        assert code == 5
        assert "--force" in err
        code, out, _ = run_main(capsys, *(args + ["--force"]))
        assert code == 0

    def test_force_admits_every_space_under_2_63(self, capsys):
        # 6**24 pinned profiles lie between 2**62 and 2**63; --force used to
        # pass a budget of 2**62 and refuse them with exit 5
        code, out, err = run_main(
            capsys, "exhaustive", "--n", "25", "--m", "3", "--sequence", "1,2",
            "--mode", "cb", "--force",
        )
        assert (code, err) == (0, "")
        assert 1 << 62 < 6**24 < 1 << 63
        assert json.loads(out.splitlines()[-1])["count"] == 6**24

    def test_position_table_over_1_gib_is_5(self, capsys, monkeypatch):
        # refused before the 5.4 GiB table of m = 12 is built, even with --force
        def no_table(m):
            raise AssertionError("the position table was built")

        monkeypatch.setattr("elimgame.sweep.permutation_table", no_table)
        code, out, err = run_main(
            capsys, "exhaustive", "--n", "2", "--m", "12",
            "--sequence", ",".join("12" * 5 + "1"), "--force",
        )
        assert code == 5
        assert out == ""
        assert err.count("\n") == 1 and "m <= 11" in err

    def test_single_voter_over_budget_is_3(self, capsys, monkeypatch):
        # the closed forms' domain is checked before the budget
        monkeypatch.setenv("ELIMGAME_BUDGET", "10")
        code, out, err = run_main(
            capsys, "exhaustive", "--n", "1", "--m", "4", "--sequence", "1,1,1",
            "--no-fix-first",
        )
        assert code == 3
        assert out == ""
        assert err == "error [OUT_OF_DOMAIN]: closed-form bounds assume at least two voters\n"

    def test_malformed_budget_is_2(self, capsys, monkeypatch):
        monkeypatch.setenv("ELIMGAME_BUDGET", "lots")
        code, out, err = run_main(
            capsys, "exhaustive", "--n", "2", "--m", "4", "--sequence", "1,2,1"
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "ELIMGAME_BUDGET" in err

    def test_negative_budget_is_2(self, capsys, monkeypatch):
        # it used to refuse the study as "over the budget of -1" with exit 5
        monkeypatch.setenv("ELIMGAME_BUDGET", "-1")
        code, out, err = run_main(
            capsys, "exhaustive", "--n", "2", "--m", "4", "--sequence", "1,2,1"
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "ELIMGAME_BUDGET" in err and "-1" in err

    def test_unwritable_out_is_2_before_the_study(self, capsys, monkeypatch, tmp_path):
        # the study used to run and print its report before the write failed
        def no_study(config):
            raise AssertionError("the study ran")

        monkeypatch.setattr("elimgame.experiments.run_experiment", no_study)
        for command in (["exhaustive"], ["montecarlo", "--samples", "10"]):
            code, out, err = run_main(
                capsys, *command, "--n", "2", "--m", "3", "--sequence", "1,2",
                "--out", str(tmp_path / "missing" / "hist.csv"),
            )
            assert code == 2
            assert out == ""
            assert err.count("\n") == 1 and "No such file or directory" in err

    def test_refused_study_leaves_out_paths_alone(self, capsys, monkeypatch, tmp_path):
        # checking --out before the study creates nothing and changes no byte
        monkeypatch.setenv("ELIMGAME_BUDGET", "10")
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_text("kept\n")
        for path in (old, new):
            code, out, _ = run_main(
                capsys, "exhaustive", "--n", "2", "--m", "4", "--sequence", "1,2,1",
                "--out", str(path),
            )
            assert code == 5 and out == ""
        assert old.read_text() == "kept\n" and not new.exists()

    def test_infeasible_construction_is_4(self, capsys):
        code, _, err = run_main(
            capsys, "extremal", "--n", "3", "--m", "7",
            "--sequence", "1,2,3,3,2,1", "--mode", "sr",
        )
        assert code == 4
        assert "STRUCTURE_UNSATISFIABLE" in err

    def test_phi_out_of_range_is_3(self, capsys):
        code, _, err = run_main(
            capsys, "montecarlo", "--n", "2", "--m", "3", "--sequence", "1,2",
            "--culture", "mallows:phi=1.5", "--samples", "10",
        )
        assert code == 3

    def test_bad_culture_is_2(self, capsys):
        code, _, err = run_main(
            capsys, "montecarlo", "--n", "2", "--m", "3", "--sequence", "1,2",
            "--culture", "urn", "--samples", "10",
        )
        assert code == 2

    def test_bare_mallows_needs_phi(self, capsys):
        code, _, err = run_main(
            capsys, "montecarlo", "--n", "2", "--m", "3", "--sequence", "1,2",
            "--culture", "mallows", "--samples", "10",
        )
        assert code == 2

    def test_phi_needs_bare_mallows(self, capsys):
        code, _, err = run_main(
            capsys, "montecarlo", "--n", "2", "--m", "3", "--sequence", "1,2",
            "--culture", "mallows:phi=0.5", "--phi", "0.2", "--samples", "10",
        )
        assert code == 2
        assert "phi" in err and "Traceback" not in err

    def test_random_reference_requires_mallows(self, capsys):
        code, _, err = run_main(
            capsys, "montecarlo", "--n", "2", "--m", "3", "--sequence", "1,2",
            "--culture", "ic", "--reference", "random", "--samples", "10",
        )
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["exhaustive", "--workers", "0"],
            ["exhaustive", "--bins", "0"],
            ["montecarlo", "--samples", "10", "--workers", "0"],
            ["montecarlo", "--samples", "0"],
            ["montecarlo", "--samples", "10", "--bins", "0"],
        ],
    )
    def test_count_flags_below_one_are_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--n", "2", "--m", "3", "--sequence", "1,2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {argv[-2]}: must be at least 1, got 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [["exhaustive", "--workers", "two"], ["montecarlo", "--samples", "1e3"]],
    )
    def test_non_integer_count_flags_are_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--n", "2", "--m", "3", "--sequence", "1,2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {argv[-2]}: invalid int value: {argv[-1]!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["exhaustive"], ["montecarlo", "--samples", "10"]])
    def test_bins_above_cap_are_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--bins", str(10**8), "--n", "2", "--m", "3", "--sequence", "1,2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --bins: must be at most 100000, got {10**8}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("workers,samples", [("1", "10"), ("2", "70000")])
    def test_more_than_127_candidates_is_3(self, capsys, workers, samples):
        m = 130
        code, out, err = run_main(
            capsys, "montecarlo", "--n", "2", "--m", str(m),
            "--sequence", ",".join("12"[i % 2] for i in range(m - 1)),
            "--samples", samples, "--workers", workers,
        )
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "OUT_OF_DOMAIN" in err

    @pytest.mark.parametrize("n", [MAX_VOTERS + 1, 10**13])
    @pytest.mark.parametrize("command", ["bounds", "extremal", "exhaustive", "montecarlo"])
    def test_more_voters_than_the_ceiling_is_3(self, capsys, command, n):
        # 10**13 voters used to end in a MemoryError traceback from a
        # per-voter list; the ceiling is the Monte-Carlo chunk's row budget
        assert MAX_VOTERS == MC_CHUNK
        extra = ["--samples", "10"] if command == "montecarlo" else []
        code, out, err = run_main(
            capsys, command, "--n", str(n), "--m", "3", "--sequence", "1,2", *extra)
        assert code == 3
        assert out == ""
        assert err == f"error [OUT_OF_DOMAIN]: at most {MAX_VOTERS} voters are supported, got {n}\n"

    def test_the_voter_ceiling_itself_is_accepted(self, capsys):
        code, out, _ = run_main(capsys, "bounds", "--n", str(MAX_VOTERS), "--m", "3",
                                "--sequence", "1,2")
        assert code == 0
        assert json.loads(out)["occurrences"] == [1, 1] + [0] * (MAX_VOTERS - 2)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_outside_64_bits_is_2(self, capsys, seed):
        # seeds used to wrap modulo 2**64: 2**64 gave the statistics of 0
        code, out, err = run_main(
            capsys, "montecarlo", "--n", "2", "--m", "3", "--sequence", "1,2",
            "--samples", "10", "--seed", str(seed),
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "PARSE_ERROR" in err and str(seed) in err


class TestStudies:
    def test_exhaustive_report(self, tmp_path, capsys):
        out_path = tmp_path / "hist.csv"
        code, out, _ = run_main(
            capsys, "exhaustive", "--n", "2", "--m", "4", "--sequence", "1,2,1",
            "--mode", "cb", "--bins", "8", "--out", str(out_path),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sequence,n,m,mode,culture,phi,count,mean,std,max_num,max_den"
        assert lines[1].startswith("121,2,4,cb,exhaustive,,24,")
        summary = json.loads(lines[2])
        assert summary["count"] == 24
        hist = out_path.read_text().splitlines()
        assert hist[0] == "bin_left,bin_right,count"
        assert sum(int(l.rsplit(",", 1)[1]) for l in hist[1:]) == 24

    def test_exhaustive_no_fix_first(self, capsys):
        code, out, _ = run_main(
            capsys, "exhaustive", "--n", "2", "--m", "3", "--sequence", "1,2",
            "--no-fix-first",
        )
        assert code == 0
        assert json.loads(out.splitlines()[2])["count"] == 36

    def test_montecarlo_report(self, capsys):
        code, out, _ = run_main(
            capsys, "montecarlo", "--n", "3", "--m", "5", "--sequence", "1,2,3,1",
            "--mode", "cb", "--culture", "mallows", "--phi", "0.7",
            "--samples", "500", "--seed", "11",
        )
        assert code == 0
        summary = json.loads(out.splitlines()[2])
        assert summary["samples"] == 500 and summary["seed"] == 11
        assert summary["phi"] == 0.7
        assert summary["count"] == 500

    def test_montecarlo_worker_invariance_in_process(self, capsys):
        args = [
            "montecarlo", "--n", "2", "--m", "4", "--sequence", "2,1,1",
            "--samples", "3000", "--seed", "6",
        ]
        _, out1, _ = run_main(capsys, *args, "--workers", "1")
        _, out2, _ = run_main(capsys, *args, "--workers", "4")
        assert out1 == out2


class TestExtremalAndBounds:
    def test_extremal_poa(self, capsys):
        code, out, _ = run_main(
            capsys, "extremal", "--n", "2", "--m", "8",
            "--sequence", "1,1,1,2,2,2,1", "--oracle",
        )
        assert code == 0
        *profile_lines, payload = out.strip().splitlines()
        assert len(profile_lines) == 2
        report = json.loads(payload)
        assert report["achieved"] == {"num": 10, "den": 7, "float": 10 / 7}
        assert report["attained"] is True
        assert report["oracle_agrees"] is True
        assert report["x"] == 1

    def test_extremal_sr_example(self, capsys):
        code, out, _ = run_main(
            capsys, "extremal", "--n", "3", "--m", "7",
            "--sequence", "1,1,2,1,3,1", "--mode", "sr",
        )
        assert code == 0
        report = json.loads(out.strip().splitlines()[-1])
        assert report["achieved"]["num"] == 16 and report["achieved"]["den"] == 7
        assert report["attained"] is True

    def test_extremal_sr_tied_busiest_voters(self, capsys):
        # voters 1 and 2 both have two turns; only voter 2 admits a helper
        code, out, _ = run_main(
            capsys, "extremal", "--n", "2", "--m", "5",
            "--sequence", "2,1,2,1", "--mode", "sr",
        )
        assert code == 0
        report = json.loads(out.strip().splitlines()[-1])
        assert report["attained"] is True and report["x"] == 2
        assert report["achieved"]["num"] == 6 and report["achieved"]["den"] == 5

    def test_bounds(self, capsys):
        code, out, _ = run_main(
            capsys, "bounds", "--n", "2", "--m", "8", "--sequence", "1,1,1,2,2,2,1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["o_max"] == 4
        assert payload["occurrences"] == [4, 3]
        assert payload["poa"] == {"num": 10, "den": 7, "float": 10 / 7}
        assert payload["sr_upper_bound"]["num"] == 11
        assert payload["palindromic"] is False

    def test_bounds_palindromic_flag(self, capsys):
        code, out, _ = run_main(
            capsys, "bounds", "--n", "3", "--m", "7", "--sequence", "1,2,3,3,2,1"
        )
        assert code == 0
        assert json.loads(out)["palindromic"] is True


class TestConsoleScript:
    @pytest.mark.skipif(shutil.which("elimgame") is None,
                        reason="the elimgame console script is not installed on PATH")
    def test_installed_entry_point_round_trip(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text(EXAMPLE1)
        proc = subprocess.run(
            ["elimgame", "solve", "--profile", str(path), "--sequence", "1,2,3,1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["winner"] == "b"

    def test_declared_entry_point_round_trip(self, tmp_path, capsys, monkeypatch):
        # Read the [project.scripts] target and call it the way the generated
        # console-script wrapper does: sys.exit(main()) with argv in sys.argv.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["elimgame"]
        module_name, _, attr = target.partition(":")
        entry = getattr(importlib.import_module(module_name), attr)
        path = write(tmp_path, EXAMPLE1, "p.txt")
        monkeypatch.setattr(sys, "argv",
                            ["elimgame", "solve", "--profile", path, "--sequence", "1,2,3,1"])
        with pytest.raises(SystemExit) as exc:
            sys.exit(entry())
        assert exc.value.code == 0
        assert json.loads(capsys.readouterr().out)["winner"] == "b"

    @pytest.mark.parametrize("preset,want", [(None, "1"), ("3", "3")])
    def test_studies_run_blas_single_threaded_by_default(self, preset, want):
        # the package calls no BLAS routine, so a study keeps OpenBLAS from
        # starting a spinning thread pool; a value the user set still wins
        script = (
            "import contextlib, io, os, sys\n"
            "from elimgame.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            "print(code, os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules)\n"
            "if os.path.isdir('/proc/self/task'):\n"
            "    print(len(os.listdir('/proc/self/task')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run(
            [sys.executable, "-c", script, "montecarlo", "--n", "2", "--m", "3",
             "--sequence", "1,2", "--samples", "10"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0].split() == ["0", want, "True"]
        if preset is None and len(lines) > 1:
            # set before numpy loaded: OpenBLAS started no thread of its own
            assert lines[1] == "1"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "elimgame", "bounds", "--n", "2", "--m", "4",
             "--sequence", "1,2,1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["o_max"] == 2

"""Tests for the command line interface: parsing, outputs, exit codes."""

import csv
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

import ellgt.cli
from ellgt.cli import (
    _dynamical,
    _params,
    _parse_bool,
    _parse_complex,
    _parse_complex_list,
    _parse_shape,
    _shape,
    build_parser,
    load_config_file,
    main,
    parse_args,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestParsers:
    def test_complex_forms(self):
        assert _parse_complex("0.25") == 0.25 + 0j
        assert _parse_complex("0.25,-0.5") == 0.25 - 0.5j
        assert _parse_complex_list("1,2;3") == (1 + 2j, 3 + 0j)

    def test_shape(self):
        assert _parse_shape("2,2,1") == (2, 2, 1)

    def test_bool(self):
        assert _parse_bool("true") is True
        assert _parse_bool("0") is False
        with pytest.raises(ValueError):
            _parse_bool("maybe")


class TestConfigFile:
    def test_flat_key_value_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# sweep settings\n"
            "q = 0.45\n"
            "seed=7\n"
            "\n"
            "lambda = 2,1\n"
            "suite = theta, shuffle\n"
            "inject_bug = yes\n"
        )
        values = load_config_file(str(path), "verify")
        assert values == {
            "q": 0.45,
            "seed": 7,
            "lambda": (2, 1),
            "suite": ("theta", "shuffle"),
            "inject_bug": True,
        }

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("qq = 0.5\n")
        with pytest.raises(SystemExit):
            load_config_file(str(path), "verify")

    @pytest.mark.parametrize(
        "command, line",
        [
            ("verify", "left = 1"),
            ("shuffle", "samples = 3"),
            ("rmat", "lambda = 2,1"),
            ("weights", "workers = 2"),
        ],
    )
    def test_key_of_another_subcommand_rejected(self, tmp_path, command, line):
        path = tmp_path / "other.cfg"
        path.write_text(line + "\n")
        with pytest.raises(SystemExit, match="is not read by"):
            parse_args([command, "--config", str(path)])

    @pytest.mark.parametrize(
        "line", ["seed = seven", "check = bogus", "P =", "P = ,", "out ="]
    )
    def test_bad_value_rejected(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises(SystemExit):
            load_config_file(str(path), "rmat")

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        with pytest.raises(SystemExit):
            load_config_file(str(path), "verify")

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("q = 0.45\nseed = 7\nsamples = 9\n")
        args = parse_args(["verify", "--config", str(path), "--seed", "11"])
        assert args.q == 0.45
        assert args.seed == 11
        assert args.samples == 9

    def test_file_shape_maps_to_lambda(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lambda = 2,1\nsuite = theta,shuffle\n")
        args = parse_args(["verify", "--config", str(path)])
        assert getattr(args, "lambda") == (2, 1)
        assert args.suite == ("theta", "shuffle")


class TestRunConfig:
    """Inputs resolved from the parsed flags of one run."""

    @staticmethod
    def args(*argv):
        return build_parser().parse_args(list(argv))

    def test_resolved_shape_prefers_explicit(self):
        assert _shape(self.args("weights", "--lambda", "2,1")) == (2, 1)
        assert _shape(self.args("weights", "--N", "2", "--n", "4")) == (2, 2)
        assert _shape(self.args("gtbasis", "--N", "3")) == (1, 1, 1)
        assert _shape(self.args("weights", "--N", "4")) == (1, 1, 1, 1)
        assert _shape(self.args("weights")) == (2, 1)

    def test_validation_failures(self):
        # weights and gtbasis check the shape themselves; verify reports
        # what VerifyConfig refuses.
        for argv, message in [
            (["weights", "--N", "2", "--lambda", "1,1,1"], "exactly N parts"),
            (["gtbasis", "--lambda", "2,1", "--n", "4"], "sum to --n"),
            (["verify", "--N", "2", "--lambda", "1,1,1"], "equal the rank N"),
            (["verify", "--lambda", "2,1", "--n", "4"], "module size n"),
            (["verify", "--samples", "0"], "samples must be positive"),
            (["verify", "--tol", "0"], "tolerance must be positive"),
            (["verify", "--suite", "gt", "--n", "0"], "at least 1"),
            (["verify", "--suite", "gt", "--n", "-1"], "at least 1"),
            (["verify", "--suite", "weights", "--lambda", "3,-1", "--n", "2"],
             "block sizes must be nonnegative"),
            (["verify", "--suite", "gt", "--lambda", "3,-1", "--n", "2"],
             "block sizes must be nonnegative"),
            # Elliptic parameters are checked before any work starts.
            (["rmat", "--q", "2"], "0 < \\|q\\| < 1"),
            (["verify", "--suite", "theta", "--q", "2", "--samples", "1"],
             "0 < \\|q\\| < 1"),
            (["gtbasis", "--r", "-1"], "r > 0"),
            (["verify", "--r", "0"], "r > 0"),
            (["weights", "--truncation", "0"], "truncation_order must be >= 1"),
            (["verify", "--truncation", "0"], "truncation_order must be >= 1"),
        ]:
            with pytest.raises(SystemExit, match=message):
                main(argv)

    def test_dynamical_pads_with_zeros(self):
        args = self.args("rmat", "--P", "0.7")
        dyn = _dynamical(args, _params(args, 2), np.random.default_rng(0))
        assert dyn.values[0] == 0.7
        assert dyn.values[1] == 0.0

    def test_dynamical_rejects_excess_components(self):
        args = self.args("rmat", "--P", "0.7,0.1,0.2")
        with pytest.raises(SystemExit, match="more components than N"):
            _dynamical(args, _params(args, 2), np.random.default_rng(0))


class TestFlagTable:
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("rmat", "--lambda"),
            ("rmat", "--n"),
            ("rmat", "--workers"),
            ("weights", "--samples"),
            ("weights", "--workers"),
            ("gtbasis", "--samples"),
            ("gtbasis", "--workers"),
            ("shuffle", "--lambda"),
            ("shuffle", "--n"),
            ("shuffle", "--samples"),
            ("shuffle", "--workers"),
        ],
    )
    def test_unread_flag_is_a_usage_error(self, capsys, command, flag):
        value = "2,1" if flag == "--lambda" else "2"
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, flag, value])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["rmat", "--P", ""],
            ["weights", "--lambda", ""],
            ["weights", "--z-values", ";"],
            ["shuffle", "--left", ""],
            ["verify", "--suite", ","],
            ["verify", "--out", ""],
        ],
    )
    def test_empty_value_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "invalid" in capsys.readouterr().err

    def test_inject_bug_is_a_bare_flag(self):
        assert parse_args(["verify", "--inject-bug"]).inject_bug is True
        assert parse_args(["verify"]).inject_bug is False

    def test_readme_commands_parse(self):
        text = README.read_text()
        block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
        block = block.split("```", 1)[0]
        lines = [
            line.split(";", 1)[0]
            for line in block.splitlines()
            if line.startswith("ellgt ")
        ]
        assert len(lines) >= 9
        for line in lines:
            build_parser().parse_args(shlex.split(line)[1:])


class TestRmat:
    def test_point_dump_shape(self, tmp_path, capsys):
        out = tmp_path / "rmat.json"
        code = main(
            [
                "rmat",
                "--N",
                "2",
                "--u",
                "0.2",
                "--P",
                "0.7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["N"] == 2
        assert payload["u"] == [0.2, 0.0]
        assert len(payload["matrix"]) == 4
        assert all(len(row) == 4 for row in payload["matrix"])

    def test_zero_point_is_the_permutation(self, capsys):
        code = main(["rmat", "--N", "2", "--u", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        matrix = np.array(
            [[complex(re, im) for re, im in row] for row in payload["matrix"]]
        )
        perm = np.zeros((4, 4))
        perm[0, 0] = perm[3, 3] = perm[1, 2] = perm[2, 1] = 1.0
        assert np.array_equal(matrix, perm)

    def test_dybe_sweep_passes_and_writes_csv(self, tmp_path, capsys):
        code = main(
            [
                "rmat",
                "--N",
                "2",
                "--check",
                "dybe",
                "--samples",
                "5",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "pass" in capsys.readouterr().out
        rows = read_csv(tmp_path / "rmat_dybe.csv")
        assert rows[0] == [
            "sample",
            "u1_re",
            "u1_im",
            "u2_re",
            "u2_im",
            "u3_re",
            "u3_im",
            "residual",
        ]
        assert len(rows) == 6
        assert all(float(row[-1]) < 1e-8 for row in rows[1:])

    def test_unitarity_sweep(self, capsys):
        code = main(
            ["rmat", "--N", "3", "--check", "unitarity", "--samples", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "unitarity: 4 samples" in out

    def test_unreachable_tolerance_exits_nonzero(self, capsys):
        code = main(
            [
                "rmat",
                "--check",
                "dybe",
                "--samples",
                "3",
                "--tol",
                "1e-30",
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bad_check_name_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["rmat", "--check", "nonsense"])

    def test_nan_residual_fails_the_sweep(self, monkeypatch, capsys):
        calls = []
        clean = ellgt.cli.dybe_residual

        def nan_once(*args):
            calls.append(None)
            return math.nan if len(calls) == 2 else clean(*args)

        monkeypatch.setattr(ellgt.cli, "dybe_residual", nan_once)
        code = main(["rmat", "--check", "dybe", "--samples", "4"])
        assert code == 1
        assert "max residual nan, FAIL" in capsys.readouterr().out


class TestWeights:
    def test_writes_three_tables(self, tmp_path, capsys):
        code = main(
            ["weights", "--lambda", "2,1", "--out", str(tmp_path)]
        )
        assert code == 0
        assert "pass" in capsys.readouterr().out
        for name in (
            "weights_specialization.csv",
            "weights_orthogonality.csv",
            "weights_restriction.csv",
        ):
            assert (tmp_path / name).exists()

    def test_specialization_is_triangular(self, tmp_path, capsys):
        main(["weights", "--lambda", "2,1", "--out", str(tmp_path)])
        capsys.readouterr()
        rows = read_csv(tmp_path / "weights_specialization.csv")
        assert [row[0] for row in rows[1:]] == ["112", "121", "211"]
        for i, row in enumerate(rows[1:]):
            for j in range(len(rows) - 1):
                re = float(row[1 + 2 * j])
                im = float(row[2 + 2 * j])
                if j < i:
                    assert re == 0.0 and im == 0.0
                if j == i:
                    assert abs(complex(re, im)) > 1e-12

    def test_orthogonality_table_is_the_identity(self, tmp_path, capsys):
        main(["weights", "--lambda", "2,1", "--out", str(tmp_path)])
        capsys.readouterr()
        rows = read_csv(tmp_path / "weights_orthogonality.csv")
        for i, row in enumerate(rows[1:]):
            for j in range(len(rows) - 1):
                value = complex(
                    float(row[1 + 2 * j]), float(row[2 + 2 * j])
                )
                target = 1.0 if i == j else 0.0
                assert abs(value - target) < 1e-8


class TestGtbasis:
    def test_matrix_dump_and_defect(self, tmp_path, capsys):
        code = main(
            ["gtbasis", "--lambda", "2,1", "--out", str(tmp_path)]
        )
        assert code == 0
        assert "{" not in capsys.readouterr().out
        payload = json.loads((tmp_path / "gtbasis.json").read_text())
        assert payload["shape"] == [2, 1]
        assert payload["recursion_vs_weights_defect"] < 1e-6
        rows = read_csv(tmp_path / "gtbasis_matrix.csv")
        assert len(rows) == 1 + len(payload["words"])

    def test_json_on_stdout_without_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["gtbasis", "--lambda", "2,1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"wrote {Path('gtbasis_matrix.csv')}\n")
        assert json.loads(out[out.index("{") :])["shape"] == [2, 1]
        assert not (tmp_path / "gtbasis.json").exists()

    def test_rank_without_shape_sets_the_parts(self, tmp_path, capsys):
        # With neither --lambda nor --n, N above 2 gives N parts of 1.
        assert main(["gtbasis", "--N", "4", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "gtbasis.json").read_text())
        assert payload["shape"] == [1, 1, 1, 1]
        assert len(payload["P"]) == 4


class TestShuffle:
    def test_two_letters_concatenate(self, capsys):
        code = main(["shuffle", "--left", "1", "--right", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        coeffs = {
            word: complex(re, im)
            for word, (re, im) in zip(
                payload["words"], payload["coefficients"]
            )
        }
        assert set(coeffs) == {"12", "21"}
        assert abs(coeffs["12"] - 1.0) < 1e-12
        assert abs(coeffs["21"]) < 1e-12
        assert payload["expansion_residual"] < 1e-8

    def test_rank_inferred_from_letters(self, capsys):
        code = main(["shuffle", "--left", "3", "--right", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(len(word) == 2 for word in payload["words"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--left", "3", "--N", "2"], "--left letters must lie in \\[1, 2\\]"),
            (["--right", "0"], "--right letters must lie in \\[1, 2\\]"),
            (["--left", "1a"], "--left must be a word of digits"),
        ],
        ids=["above-N", "zero", "not-a-digit"],
    )
    def test_bad_letters_are_refused(self, argv, message):
        with pytest.raises(SystemExit, match=f"^error: {message}"):
            main(["shuffle", *argv])


class TestVerify:
    def test_report_written_and_summary_printed(self, tmp_path, capsys):
        code = main(
            [
                "verify",
                "--suite",
                "theta,shuffle",
                "--samples",
                "4",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verify pass" in out
        assert "digest" in out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert [entry["suite"] for entry in report["suites"]] == [
            "theta",
            "shuffle",
        ]
        assert report["pass"] is True

    def test_reports_are_bit_identical_across_runs(self, tmp_path, capsys):
        args = [
            "verify",
            "--suite",
            "theta",
            "--samples",
            "4",
            "--seed",
            "5",
        ]
        main(args + ["--out", str(tmp_path / "a.json")])
        main(args + ["--out", str(tmp_path / "b.json")])
        main(args + ["--out", str(tmp_path / "c.json"), "--workers", "2"])
        capsys.readouterr()
        first = (tmp_path / "a.json").read_bytes()
        second = (tmp_path / "b.json").read_bytes()
        third = (tmp_path / "c.json").read_bytes()
        assert first == second == third

    def test_seed_changes_the_report(self, tmp_path, capsys):
        main(
            [
                "verify",
                "--suite",
                "theta",
                "--samples",
                "4",
                "--out",
                str(tmp_path / "a.json"),
            ]
        )
        main(
            [
                "verify",
                "--suite",
                "theta",
                "--samples",
                "4",
                "--seed",
                "3",
                "--out",
                str(tmp_path / "b.json"),
            ]
        )
        capsys.readouterr()
        first = json.loads((tmp_path / "a.json").read_text())
        second = json.loads((tmp_path / "b.json").read_text())
        assert first["seed"] != second["seed"]

        def case(report, name):
            cases = report["suites"][0]["cases"]
            return next(c["residual"] for c in cases if c["name"] == name)

        # The sampled checks draw different points under different seeds.
        assert case(first, "bracket-oddness") != case(
            second, "bracket-oddness"
        )

    def test_injected_bug_fails_exchange(self, tmp_path, capsys):
        code = main(
            [
                "verify",
                "--suite",
                "rmatrix",
                "--samples",
                "2",
                "--inject-bug",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        cases = {
            case["name"]: case["pass"]
            for case in report["suites"][0]["cases"]
        }
        assert cases["exchange-consistency"] is False

    def test_suffixless_out_is_treated_as_a_directory(
        self, tmp_path, capsys
    ):
        target = tmp_path / "not_yet_created"
        code = main(
            [
                "verify",
                "--suite",
                "theta",
                "--samples",
                "2",
                "--out",
                str(target),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert (target / "verify_report.json").exists()

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "bogus"])


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_missing_subcommand_errors(self, capsys):
        with pytest.raises(SystemExit):
            main([])

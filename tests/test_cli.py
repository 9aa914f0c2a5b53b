import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import dense_tower
from coretower import EMPTY, Partition, cli
from coretower.cli import main
from strategies import moduli, partitions

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTowerCommands:
    def test_core(self, capsys):
        code, out, _ = run_cli(capsys, "core", "--t", "2", "5,4,2,2,1")
        assert code == 0
        assert out == "3,2,1\n"

    def test_core_of_empty_partition(self, capsys):
        code, out, _ = run_cli(capsys, "core", "--t", "2")
        assert code == 0
        assert out == "\n"

    def test_quotient(self, capsys):
        code, out, _ = run_cli(capsys, "quotient", "--t", "2", "5,4,2,2,1")
        assert code == 0
        assert out == "0: 1,1\n1: 2\n"

    def test_tower_reproduces_the_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "tower", "--t", "2", "5,4,2,2,1")
        assert code == 0
        assert out == (
            "t=2 partition=5,4,2,2,1 size=14\n"
            "row 0: (3,2,1) size=6\n"
            "row 1: () () size=0\n"
            "row 2: (1) () () (1) size=2\n"
            "defect=6\n"
        )

    def test_tower_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "tower", "--t", "2", "--format", "json", "5,4,2,2,1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0] == [[3, 2, 1]]
        assert payload["row_sizes"] == [6, 0, 2]
        assert payload["defect"] == 6

    def test_tower_stops_at_the_last_row_under_the_guard(self, capsys):
        # Row 1 has 1025 entries, all 1025-cores; row 2 would exceed the
        # materialisation guard but is never needed.
        code, out, _ = run_cli(capsys, "tower", "--t", "1025", "1025")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "row 0: () size=0"
        assert lines[2] == "row 1: " + "() " * 1024 + "(1) size=1"
        assert lines[3] == "defect=1"


def reference_tower_outputs(lam, t):
    """(plain, json) stdout of `tower`, rendered the way the CLI once did:
    print per line and json.dumps(indent=2), over the dense oracle's rows."""
    rows = dense_tower.core_tower_rows(lam, t)
    sizes = [sum(p.size for p in row) for row in rows]
    d = (lam.size - sum(sizes)) // (t - 1)

    def fmt(p):
        return ",".join(str(x) for x in p.parts)

    lines = [f"t={t} partition={fmt(lam)} size={lam.size}"]
    for j, row in enumerate(rows):
        cells = " ".join("(" + fmt(p) + ")" for p in row)
        lines.append(f"row {j}: {cells} size={sizes[j]}")
    lines.append(f"defect={d}")
    payload = {
        "t": t,
        "partition": list(lam.parts),
        "rows": [[list(p.parts) for p in row] for row in rows],
        "row_sizes": sizes,
        "defect": d,
    }
    return "\n".join(lines) + "\n", json.dumps(payload, indent=2) + "\n"


def tower_outputs(lam, t):
    outputs = []
    for fmt in ("plain", "json"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            argv = ["tower", "--t", str(t), "--format", fmt, ",".join(map(str, lam.parts))]
            code = main(argv)
        assert code == 0
        outputs.append(buf.getvalue())
    return tuple(outputs)


class TestTowerRenderer:
    """The direct tower renderer, byte for byte against the old one."""

    @given(partitions(max_part=15, max_len=15), moduli(2, 10))
    @settings(max_examples=150)
    def test_random_towers(self, lam, t):
        assert tower_outputs(lam, t) == reference_tower_outputs(lam, t)

    @pytest.mark.parametrize("t", range(2, 11))
    def test_empty_partition(self, t):
        assert tower_outputs(EMPTY, t) == reference_tower_outputs(EMPTY, t)

    @pytest.mark.parametrize(
        "parts, t",
        [((1,) * 64, 2), ((20, 17, 11, 11, 6, 3, 3, 1), 3), ((10000,), 10), ((1000,), 7)],
    )
    def test_tall_and_wide_towers(self, parts, t):
        lam = Partition(parts)
        assert tower_outputs(lam, t) == reference_tower_outputs(lam, t)


class TestSeriesCommand:
    def test_both_mode_emits_a_passing_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "T", "--j", "0", "--t", "2", "--order", "3",
            "--mode", "both",
        )
        assert code == 0
        assert out == "series.T t=2 j=0 order=3: PASS\n"

    def test_closed_plain_coefficients(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "T", "--j", "0", "--t", "2", "--order", "3"
        )
        assert code == 0
        assert out == "0 0\n1 1\n2 0\n3 5\n"

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "D", "--t", "2", "--order", "4", "--format", "csv"
        )
        assert code == 0
        assert out == "n,coefficient\n0,0\n1,0\n2,2\n3,2\n4,14\n"

    def test_json_schema_uses_decimal_strings(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "cores", "--j", "0", "--t", "3", "--order", "5",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "truncation_order": 5,
            "coeffs": ["1", "1", "2", "0", "2", "1"],
        }

    def test_brute_ceiling_is_enforced(self, capsys):
        code, _, err = run_cli(
            capsys, "series", "T", "--j", "0", "--t", "2", "--order", "40",
            "--mode", "brute",
        )
        assert code == 2
        assert "brute-force ceiling" in err

    def test_raising_the_ceiling_is_explicit(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "T", "--j", "0", "--t", "2", "--order", "32",
            "--mode", "both", "--brute-ceiling", "32",
        )
        assert code == 0
        assert "PASS" in out

    def test_j_is_required_for_row_series(self, capsys):
        code, _, err = run_cli(capsys, "series", "T", "--t", "2", "--order", "3")
        assert code == 2
        assert "requires --j" in err

    def test_defect_series_takes_no_j(self, capsys):
        code, _, err = run_cli(
            capsys, "series", "D", "--t", "2", "--j", "1", "--order", "3"
        )
        assert code == 2
        assert "no --j" in err


class TestVerifyCommand:
    def test_monotone_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "monotone", "--t", "2", "--order", "120"
        )
        assert code == 0
        assert out == "monotonicity t=2 order=120: PASS\n"

    def test_recursion_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "recursion", "--t", "3", "--order", "80"
        )
        assert code == 0
        assert "PASS" in out

    def test_congruence_reports_the_genuine_counterexample(self, capsys):
        # The vanishing-at-multiples claim is false; the tool must say so
        # and exit 1.
        code, out, _ = run_cli(
            capsys, "verify", "congruence", "--t", "2", "--order", "60"
        )
        assert code == 1
        lines = out.strip().split("\n")
        assert lines[0] == "congruence.np t=2 order=60: PASS"
        assert lines[1] == (
            "congruence.multiples t=2 order=60: FAIL at n=6: got 2, expected 0"
        )

    def test_congruence_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "congruence", "--t", "2", "--order", "60",
            "--format", "json",
        )
        assert code == 1
        payload = json.loads(out)
        statuses = [r["status"] for r in payload["reports"]]
        assert statuses == ["pass", "fail"]
        assert payload["reports"][1]["first_mismatch"]["n"] == 6

    def test_csv_is_rejected_for_reports(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "monotone", "--t", "2", "--order", "10",
            "--format", "csv",
        )
        assert code == 2
        assert "csv" in err


class TestAsymptCommand:
    def test_defect_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "asympt", "defect", "--t", "2", "--samples", "10,20"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,exact,predicted_main_term,predicted_np_over_t1,ratio"
        assert len(lines) == 3

    def test_transform_residual(self, capsys):
        code, out, _ = run_cli(
            capsys, "asympt", "transform", "--m", "1", "--eps", "0.1"
        )
        assert code == 0
        assert out.startswith("residual ")
        assert float(out.split()[1]) < 1e-8

    def test_transform_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "asympt", "transform", "--m", "2", "--eps", "0.5",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 2 and payload["eps"] == "0.5"
        assert float(payload["residual"]) < 1e-8


class TestUsageErrors:
    def test_small_modulus(self, capsys):
        code, _, err = run_cli(capsys, "core", "--t", "1", "3,1")
        assert code == 2
        assert "at least 2" in err

    def test_bad_partition_syntax(self, capsys):
        code, _, err = run_cli(capsys, "core", "--t", "2", "3,x")
        assert code == 2
        assert "partition syntax" in err

    # int() accepts each of these; the parts must be plain ASCII digits.
    @pytest.mark.parametrize("text", ["1_0", "+3", " 3", "3, 1", "\u0663"])
    def test_partition_text_must_be_plain_digits(self, capsys, text):
        code, out, err = run_cli(capsys, "core", "--t", "2", text)
        assert (code, out) == (2, "")
        assert "partition syntax" in err

    def test_increasing_parts(self, capsys):
        code, _, _ = run_cli(capsys, "core", "--t", "2", "2,3")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_negative_order(self, capsys):
        code, _, _ = run_cli(
            capsys, "series", "T", "--j", "0", "--t", "2", "--order", "-1"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("asympt", "defect", "--t", "2", "--samples", "10", "--precision", "0"),
             "precision"),
            (("asympt", "transform", "--m", "1", "--eps", "1e-300"), "eps"),
            (("series", "D", "--t", "2", "--order", "5", "--brute-ceiling", "-1"),
             "--brute-ceiling"),
            (("asympt", "transform", "--m", "1", "--eps", "1e-8"), "eps"),
            (("tower", "--t", "1025", "1050625"), "too many entries"),
            (("asympt", "transform", "--m", "100", "--eps", "1"),
             "eps must be <= 0.345"),
        ],
    )
    def test_out_of_range_settings(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err

    @pytest.mark.parametrize(
        "argv, target, where",
        [
            (("core", "--t", "2", "3,1"), (cli, "t_core"), "core output"),
            (("quotient", "--t", "2", "3,1"), (cli, "t_quotient"), "quotient output"),
            (("tower", "--t", "2", "3,1"), (cli, "core_tower"), "tower output"),
            (("verify", "congruence", "--t", "2", "--order", "20"),
             (cli.genfun, "check_congruence"), "verification reports"),
            (("verify", "recursion", "--t", "2", "--order", "20"),
             (cli.genfun, "check_recursion"), "verification reports"),
            (("verify", "monotone", "--t", "2", "--order", "20"),
             (cli.genfun, "monotonicity_check"), "verification reports"),
            (("asympt", "transform", "--m", "1", "--eps", "0.0003"),
             (cli.asymptotics, "eisenstein_transform_residual"), "transform output"),
        ],
    )
    def test_csv_is_refused_before_any_work(self, capsys, monkeypatch, argv, target, where):
        def must_not_run(*args, **kwargs):
            raise AssertionError(f"{target[1]} ran before the format check")

        monkeypatch.setattr(*target, must_not_run)
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 2
        assert out == ""
        assert err == f"error: csv format is not available for {where}\n"

    def test_non_integer_precision_env_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("CORETOWER_PRECISION", "fifty")
        code, out, err = run_cli(
            capsys, "asympt", "transform", "--m", "1", "--eps", "0.1"
        )
        assert code == 2
        assert out == ""
        assert err == "error: $CORETOWER_PRECISION must be an integer, got 'fifty'\n"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("tower", "--t", "2", "5,4,2,2,1"),
            ("series", "D", "--t", "3", "--order", "12", "--format", "json"),
            ("verify", "recursion", "--t", "2", "--order", "40"),
            ("asympt", "defect", "--t", "2", "--samples", "10,20,30"),
            ("asympt", "transform", "--m", "3", "--eps", "0.1"),
        ],
    )
    def test_identical_invocations_are_byte_identical(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2
        assert out1 == out2


class TestEntryPoint:
    def test_module_invocation(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "coretower", "core", "--t", "2", "5,4,2,2,1"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout == "3,2,1\n"

    def test_precision_env_variable_sets_the_default(self):
        env = dict(os.environ, PYTHONPATH=SRC, CORETOWER_PRECISION="30")
        proc = subprocess.run(
            [sys.executable, "-m", "coretower", "asympt", "transform",
             "--m", "1", "--eps", "0.1"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert float(proc.stdout.split()[1]) < 1e-8

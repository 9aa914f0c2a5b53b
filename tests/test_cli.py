import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from mpmath import mp

import dense_tower
from coretower import EMPTY, IntSeries, Partition, cli, core_tower
from coretower.cli import main
from strategies import moduli, partitions

SRC = str(Path(__file__).resolve().parents[1] / "src")
# The series families that take --j, and those that take none.
WITH_J = [f for f, (_, _, takes_j) in cli.genfun.FAMILIES.items() if takes_j]
WITHOUT_J = [f for f, (_, _, takes_j) in cli.genfun.FAMILIES.items() if not takes_j]


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

    def test_largest_modulus_on_a_small_partition(self, capsys):
        code, out, _ = run_cli(capsys, "core", "--t", "1048576", "5,3")
        assert (code, out) == (0, "5,3\n")
        code, out, _ = run_cli(capsys, "tower", "--t", "1048576", "5,3")
        assert code == 0
        assert out == "t=1048576 partition=5,3 size=8\nrow 0: (5,3) size=8\ndefect=0\n"

    def test_parts_far_above_the_length(self, capsys):
        code, out, _ = run_cli(capsys, "core", "--t", "2", "100000000")
        assert (code, out) == (0, "\n")
        code, out, _ = run_cli(capsys, "quotient", "--t", "2", str(1 << 26))
        assert (code, out) == (0, "0: \n1: 33554432\n")
        code, out, _ = run_cli(capsys, "quotient", "--t", "3", "1000000000000,1000000,1")
        assert (code, out) == (0, "0: 333333333334\n1: \n2: 333333\n")

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


    @pytest.mark.parametrize(
        "t, partition, plain, json_",
        [
            (
                "1000", "100000000,50000",
                "4f490dd7260598a784f8354b04d3ea64799b883d9960bd4bd537a855f84e2b56",
                "11bccd7161aeec5ec4b16e590f38ec4dbe8f98e1ce7a1dc1a71a11d2e9636a9e",
            ),
            (
                "1048576", "2097152",
                "de2d18a97603578f1422aefe8fce5bc815c08199453c2de42732be34b7e0f426",
                "5bd0e44233effcc74c140cdcde48c8e2e8d149c93dc59757047f7d10024c0996",
            ),
        ],
        ids=["t1000", "t1048576"],
    )
    def test_wide_sparse_towers_match_their_pins(self, capsys, t, partition, plain, json_):
        # SHA-256 of stdout as the dense renderer printed it; rows of 10**6
        # and 2**20 entries, a handful nonempty, too wide for the dense oracle.
        for fmt, digest in (("plain", plain), ("json", json_)):
            code, out, _ = run_cli(capsys, "tower", "--t", t, "--format", fmt, partition)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_tower_past_the_row_guard_is_refused(self, capsys):
        # Row 3 would have 1024**3 entries.
        code, out, err = run_cli(capsys, "tower", "--t", "1024", "1073741824")
        assert (code, out) == (2, "")
        assert err == "error: pre-tower row has too many entries to materialise\n"


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


def tower_outputs(lam, t, text=None):
    """(plain, json) stdout of `tower` for lam, given as text, by default
    its parts joined by commas."""
    if text is None:
        text = ",".join(map(str, lam.parts))
    outputs = []
    for fmt in ("plain", "json"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["tower", "--t", str(t), "--format", fmt, text])
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

    @pytest.mark.parametrize(
        "text, parts, t",
        [
            ("007,7,3", (7, 7, 3), 2),
            ("05,05,1", (5, 5, 1), 3),
            ("10,010,1", (10, 10, 1), 2),
            ("0001", (1,), 5),
        ],
    )
    def test_texts_with_leading_zeros(self, text, parts, t):
        # Not echoed: the partition is rendered from its parts.
        lam = Partition(parts)
        assert tower_outputs(lam, t, text) == reference_tower_outputs(lam, t)

    @pytest.mark.parametrize(
        "parts, t",
        [
            ((3, 2, 1), 2),  # a 2-core: height 0, one nonempty cell
            ((7, 5, 3, 1), 3),  # a 3-core
            ((3, 2, 1), 3),  # row 1: first and last cells nonempty, one empty between
            ((4, 2, 1, 1), 2),  # row 1 all empty; row 2's first and last nonempty
            ((2, 2), 2),  # row 1 with no empty cell
            ((3, 3, 3), 3),  # row 1 with no empty cell
        ],
    )
    def test_runs_at_the_row_ends(self, parts, t):
        lam = Partition(parts)
        assert tower_outputs(lam, t) == reference_tower_outputs(lam, t)


class TestRepeatedPartsPins:
    """Byte pins for inputs whose parts and tower cores repeat: 500 parts
    drawn from 1..80, n near 2 * 10**4."""

    @staticmethod
    def parts(seed):
        rng = random.Random(seed)
        return sorted((rng.randint(1, 80) for _ in range(500)), reverse=True)

    @pytest.mark.parametrize(
        "seed, t, digest",
        [
            (1, 2, "4f96b5e7c1e3f94f6ed489d6507307f821eead8d269d57813c230615669799ee"),
            (2, 3, "7b780640017fd59bb12ec079a92e4184775817b061319d4a134113c0c8c70772"),
            (3, 5, "f2476fb30850ade614038e94c73c6d1fb6e354bcbb8183e260c6a2f587e337e3"),
        ],
    )
    def test_point_queries_match_their_pins(self, capsys, seed, t, digest):
        # SHA-256 of the stdout of core, quotient and tower, plain then
        # json, one after the other, as printed before any memo was added.
        parts = self.parts(seed)
        cores = [c for row in core_tower(Partition(tuple(parts)), t).entries for _, c in row]
        assert len(set(cores)) * 3 < len(cores) and len(set(parts)) * 6 < len(parts)
        h = hashlib.sha256()
        for command in ("core", "quotient", "tower"):
            for fmt in ("plain", "json"):
                argv = (command, "--t", str(t), "--format", fmt, ",".join(map(str, parts)))
                code, out, _ = run_cli(capsys, *argv)
                assert code == 0
                h.update(out.encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("fmt, formatter", [("json", "_int_list"), ("plain", "_fmt_parts")])
    def test_each_distinct_core_is_formatted_once(self, capsys, monkeypatch, fmt, formatter):
        parts = self.parts(3)
        cores = [c for row in core_tower(Partition(tuple(parts)), 5).entries for _, c in row]
        calls = []
        original = getattr(cli, formatter)

        def spying(xs, *rest):
            calls.append(tuple(xs))
            return original(xs, *rest)

        monkeypatch.setattr(cli, formatter, spying)
        text = ",".join(map(str, parts))
        code, _, _ = run_cli(capsys, "tower", "--t", "5", "--format", fmt, text)
        assert code == 0
        # The partition is echoed from its text; besides the cells, json
        # formats only the row sizes, after them.
        cells = calls
        if fmt == "json":
            *cells, sizes = calls
            assert sizes == core_tower(Partition(tuple(parts)), 5).row_sizes
        assert sorted(cells) == sorted(set(cores))

    def test_parts_with_leading_zeros_read_as_their_values(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, "core", "--t", "2", "--format", "json", "007,7,3")
        assert code == 0
        assert json.loads(out)["partition"] == [7, 7, 3]
        read = []
        monkeypatch.setattr(cli, "int", lambda s: read.append(s) or int(s), raising=False)
        assert cli._parse_ints("007,7,3,7,3", "bad") == (7, 7, 3, 7, 3)
        assert read == ["007", "7", "3"]  # once per distinct run, in order


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

    @pytest.mark.parametrize("t", [2**20 + 1, 10**12])
    @pytest.mark.parametrize("family", [("T", "--j", "1"), ("D",), ("cores", "--j", "0")])
    def test_both_mode_past_the_largest_tower_modulus(self, capsys, family, t):
        # The census builds no tower row, so it takes every t >= 2, as the
        # closed forms do.
        code, out, err = run_cli(
            capsys, "series", *family, "--t", str(t), "--order", "5", "--mode", "both"
        )
        assert (code, err) == (0, "")
        j = f" j={family[2]}" if len(family) > 1 else ""
        assert out == f"series.{family[0]} t={t}{j} order=5: PASS\n"

    def test_brute_mode_past_the_largest_tower_modulus(self, capsys):
        # For t > n every partition of n is a t-core: row 0 sums to n p(n).
        code, out, _ = run_cli(
            capsys, "series", "T", "--j", "0", "--t", "100000000", "--order", "3",
            "--mode", "brute",
        )
        assert (code, out) == (0, "0 0\n1 1\n2 4\n3 9\n")

    @pytest.mark.parametrize("family", WITH_J)
    def test_j_is_required_for_row_series(self, capsys, family):
        code, out, err = run_cli(capsys, "series", family, "--t", "2", "--order", "3")
        assert (code, out, err) == (2, "", f"error: series {family} requires --j\n")

    @pytest.mark.parametrize("family", WITHOUT_J)
    def test_defect_series_takes_no_j(self, capsys, family):
        code, out, err = run_cli(
            capsys, "series", family, "--t", "2", "--j", "1", "--order", "3"
        )
        assert (code, out, err) == (2, "", f"error: series {family} takes no --j\n")

    def test_the_j_rules_are_the_tables(self, capsys):
        # The three families as the paper names them: row weights T_j and
        # generalized cores take a row, the defect D does not.
        assert (WITH_J, WITHOUT_J) == (["T", "cores"], ["D"])
        code, out, _ = run_cli(capsys, "series", "--help")
        assert code == 0 and "tower row (T and cores only)" in " ".join(out.split())

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_a_coefficient_past_the_digit_limit_leaves_stdout_empty(
        self, capsys, monkeypatch, fmt
    ):
        # 3**10000 has 4772 decimal digits, past the default 4300-digit limit;
        # the coefficients before it must not be written either.
        planted = lambda j, t, order: IntSeries((0, 1, 3**10000, 2))  # noqa: E731
        _, stat, takes_j = cli.genfun.FAMILIES["T"]
        monkeypatch.setitem(cli.genfun.FAMILIES, "T", (planted, stat, takes_j))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run_cli(
                capsys, "series", "T", "--j", "0", "--t", "2", "--order", "3",
                "--format", fmt,
            )
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        # The planted coefficient was reached: the error is str()'s own.
        assert "Exceeds the limit" in err


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

    def test_recursion_below_a_large_modulus(self, capsys):
        # Every convolution weight is zero below t, and p(19) = 490.
        code, out, err = run_cli(
            capsys, "verify", "recursion", "--t", "20", "--order", "19"
        )
        assert (code, out, err) == (0, "recursion t=20 order=19: PASS\n", "")

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


class TestClosedFormsBuiltOnce:
    def test_each_quotient_is_divided_once_per_process(self, capsys, monkeypatch):
        genfun = cli.genfun
        for form in (
            genfun.row_weight_series,
            genfun.defect_series,
            genfun.regular_partition_series,
            genfun._recursion_correction,
        ):
            form.cache_clear()
        divided = []
        divide = genfun._divide

        def counted_divide(out, a, b):
            divided.append(len(a) - len(out))
            return divide(out, a, b)

        monkeypatch.setattr(genfun, "_divide", counted_divide)
        # (argv, coefficients divided so far): congruence divides T_0 once
        # for both of its reports, recursion only its correction,
        # monotone D, and the series commands reuse T_0 and D.  A higher
        # order divides only the coefficients past the kept ones; a lower
        # one divides none.
        steps = [
            (("verify", "congruence", "--t", "3", "--order", "60"), 61),
            (("verify", "recursion", "--t", "3", "--order", "60"), 122),
            (("verify", "monotone", "--t", "3", "--order", "60"), 183),
            (("series", "D", "--t", "3", "--order", "60"), 183),
            (("series", "T", "--j", "0", "--t", "3", "--order", "60"), 183),
            (("series", "T", "--j", "0", "--t", "3", "--order", "120"), 243),
            (("verify", "recursion", "--t", "3", "--order", "30"), 243),
            (("verify", "congruence", "--t", "3", "--order", "120"), 243),
        ]
        for argv, total in steps:
            run_cli(capsys, *argv)
            assert sum(divided) == total, argv


class TestAsymptCommand:
    def test_defect_csv(self, capsys):
        argv = ("asympt", "defect", "--t", "2", "--samples", "10,20")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == (
            "n,exact,predicted_main_term,predicted_np_over_t1,ratio\n"
            "10,274,481.043088172208,420.0,0.652380952380952\n"
            "20,8940,13847.69281019,12540.0,0.712918660287081\n"
        )
        # Plain output is the csv table.
        assert run_cli(capsys, *argv, "--format", "csv") == (0, out, "")

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

    def test_transform_shows_a_residual_past_the_int_str_digit_limit(
        self, capsys, monkeypatch
    ):
        # A 4400-digit mantissa is past Python's 4300-digit int-to-str limit.
        with mp.workdps(4400):
            residual = +(mp.pi * mp.mpf(10) ** -4410)
        monkeypatch.setattr(
            cli.asymptotics, "eisenstein_transform_residual", lambda *a, **k: residual
        )
        argv = ("asympt", "transform", "--m", "1", "--eps", "0.1", "--precision", "4400")
        assert run_cli(capsys, *argv) == (0, "residual 3.14159265359e-4410\n", "")

    @pytest.mark.parametrize(
        "argv",
        [("defect", "--t", "2", "--samples", "10"), ("transform", "--m", "1", "--eps", "0.1")],
    )
    def test_precision_floor_holds_for_the_flag(self, capsys, argv):
        assert run_cli(capsys, "asympt", *argv, "--precision", "20")[0] == 0
        assert run_cli(capsys, "asympt", *argv, "--precision", "19") == (
            2, "", "error: precision must be at least 20, got 19\n"
        )

    def test_running_out_of_memory_exits_two_not_one(self, capsys, monkeypatch):
        # Exit 1 is a mismatch; a failed allocation (a huge --precision in
        # mpmath, say) is not one.  Raised here, since whether a real one
        # fails at once depends on the host's memory overcommit.
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli.asymptotics, "defect_samples", out_of_memory)
        argv = ("asympt", "defect", "--t", "2", "--samples", "10")
        assert run_cli(capsys, *argv) == (2, "", "error: out of memory\n")


class TestJsonOutputs:
    """The exact --format json output of each command that has one; every
    payload is json.dumps(payload, indent=2) plus a newline."""

    @staticmethod
    def pinned(payload) -> str:
        return json.dumps(payload, indent=2) + "\n"

    def test_core(self, capsys):
        code, out, _ = run_cli(capsys, "core", "--t", "2", "--format", "json", "5,4,2,2,1")
        assert code == 0
        assert out == (
            '{\n  "t": 2,\n  "partition": [\n    5,\n    4,\n    2,\n    2,\n'
            '    1\n  ],\n  "core": [\n    3,\n    2,\n    1\n  ]\n}\n'
        )

    def test_quotient(self, capsys):
        code, out, _ = run_cli(
            capsys, "quotient", "--t", "2", "--format", "json", "5,4,2,2,1"
        )
        assert code == 0
        assert out == self.pinned(
            {"t": 2, "partition": [5, 4, 2, 2, 1], "quotient": [[1, 1], [2]]}
        )

    def test_asympt_defect(self, capsys):
        code, out, _ = run_cli(
            capsys, "asympt", "defect", "--t", "2", "--samples", "10,20",
            "--format", "json",
        )
        assert code == 0
        assert out == self.pinned(
            [
                {
                    "n": 10,
                    "exact": "274",
                    "predicted_main_term": "481.043088172208",
                    "predicted_np_over_t1": "420.0",
                    "ratio": "0.652380952380952",
                },
                {
                    "n": 20,
                    "exact": "8940",
                    "predicted_main_term": "13847.69281019",
                    "predicted_np_over_t1": "12540.0",
                    "ratio": "0.712918660287081",
                },
            ]
        )

    @pytest.mark.parametrize("family, j", [("T", 0), ("D", None)])
    def test_series_both_passing(self, capsys, family, j):
        row = ("--j", str(j)) if j is not None else ()
        code, out, _ = run_cli(
            capsys, "series", family, *row, "--t", "2", "--order", "3",
            "--mode", "both", "--format", "json",
        )
        assert code == 0
        assert out == self.pinned(
            {
                "identity": f"series.{family}",
                "t": 2,
                "j": j,
                "order_checked": 3,
                "status": "pass",
                "first_mismatch": None,
            }
        )

    def test_series_both_failing(self, capsys, monkeypatch):
        # A doubled statistic: the enumeration source reads the table.
        closed, stat, takes_j = cli.genfun.FAMILIES["T"]
        planted = lambda j, t, n, sizes: 2 * stat(j, t, n, sizes)  # noqa: E731
        monkeypatch.setitem(cli.genfun.FAMILIES, "T", (closed, planted, takes_j))
        code, out, _ = run_cli(
            capsys, "series", "T", "--j", "0", "--t", "2", "--order", "3",
            "--mode", "both", "--format", "json",
        )
        assert code == 1
        assert out == self.pinned(
            {
                "identity": "series.T",
                "t": 2,
                "j": 0,
                "order_checked": 3,
                "status": "fail",
                "first_mismatch": {"n": 1, "closed_value": "1", "brute_value": "2"},
            }
        )


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

    @staticmethod
    def digit_check(text, error):
        """The per-piece ASCII digit check, as the reference for the regex."""
        pieces = text.split(",")
        if not all(piece.isascii() and piece.isdigit() for piece in pieces):
            raise ValueError(error)
        return tuple(map(int, pieces))

    @pytest.mark.parametrize(
        "text",
        ["1_0", "+3", " 3", "3, 1", "\u0663", "\u00b2", "1,,2", "3,", ",3", "3\n", "",
         "0", "007,3,0", "5,4,2,2,1", "9" * 4301, "1," + "9" * 4300],
        ids=lambda text: repr(text[:12]),
    )
    def test_int_lists_parse_as_the_digit_check_did(self, text):
        def outcome(parse):
            try:
                return parse(text, "bad")
            except ValueError as exc:
                return str(exc)

        assert outcome(cli._parse_ints) == outcome(self.digit_check)

    @pytest.mark.parametrize("text", ["1_0", "+3", " 3", "\u0663"])
    def test_sample_text_must_be_plain_digits(self, capsys, text):
        code, out, err = run_cli(capsys, "asympt", "defect", "--t", "2", "--samples", text)
        assert (code, out) == (2, "")
        assert err == f"error: bad sample list {text!r}\n"

    @pytest.mark.parametrize(
        "text", ["1,,2", ",1", "1,", "+1", " 1", "1_0", "\u0661", "\uff11"]
    )
    def test_bad_int_lists_keep_their_messages(self, capsys, text):
        # An empty run, a sign, a space, an underscore and a digit outside
        # ASCII: int() takes some of them, the parsers none.
        expected = f"error: bad partition syntax {text!r}; expected comma-separated parts\n"
        assert run_cli(capsys, "core", "--t", "2", text) == (2, "", expected)
        argv = ("asympt", "defect", "--t", "2", "--samples", text)
        assert run_cli(capsys, *argv) == (2, "", f"error: bad sample list {text!r}\n")

    def test_a_long_int_list_parses_in_little_memory(self):
        # 7,000 parts from 1..80: the result tuple alone is 56 KB, and at
        # most 80 distinct runs are kept.  A regex match over the whole
        # text held about 126 bytes per part.
        rng = random.Random(7)
        parts = sorted((rng.randint(1, 80) for _ in range(7000)), reverse=True)
        text = ",".join(map(str, parts))
        tracemalloc.start()
        try:
            parsed = cli._parse_ints(text, "bad")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == tuple(parts)
        assert peak < 100_000

    # Each flag exists only on the commands that read it.  The message names
    # the command and the flag, never a value argparse took for a stray.
    @pytest.mark.parametrize(
        "argv",
        [
            ("core", "--t", "2", "--precision", "30", "3,1"),
            ("verify", "recursion", "--t", "2", "--order", "5", "--brute-ceiling", "5"),
            ("series", "T", "--j", "0", "--t", "2", "--order", "3", "--precision", "3,1"),
            ("asympt", "transform", "--m", "1", "--eps", "0.1", "--brute-ceiling=3,1"),
        ],
    )
    def test_flag_on_a_command_that_ignores_it(self, capsys, argv):
        command = " ".join(argv[:2] if argv[0] == "asympt" else argv[:1])
        flag = next(
            a.split("=")[0] for a in argv if a.startswith(("--precision", "--brute"))
        )
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: unrecognized arguments: {command} does not take {flag}\n"
        assert "3,1" not in err

    def test_stray_value_is_named(self, capsys):
        code, out, err = run_cli(capsys, "core", "--t", "2", "3,1", "5")
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: 5\n")

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
            (("core", "--t", "1048577", "1"), "modulus t must be at most 1048576"),
            (("tower", "--t", "100000000", "1"), "modulus t must be at most"),
            (("quotient", "--t", "100000000", "1"), "modulus t must be at most"),
            (("asympt", "defect", "--t", "2", "--samples", "100", "--precision", "3"),
             "precision must be at least 20, got 3"),
            (("asympt", "transform", "--m", "1", "--eps", "0.1", "--precision", "19"),
             "precision must be at least 20, got 19"),
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
            (("series", "T", "--j", "0", "--t", "2", "--order", "20", "--mode", "both"),
             (cli.genfun, "compare_series"), "verification reports"),
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

    # Exit 1 is a mismatch; a size no list can hold is a usage error.
    @pytest.mark.parametrize(
        "argv",
        [
            ("series", "D", "--t", "2", "--order"),
            ("verify", "recursion", "--t", "2", "--order"),
            ("asympt", "defect", "--t", "2", "--samples"),
        ],
        ids=["series", "verify", "asympt"],
    )
    def test_a_huge_size_exits_two_not_one(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "9" * 20)
        assert (code, out) == (2, "")
        assert err == "error: too large: cannot fit 'int' into an index-sized integer\n"


class TestOneParserPerProcess:
    # json then plain, series T with --j and series D without, a refused
    # flag, a setting that must not outlive its call, and a missing --j.
    STEPS = [
        ("series", "T", "--j", "1", "--t", "2", "--order", "8", "--format", "json"),
        ("series", "D", "--t", "2", "--order", "8"),
        ("core", "--t", "2", "--precision", "30", "3,1"),
        ("asympt", "transform", "--m", "1", "--eps", "0.1", "--precision", "30"),
        ("asympt", "transform", "--m", "1", "--eps", "0.1"),
        ("series", "T", "--t", "2", "--order", "8"),
    ]

    def test_calls_in_one_process_match_calls_run_alone(self, capsys):
        alone = []
        for argv in self.STEPS:
            proc = subprocess.run(
                [sys.executable, "-m", "coretower", *argv],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONPATH=SRC),
            )
            alone.append((proc.returncode, proc.stdout, proc.stderr))
        # The setting reaches the output, and the last step fails.
        assert alone[3][1] != alone[4][1]
        assert [code for code, _, _ in alone] == [0, 0, 2, 0, 0, 2]

        together = []
        for argv in self.STEPS * 2:
            code = main(list(argv))
            captured = capsys.readouterr()
            together.append((code, captured.out, captured.err))
        assert together == alone * 2

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()


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


class TestReadmeExamples:
    README_LINES = [
        line.split("#")[0].split()[1:]
        for line in (Path(SRC).parent / "README.md").read_text().splitlines()
        if line.startswith("coretower ")
    ]

    def test_the_readme_shows_every_command(self):
        commands = {argv[0] for argv in self.README_LINES}
        assert commands == {"core", "quotient", "tower", "series", "verify", "asympt"}

    @pytest.mark.parametrize("argv", README_LINES, ids=" ".join)
    def test_readme_cli_line_runs(self, capsys, argv):
        # verify congruence reports the known false congruence (t=2, n=6).
        expected = 1 if argv[:2] == ["verify", "congruence"] else 0
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (expected, "")
        assert out


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

    @pytest.mark.parametrize(
        "argv",
        [
            ("asympt", "transform", "--m", "1", "--eps", "0.1"),
            ("asympt", "defect", "--t", "2", "--samples", "10,20"),
        ],
    )
    def test_the_environment_does_not_move_the_output(self, argv):
        # stdout depends on argv alone, whatever CORETOWER_PRECISION holds.
        base = {k: v for k, v in os.environ.items() if k != "CORETOWER_PRECISION"}
        runs = []
        for extra in ({}, *({"CORETOWER_PRECISION": v} for v in ("30", "19", "fifty"))):
            proc = subprocess.run(
                [sys.executable, "-m", "coretower", *argv],
                capture_output=True,
                text=True,
                env={**base, "PYTHONPATH": SRC, **extra},
            )
            runs.append((proc.returncode, proc.stdout))
        assert runs[0][0] == 0 and runs[0][1]
        assert runs == [runs[0]] * 4


class TestStartup:
    """What `import coretower.cli` loads, in a fresh `python -I` process:
    mpmath and argparse eagerly (every command parses with argparse, and
    the asymptotic commands need mpmath), and none of dataclasses, inspect
    or json, which only a --format json write imports."""

    @staticmethod
    def fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
        prelude = f"import sys; sys.path.insert(0, {SRC!r}); "
        return subprocess.run(
            [sys.executable, "-I", "-c", prelude + code, *argv],
            capture_output=True,
            text=True,
        )

    def test_import_loads_mpmath_and_argparse_only_of_the_heavy_modules(self):
        proc = self.fresh(
            "before = set(sys.modules); import coretower.cli; "
            "print(*sorted(set(sys.modules) - before))"
        )
        assert proc.returncode == 0, proc.stderr
        added = set(proc.stdout.split())
        assert {"mpmath", "argparse", "coretower.cli"} <= added
        assert not added & {"dataclasses", "inspect", "json"}

    def test_plain_output_does_not_import_json(self):
        proc = self.fresh(
            "from coretower.cli import main; "
            "main(['tower', '--t', '2', '5,4,2,2,1']); print('json' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (
                ("tower", "--t", "2", "--format", "json", "5,4,2,2,1"),
                0,
                "a8ff635912ec7c9d4b722d0ad213830f1689fcf9562440b20087f6e1a3f8d6d8",
            ),
            (
                ("series", "D", "--t", "3", "--order", "12", "--format", "json"),
                0,
                "da321a6183f25d2246c09eadf1324470291f6ce455d7f4e16b27bb1a65d74c70",
            ),
            (
                ("verify", "congruence", "--t", "2", "--order", "12", "--format", "json"),
                1,
                "57361f3687f85e01cf5c3cdc2da58da1e09c70ae3c831b57f09c1c1f12111496",
            ),
        ],
    )
    def test_json_documents_are_unchanged(self, argv, code, digest):
        # Pinned when json was imported with the module; here json is first
        # imported by the write itself.
        proc = self.fresh(
            "from coretower.cli import main; sys.exit(main(sys.argv[1:]))", *argv
        )
        assert (proc.returncode, proc.stderr) == (code, "")
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest

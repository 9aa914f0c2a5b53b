import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from coretower import defect_samples, samples_to_csv

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv], capture_output=True, text=True
    )


def test_verify_identities_output_is_pinned():
    # Exit 1 with one FAIL line per t = 2..7: the vanishing-at-multiples
    # congruence is false (README "Known false congruence").
    proc = run_script("verify_identities.py")
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert proc.stdout.count("FAIL") == 6
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "f745d1e22a71bb263826c9992d56c802267aebd456cb32bfaf4fc2b4e662385f"
    )


def test_defect_trend_prints_one_table_per_modulus():
    proc = run_script("defect_trend.py", "--t", "2,3", "--samples", "10,20", "--dps", "20")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "".join(
        f"# t={t}\n" + samples_to_csv(defect_samples(t, [10, 20], dps=20))
        for t in (2, 3)
    )


def test_defect_trend_without_dps_uses_the_cli_default_precision():
    proc = run_script("defect_trend.py", "--t", "2", "--samples", "10,20")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "# t=2\n" + samples_to_csv(defect_samples(2, [10, 20]))


@pytest.mark.parametrize(
    "script, argv, message",
    [
        ("defect_trend.py", ("--t", "x"), "argument --t: invalid int value: 'x'\n"),
        ("defect_trend.py", ("--samples", "0"), "error: sample sizes must be at least 1\n"),
        ("defect_trend.py", ("--dps", "3"), "error: precision must be at least 20, got 3\n"),
        ("defect_trend.py", ("--t", "2,x"), "argument --t: invalid int value: 'x'\n"),
        ("verify_identities.py", ("--order", "-1"),
         "error: truncation order must be nonnegative\n"),
    ],
    ids=["defect_trend-t", "defect_trend-samples", "defect_trend-dps",
         "defect_trend-second-t", "verify_identities-order"],
)
def test_bad_input_exits_two_with_one_error_line(script, argv, message):
    proc = run_script(script, *argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith(message) and "Traceback" not in proc.stderr

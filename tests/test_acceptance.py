"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the lines.  Everything
exact is compared with exact integer equality; float checks carry the
tolerances recorded here.

Known false congruence: the claim that the total core size over the
partitions of any multiple of t vanishes mod t**2 is mathematically false.
The first counterexample is t=2, n=6, where the total is 6 (only (3,2,1)
has a nonempty 2-core there) and 6 is 2 mod 4.  Criterion 05b asserts the
refutation: for t = 2..7 the checker must fail, at the first multiple of
t whose total is nonzero mod t**2 and with that residue, both found here
by enumerating partitions and confirmed by two independent core routines.
"""

import time
from collections import Counter

from mpmath import mp

from coretower import (
    Partition,
    check_congruence,
    check_recursion,
    compare_series,
    core_tower,
    defect,
    defect_samples,
    defect_series,
    divisor_sum_series,
    eisenstein_transform_residual,
    enumerate_partitions,
    enumerated,
    eta_growth_ratio,
    euler_product,
    generalized_core_series,
    hook_lengths,
    monotonicity_check,
    mul,
    negate,
    partition_count,
    partition_series,
    pre_tower_row,
    q_derivative,
    reconstruct,
    regular_partition_series,
    row_size,
    row_weight_series,
    t_core,
    t_quotient,
    tower_row_sizes,
    transfer,
)
from core_totals import first_nonvanishing_multiple

WORKED = Partition((5, 4, 2, 2, 1))


def _report(number: str, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" {detail}" if detail else ""
    print(f"acceptance {number} [{label}]: {verdict}{suffix}")
    assert ok, f"criterion {number} ({label}) failed{suffix}"


def test_criterion_01_worked_example_fidelity():
    start = time.perf_counter()
    ok = hook_lengths(WORKED) == [
        [9, 7, 4, 3, 1],
        [7, 5, 2, 1],
        [4, 2],
        [3, 1],
        [1],
    ]
    tower = core_tower(WORKED, 2)
    ok = ok and tower.rows[0] == (Partition((3, 2, 1)),)
    ok = ok and tower.rows[1] == (Partition(), Partition())
    ok = ok and Counter(p.parts for p in tower.rows[2]) == Counter({(1,): 2, (): 2})
    ok = ok and len(tower.rows) == 3
    ok = ok and Counter(p.parts for p in pre_tower_row(WORKED, 2, 1)) == Counter(
        {(1, 1): 1, (2,): 1}
    )
    elapsed = time.perf_counter() - start
    _report("01", "worked example", ok and elapsed < 1.0, f"({elapsed:.3f}s)")


def test_criterion_02_row_weight_oracle_equivalence():
    start = time.perf_counter()
    failures = []
    for t in (2, 3, 4, 5):
        for j in (0, 1, 2):
            report = compare_series(
                "row-weights",
                row_weight_series(j, t, 30),
                enumerated("T", j, t, 30),
                t=t,
                j=j,
            )
            if not report.passed:
                failures.append(report.describe())
    elapsed = time.perf_counter() - start
    detail = f"(12 identities, order 30, {elapsed:.1f}s)"
    if failures:
        detail += " " + "; ".join(failures)
    _report("02", "row-weight closed form vs enumeration", not failures and elapsed < 60, detail)


def test_criterion_03_defect_series_oracle_equivalence():
    failures = []
    for t in (2, 3, 5):
        report = compare_series(
            "defects", defect_series(t, 25), enumerated("D", None, t, 25), t=t
        )
        if not report.passed:
            failures.append(report.describe())
    _report("03", "defect series closed form vs enumeration", not failures,
            "; ".join(failures))


def test_criterion_04_generalized_core_oracle_equivalence():
    failures = []
    for j, t in ((0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (2, 2)):
        report = compare_series(
            "cores",
            generalized_core_series(j, t, 25),
            enumerated("cores", j, t, 25),
            t=t,
            j=j,
        )
        if not report.passed:
            failures.append(report.describe())
    two_cores = generalized_core_series(0, 2, 25)
    triangulars = {k * (k + 1) // 2 for k in range(10)}
    indicator_ok = all(
        two_cores[n] == (1 if n in triangulars else 0) for n in range(26)
    )
    if not indicator_ok:
        failures.append("2-core series is not the triangular indicator")
    _report("04", "generalized core counts", not failures, "; ".join(failures))


def test_criterion_05a_congruence_with_n_times_p():
    failures = []
    for t in range(2, 8):
        report, _ = check_congruence(t, 200)
        if not report.passed:
            failures.append(report.describe())
    _report("05a", "core sizes vs n*p(n) mod t^2", not failures, "; ".join(failures))


def test_criterion_05b_congruence_vanishing_at_multiples():
    problems = []
    witnesses = []
    for t in range(2, 8):
        _, report = check_congruence(t, 200)
        witness = first_nonvanishing_multiple(t)
        if witness is None:
            problems.append(f"t={t}: enumeration found no counterexample")
            continue
        n, residue = witness
        if report.status != "fail" or report.first_mismatch != (n, residue, 0):
            problems.append(
                f"t={t}: expected FAIL at n={n}: got {residue}, "
                f"but the checker says {report.describe()}"
            )
        if residue != n * partition_count(n) % (t * t):
            problems.append(f"t={t}: residue {residue} at n={n} is not n*p(n) mod t^2")
        witnesses.append(f"t={t} n={n} residue={residue}")
    _report(
        "05b",
        "vanishing at multiples of t refuted; witnesses confirmed by enumeration",
        not problems,
        "; ".join(problems or witnesses),
    )


def test_criterion_06_recursion_via_regular_partitions():
    failures = []
    for t in range(2, 8):
        report = check_recursion(t, 200)
        if not report.passed:
            failures.append(report.describe())
        closed = regular_partition_series(t, 25)
        for n in range(26):
            direct = sum(
                1 for lam in enumerate_partitions(n) if all(p % t for p in lam.parts)
            )
            if closed[n] != direct:
                failures.append(f"regular counts differ at t={t}, n={n}")
                break
    _report("06", "core-size recursion", not failures, "; ".join(failures))


def test_criterion_07_log_derivative_identities():
    n = 200
    ep = euler_product(n)
    g = divisor_sum_series(n)
    ok = q_derivative(ep) == negate(mul(g, ep))
    npn = mul(g, partition_series(n))
    ok = ok and all(npn[k] == k * partition_count(k) for k in range(n + 1))
    _report("07", "log-derivative and n*p(n) identities, order 200", ok)


def test_criterion_08_defect_series_monotonicity():
    failures = []
    for t in (2, 3, 5):
        report = monotonicity_check(t, 200)
        if not report.passed:
            failures.append(report.describe())
    _report("08", "defect coefficients nonnegative and increasing", not failures,
            "; ".join(failures))


def test_criterion_09_asymptotics():
    start = time.perf_counter()
    problems = []

    with mp.workdps(50):
        gap = abs(transfer([(1, 0, 0)], 500, dps=50) / partition_count(500) - 1)
    if gap >= mp.mpf("1e-12"):
        problems.append(f"(a) transfer misses p(500) by {mp.nstr(gap, 3)}")

    gaps = [
        abs(eta_growth_ratio(eps, dps=50) - 1) for eps in ("0.5", "0.2", "0.1", "0.05")
    ]
    if not (gaps[0] > gaps[1] > gaps[2] > gaps[3]):
        problems.append("(b) eta growth ratio not improving monotonically")

    for m in (1, 2, 3, 4):
        for eps in ("0.05", "0.1", "0.5"):
            residual = eisenstein_transform_residual(m, eps, dps=50)
            if residual >= mp.mpf("1e-8"):
                problems.append(f"(c) transform residual {residual} at m={m}, eps={eps}")

    for t in (2, 3, 5):
        trend = [abs(s.ratio - 1) for s in defect_samples(t, (100, 200, 400), dps=50)]
        if not (trend[0] > trend[1] > trend[2]):
            problems.append(f"(d) defect ratio gap not decreasing for t={t}")

    elapsed = time.perf_counter() - start
    detail = f"({elapsed:.1f}s)" + ("; ".join([""] + problems) if problems else "")
    _report("09", "asymptotic checks", not problems and elapsed < 30, detail)


def test_criterion_10_structural_properties():
    start = time.perf_counter()
    problems = []
    for t in (2, 3, 4, 5):
        for n in range(19):
            for lam in enumerate_partitions(n):
                core = t_core(lam, t)
                quo = t_quotient(lam, t)
                if reconstruct(core, quo, t) != lam:
                    problems.append(f"round trip fails for {lam.parts}, t={t}")
                if lam.size != core.size + t * sum(c.size for c in quo):
                    problems.append(f"size identity fails for {lam.parts}, t={t}")
                d = defect(lam, t)
                if d < 0 or d * (t - 1) + sum(tower_row_sizes(lam, t)) != lam.size:
                    problems.append(f"defect balance fails for {lam.parts}, t={t}")
                for j in range(4):
                    head = sum(t**k * row_size(lam, t, k) for k in range(j + 1))
                    tail = sum(p.size for p in pre_tower_row(lam, t, j + 1))
                    if lam.size != head + t ** (j + 1) * tail:
                        problems.append(f"tower identity fails for {lam.parts}, t={t}, j={j}")
                if problems:
                    break
            if problems:
                break
    elapsed = time.perf_counter() - start
    detail = f"(n<=18, t in 2..5, {elapsed:.1f}s)" + ("; ".join([""] + problems) if problems else "")
    _report("10", "structural property suite", not problems and elapsed < 60, detail)

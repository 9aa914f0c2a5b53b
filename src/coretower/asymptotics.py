"""High-precision numeric checks of the asymptotic statements.

Everything exact stays exact: integers taken from the series modules are
carried verbatim into the samples, and floats only ever appear in
predictions, ratios, and residuals.  All evaluations run under mpmath at
a configurable number of decimal digits (default DEFAULT_DPS), since the
growth factors exp(pi**2 / (6 eps)) overflow doubles long before eps is
small enough to be interesting.
"""

from __future__ import annotations

from itertools import count
from typing import NamedTuple, Sequence

from mpmath import mp

from .genfun import _check_params, defect_series
from .partitions import partition_count

DEFAULT_DPS = 50
SHOWN_DIGITS = 15  # significant digits of each float a defect sample shows

# The most terms a Lambert sum or the eta product may take; past it they refuse.
_MAX_TERMS = 50_000


def transfer(terms: Sequence[tuple], n: int, dps: int = DEFAULT_DPS):
    """Estimate of [q**n] f, where P = 1/(q;q)_inf and terms holds the
    numbers (c, beta, a) of f(e**-eps)/P(e**-eps) = sum c eps**beta e**(-a/eps).

    Each term gives c (A'/m)**((beta + 3/2)/2) I_(-beta-3/2)(2 sqrt(A' m))/sqrt(2 pi),
    with A' = pi**2/6 - a > 0 and m = n - 1/24, since P(e**-eps) is
    sqrt(eps/(2 pi)) e**(pi**2/(6 eps) - eps/24) up to exponentially small
    terms.  The one term (1, 0, 0) is Rademacher's first term for p(n).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    with mp.workdps(dps + 10):
        m = n - mp.mpf(1) / 24
        total = 0
        for c, beta, a in terms:
            growth = mp.pi**2 / 6 - a
            if growth <= 0:
                raise ValueError(f"a = {a} leaves no growth: it must be below pi**2/6")
            nu = beta + mp.mpf(3) / 2
            bessel = mp.besseli(-nu, 2 * mp.sqrt(growth * m))
            total += c * (growth / m) ** (nu / 2) * bessel
        total /= mp.sqrt(2 * mp.pi)
    with mp.workdps(dps):
        return +total


def hardy_ramanujan_estimate(n: int, dps: int = DEFAULT_DPS):
    """Leading-order estimate exp(pi sqrt(2n/3)) / (4 n sqrt(3)) for p(n): the
    leading term of transfer([(1, 0, 0)], n), with n for m and e**x/sqrt(2 pi x)
    for I(x)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    with mp.workdps(dps):
        nn = mp.mpf(n)
        return +(mp.exp(mp.pi * mp.sqrt(2 * nn / 3)) / (4 * nn * mp.sqrt(3)))


class DefectPrediction(NamedTuple):
    main_term: object
    np_form: object


def defect_predict(t: int, n: int, dps: int = DEFAULT_DPS) -> DefectPrediction:
    """Two predictions for the total defect over partitions of n.

    main_term is n/(t-1) times the Hardy-Ramanujan estimate for p(n), that
    is sqrt(3)/(12 (t-1)) * exp(pi sqrt(2n/3)); np_form is n*p(n)/(t-1) with
    the exact partition count.  The two agree to leading order.
    """
    _check_params(t)
    with mp.workdps(dps):
        main = n * hardy_ramanujan_estimate(n, dps) / (t - 1)
        np_form = mp.mpf(n * partition_count(n)) / (t - 1)
        return DefectPrediction(+main, +np_form)


def _lambert_sum(m: int, eps, tol):
    """sum_n n x**n / (1 - x**n) = sum_n sigma_1(n) x**n at x = exp(-m eps),
    to relative accuracy tol.

    Split at n = d by Dirichlet's hyperbola method, the double sum
    sum_{n,d} n x**(n d) is sum_k x**(k**2) [k / (1 - x**k)
    + x**k ((k + 1) - k x**k) / (1 - x**k)**2].  1 - x**k is built up from
    expm1 by positive steps x**(k-1) (1 - x), so no digits cancel.
    """
    x = mp.exp(-m * eps)
    one_minus_x = -mp.expm1(-m * eps)
    total = u = mp.mpf(0)  # u = 1 - x**k
    xk = xkk = mp.mpf(1)  # x**k and x**(k**2)
    for k in count(1):
        xkk *= xk * xk * x
        u += xk * one_minus_x
        xk *= x
        term = xkk * (k / u + xk * ((k + 1) - k * xk) / (u * u))
        total += term
        if term < tol * total:
            return total


def eisenstein_transform_residual(m: int, eps, dps: int = DEFAULT_DPS):
    """Relative gap between two evaluations of sum_n sigma_1(n) q**(m n)
    at q = e**-eps.

    The left side is _lambert_sum at m eps.  The right side uses the
    weight-two Eisenstein inversion

        1/24 + pi**2/(6 m**2 eps**2) * (1 - 24 sum sigma_1(n) e**(-4 pi**2 n/(eps m)))
            - 1/(2 m eps),

    whose dual sum is _lambert_sum at 4 pi**2/(m eps), to the same relative
    accuracy.  The identity is exact, so the residual only measures
    summation and rounding error.  The left side needs about
    sqrt((dps + 10) ln(10) / (m eps)) terms; past _MAX_TERMS this
    raises ValueError instead of summing.  So does m eps > 15 ln(10), where
    the right side cancels past the guard digits.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    with mp.workdps(dps + 15):
        e = mp.mpf(eps)
        if not 0 < e <= 1:
            raise ValueError("eps must satisfy 0 < eps <= 1")
        # The right side cancels to about e**(-m eps), which past this eps
        # would eat all 15 guard digits; the bound is shown rounded down.
        most = 15 * mp.log(10) / m
        if e > most:
            scale = mp.mpf(10) ** (mp.floor(mp.log10(most)) - 2)
            raise ValueError(
                f"eps {eps} is too large for m={m}: the right side would cancel "
                f"past the 15 guard digits (eps must be <= "
                f"{mp.nstr(mp.floor(most / scale) * scale, 3)})"
            )
        terms = mp.sqrt((dps + 10) * mp.log(10) / (m * e))
        if terms > _MAX_TERMS:
            least = mp.nstr(e * (terms / _MAX_TERMS) ** 2, 3)
            raise ValueError(
                f"eps {eps} is too small for m={m} at {dps} digits: the Lambert sum "
                f"would need over {_MAX_TERMS} terms (eps must be >= {least})"
            )
        tol = mp.mpf(10) ** (-(dps + 10))
        lhs = _lambert_sum(m, e, tol)
        dual = _lambert_sum(1, 4 * mp.pi**2 / (m * e), tol)
        rhs = (
            mp.mpf(1) / 24
            + mp.pi**2 / (6 * m**2 * e**2) * (1 - 24 * dual)
            - 1 / (2 * m * e)
        )
        residual = abs(lhs - rhs) / abs(lhs)
    with mp.workdps(dps):
        return +residual


def eta_growth_ratio(eps, dps: int = DEFAULT_DPS):
    """Ratio of 1/(e**-eps; e**-eps)_inf to sqrt(eps/(2 pi)) e**(pi**2/(6 eps)).

    Tends to 1 from below as eps -> 0+; the gap behaves like eps/24.
    Evaluated in log space so tiny eps cannot overflow.  The product needs
    about (dps + 12) ln(10) / eps factors; past _MAX_TERMS this raises
    ValueError instead of multiplying.
    """
    with mp.workdps(dps + 15):
        e = mp.mpf(eps)
        if not 0 < e < mp.inf:
            raise ValueError("eps must be a positive finite number")
        least = (dps + 12) * mp.log(10) / _MAX_TERMS
        if e < least:
            raise ValueError(
                f"eps {eps} is too small at {dps} digits: the product would need "
                f"over {_MAX_TERMS} factors (eps must be >= {mp.nstr(least, 3)})"
            )
        tiny = mp.mpf(10) ** (-(dps + 12))
        x = mp.exp(-e)
        log_lhs = mp.mpf(0)
        xk = x
        while xk > tiny:
            log_lhs -= mp.log(1 - xk)
            xk *= x
        log_rhs = mp.log(e) / 2 + mp.pi**2 / (6 * e) - mp.log(2 * mp.pi) / 2
        ratio = mp.exp(log_lhs - log_rhs)
    with mp.workdps(dps):
        return +ratio


class AsymptoticSample(NamedTuple):
    """One exact-versus-predicted data point for the total defect at size n.

    exact comes verbatim from the exact series; ratio is exact divided by
    the n*p(n)/(t-1) prediction, the form whose convergence the trend
    tests track.
    """

    n: int
    exact: int
    predicted_main_term: object
    predicted_np_over_t1: object
    ratio: object

    def columns(self) -> dict:
        """Fields by name as shown: n, exact in decimal, the floats to SHOWN_DIGITS."""
        shown = self._fields[2:]
        floats = {name: mp.nstr(getattr(self, name), SHOWN_DIGITS) for name in shown}
        return {"n": self.n, "exact": str(self.exact), **floats}


def defect_samples(
    t: int, ns: Sequence[int], dps: int = DEFAULT_DPS
) -> list[AsymptoticSample]:
    """Exact total defects at the given sizes with both predictions attached."""
    if not ns:
        return []
    if any(n < 1 for n in ns):
        raise ValueError("sample sizes must be at least 1")
    order = max(ns)
    exact_series = defect_series(t, order)
    samples = []
    for n in ns:
        exact = exact_series[n]
        prediction = defect_predict(t, n, dps=dps)
        with mp.workdps(dps):
            ratio = +(mp.mpf(exact) / prediction.np_form)
        samples.append(AsymptoticSample(n, exact, *prediction, ratio))
    return samples


def samples_to_csv(samples: Sequence[AsymptoticSample]) -> str:
    """CSV table with one column per AsymptoticSample field, in field order,
    each as AsymptoticSample.columns shows it."""
    lines = [",".join(AsymptoticSample._fields)]
    lines += (",".join(map(str, s.columns().values())) for s in samples)
    return "\n".join(lines) + "\n"

"""Chi-Square wavelet filters on the graph frequency axis [0, 2].

The family is indexed by i >= 1.  Member i is the chi-square density with
n = 2i degrees of freedom, compressed onto [0, 2] by the scale change
u = w(i+1) and renormalized to unit mass on the truncated interval:

    f_i(w) = (1/S_i) (1/(2^i Gamma(i))) (w(i+1))^(i-1) exp(-w(i+1)/2)

S_i is the mass of the unnormalized response on [0, 2].  The mode sits at
2(i-1)/(i+1), so the family sweeps from pure low-pass (i=1) toward the top of
the spectrum as i grows, which is what lets a filter be matched to whichever
frequency band carries the most signal energy.

For application on a graph, the response is approximated by a least-squares
polynomial of total degree i-1+d; a degree-k polynomial of a shift operator
touches at most k-hop neighborhoods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import chebyshev as ncheb
from numpy.polynomial import polynomial as npoly

FREQ_MAX = 2.0

# largest share of e^(-x) folded into the terms of the incomplete gamma sum at
# once; e^(-512) is a normal float64, while e^(-x) alone underflows past 745
_EXP_CHUNK = 512.0


def _lower_gamma_p(a: int, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for an integer a >= 1 and
    x >= 0, in closed form: 1 - e^(-x) sum_(k<a) x^k / k!.

    The terms come from the product t_k = t_(k-1) x / k.  e^(-x) enters them
    at most _EXP_CHUNK at a time, the next share once the running sum passes
    1, so neither the terms nor the sum underflow or overflow at any x."""
    share = min(x, _EXP_CHUNK)
    rest = x - share
    term = total = math.exp(-share)
    for k in range(1, a):
        term *= x / k
        total += term
        if total > 1.0 and rest > 0.0:
            share = min(rest, _EXP_CHUNK)
            rest -= share
            shrink = math.exp(-share)
            term *= shrink
            total *= shrink
    return 1.0 - total * math.exp(-rest)


def _log_unnormalized(w, i):
    # log of (1/(2^i Gamma(i))) (w(i+1))^(i-1) exp(-w(i+1)/2); log-space keeps
    # i=128 finite where the direct power overflows
    w = np.asarray(w, dtype=np.float64)
    base = -i * np.log(2.0) - math.lgamma(i)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = (i - 1) * np.log(w * (i + 1.0)) - w * (i + 1.0) / 2.0 + base
    if i == 1:
        logs = np.where(w == 0.0, base, logs)
    else:
        logs = np.where(w == 0.0, -np.inf, logs)
    return logs


def _unnormalized(w, i):
    return np.exp(_log_unnormalized(w, i))


def _check_index(i) -> int:
    if int(i) != i or i < 1:
        raise ValueError(f"filter index must be an integer >= 1, got {i}")
    return int(i)


def normalization_constant(i: int) -> float:
    """Mass of the unnormalized response on [0, 2]: with u = w(i+1) it is the
    chi-square(2i) CDF at 2(i+1) over i+1, that is P(i, i+1)/(i+1) with P the
    regularized lower incomplete gamma function."""
    i = _check_index(i)
    return _lower_gamma_p(i, i + 1.0) / (i + 1.0)


def chi_response(i: int, w):
    """Normalized response f_i at frequency w (scalar or array), w in [0, 2]."""
    i = _check_index(i)
    arr = np.asarray(w, dtype=np.float64)
    if arr.size and (arr.min() < 0.0 or arr.max() > FREQ_MAX):
        raise ValueError("frequency outside [0, 2]")
    out = _unnormalized(arr, i) / normalization_constant(i)
    return float(out) if np.isscalar(w) else out


def chi_mode(i: int) -> float:
    """Frequency of the response maximum: 2(i-1)/(i+1)."""
    i = _check_index(i)
    return float(np.clip(2.0 * (i - 1) / (i + 1.0), 0.0, FREQ_MAX))


def chi_moments(i: int) -> tuple[float, float]:
    """(expectation, variance) of the truncated density on [0, 2], closed form.

    u^k times the chi-square(2i) density is 2^k i(i+1)..(i+k-1) times the
    chi-square(2(i+k)) density, so the k-th truncated moment is a ratio of
    regularized incomplete gamma values: E w = 2i P(i+1, i+1)/((i+1) P(i, i+1))
    and E w^2 = 4i P(i+2, i+1)/((i+1) P(i, i+1)).
    """
    i = _check_index(i)
    x = i + 1.0
    p = _lower_gamma_p(i, x)
    e = 2.0 * i * _lower_gamma_p(i + 1, x) / (x * p)
    second = 4.0 * i * _lower_gamma_p(i + 2, x) / (x * p)
    return e, second - e * e


def admissibility_integral(i: int) -> float:
    """Quadrature value of the band-pass (admissibility) integral
    int_0^inf f_i(w)^2 / w dw over the untruncated response.

    i=1 has f_1(0) > 0, so the integral diverges and is rejected.  The
    closed form checks this value, so it stays quadrature; scipy.integrate
    is imported here, off every command's import path.
    """
    from scipy import integrate

    i = _check_index(i)
    if i == 1:
        raise ValueError("filter i=1 is not admissible: the integral diverges at w=0")
    s = normalization_constant(i)

    def integrand(w):
        if w == 0.0:
            return 0.0
        return float(np.exp(2.0 * _log_unnormalized(w, i) - np.log(w))) / (s * s)

    val, _ = integrate.quad(integrand, 0.0, np.inf,
                            epsabs=1e-12, epsrel=1e-10, limit=400)
    return val


def admissibility_closed_form(i: int) -> float:
    """Gamma(2(i-1)) / (S_i 2^i Gamma(i))^2, the analytic value of the
    admissibility integral (finite exactly when i >= 2)."""
    i = _check_index(i)
    if i == 1:
        raise ValueError("filter i=1 is not admissible: the integral diverges at w=0")
    s = normalization_constant(i)
    log_val = (math.lgamma(2 * (i - 1))
               - 2.0 * (i * np.log(2.0) + math.lgamma(i) + np.log(s)))
    return float(np.exp(log_val))


@dataclass(eq=False)
class PolyFilter:
    """Polynomial approximation of a frequency response on [0, 2], given by its
    Chebyshev series in T_k(w - 1).  `coeffs`, the ascending monomial
    coefficients in w, is converted from the series on first read and kept;
    the conversion loses all accuracy at high degree, so a filter only ever
    applied as a series never converts."""
    cheb: np.ndarray
    fit_error_linf: float

    def __post_init__(self):
        self.cheb = np.asarray(self.cheb, dtype=np.float64)

    @cached_property
    def coeffs(self) -> np.ndarray:
        mono = ncheb.Chebyshev(self.cheb, domain=[0.0, FREQ_MAX]).convert(
            kind=npoly.Polynomial, domain=[0.0, FREQ_MAX], window=[0.0, FREQ_MAX])
        coeffs = np.zeros(len(self.cheb))
        coeffs[: len(mono.coef)] = mono.coef
        return coeffs

    @property
    def degree(self) -> int:
        return len(self.cheb) - 1


def fit_grid_polynomial(w: np.ndarray, y: np.ndarray, degree: int) -> PolyFilter:
    """Least-squares polynomial fit of sampled values on a grid over [0, 2],
    in the Chebyshev basis of that interval; the recorded L-inf error is that
    series' error on the grid."""
    if len(w) < degree + 1:
        raise ValueError("grid too small for the requested degree")
    if w[0] != 0.0 or w[-1] != FREQ_MAX:
        raise ValueError(f"grid must span [0, {FREQ_MAX}], got [{w[0]}, {w[-1]}]")
    cheb = ncheb.Chebyshev.fit(w, y, degree, domain=[0.0, FREQ_MAX])
    return PolyFilter(cheb.coef, float(np.max(np.abs(cheb(w) - y))))


def fit_polynomial(i: int, d: int = 3) -> PolyFilter:
    """Degree i-1+d least-squares fit of f_i on a uniform grid over [0, 2]
    of max(1024, 4(i+d)) points."""
    i = _check_index(i)
    if d < 1:
        raise ValueError("degree budget d must be >= 1")
    w = np.linspace(0.0, FREQ_MAX, max(1024, 4 * (i + d)))
    return fit_grid_polynomial(w, chi_response(i, w), i - 1 + d)

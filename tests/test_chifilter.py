import math

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.polynomial import chebyshev as ncheb
from numpy.polynomial import polynomial as npoly
from scipy import integrate
from scipy.special import gammainc, gammaln

from chigad.autodiff import Tape, cheb_apply
from chigad.chifilter import (PolyFilter, _lower_gamma_p, admissibility_closed_form,
                              admissibility_integral, apply_filter, chi_mode,
                              chi_moments, chi_response, fit_grid_polynomial,
                              fit_polynomial, normalization_constant)
from chigad.config import DEFAULT_CANDIDATES
from chigad.hin import laplacian
from chigad.model import summed_coeffs
from oracles import monomial_coeffs

CANDIDATES = (1, 2, 4, 8, 16, 32, 64, 128)

# reference values for the eight standard indices: (expectation, mode)
REFERENCE_TABLE = {
    1: (0.6970, 0.0000),
    2: (0.9603, 0.6667),
    4: (1.2180, 1.1992),
    8: (1.4313, 1.5556),
    16: (1.5940, 1.7638),
    32: (1.7126, 1.8779),
    64: (1.7973, 1.9339),
    128: (1.8571, 1.9600),
}


class TestNormalization:
    def test_closed_form_i1(self):
        # int_0^2 (1/2) e^{-w} dw = (1 - e^{-2}) / 2
        assert normalization_constant(1) == pytest.approx((1 - np.exp(-2)) / 2, abs=1e-12)

    def test_density_integrates_to_one(self):
        for i in CANDIDATES:
            total, _ = integrate.quad(lambda w: chi_response(i, w), 0, 2,
                                      epsabs=1e-10, limit=200)
            assert total == pytest.approx(1.0, abs=1e-6), f"i={i}"

    def test_i2_integration_by_parts(self):
        # int_0^2 (3w/4) e^{-3w/2} dw by parts: [-(w/2)e^{-3w/2}] + int (1/2)e^{-3w/2}
        boundary = -(2 / 2) * np.exp(-3.0)
        tail = (1 / 3) * (1 - np.exp(-3.0))
        assert normalization_constant(2) == pytest.approx(boundary + tail, abs=1e-10)

    def test_incomplete_gamma_identity(self):
        # substituting u = w(i+1) turns the mass into a chi-square CDF:
        # S_i = P(i, i+1) / (i+1) with P the regularized lower incomplete gamma
        for i in CANDIDATES:
            expected = gammainc(i, i + 1) / (i + 1)
            assert normalization_constant(i) == pytest.approx(expected, rel=1e-9)


class TestIncompleteGammaClosedForm:
    """P(a, x) = 1 - e^(-x) sum_(k<a) x^k / k! for integer a, against scipy,
    which the package itself does not import."""

    @pytest.mark.parametrize("i", sorted(set(DEFAULT_CANDIDATES)))
    def test_matches_scipy_at_candidates(self, i):
        # the indices and point S_i and the moments use: a = i, i+1, i+2 at i+1
        for a in (i, i + 1, i + 2):
            want = gammainc(a, i + 1.0)
            assert abs(_lower_gamma_p(a, i + 1.0) - want) <= 1e-14 * want, f"a={a}"

    @pytest.mark.parametrize("i", [744, 745, 1000, 5000])
    def test_accurate_where_exp_underflows(self, i):
        # e^(-(i+1)) alone is subnormal or zero here; a plain product loop
        # starting from it returns 2.1e-4 for S_744 against 7.0e-4
        assert np.exp(-(i + 1.0)) < np.finfo(float).tiny
        for a in (i, i + 1, i + 2):
            got, want = _lower_gamma_p(a, i + 1.0), gammainc(a, i + 1.0)
            assert np.isfinite(got) and abs(got - want) <= 1e-11 * want, f"a={a}"
        assert normalization_constant(i) == pytest.approx(
            gammainc(i, i + 1.0) / (i + 1.0), rel=1e-11)

    def test_edges(self):
        assert _lower_gamma_p(1, 0.0) == 0.0 and _lower_gamma_p(5, 0.0) == 0.0
        assert _lower_gamma_p(1, 2.0) == pytest.approx(1.0 - np.exp(-2.0), rel=1e-15)
        assert _lower_gamma_p(3, 1e6) == 1.0

    def test_lgamma_matches_gammaln(self):
        for n in list(range(1, 300)) + [511, 1024, 5000]:
            assert math.lgamma(n) == pytest.approx(float(gammaln(n)), rel=1e-14, abs=1e-15)


class TestResponse:
    def test_value_at_zero_i1(self):
        assert chi_response(1, 0.0) == pytest.approx(1 / (1 - np.exp(-2)), abs=1e-4)

    def test_value_at_zero_vanishes_for_i2(self):
        assert chi_response(2, 0.0) == 0.0

    def test_maximum_of_i2_at_two_thirds(self):
        w = np.linspace(0, 2, 20001)
        vals = chi_response(2, w)
        assert w[np.argmax(vals)] == pytest.approx(2 / 3, abs=1e-3)

    def test_nonnegative_on_grid(self):
        w = np.linspace(0, 2, 512)
        for i in CANDIDATES:
            assert np.all(chi_response(i, w) >= 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            chi_response(2, 2.5)
        with pytest.raises(ValueError):
            chi_response(2, np.array([-0.1, 1.0]))

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            chi_response(0, 1.0)
        with pytest.raises(ValueError):
            chi_mode(1.5)


class TestMode:
    def test_closed_form(self):
        for i in (1, 2, 3, 5, 8, 13):
            assert chi_mode(i) == pytest.approx(2 * (i - 1) / (i + 1), abs=1e-15)

    def test_matches_grid_argmax(self):
        w = np.linspace(0, 2, 40001)
        for i in (2, 4, 8, 16):
            grid_mode = w[np.argmax(chi_response(i, w))]
            assert chi_mode(i) == pytest.approx(grid_mode, abs=1e-3)

    def test_reference_values(self):
        for i, (_, mode) in REFERENCE_TABLE.items():
            if i == 128:
                assert chi_mode(i) == pytest.approx(mode, rel=0.01)
            else:
                assert chi_mode(i) == pytest.approx(mode, abs=0.01)


class TestMoments:
    def test_reference_expectations(self):
        for i, (expectation, _) in REFERENCE_TABLE.items():
            e, _ = chi_moments(i)
            assert e == pytest.approx(expectation, abs=0.02), f"i={i}"

    def test_expectation_in_range(self):
        for i in CANDIDATES:
            e, v = chi_moments(i)
            assert 0 <= e <= 2
            assert v > 0

    def test_variance_decreases(self):
        variances = [chi_moments(i)[1] for i in CANDIDATES[1:]]
        assert all(a > b for a, b in zip(variances, variances[1:]))


class TestAdmissibility:
    def test_matches_closed_form(self):
        for i in range(2, 11):
            quad_val = admissibility_integral(i)
            closed = admissibility_closed_form(i)
            assert quad_val == pytest.approx(closed, rel=1e-6), f"i={i}"

    def test_positive_and_finite(self):
        val = admissibility_integral(3)
        assert np.isfinite(val) and val > 0

    def test_i1_rejected(self):
        with pytest.raises(ValueError, match="not admissible"):
            admissibility_integral(1)
        with pytest.raises(ValueError, match="not admissible"):
            admissibility_closed_form(1)


class TestFit:
    def test_degree_rule(self):
        for i, d in [(1, 3), (2, 3), (4, 2), (3, 5)]:
            assert fit_polynomial(i, d).degree == i - 1 + d

    def test_i1_close_fit(self):
        pf = fit_polynomial(1, 3)
        assert pf.fit_error_linf <= 0.01

    def test_constant_response_exact(self):
        w = np.linspace(0, 2, 64)
        pf = fit_grid_polynomial(w, np.full_like(w, 2.5), 4)
        assert pf.coeffs[0] == pytest.approx(2.5, abs=1e-10)
        assert np.max(np.abs(pf.coeffs[1:])) < 1e-10

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            fit_polynomial(4, 3, grid_size=8)

    def test_grid_must_span_frequency_axis(self):
        # the Chebyshev coefficients are those of T_k(w - 1) on [0, 2]
        w = np.linspace(0, 1, 64)
        with pytest.raises(ValueError, match=r"grid must span \[0, 2.0\]"):
            fit_grid_polynomial(w, np.ones_like(w), 4)

    def test_monomial_evaluation_matches_response(self):
        # at low degree the monomial form is still numerically fine
        pf = fit_polynomial(2, 3)
        w = np.linspace(0, 2, 200)
        assert np.max(np.abs(npoly.polyval(w, pf.coeffs) - chi_response(2, w))) < 0.05

    def test_chebyshev_and_monomial_bases_agree(self):
        # the monomial coefficients are derived from the series, for a fit and
        # for a hand-built filter alike
        w = np.linspace(0, 2, 200)
        for pf in (fit_polynomial(3, 3), PolyFilter(np.array([0.5, -0.5]), 0.0)):
            assert len(pf.cheb) == len(pf.coeffs) == pf.degree + 1
            assert np.max(np.abs(ncheb.chebval(w - 1.0, pf.cheb)
                                 - npoly.polyval(w, pf.coeffs))) < 1e-12

    def test_lowpass_series_gives_exact_monomials(self):
        # 1/2 - T_1(w - 1)/2 is the low-pass 1 - w/2
        pf = PolyFilter(np.array([0.5, -0.5]), 0.0)
        assert pf.coeffs.tolist() == [1.0, -0.5]
        assert pf.degree == 1

    @pytest.mark.parametrize("i", sorted(set(DEFAULT_CANDIDATES)))
    def test_monomial_form_converted_on_first_read(self, i):
        for d in (2, 3, 8):
            pf = fit_polynomial(i, d)
            assert "coeffs" not in vars(pf)
            got = pf.coeffs
            want = monomial_coeffs(pf.cheb)
            assert got.tobytes() == want.tobytes(), f"d={d}"
            assert vars(pf)["coeffs"] is got and pf.coeffs is got

    @pytest.mark.parametrize("i", sorted(set(DEFAULT_CANDIDATES)))
    def test_call_is_within_fit_error_on_fit_grid(self, i):
        # a call evaluates the series the error was measured on; the monomial
        # form misses by 0.013 at i = 32 and by about 1e18 at i = 64
        pf = fit_polynomial(i, 3)
        w = np.linspace(0.0, 2.0, max(1024, 4 * (i + 3)))
        gap = np.max(np.abs(pf(w) - chi_response(i, w)))
        assert gap <= pf.fit_error_linf * (1.0 + 1e-12)


def _edge_laplacian():
    adj = sp.csr_matrix(np.array([[0, 1], [1, 0]], dtype=float))
    return laplacian(adj)


class TestApply:
    def test_constant_filter_is_identity(self):
        X = np.arange(6, dtype=float).reshape(3, 2)
        L = laplacian(sp.csr_matrix((3, 3)))
        assert np.array_equal(apply_filter([1.0], L, X), X)

    def test_single_edge_matvec(self):
        y = apply_filter([0.0, 1.0], _edge_laplacian(), np.array([1.0, -1.0]))
        assert np.allclose(y, [2.0, -2.0])

    def test_disconnected_independence(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 2, size=(4, 4))
        b = rng.integers(0, 2, size=(3, 3))
        a, b = np.triu(a, 1), np.triu(b, 1)
        block = np.block([[a + a.T, np.zeros((4, 3))], [np.zeros((3, 4)), b + b.T]])
        L = laplacian(sp.csr_matrix(block))
        coeffs = [0.3, -0.7, 0.2]
        x1 = rng.normal(size=(7, 2))
        x2 = x1.copy()
        x2[4:] = rng.normal(size=(3, 2))
        y1 = apply_filter(coeffs, L, x1)
        y2 = apply_filter(coeffs, L, x2)
        assert np.allclose(y1[:4], y2[:4])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_filter([1.0], _edge_laplacian(), np.ones((3, 2)))

    def test_spatial_locality_on_path(self):
        # a degree-k polynomial of the Laplacian cannot reach past k hops
        n = 30
        adj = sp.csr_matrix(
            (np.ones(2 * (n - 1)),
             (list(range(n - 1)) + list(range(1, n)),
              list(range(1, n)) + list(range(n - 1)))), shape=(n, n))
        L = laplacian(adj)
        for i, d in [(1, 3), (2, 3), (4, 3)]:
            pf = fit_polynomial(i, d)
            delta = np.zeros(n)
            delta[0] = 1.0
            y = apply_filter(pf, L, delta)
            reach = i - 1 + d
            assert np.all(y[reach + 1:] == 0.0), f"i={i}"
            assert np.any(y[:reach + 1] != 0.0)


@pytest.fixture(scope="module")
def random_spectrum():
    """A 300-node random graph's normalized Laplacian S, the matrix 2(S - I)
    the Chebyshev recurrence applies, and S's eigendecomposition."""
    rng = np.random.default_rng(21)
    a = np.triu(rng.random((300, 300)) < 0.02, 1).astype(float)
    S = laplacian(sp.csr_matrix(a + a.T))
    lam, U = np.linalg.eigh(S.toarray())
    return sp.csr_matrix(2.0 * (S - sp.eye(300))), lam, U


@pytest.mark.parametrize("i", sorted(set(DEFAULT_CANDIDATES)) + ["sum"])
def test_chebyshev_apply_matches_eigh(random_spectrum, i):
    # the applied series against U p(Lambda) U^T x for the same series p:
    # this gates the basis, not the fit (the monomial form reaches 1e57 at 128)
    M, lam, U = random_spectrum
    cands = sorted(set(DEFAULT_CANDIDATES)) if i == "sum" else [i]
    cheb = summed_coeffs([fit_polynomial(k, 3) for k in cands])
    X = np.random.default_rng(4).standard_normal((300, 3))
    got = cheb_apply(cheb, M, Tape().leaf(X)).value
    want = U @ (ncheb.chebval(lam - 1.0, cheb)[:, None] * (U.T @ X))
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

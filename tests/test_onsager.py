import io
import json
import math

import numpy as np
import pytest

from entroflow import (
    AtEquilibriumError,
    IllConditionedError,
    OnsagerReport,
    as_manifold,
    empirical_report,
    integrate,
    onsager_matrix,
    unit_velocity,
    write_onsager_json,
)
from entroflow import onsager as onsager_module
from entroflow.onsager import _derivative, _window_rows
from helpers import fit_window, pooled_fit, synthetic_trajectory


class TestOnsagerMatrix:
    def test_bernoulli_derived_value(self, bernoulli):
        lam = math.log(3.0)
        g_inv = 0.1875
        s = lam * math.sqrt(g_inv)
        report = onsager_matrix(bernoulli, [0.25], clock_rate=1.0)
        assert report.L[0, 0] == pytest.approx(g_inv / s, rel=1e-12)
        assert report.L[0, 0] == pytest.approx(0.394146, abs=1e-5)

    def test_gaussian_derived_value(self, gaussian):
        report = onsager_matrix(gaussian, [-2.0], clock_rate=1.0)
        assert report.L[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_exact_symmetry(self, equal_gas_pair, rng):
        for _ in range(20):
            A = np.array([rng.uniform(0.8, 3.0), rng.uniform(0.4, 1.5)])
            if np.max(np.abs(A - np.array([2.0, 1.0]))) < 0.05:
                continue
            report = onsager_matrix(equal_gas_pair, A, clock_rate=1.0)
            assert report.asymmetry == 0.0
            assert np.array_equal(report.L, report.L.T)

    def test_linear_in_clock_rate(self, equal_gas_pair):
        A = [1.2, 0.7]
        one = onsager_matrix(equal_gas_pair, A, clock_rate=1.0).L
        two = onsager_matrix(equal_gas_pair, A, clock_rate=2.0).L
        assert np.array_equal(two, 2.0 * one)

    def test_equilibrium_raises(self, bernoulli):
        with pytest.raises(AtEquilibriumError):
            onsager_matrix(bernoulli, [0.5], clock_rate=1.0)

    def test_clock_rate_validated(self, bernoulli):
        with pytest.raises(ValueError):
            onsager_matrix(bernoulli, [0.25], clock_rate=0.0)

    @pytest.mark.parametrize("clock_rate", [math.inf, math.nan])
    def test_clock_rate_must_be_finite(self, bernoulli, bernoulli_traj, clock_rate):
        # an infinite rate would give L = inf and an asymmetry of NaN
        with pytest.raises(ValueError, match="clock_rate must be finite and > 0"):
            onsager_matrix(bernoulli, [0.25], clock_rate=clock_rate)
        with pytest.raises(ValueError, match="clock_rate must be finite and > 0"):
            empirical_report(bernoulli, bernoulli_traj, clock_rate)


class TestFluxForceRelation:
    def test_exact_along_trajectory(self, bernoulli, bernoulli_traj):
        # dA/dt = L . lam holds at every sample with sigma above threshold
        clock = 1.7
        t = bernoulli_traj
        for A, lam in zip(t.A[t.sigma >= 1e-6], t.lam[t.sigma >= 1e-6]):
            flux = clock * unit_velocity(as_manifold(bernoulli).point(A))
            L = onsager_matrix(bernoulli, A, clock_rate=clock).L
            resid = np.linalg.norm(flux - L @ lam) / np.linalg.norm(flux)
            assert resid <= 1e-6


class TestEmpiricalOnsager:
    def test_bernoulli_window(self, bernoulli, bernoulli_traj):
        center = 3
        fitted = fit_window(bernoulli_traj, center, 1.0, window=5)
        analytic = onsager_matrix(bernoulli, bernoulli_traj.A[center], 1.0).L
        assert abs(fitted[0, 0] - analytic[0, 0]) <= 0.02 * analytic[0, 0]

    def test_gaussian_window(self, gaussian, gaussian_traj):
        center = len(gaussian_traj) // 2
        fitted = fit_window(gaussian_traj, center, 1.0, window=5)
        analytic = onsager_matrix(gaussian, gaussian_traj.A[center], 1.0).L
        assert abs(fitted[0, 0] - analytic[0, 0]) <= 0.01 * analytic[0, 0]

    def test_clock_rate_scales_fluxes(self, bernoulli, bernoulli_traj):
        one = empirical_report(bernoulli, bernoulli_traj, 1.0, center=5).empirical_L
        three = empirical_report(bernoulli, bernoulli_traj, 3.0, center=5).empirical_L
        assert np.max(np.abs(three - 3.0 * one)) <= 1e-12 * np.max(np.abs(three))

    def test_equilibrium_tail_is_ill_conditioned(self):
        # a window of near-zero forces relative to the trajectory scale
        taus = np.arange(12) * 1e-3
        lams = [1.0, 0.8, 0.6, 0.4] + [1e-9] * 8
        states = [[0.1 + 0.01 * k] for k in range(12)]
        entropies = np.linspace(0.1, 0.2, 12)
        traj = synthetic_trajectory(taus, states, [[l] for l in lams], entropies, lams)
        with pytest.raises(IllConditionedError):
            fit_window(traj, 8, 1.0, window=5)

    def test_single_trajectory_cannot_resolve_two_directions(self, equal_gas_pair):
        # the force one-form decays parallel to itself, so one trajectory
        # only probes one direction: the 2-D window is rank one
        traj = integrate(equal_gas_pair, [0.8, 0.7], tau_max=10.0, h=1e-2)
        with pytest.raises(IllConditionedError):
            fit_window(traj, len(traj) // 2, 1.0, window=5)

    def test_pooled_windows_recover_full_matrix(self, equal_gas_pair):
        t1 = integrate(equal_gas_pair, [0.8, 0.7], tau_max=10.0, h=5e-3)
        t2 = integrate(equal_gas_pair, [1.45, 0.6], tau_max=10.0, h=5e-3)

        def center_at_sigma(traj, target):
            return int(np.argmin(np.abs(traj.sigma - target)))

        c1 = center_at_sigma(t1, 0.05)
        c2 = center_at_sigma(t2, 0.05)
        fitted = pooled_fit([(t1, c1), (t2, c2)], 1.0, window=5)
        analytic = onsager_matrix(equal_gas_pair, t1.A[c1], 1.0).L
        assert np.max(np.abs(fitted - analytic)) <= 0.05 * np.max(np.abs(analytic))
        asym = np.max(np.abs(fitted - fitted.T)) / np.max(np.abs(fitted))
        assert asym <= 0.05

    def test_whole_array_fluxes_equal_per_sample_floats(self, coupled_gas_traj):
        # one stencil call over the window, landing rows included, gives each
        # flux bit for bit as the stencil on that sample's Python floats
        traj, clock = coupled_gas_traj, 1.7
        forces, fluxes = _window_rows(traj, clock, 1, len(traj) - 2)
        tau, A = traj.tau.tolist(), traj.A.tolist()
        want = [[clock * _derivative(A[k - 1][j], A[k][j], A[k + 1][j],
                                     tau[k] - tau[k - 1], tau[k + 1] - tau[k])
                 for j in range(traj.A.shape[1])] for k in range(1, len(tau) - 1)]
        assert fluxes.tolist() == want
        assert np.array_equal(forces, traj.lam[1:-1] - traj.lam_prime[1:-1])

    def test_window_must_fit_interior(self, bernoulli_traj):
        with pytest.raises(ValueError):
            fit_window(bernoulli_traj, 0, 1.0, window=5)
        with pytest.raises(ValueError):
            fit_window(bernoulli_traj, len(bernoulli_traj), 1.0, window=5)

    def test_window_size_floor(self, coupled_gas_traj):
        with pytest.raises(ValueError):
            fit_window(coupled_gas_traj, None, 1.0, window=3)  # needs n_dim + 2


class TestReportExport:
    def test_report_fields_and_json(self, gas_e_only_pair):
        traj = integrate(gas_e_only_pair, [1.0], tau_max=6.0)
        report = empirical_report(gas_e_only_pair, traj, 1.0)
        assert isinstance(report, OnsagerReport)
        assert report.asymmetry == 0.0
        assert report.window is not None
        rel = abs(report.empirical_L[0, 0] - report.L[0, 0]) / report.L[0, 0]
        assert rel <= 0.02
        buf = io.StringIO()
        write_onsager_json(report, buf)
        doc = json.loads(buf.getvalue())
        assert set(doc) == {"L", "asymmetry", "empirical_L", "window"}
        assert doc["asymmetry"] == 0.0
        assert doc["window"] == list(report.window)
        assert doc["L"][0][0] == report.L[0, 0]

    def test_report_fits_its_window_once(self, gas_e_only_pair, monkeypatch):
        # the report takes its window once, and its fit is bit for bit the
        # standalone fit of that window
        traj = integrate(gas_e_only_pair, [1.0], tau_max=6.0)
        calls = []
        bounds = onsager_module._window_bounds
        monkeypatch.setattr(onsager_module, "_window_bounds",
                            lambda *args: calls.append(args) or bounds(*args))
        report = empirical_report(gas_e_only_pair, traj, 1.5, window=7)
        assert len(calls) == 1
        assert np.array_equal(report.empirical_L, fit_window(traj, None, 1.5, window=7))

    def test_report_without_empirical(self, bernoulli):
        report = onsager_matrix(bernoulli, [0.25])
        buf = io.StringIO()
        write_onsager_json(report, buf)
        doc = json.loads(buf.getvalue())
        assert doc["empirical_L"] is None
        assert doc["window"] is None

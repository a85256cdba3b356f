import ast
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.integrate import DOP853, OdeSolution

import suslovkit
from suslovkit import flow
from suslovkit.core import energy, validate, vector_field
from suslovkit.fields import DensitySpec, VectorFieldSpec, example2d, example2d_density
from suslovkit.flow import (
    IntegrationError,
    Trajectory,
    _candidate_distances,
    _dop853_interpolant,
    _error_norm,
    _load_dop853_tableau,
    _log_volume_flow,
    detect_attractor,
    flow_map_with_jacobian,
    integrate,
    integrate_batch,
    liouville_residual,
    measure_transport_check,
    reconstruct,
    sample_ellipsoid,
    simulate,
    suslov_attractor_probe,
)
from suslovkit.measures import density_params, density_spec, first_integral_F

from conftest import draw_params


def _scipy_route(rhs, t0, y0, t1, after_step):
    """Oracle: scipy's DOP853 with its own per-step dense output, joined by
    OdeSolution; after_step(solver) runs after each step's dense output is
    taken, as the package's energy projection does. Returns the step times
    and the joined solution."""
    solver = DOP853(rhs, t0, y0, t1, rtol=1e-10, atol=1e-12)
    ts, interps = [t0], []
    while solver.status == "running":
        solver.step()
        interps.append(solver.dense_output())
        after_step(solver)
        ts.append(solver.t)
    return np.array(ts), OdeSolution(ts, interps)


def _scipy_simulate(params, omega0, T, project_energy):
    """The run simulate makes at its default tolerances, through _scipy_route."""
    field = vector_field(params)
    rhs = lambda t, y: field.eval(y)
    eta0 = float(energy(params, omega0))

    def project(solver):
        if project_energy:
            w = solver.y
            solver.y = w * np.sqrt(eta0 / float(energy(params, w)))
            solver.f = rhs(solver.t, solver.y)

    return _scipy_route(rhs, 0.0, omega0, T, project)


def _left_mul(q):
    """The 4x4 matrix of left multiplication by the scalar-first quaternion
    q: q (x) r = _left_mul(q) @ r, the Hamilton product."""
    w, x, y, z = q
    return np.array([[w, -x, -y, -z], [x, w, -z, y], [y, z, w, -x], [z, -y, x, w]])


def _bits(x):
    """The doubles of x as integers, so that equality is bit for bit."""
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


def _counting(field):
    """field with a counter of its eval calls, in calls[0]."""
    calls = [0]

    def evaluate(x):
        calls[0] += 1
        return field.eval(x)

    return VectorFieldSpec(dim=field.dim, eval=evaluate, jac=field.jac), calls


def _endpoint(field, x0, T, **kw):
    """State at time T; backward runs store it first (times stay increasing)."""
    traj = integrate(field, np.asarray(x0, dtype=float), T, **kw)
    return traj.states[0] if T < 0 else traj.states[-1]


class TestIntegrate:
    def test_equilibrium_stays_constant(self, pstar):
        traj = simulate(pstar, np.array([0.0, 0.0, 1.0]), 50.0)
        assert np.max(np.linalg.norm(traj.states - [0, 0, 1], axis=1)) <= 1e-9

    def test_energy_drift_T100(self, pstar):
        traj = simulate(pstar, np.array([1.0, 1.0, 1.0]), 100.0)
        assert traj.energy_drift <= 1e-9

    def test_example2d_closed_form(self):
        f = example2d()
        tol = 1e-10
        for t in (0.5, 1.0, 2.0):
            end = _endpoint(f, [1.0, 1.0], t, tol=tol)
            exact = np.array([math.exp(-t), math.exp(2 * t)])
            assert np.max(np.abs(end - exact) / np.abs(exact)) <= tol * 1e4

    def test_backward_integration(self, pstar):
        fwd = simulate(pstar, np.array([0.4, -0.2, 0.9]), 5.0)
        back = simulate(pstar, fwd.states[-1], -5.0)
        np.testing.assert_allclose(back.states[0], [0.4, -0.2, 0.9], atol=1e-8)
        assert np.all(np.diff(back.times) > 0)

    def test_record_times_hit_exactly(self, pstar):
        grid = np.array([0.7, 1.3, 2.9])
        traj = simulate(pstar, np.array([1.0, 0.3, -0.5]), 3.0, record_times=grid)
        for t in grid:
            assert t in traj.times

    def test_blowup_reports_last_time(self):
        quad = VectorFieldSpec(
            dim=1,
            eval=lambda x: x ** 2,
            jac=lambda x: 2.0 * x[..., None],
        )
        with pytest.raises(IntegrationError) as exc:
            integrate(quad, np.array([1.0]), 2.0)
        assert exc.value.t_last == pytest.approx(1.0, abs=0.05)

    def test_variational_blowup_reports_last_time(self):
        quad = VectorFieldSpec(
            dim=1,
            eval=lambda x: x ** 2,
            jac=lambda x: 2.0 * x[..., None],
        )
        with pytest.raises(IntegrationError, match="variational") as exc:
            flow_map_with_jacobian(quad, np.array([1.0]), 2.0)
        assert exc.value.t_last == pytest.approx(1.0, abs=0.05)

    def test_trajectory_requires_increasing_times(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 1.0, 0.5]),
                       states=np.zeros((3, 2)),
                       energy_drift=0.0, integrator_stats={})

    @pytest.mark.parametrize("T, grid", [(10.0, [np.nan]), (10.0, [5.0, np.nan]),
                                         (-10.0, [-5.0, np.nan])])
    def test_nan_record_time_rejected_before_any_step(self, pstar, T, grid):
        f, calls = _counting(vector_field(pstar))
        with pytest.raises(ValueError, match="record_times"):
            integrate(f, np.array([0.3, -0.4, 0.5]), T, record_times=grid)
        assert calls[0] == 0
        with pytest.raises(ValueError, match="record_times"):
            simulate(pstar, np.array([0.3, -0.4, 0.5]), T, record_times=grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_rejected_before_any_step(self, pstar, bad):
        # the variational route too, and no RuntimeWarning on the way
        f, calls = _counting(vector_field(pstar))
        x0 = np.array([0.3, bad, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for run, arg in ((integrate, f), (flow_map_with_jacobian, f),
                             (simulate, pstar), (liouville_residual, pstar)):
                with pytest.raises(ValueError, match="x0 must be finite"):
                    run(arg, x0, 5.0)
        assert calls[0] == 0
        with pytest.raises(ValueError, match=r"x0 must have shape \(3,\)"):
            flow_map_with_jacobian(f, np.zeros(2), 5.0)

    def test_zero_energy_projection_rejected_before_any_step(self, pstar, monkeypatch):
        # the rest state integrates, but has no energy level to project onto
        assert not simulate(pstar, np.zeros(3), 5.0).states.any()

        def no_steps(*args, **kwargs):
            raise AssertionError("stepped")

        monkeypatch.setattr(flow, "_dop853_steps", no_steps)
        with pytest.raises(ValueError, match="omega0 .* has energy 0, which cannot be projected"):
            simulate(pstar, np.zeros(3), 5.0, project_energy=True)

    def test_stats_account_for_all_evaluations(self, pstar):
        traj = simulate(pstar, np.array([1.0, 1.0, 1.0]), 10.0)
        s = traj.integrator_stats
        assert s["n_accepted"] >= 1
        assert s["n_rejected"] >= 0
        assert s["nfev"] >= 12 * s["n_accepted"]


class TestFlowSymmetries:
    def test_scaling_conjugacy(self, pstar_full):
        f = vector_field(pstar_full)
        omega0 = np.array([0.8, -0.5, 0.6])
        T = 10.0
        for c in (0.5, 2.0):
            left = _endpoint(f, c * omega0, T)
            right = c * _endpoint(f, omega0, c * T)
            assert np.max(np.abs(left - right)) <= 1e-7

    def test_time_reversal(self, pstar_full):
        f = vector_field(pstar_full)
        omega0 = np.array([0.3, 0.9, -0.4])
        left = _endpoint(f, -omega0, -8.0)
        right = -_endpoint(f, omega0, 8.0)
        assert np.max(np.abs(left - right)) <= 1e-7

    def test_sigma2_conjugacy_a2_zero(self, pstar):
        f = vector_field(pstar)
        S = np.diag([1.0, -1.0, 1.0])
        omega0 = np.array([0.7, 0.2, 0.5])
        left = S @ _endpoint(f, S @ omega0, -6.0)
        right = _endpoint(f, omega0, 6.0)
        assert np.max(np.abs(left - right)) <= 1e-7

    def test_sigma1_conjugacy_a1_zero(self, pstar_a1zero):
        f = vector_field(pstar_a1zero)
        S = np.diag([-1.0, 1.0, 1.0])
        omega0 = np.array([0.4, 0.6, -0.3])
        left = S @ _endpoint(f, S @ omega0, -6.0)
        right = _endpoint(f, omega0, 6.0)
        assert np.max(np.abs(left - right)) <= 1e-7


class TestFlowMapJacobian:
    def test_zero_time_identity(self, pstar):
        f = vector_field(pstar)
        x, D = flow_map_with_jacobian(f, np.array([1.0, 2.0, 3.0]), 0.0)
        np.testing.assert_array_equal(x, [1, 2, 3])
        np.testing.assert_array_equal(D, np.eye(3))

    def test_example2d_fundamental_matrix(self):
        f = example2d()
        for t in (0.5, 1.5):
            _, D = flow_map_with_jacobian(f, np.array([0.3, -1.1]), t)
            np.testing.assert_allclose(
                D, np.diag([math.exp(-t), math.exp(2 * t)]), rtol=1e-9)
            assert np.linalg.det(D) == pytest.approx(math.exp(t), rel=1e-9)

    def test_euler_volume_preserved(self, euler):
        f = vector_field(euler)
        _, D = flow_map_with_jacobian(f, np.array([0.9, 0.5, 0.7]), 50.0)
        assert abs(np.linalg.det(D) - 1.0) <= 1e-8

    def test_liouville_residual_with_nonzero_divergence(self, pstar_full):
        for t in (5.0, 15.0):
            out = liouville_residual(pstar_full, np.array([0.6, 0.4, 0.8]), t)
            assert out["residual"] <= 1e-6
            assert out["det_sign"] == 1.0

    def test_liouville_residual_catches_wrong_trace(self, pstar_full, monkeypatch):
        # a jac whose trace is off by 0.01 O1: the variational route
        # integrates it, so the quadrature must not take its trace too
        def mutant(params):
            f = vector_field(params)
            shift = lambda w: 0.01 * np.asarray(w)[..., 0, None, None] * np.eye(3)
            return VectorFieldSpec(dim=3, eval=f.eval, jac=lambda w: f.jac(w) + shift(w))

        monkeypatch.setattr("suslovkit.flow.vector_field", mutant)
        out = liouville_residual(pstar_full, np.array([0.6, 0.4, 0.8]), 20.0)
        assert out["residual"] >= 0.1


class TestReconstruct:
    def test_rest_trajectory(self, pstar):
        traj = simulate(pstar, np.zeros(3), 5.0)
        att = reconstruct(pstar, traj)
        np.testing.assert_allclose(att.rotations, [[1, 0, 0, 0]] * len(att.times),
                                   atol=1e-12)
        np.testing.assert_allclose(att.theta, 0.0, atol=1e-12)

    def test_steady_rotation_about_e3(self, euler):
        # Omega = (0,0,1) constant with a = E3: rotation about body E3 at
        # unit rate, theta decreasing at unit rate
        traj = simulate(euler, np.array([0.0, 0.0, 1.0]), 6.0,
                        record_times=np.linspace(0.5, 6.0, 12))
        att = reconstruct(euler, traj)
        for t, q, th in zip(att.times, att.rotations, att.theta):
            expected = np.array([math.cos(t / 2), 0.0, 0.0, math.sin(t / 2)])
            # q and -q give the same rotation
            err = min(np.max(np.abs(q - expected)), np.max(np.abs(q + expected)))
            assert err <= 1e-9
            assert th == pytest.approx(-t, abs=1e-9)

    def test_quaternions_normalized(self, pstar_full):
        traj = simulate(pstar_full, np.array([0.9, 0.4, 0.2]), 20.0)
        att = reconstruct(pstar_full, traj)
        norms = np.linalg.norm(att.rotations, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_theta_matches_quadrature_of_rotor_rate(self, pstar_full):
        # theta' = -<a, Omega>: the integrated rotor angle against Simpson's
        # rule on the dense orbit, a route that shares no step with theta's
        from scipy.integrate import simpson

        traj = simulate(pstar_full, np.array([0.5, -0.7, 0.3]), 15.0)
        att = reconstruct(pstar_full, traj)
        ts = np.linspace(traj.times[0], traj.times[-1], 20001)
        rate = -(traj.dense(ts).T @ np.array([pstar_full.a1, pstar_full.a2, 1.0]))
        assert abs((att.theta[-1] - att.theta[0]) - simpson(rate, x=ts)) <= 1e-9

    def test_params_mismatch_rejected(self, pstar, pstar_full):
        traj = simulate(pstar, np.array([0.8, 0.3, 0.5]), 5.0)
        with pytest.raises(ValueError):
            reconstruct(pstar_full, traj)

    def test_one_state_rhs_is_its_batch_row(self, pstar_full, rng, monkeypatch):
        # the stepping calls the rhs on one state and the dense output on a
        # batch, so the two must round alike, row by row
        seen = {}

        def spy(rhs, steps):
            seen["rhs"] = rhs
            return _dop853_interpolant(rhs, steps)

        monkeypatch.setattr("suslovkit.flow._dop853_interpolant", spy)
        traj = simulate(pstar_full, np.array([0.5, -0.7, 0.3]), 15.0)
        reconstruct(pstar_full, traj)
        rhs = seen["rhs"]
        # step boundaries, points inside steps, and states with signed zeros
        ts = np.concatenate([traj.times[:20], rng.uniform(0.0, 15.0, size=30)])
        ys = rng.normal(size=(ts.size, 5))
        ys[::7, 1:3] = -0.0
        batch = rhs(ts, ys)
        assert batch.shape == ys.shape
        for t, y, row in zip(ts, ys, batch):
            # the stepping hands the rhs one state as a list of floats
            one = rhs(float(t), y.tolist())
            assert len(one) == 5
            np.testing.assert_array_equal(_bits(one), _bits(row))

    def test_attitude_keeps_unit_norm_unprojected(self, pstar_full, monkeypatch):
        # q' = q (0, Omega) / 2 conserves |q|, which is why the attitude steps
        # are never rescaled: the raw dense attitude of a long run stays on
        # the unit sphere, at the step points and between them
        seen = {}

        def spy(rhs, steps):
            seen["steps"] = steps
            seen["dense"] = _dop853_interpolant(rhs, steps)
            return seen["dense"]

        monkeypatch.setattr("suslovkit.flow._dop853_interpolant", spy)
        traj = simulate(pstar_full, np.array([0.3, -0.4, 0.5]), 1000.0)
        reconstruct(pstar_full, traj)
        ends = np.array([step[3] for step in seen["steps"]])
        assert len(ends) > 500
        assert np.max(np.abs(np.linalg.norm(ends[:, :4], axis=1) - 1.0)) <= 1e-9
        q = seen["dense"](np.linspace(0.0, 1000.0, 20001))[:4]
        assert np.max(np.abs(np.linalg.norm(q, axis=0) - 1.0)) <= 1e-9


class TestDenseOutput:
    """Trajectory.dense against scipy's per-step DOP853 dense output."""

    @pytest.mark.parametrize("project", [False, True])
    @pytest.mark.parametrize("T", [30.0, -30.0])
    @pytest.mark.parametrize("which", ["pstar", "pstar_full"])
    def test_matches_scipy_per_step_dense_output(self, which, T, project, request):
        p = request.getfixturevalue(which)
        omega0 = np.array([0.3, -0.4, 0.5])
        traj = simulate(p, omega0, T, project_energy=project)
        steps, oracle = _scipy_simulate(p, omega0, T, project)
        np.testing.assert_array_equal(np.sort(steps), traj.times)
        lo, hi = traj.times[0], traj.times[-1]
        pad = 0.01 * (hi - lo)
        # every step boundary, in the run's order, then a grid 1% past both ends
        ts = np.concatenate([steps, np.linspace(lo - pad, hi + pad, 1000 - steps.size)])
        want = oracle(ts)
        got = traj.dense(ts)
        assert got.shape == want.shape == (3, 1000)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        # both branches run one sum, so a scalar time gives the bits of the
        # same time in an array: at every step boundary, one spacing either
        # side of it, and extrapolated beyond both ends
        near = np.concatenate([np.nextafter(steps, -np.inf), np.nextafter(steps, np.inf)])
        far = np.array([lo - 0.5 * (hi - lo), lo - pad, hi + pad, hi + 0.5 * (hi - lo)])
        ts = np.concatenate([ts, near, far])
        got = traj.dense(ts)
        for j, t in enumerate(ts):
            y = traj.dense(t)
            assert y.shape == (3,)
            np.testing.assert_array_equal(_bits(y), _bits(got[:, j]))
            np.testing.assert_array_equal(_bits(traj.dense(float(t))), _bits(y))

    @pytest.mark.parametrize("which", ["pstar", "pstar_full"])
    def test_reconstruct_matches_scipy_route(self, which, request):
        p = request.getfixturevalue(which)
        omega0 = np.array([0.3, -0.4, 0.5])
        traj = simulate(p, omega0, 40.0)
        _, omega = _scipy_simulate(p, omega0, 40.0, False)
        a = np.array([p.a1, p.a2, 1.0])

        def rhs(t, y):
            w = omega(t)
            return np.append(0.5 * _left_mul(y[:4]) @ np.array([0.0, *w]), -(a @ w))

        y0 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        _, att_oracle = _scipy_route(rhs, 0.0, y0, 40.0, lambda solver: None)
        want = att_oracle(traj.times).T
        want_q = want[:, :4] / np.linalg.norm(want[:, :4], axis=1, keepdims=True)
        att = reconstruct(p, traj)
        assert np.max(np.abs(att.rotations - want_q)) <= 1e-12
        assert np.max(np.abs(att.theta - want[:, 4])) <= 1e-12

    def test_integrator_counters_pinned(self, pstar):
        # the figures benchmarks/README.md quotes for simulate(T=100)
        omega0 = np.array([0.3, -0.4, 0.5])
        traj = simulate(pstar, omega0, 100.0, tol=1e-10)
        s = traj.integrator_stats
        assert (s["n_accepted"], s["n_rejected"], s["nfev"]) == (179, 30, 3047)
        h = np.diff(traj.times)
        assert (s["h_min"], s["h_max"]) == (h.min(), h.max())
        proj = simulate(pstar, omega0, 100.0, tol=1e-10, project_energy=True)
        assert proj.integrator_stats["nfev"] == 3226
        back = simulate(pstar, omega0, -100.0, tol=1e-10, record_times=[-50.0])
        h = np.diff(_scipy_simulate(pstar, omega0, -100.0, False)[0])
        assert back.integrator_stats["h_min"] == np.abs(h).min() > 0.0
        assert back.integrator_stats["h_max"] == np.abs(h).max()

    def test_attitude_counters_pinned(self, pstar):
        # reconstruct of the run above counts as integrate does: 12 rates per
        # attempt after the start's 2, and 3 dense-output stages per accepted
        # step
        traj = simulate(pstar, np.array([0.3, -0.4, 0.5]), 100.0, tol=1e-10)
        s = reconstruct(pstar, traj).integrator_stats
        assert (s["n_accepted"], s["n_rejected"], s["nfev"]) == (179, 28, 3023)
        assert s["nfev"] == 2 + 12 * (179 + 28) + 3 * 179
        assert 0.0 < s["h_min"] <= s["h_max"] <= 100.0

    @pytest.mark.parametrize("which, T", [
        ("pstar", 100.0), ("pstar", -40.0), ("pstar_full", 40.0),
    ])
    def test_dense_run_counts_its_dense_stages(self, which, T, request):
        # both callers of _dense_run: 2 rates at the start, 12 per attempt
        # and 3 dense-output stages per accepted step
        p = request.getfixturevalue(which)
        traj = simulate(p, np.array([0.3, -0.4, 0.5]), T, tol=1e-10)
        for s in (traj.integrator_stats, reconstruct(p, traj).integrator_stats):
            n_acc, n_rej = s["n_accepted"], s["n_rejected"]
            assert n_acc > 0
            assert s["nfev"] == 2 + 12 * (n_acc + n_rej) + 3 * n_acc


class TestFloatPath:
    """One state steps on Python floats through the spec's point slot; a
    spec without it steps on field.eval of an array, and the two agree bit
    for bit."""

    @pytest.mark.parametrize("project", [False, True])
    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("T", [40.0, -40.0])
    @pytest.mark.parametrize("which", ["pstar", "pstar_full"])
    def test_eval_fallback_takes_the_same_steps(self, which, T, grid, project, request):
        params = request.getfixturevalue(which)
        f = vector_field(params)
        assert f.point is not None
        w0 = np.array([0.3, -0.4, 0.5])
        eta0 = float(energy(params, w0))
        proj = (lambda w: w * np.sqrt(eta0 / float(energy(params, w)))) if project else None
        kw = dict(project=proj)
        if grid:
            kw["record_times"] = np.linspace(0.0, T, 201)[1:]
        full = integrate(f, w0, T, **kw)
        bare = integrate(VectorFieldSpec(dim=3, eval=f.eval, jac=f.jac), w0, T, **kw)
        np.testing.assert_array_equal(_bits(full.times), _bits(bare.times))
        np.testing.assert_array_equal(_bits(full.states), _bits(bare.states))
        assert full.integrator_stats == bare.integrator_stats
        ts = np.linspace(0.0, T, 97)
        np.testing.assert_array_equal(_bits(full.dense(ts)), _bits(bare.dense(ts)))
        if project:
            # simulate's own projection takes the same steps
            sim = simulate(params, w0, T, project_energy=True,
                           record_times=kw.get("record_times"))
            np.testing.assert_array_equal(_bits(sim.states), _bits(full.states))
            assert sim.integrator_stats == full.integrator_stats

    def test_stats_current_at_every_yield_and_after_an_error(self):
        # x' = x^2 from 1 blows up at t = 1; stats follow every accepted step
        # and hold the whole run once the error is raised
        stats, seen = {}, 0
        with pytest.raises(IntegrationError, match="step size"):
            with np.errstate(over="ignore", invalid="ignore"):
                for step in flow._dop853_steps(lambda t, y: [y[0] * y[0]], 0.0,
                                               np.array([1.0]), 2.0, 1e-10, 1e-12,
                                               "blow-up", stats=stats):
                    seen += 1
                    assert stats["n_accepted"] == seen
                    assert stats["h_max"] >= step.t - step.t_old >= stats["h_min"]
        assert stats["n_accepted"] == seen and stats["n_rejected"] > 0
        assert stats["nfev"] == 2 + 12 * (stats["n_accepted"] + stats["n_rejected"])

    def test_mid_run_blowup_is_the_same_error(self):
        # x' = x^2 from 1 blows up at t = 1 on both paths
        def point(y):
            return [y[0] * y[0]]

        quad = VectorFieldSpec(dim=1, eval=lambda x: x ** 2, point=point)
        bare = VectorFieldSpec(dim=1, eval=lambda x: x ** 2)
        errors = []
        for f in (quad, bare):
            with pytest.raises(IntegrationError, match="step size") as exc:
                with np.errstate(over="ignore", invalid="ignore"):
                    integrate(f, np.array([1.0]), 2.0)
            errors.append(exc.value)
        # scipy's DOP853, the oracle, fails after the same last accepted step
        oracle = DOP853(lambda t, y: y ** 2, 0.0, np.array([1.0]), 2.0,
                        rtol=1e-10, atol=1e-12)
        with np.errstate(over="ignore", invalid="ignore"):
            while oracle.status == "running":
                oracle.step()
        assert oracle.status == "failed"
        assert str(errors[0]) == str(errors[1])
        assert errors[0].t_last == errors[1].t_last == oracle.t


def _awkward_doubles(rng, shape):
    """Doubles across the exponent range, about a third of them NaN, +-inf,
    +-0.0, subnormal or the largest double."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310,
                        np.finfo(float).max])
    mask = rng.random(shape) < 0.3
    x[mask] = rng.choice(special, int(mask.sum()))
    return x


def _bits_any_nan(x):
    """_bits with every NaN the same NaN. Which NaN a sum or product of two
    NaNs keeps is not stable: one Python function gives +NaN + (inf * 0) one
    sign before 3.11 specializes its float add and the other after, and
    numpy's loops may take either operand's."""
    x = np.asarray(x, dtype=float)
    return _bits(np.where(np.isnan(x), np.nan, x))


class TestFloatLeaves:
    """The one-state leaves written out for d floats give the bits of the
    comprehensions over the components that they replace, and of the array
    forms, up to which NaN a NaN is."""

    @pytest.mark.parametrize("d", range(1, 13))
    def test_stepping_leaves(self, d, rng):
        leaves = flow._float_leaves(d)
        assert flow._float_leaves(d) is leaves
        for atol, tol in ((1e-12, 1e-10), (1e-10, 1e-8)):
            error_scale = leaves.error_scale_for(atol, tol)
            for _ in range(100):
                y, y_new, dy = (_awkward_doubles(rng, d).tolist() for _ in range(3))
                h = float(rng.choice([rng.standard_normal(), -1e-300, 5e-324, 1e300]))
                with np.errstate(over="ignore", invalid="ignore"):
                    got = leaves.advance(y, np.array(dy), h)
                    want = [yi + di * h for yi, di in zip(y, dy)]
                    batch = np.array(y) + np.array(dy) * h
                assert type(got) is list and all(type(x) is float for x in got)
                assert _bits_any_nan(got).tolist() == _bits_any_nan(want).tolist() \
                    == _bits_any_nan(batch).tolist()
                got = error_scale(y, y_new)
                want = np.array([atol + (u if u > v or u != u else v) * tol
                                 for u, v in zip(map(abs, y), map(abs, y_new))])
                # the batch leaf's form, whose np.maximum the NaN rule follows
                batch = atol + np.maximum(np.abs(y), np.abs(y_new)) * tol
                assert got.dtype == float and got.shape == (d,)
                assert _bits_any_nan(got).tolist() == _bits_any_nan(want).tolist() \
                    == _bits_any_nan(batch).tolist()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("d", range(1, 13))
    def test_dense_lookup_is_the_array_branch(self, d, sign, rng):
        n = 5
        breaks = sign * np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n))])
        dense = flow.DenseOutput(breaks[:-1], breaks[1:], _awkward_doubles(rng, (n, d)),
                                 _awkward_doubles(rng, (n, 7, d)))
        ts = np.concatenate([breaks, sign * rng.uniform(-1.0, abs(breaks[-1]) + 1.0, 40)])
        steps = np.clip(np.searchsorted(sign * breaks, sign * ts) - 1, 0, n - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            batch = dense(ts)
            for j, (t, k) in enumerate(zip(ts.tolist(), steps.tolist())):
                got = dense._at(t)
                t_old, t_new = breaks[k:k + 2].tolist()
                p0, p1, p2, p3, p4, p5, p6 = flow._basis((t - t_old) / (t_new - t_old))
                want = [
                    y + (p0 * f0 + p1 * f1 + p2 * f2 + p3 * f3 + p4 * f4 + p5 * f5 + p6 * f6)
                    for y, (f0, f1, f2, f3, f4, f5, f6) in zip(
                        dense._y_old[k].tolist(), dense._F[k].T.tolist())
                ]
                assert type(got) is list and len(got) == d
                assert _bits_any_nan(got).tolist() == _bits_any_nan(want).tolist() \
                    == _bits_any_nan(batch[:, j]).tolist()


def test_float_leaves_are_built_at_first_use():
    # a fresh interpreter: importing builds no leaf, and one simulate builds
    # those of its (3,) state alone
    src = str(Path(suslovkit.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import suslovkit, suslovkit.cli; "
        "from suslovkit import flow; print(sorted(flow._FLOAT_LEAVES)); "
        "p = suslovkit.validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=1.0, a2=1.0); "
        "suslovkit.simulate(p, [0.3, -0.4, 0.5], 10.0); print(sorted(flow._FLOAT_LEAVES))"
    )
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "[3]"]


class TestSampleEllipsoid:
    def test_exact_energy(self, pstar_full, rng):
        for eta in (0.5, 1.0, 3.0):
            pts = sample_ellipsoid(pstar_full, eta, 200, seed=1)
            np.testing.assert_allclose(energy(pstar_full, pts), eta, rtol=1e-12)

    def test_seed_determinism(self, pstar):
        a = sample_ellipsoid(pstar, 1.0, 50, seed=42)
        b = sample_ellipsoid(pstar, 1.0, 50, seed=42)
        np.testing.assert_array_equal(a, b)
        c = sample_ellipsoid(pstar, 1.0, 50, seed=43)
        assert np.any(a != c)

    @pytest.mark.parametrize("seed", [-1, 2 ** 128], ids=["negative", "2**128"])
    def test_seed_out_of_range_is_named(self, pstar, seed):
        with pytest.raises(ValueError, match="seed must satisfy"):
            sample_ellipsoid(pstar, 1.0, 5, seed=seed)
        with pytest.raises(ValueError, match="seed must satisfy"):
            measure_transport_check(example2d(), example2d_density(),
                                    np.array([[1.0, 2.0], [1.0, 2.0]]), 0.0, 10, seed)

    @pytest.mark.parametrize("eta", [np.nan, np.inf, 0.0])
    def test_energy_level_must_be_finite_and_positive(self, pstar_full, eta):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="eta must be finite and positive"):
                sample_ellipsoid(pstar_full, eta, 5, seed=1)
            with pytest.raises(ValueError, match="eta must be finite and positive"):
                suslov_attractor_probe(pstar_full, eta=eta, samples=5, T=1.0)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_is_named(self, pstar, count):
        with pytest.raises(ValueError, match=f"count must be at least 1, got {count}"):
            sample_ellipsoid(pstar, 1.0, count, seed=1)

    def test_prefix_stability(self, pstar):
        # counter-based streams: first k samples don't depend on count
        a = sample_ellipsoid(pstar, 1.0, 10, seed=7)
        b = sample_ellipsoid(pstar, 1.0, 200, seed=7)
        np.testing.assert_array_equal(a, b[:10])


class TestBatchIntegrator:
    def test_matches_scalar_integrator(self, pstar_full):
        f = vector_field(pstar_full)
        x0 = np.array([[0.5, 0.2, 0.9], [1.0, -0.3, 0.4], [-0.6, 0.8, 0.1]])
        Y, recs = integrate_batch(f, x0, 7.0, tol=1e-10, atol=1e-12,
                                  record_times=(3.5, 7.0))
        for k in range(3):
            end = _endpoint(f, x0[k], 7.0)
            np.testing.assert_allclose(Y[k], end, atol=1e-8)
        assert recs[0][0] == 3.5
        np.testing.assert_allclose(recs[1][1], Y, atol=1e-12)

    def test_result_independent_of_input_layout(self, pstar_full, rng):
        f = vector_field(pstar_full)
        x0 = rng.normal(size=(2000, 3))
        x0_f = np.asfortranarray(x0)
        assert x0_f.flags.f_contiguous and not x0_f.flags.c_contiguous
        (Y_c, rec_c), (Y_f, rec_f) = (
            integrate_batch(f, x, 3.0, record_times=(1.0, 2.0)) for x in (x0, x0_f)
        )
        np.testing.assert_array_equal(Y_c, Y_f)
        assert [t for t, _ in rec_c] == [t for t, _ in rec_f] == [1.0, 2.0]
        for (_, snap_c), (_, snap_f) in zip(rec_c, rec_f):
            np.testing.assert_array_equal(snap_c, snap_f)

    @pytest.mark.parametrize("field, x0", [
        (example2d(), np.ones((3, 3))),
        (example2d(), np.ones(3)),
        (vector_field(validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=1.0, a2=1.0)), np.ones((2, 3, 3))),
        (vector_field(validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=1.0, a2=1.0)), np.ones(3)),
    ], ids=["(3,3) on dim 2", "(3,) on dim 2", "(2,3,3) on dim 3", "(3,) on dim 3"])
    def test_malformed_batch_is_named_before_any_step(self, field, x0):
        f, calls = _counting(field)
        with pytest.raises(ValueError, match=rf"x0 must have shape \(n, {field.dim}\)"):
            integrate_batch(f, x0, 1.0)
        assert calls[0] == 0

    def test_empty_batch_is_named(self, pstar):
        with pytest.raises(ValueError, match="number of states must be at least 1, got 0"):
            integrate_batch(vector_field(pstar), np.empty((0, 3)), 5.0)

    def test_rejects_bad_record_times(self, pstar):
        f = vector_field(pstar)
        with pytest.raises(ValueError):
            integrate_batch(f, np.zeros((1, 3)), 5.0, record_times=(6.0,))

    @pytest.mark.parametrize("T, grid", [(10.0, [5.0, np.nan]), (10.0, [np.nan]),
                                         (-10.0, [np.nan, -5.0])])
    def test_nan_record_time_rejected_before_any_step(self, pstar, T, grid):
        f, calls = _counting(vector_field(pstar))
        with pytest.raises(ValueError, match="record_times"):
            integrate_batch(f, np.array([[0.3, -0.4, 0.5]]), T, record_times=grid)
        assert calls[0] == 0

    @pytest.mark.parametrize("T", [7.0, -7.0])
    def test_one_row_is_integrate_bit_for_bit(self, pstar_full, T):
        # one loop: a batch of one state takes integrate's steps exactly
        f = vector_field(pstar_full)
        x0 = np.array([0.5, 0.2, 0.9])
        Y, recs = integrate_batch(f, x0[None, :], T, tol=1e-10, atol=1e-12)
        assert recs == []
        np.testing.assert_array_equal(Y[0], _endpoint(f, x0, T, tol=1e-10, atol=1e-12))

    def test_stats_are_integrates(self, pstar_full):
        # one row takes integrate's steps, so it counts them alike; integrate's
        # nfev adds the 3 dense-output stages of each step
        f = vector_field(pstar_full)
        x0 = np.array([0.5, 0.2, 0.9])
        stats = {}
        integrate_batch(f, x0[None, :], 7.0, tol=1e-10, atol=1e-12, stats=stats)
        ref = dict(integrate(f, x0, 7.0, tol=1e-10, atol=1e-12).integrator_stats)
        ref["nfev"] -= 3 * ref["n_accepted"]
        assert stats == ref
        still = {}
        integrate_batch(f, x0[None, :], 0.0, stats=still)
        assert still == {"n_accepted": 0, "n_rejected": 0, "nfev": 0,
                         "h_min": np.inf, "h_max": 0.0}

    def test_zero_horizon_takes_no_step(self, pstar):
        # the stepping loop decides T = 0: no rhs call, and the endpoints
        # are a copy of the start, in its own memory
        f, calls = _counting(vector_field(pstar))
        x0 = np.array([[0.5, 0.2, 0.9], [1.0, -0.3, 0.4]])
        for start in (x0, np.asfortranarray(x0), x0[:1]):
            Y, recs = integrate_batch(f, start, 0.0)
            np.testing.assert_array_equal(Y, start)
            assert recs == [] and not np.shares_memory(Y, start)
        assert calls[0] == 0
        x, _ = flow_map_with_jacobian(vector_field(pstar), x0[0], 0.0)
        assert not np.shares_memory(x, x0)

    @pytest.mark.parametrize("name, value", [("tol", np.nan), ("atol", 0.0)])
    def test_zero_horizon_checks_tolerances(self, pstar, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            integrate_batch(vector_field(pstar), np.ones((1, 3)), 0.0, **{name: value})

    def test_rows_match_scipy_dop853(self, pstar_full):
        f = vector_field(pstar_full)
        x0 = np.array([[0.5, 0.2, 0.9], [1.0, -0.3, 0.4], [-0.6, 0.8, 0.1]])
        Y, _ = integrate_batch(f, x0, 7.0, tol=1e-10, atol=1e-12)
        for x, y in zip(x0, Y):
            _, oracle = _scipy_route(lambda t, w: f.eval(w), 0.0, x, 7.0, lambda s: None)
            assert np.max(np.abs(y - oracle(7.0))) <= 1e-8

    def test_blowup_reports_last_time(self):
        quad = VectorFieldSpec(dim=1, eval=lambda x: x ** 2)
        with pytest.raises(IntegrationError, match="batch") as exc:
            with np.errstate(over="ignore", invalid="ignore"):
                integrate_batch(quad, np.array([[1.0], [0.5]]), 3.0)
        assert exc.value.t_last == pytest.approx(1.0, abs=0.05)

    def test_nan_row_ends_in_an_error(self, pstar):
        # its error norm is NaN, so every attempt shrinks the step until it
        # falls below the minimum step
        f = vector_field(pstar)
        x0 = np.array([[0.5, 0.2, 0.9], [np.nan, 0.2, 0.9]])
        with pytest.raises(IntegrationError, match="step size") as exc:
            integrate_batch(f, x0, 5.0)
        assert exc.value.t_last == 0.0


_X0_2D = np.array([1.0, 1.5])
_BOX_2D = np.array([[1.0, 2.0], [1.0, 2.0]])
_RUNS = {
    "integrate": lambda T, **kw: integrate(example2d(), _X0_2D, T, **kw),
    "integrate_batch": lambda T, **kw: integrate_batch(example2d(), _X0_2D[None], T, **kw),
    # a grid must not take the place of the horizon's own error
    "integrate_on_grid": lambda T: integrate(example2d(), _X0_2D, T, record_times=[0.5]),
    "integrate_batch_on_grid": lambda T: integrate_batch(
        example2d(), _X0_2D[None], T, record_times=[0.5]),
    "flow_map_with_jacobian": lambda T: flow_map_with_jacobian(example2d(), _X0_2D, T),
    "measure_transport_check": lambda T: measure_transport_check(
        example2d(), example2d_density(), _BOX_2D, T, 100, seed=1),
}


class TestArgumentChecks:
    """Every integrator shares one stepping loop, which refuses a horizon or
    tolerance it cannot honour before taking a step."""

    def test_step_budget_is_named(self, monkeypatch):
        monkeypatch.setattr("suslovkit.flow._MAX_STEPS", 5)
        with pytest.raises(IntegrationError, match="integration exceeded 5 steps") as exc:
            integrate(example2d(), _X0_2D, 10.0)
        assert 0.0 < exc.value.t_last < 10.0

    def test_zero_horizon_integrate_is_named(self):
        with pytest.raises(ValueError, match="integration horizon T must be nonzero"):
            integrate(example2d(), _X0_2D, 0.0)

    def test_flow_map_needs_a_jacobian(self):
        with pytest.raises(ValueError, match="analytic field Jacobian"):
            flow_map_with_jacobian(VectorFieldSpec(dim=2, eval=example2d().eval), _X0_2D, 1.0)

    def test_non_finite_trajectory_rejected(self):
        with pytest.raises(ValueError, match="trajectory states must be finite"):
            Trajectory(times=np.array([0.0, 1.0]), states=np.array([[1.0], [np.nan]]),
                       energy_drift=None, integrator_stats={})

    def test_reconstruct_needs_dense_output(self, pstar):
        traj = simulate(pstar, np.array([0.3, -0.4, 0.5]), 1.0)
        bare = Trajectory(times=traj.times, states=traj.states, energy_drift=None,
                          integrator_stats={})
        with pytest.raises(ValueError, match="dense output"):
            reconstruct(pstar, bare)

    def test_unknown_metric_is_named(self):
        # refused with the other arguments, before any draw or integration
        calls = []

        def sampler(count, seed):
            calls.append((count, seed))
            return np.ones((count, 2))

        with pytest.raises(ValueError, match="metric must be 'euclidean' or 'angular'"):
            detect_attractor(example2d(), [("origin", np.zeros(2))], sampler, 10, 1.0,
                             metric="cosine")
        assert calls == []

    @pytest.mark.parametrize("box, named", [
        (np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]), r"box must have shape \(2, 2\)"),
        (np.array([[1.0, np.inf], [1.0, 2.0]]), "box bounds must be finite"),
        (np.array([[1.0, 1.0], [1.0, 2.0]]), "box must have positive widths"),
    ], ids=["shape", "inf", "zero width"])
    def test_unusable_box_is_named(self, box, named):
        with pytest.raises(ValueError, match=named):
            measure_transport_check(example2d(), example2d_density(), box, 1.0, 100, seed=1)

    @pytest.mark.parametrize("T", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("run", list(_RUNS))
    def test_non_finite_horizon_rejected(self, run, T):
        with pytest.raises(ValueError, match="end time must be finite"):
            _RUNS[run](T)

    @pytest.mark.parametrize("name, value", [
        ("tol", -1.0), ("tol", 0.0), ("tol", np.nan), ("tol", np.inf),
        ("atol", -1e-12), ("atol", 0.0), ("atol", np.nan),
    ])
    @pytest.mark.parametrize("run", ["integrate", "integrate_batch"])
    def test_bad_tolerance_rejected(self, run, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            _RUNS[run](1.0, **{name: value})


@pytest.mark.parametrize("case", ["finite", "zero", "inf", "nan"])
def test_one_state_error_norm_is_scipys_and_near_its_batch_of_one(case, rng):
    # one state runs on Python floats and must give scipy's own norm; a
    # batch runs on arrays, and a (d, 1) batch of the same state must give
    # the same norm. The one rounding they may not share is the square of
    # the 2-norm: a numpy scalar's ** 2 (scipy's) calls pow, an array's
    # multiplies, and the two differ in the last bit for about 1 in 1000
    # values, so a finite norm may differ by that square's last bit
    scipy_norm = lambda K2, h, scale: DOP853._estimate_error_norm(DOP853, K2, h, scale)
    for d in (3, 5, 12):
        for _ in range(50):
            K2 = rng.normal(size=(13, d)) * 10.0 ** rng.uniform(-8.0, 3.0)
            if case == "zero":
                K2[:] = 0.0
            elif case != "finite":
                K2[rng.integers(13), rng.integers(d)] = np.inf if case == "inf" else np.nan
            scale = 1e-12 + np.abs(rng.normal(size=d)) * 1e-10
            h = float(rng.choice((-1.0, 1.0)) * rng.uniform(1e-3, 1.0))
            with np.errstate(invalid="ignore"):
                one = _error_norm(K2, h, scale)
                batch = _error_norm(K2, h, scale[:, None])
                want = scipy_norm(K2, h, scale)
            assert type(one) is float and type(batch) is float
            assert _bits(one) == _bits(want)
            if case == "finite":
                assert 0.0 < one < np.inf
                assert abs(batch - one) <= 2.0 * np.spacing(one)
            else:
                assert _bits(batch) == _bits(one)
            if case == "zero":
                assert one == 0.0
            elif case != "finite":
                assert not math.isfinite(one)


def test_scipy_dop853_tableau_guard():
    # _dop853_steps and _dop853_interpolant read scipy's private tableau; a
    # scipy release that moves or changes it fails here, by name
    from scipy.integrate._ivp import dop853_coefficients as c

    assert (c.N_STAGES, c.N_STAGES_EXTENDED, c.INTERPOLATOR_POWER) == (12, 16, 7)
    assert c.A.shape == (16, 16) and c.C.shape == (16,) and c.D.shape == (4, 16)
    assert c.B.shape == (12,) and c.E3.shape == c.E5.shape == (13,)
    assert not np.triu(c.A).any()
    for s in range(c.N_STAGES_EXTENDED):
        assert abs(c.A[s, :s].sum() - c.C[s]) <= 1e-14
    assert abs(c.B.sum() - 1.0) <= 1e-14
    assert abs(c.E3.sum()) <= 1e-14 and abs(c.E5.sum()) <= 1e-14
    # the 13th stage is the rate at the step's end state, which seeds the next step
    assert c.C[12] == 1.0 and np.array_equal(c.A[12, :12], c.B)
    # the loop's own copy, executed from the same file, holds the same bits
    # and is registered under no module name
    own = flow._dop853
    assert own is not c and Path(own.__file__) == Path(c.__file__)
    assert own.__name__ not in sys.modules
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert type(getattr(own, name)) is int and getattr(own, name) == getattr(c, name)
    for name in ("A", "B", "C", "D", "E3", "E5"):
        mine, theirs = getattr(own, name), getattr(c, name)
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes()


def test_dense_output_is_built_by_dense_run_alone():
    # every scalar run that samples an interpolant goes through _dense_run;
    # the stepper runs bare only where no interpolant is sampled
    callers = {
        "_dop853_interpolant": {"_dense_run"},
        "_dop853_steps": {"_dense_run", "integrate_batch", "flow_map_with_jacobian"},
    }
    seen = {name: set() for name in callers}
    for top in ast.parse(Path(flow.__file__).read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func).rpartition(".")[2]
                if name in callers:
                    seen[name].add(getattr(top, "name", "<module>"))
    assert seen == callers


def test_missing_tableau_file_is_an_import_error(monkeypatch, tmp_path):
    # a scipy without the tableau's file fails by its path and scipy's version
    fake = type("Spec", (), {"origin": str(tmp_path / "scipy" / "__init__.py")})
    monkeypatch.setattr(flow.importlib.util, "find_spec", lambda name: fake)
    with pytest.raises(ImportError, match="not at .*dop853_coefficients.py") as info:
        _load_dop853_tableau()
    assert f"scipy {scipy.__version__}" in str(info.value)


def test_importing_the_package_loads_no_scipy():
    # a fresh interpreter, as this session has scipy.integrate loaded already
    src = str(Path(suslovkit.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import suslovkit, suslovkit.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestDetectAttractor:
    def test_sine_squared_line_field(self):
        # 1D normal form: every orbit in (-pi, 0) u (0, pi) creeps toward
        # a multiple of pi from the left
        from suslovkit.fields import example1d
        f = example1d()

        def sampler(count, seed):
            rng = np.random.Generator(np.random.Philox(key=seed))
            x = rng.uniform(-math.pi + 0.15, math.pi - 0.05, size=(count, 1))
            return x[np.abs(x[:, 0]) > 0.15]

        report = detect_attractor(
            f,
            candidates=[("zero", np.array([0.0])), ("pi", np.array([math.pi]))],
            sampler=sampler, samples=60, T=150.0, capture_radius=0.05, seed=2,
        )
        assert report.none_fraction <= 0.15
        # side correctness: negative starts end at 0, positive at pi
        for x0, lab in zip(report.initial_states, report.assignments):
            if lab < 0:
                continue
            expected = "zero" if x0[0] < 0 else "pi"
            assert report.labels[lab] == expected

    def test_suslov_two_sinks(self, pstar_full):
        report = suslov_attractor_probe(pstar_full, samples=40, T=200.0, seed=3)
        captured = 1.0 - report.none_fraction
        assert captured >= 0.8
        seen = {report.labels[k] for k in report.assignments if k >= 0}
        assert seen <= {"-v1", "-v3"}
        assert "-v1" in seen

    @pytest.mark.parametrize("t", [1e-14, 3.4e-10, 1.49e-8, 1e-5, 1e-2])
    def test_small_angle_is_accurate(self, t):
        # (1, t, 0) and (1, 0, 0) are t - t^3/3 + ... apart; arccos of their
        # dot product cannot resolve an angle below sqrt(2 eps) ~ 1.5e-8
        states = np.array([[3.0, 3.0 * t, 0.0], [0.0, -2.0, -2.0 * t]])
        points = np.array([[0.5, 0.0, 0.0], [0.0, -1.0, 0.0]])
        d = _candidate_distances(states, points, "angular")
        assert d[0, 0] == pytest.approx(math.atan(t), rel=1e-15, abs=0.0)
        assert d[1, 1] == pytest.approx(math.atan(t), rel=1e-15, abs=0.0)
        assert d[0, 1] == pytest.approx(math.pi / 2, rel=1e-15)

    def test_capture_does_not_fall_with_longer_runs(self, pstar_full):
        # a sample that has converged to its sink stays captured: its
        # distance sits at the integrator's noise floor, not on a trend
        short, long = (suslov_attractor_probe(pstar_full, samples=60, T=T, seed=1)
                       for T in (200.0, 2000.0))
        assert short.none_fraction == 0.0
        for label in short.labels:
            assert long.fractions[label] >= short.fractions[label], label
        assert long.none_fraction <= short.none_fraction

    def test_recurrent_regime_captures_nothing(self, pstar):
        report = suslov_attractor_probe(pstar, samples=30, T=100.0, seed=4)
        assert 1.0 - report.none_fraction <= 0.05

    @pytest.mark.parametrize("kw, named", [
        (dict(samples=0), "samples must be at least 1, got 0"),
        (dict(T=0.0), "T must be finite and nonzero, got 0.0"),
        (dict(T=np.inf), "T must be finite and nonzero, got inf"),
        (dict(capture_radius=np.nan), "capture_radius must be finite and positive, got nan"),
        (dict(capture_radius=-0.1), "capture_radius must be finite and positive, got -0.1"),
        (dict(capture_radius=np.inf), "capture_radius must be finite and positive, got inf"),
    ], ids=["samples=0", "T=0", "T=inf", "radius=nan", "radius<0", "radius=inf"])
    def test_unusable_probe_is_named_before_any_draw(self, pstar_full, monkeypatch, kw,
                                                     named):
        def no_draw(*args):
            raise AssertionError("drew samples")

        monkeypatch.setattr("suslovkit.flow.sample_ellipsoid", no_draw)
        with pytest.raises(ValueError, match=named):
            suslov_attractor_probe(pstar_full, **{"samples": 5, "T": 1.0, **kw})

    def test_no_candidates_is_named_before_any_draw(self, pstar_full):
        def no_draw(*args):
            raise AssertionError("drew samples")

        with pytest.raises(ValueError, match="at least one"):
            detect_attractor(vector_field(pstar_full), [], no_draw, 5, 1.0)


class TestMeasureTransport:
    def test_zero_time_exact(self):
        rep = measure_transport_check(
            example2d(), example2d_density(),
            np.array([[1.0, 2.0], [1.0, 2.0]]), 0.0, 5000, seed=1)
        assert rep.relative_error == 0.0

    def test_zero_time_takes_the_transport_path(self, monkeypatch):
        # t = 0 integrates no step, but samples, re-weights and checks as at
        # every t: at most _TRANSPORT_MAX_SAMPLES are transported, and a field
        # with neither div nor jac is refused
        seen = []
        real = _log_volume_flow

        def spy(field, x0, t, tol, atol):
            seen.append((len(x0), t))
            return real(field, x0, t, tol, atol)

        monkeypatch.setattr("suslovkit.flow._log_volume_flow", spy)
        monkeypatch.setattr("suslovkit.flow._TRANSPORT_MAX_SAMPLES", 300)
        box = np.array([[1.0, 2.0], [1.0, 2.0]])
        rep = measure_transport_check(example2d(), example2d_density(), box, 0.0, 500, seed=1)
        assert seen == [(300, 0.0)]
        assert rep.sample_count == {"mu_A": 500, "transport": 300}
        bare = VectorFieldSpec(dim=2, eval=example2d().eval)
        with pytest.raises(ValueError, match="divergence or Jacobian"):
            measure_transport_check(bare, example2d_density(), box, 0.0, 100, seed=1)

    def test_underflowed_density_is_named_before_integrating(self):
        # on the n = 3417 set M ~ |u|^3416 underflows to 0 on a small box
        p = validate(1.1, 1.0, 0.9, 0.0, 20.0, a1=1.0, a2=0.0)
        dens = density_spec(p, density_params(p))
        f, calls = _counting(vector_field(p))
        with pytest.raises(ValueError, match=r"density M gives mu\(A\) = 0"):
            measure_transport_check(f, dens, np.array([[0.01, 0.02]] * 3), 1.0, 2000, seed=0)
        assert calls[0] == 0

    def test_all_zero_transport_weights_are_named(self):
        # M is 1 for x1 >= 1 and 0 below; example2d carries [1, 2] in x1 to
        # [e^-1, 2 e^-1] by t = 1, where M vanishes
        dens = DensitySpec(eval=lambda x: (x[..., 0] >= 1.0).astype(float),
                           zero_set_description="x1 < 1")
        with pytest.raises(ValueError, match="transport weight .* is 0 at all 200 samples"):
            measure_transport_check(example2d(), dens, np.array([[1.0, 2.0], [1.0, 2.0]]),
                                    1.0, 200, seed=1)

    def test_report_json_lists_the_fields_in_order(self):
        rep = measure_transport_check(example2d(), example2d_density(),
                                      np.array([[1.0, 2.0], [1.0, 2.0]]), 0.5, 200, seed=1)
        d = rep.to_dict()
        assert list(d) == ["box", "t", "mu_A", "mu_phi_t_A", "relative_error",
                           "sample_count", "standard_error_estimate", "se_mu_A",
                           "se_transport", "seed", "within_3se"]
        assert d["box"] == [[1.0, 2.0], [1.0, 2.0]] and d["within_3se"] == rep.within_3se
        assert d["sample_count"] == rep.sample_count and d["sample_count"] is not rep.sample_count

    def test_fixture_box_measure(self):
        rep = measure_transport_check(
            example2d(), example2d_density(),
            np.array([[1.0, 2.0], [1.0, 2.0]]), 1.0, 200000, seed=8)
        # mu(A) = (63/6)(7/3) = 24.5 exactly
        assert abs(rep.mu_A - 24.5) <= 3.0 * rep.se_mu_A
        assert rep.within_3se

    def test_suslov_classA_transport(self, pstar):
        dens = density_spec(pstar, density_params(pstar))
        rep = measure_transport_check(
            vector_field(pstar), dens, np.array([[0.8, 1.2]] * 3),
            5.0, 40000, seed=9)
        assert rep.within_3se

    @pytest.mark.parametrize("which", ["pstar", "pstar_full"])
    def test_log_volume_matches_variational_slogdet(self, which, request):
        # Liouville's log-volume at the transport's tolerances against the
        # independent variational route
        f = vector_field(request.getfixturevalue(which))
        x0 = np.array([[0.9, 1.1, 1.0], [0.6, 0.4, 0.8], [-0.5, 0.2, 0.4],
                       [0.3, -0.4, 0.5], [1.2, 0.8, -0.9]])
        t = 5.0
        x_end, log_vol = _log_volume_flow(f, x0, t, tol=1e-8, atol=1e-10)
        for x, x_T, ell in zip(x0, x_end, log_vol):
            y, D = flow_map_with_jacobian(f, x, t)
            sign, logdet = np.linalg.slogdet(D)
            assert sign == 1.0
            assert abs(ell - logdet) <= 1e-8
            assert np.max(np.abs(x_T - y)) <= 1e-8

    def test_log_volume_of_unit_divergence_is_time(self):
        x0 = np.array([[0.3, -1.1], [1.5, 0.2], [-0.7, 0.9]])
        for t in (0.5, 1.5, -1.0):
            _, log_vol = _log_volume_flow(example2d(), x0, t, tol=1e-8, atol=1e-10)
            np.testing.assert_allclose(log_vol, t, rtol=0.0, atol=1e-12)

    def test_field_without_jacobian_rejected(self):
        # an argument check, before the density sees any sample
        seen = []
        dens = DensitySpec(eval=lambda x: seen.append(x) or example2d_density().eval(x),
                           zero_set_description="coordinate axes")
        bare = VectorFieldSpec(dim=2, eval=example2d().eval)
        with pytest.raises(ValueError, match="divergence or Jacobian"):
            measure_transport_check(bare, dens, np.array([[1.0, 2.0], [1.0, 2.0]]),
                                    1.0, 100, seed=1)
        assert seen == []

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_time_that_is_not_finite_rejected_before_any_draw(self, t):
        # an argument check, before the density sees any sample
        seen = []
        dens = DensitySpec(eval=lambda x: seen.append(x) or example2d_density().eval(x),
                           zero_set_description="coordinate axes")
        with pytest.raises(ValueError, match="measure transport: end time must be finite"):
            measure_transport_check(example2d(), dens, np.array([[1.0, 2.0], [1.0, 2.0]]),
                                    t, 100, seed=1)
        assert seen == []

    def test_divergence_slot_alone_suffices(self, pstar):
        # the log-volume reads the field's div, which a spec without one
        # takes from the trace of its jac
        f = vector_field(pstar)
        dens = density_spec(pstar, density_params(pstar))
        box = np.array([[0.8, 1.2]] * 3)
        full = measure_transport_check(f, dens, box, 1.0, 2000, seed=3).to_dict()
        div_only = VectorFieldSpec(dim=3, eval=f.eval, div=f.div)
        assert measure_transport_check(div_only, dens, box, 1.0, 2000, seed=3).to_dict() == full
        with pytest.raises(ValueError, match="divergence or Jacobian"):
            measure_transport_check(VectorFieldSpec(dim=3, eval=f.eval), dens, box,
                                    1.0, 2000, seed=3)

    def test_sample_counts_validated(self):
        with pytest.raises(ValueError, match="N must be"):
            measure_transport_check(example2d(), example2d_density(),
                                    np.array([[1.0, 2.0], [1.0, 2.0]]), 1.0, 1,
                                    seed=1)

    def test_report_independent_of_field_input_layout(self, pstar):
        # hand every stage state to the field's eval and jac C-ordered, then
        # column-major: the report must not change
        f = vector_field(pstar)
        dens = density_spec(pstar, density_params(pstar))
        reports = []
        for layout in (np.ascontiguousarray, np.asfortranarray):
            field = VectorFieldSpec(dim=3, eval=lambda x, g=layout: f.eval(g(x)),
                                    jac=lambda x, g=layout: f.jac(g(x)))
            reports.append(measure_transport_check(
                field, dens, np.array([[0.8, 1.2]] * 3), 1.0, 2000, seed=3).to_dict())
        assert reports[0] == reports[1]

    def test_non_finite_density_rejected_before_integrating(self):
        # gamma ~ 5.9e-4 gives n = 3417, and M overflows on the whole box
        p = validate(1.1, 1.0, 0.9, 0.0, 20.0, a1=1.0, a2=0.0)
        dens = density_spec(p, density_params(p))
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(ValueError, match="density M at the box samples is not finite"):
            measure_transport_check(vector_field(p), dens, np.array([[0.8, 1.2]] * 3),
                                    1.0, 200, seed=0)

    def test_non_finite_transport_weight_rejected(self):
        # exp(100 x2) is finite on the box x2 <= 2 but overflows once
        # example2d's flow has carried x2 past e^2
        dens = DensitySpec(eval=lambda x: np.exp(100.0 * x[..., 1]),
                           zero_set_description="empty",
                           differentiability_class="C1")
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(ValueError, match="transport weight .* is not finite"):
            measure_transport_check(example2d(), dens,
                                    np.array([[1.0, 2.0], [1.0, 2.0]]), 1.0, 200,
                                    seed=1)

    def test_standard_errors_do_not_overflow(self):
        # M = exp(300 x2) is finite on these boxes but M^2 is not: the spread
        # must stay finite, and a wrong transport must then fail within_3se
        dens = DensitySpec(eval=lambda x: np.exp(300.0 * x[..., 1]),
                           zero_set_description="empty",
                           differentiability_class="C1")
        moved = measure_transport_check(example2d(), dens,
                                        np.array([[1.0, 2.0], [1.0, 1.1]]), 0.1, 200,
                                        seed=0)
        assert math.isfinite(moved.standard_error_estimate)
        assert moved.relative_error > 1e30
        assert not moved.within_3se
        still = measure_transport_check(example2d(), dens,
                                        np.array([[1.0, 2.0], [1.0, 2.0]]), 0.0, 200,
                                        seed=0)
        assert math.isfinite(still.se_mu_A) and still.se_mu_A > 0.0

    def test_seed_reproducibility(self, pstar):
        dens = density_spec(pstar, density_params(pstar))
        box = np.array([[0.8, 1.2]] * 3)
        r1 = measure_transport_check(vector_field(pstar), dens, box, 1.0,
                                     5000, seed=13)
        r2 = measure_transport_check(vector_field(pstar), dens, box, 1.0,
                                     5000, seed=13)
        assert r1.mu_A == r2.mu_A and r1.mu_phi_t_A == r2.mu_phi_t_A


def test_conserved_quantities_along_suslov_flow(rng):
    # E always, F when a2 = 0, sampled along one orbit each for a few draws
    for _ in range(5):
        p = draw_params(rng, a2=0.0)
        omega0 = rng.normal(size=3)
        traj = simulate(p, omega0, 30.0)
        assert traj.energy_drift <= 1e-9
        dp = density_params(p)
        F = first_integral_F(p, dp, traj.states)
        scale = max(np.max(np.abs(F)), 1e-30)
        if np.min(np.abs(F)) > 0.01 * scale:  # away from the zero planes
            assert np.max(np.abs(F - F[0])) <= 1e-6 * scale

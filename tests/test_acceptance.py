"""Acceptance gate: the ten headline checks, one test each, with fixed
tolerances and runtime budgets.  Each test prints a single CRITERION line."""
import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from suslovkit.core import validate, vector_field
from suslovkit.equilibria import (
    Classification,
    classify,
    stability_coefficients,
    stability_coefficients_closed_form,
)
from suslovkit.fields import divergence, example2d, example2d_density, fd_jacobian
from suslovkit.flow import (
    flow_map_with_jacobian,
    integrate,
    liouville_residual,
    measure_transport_check,
    simulate,
    suslov_attractor_probe,
)
from suslovkit.measures import (
    density_params,
    first_integral_F,
    plane_defect_sweep,
    residual_sweep,
    sample_off_plane,
)
from suslovkit.cli import main

from conftest import divergence_closed_form, draw_classA_params, draw_params

PSTAR = validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=1.0, a2=0.0)
PSTAR_FULL = validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=1.0, a2=1.0)


def _line(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_divergence_formula():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_tr, worst_fd = 0.0, 0.0
    for _ in range(1000):
        p = draw_params(rng)
        f = vector_field(p)
        omegas = rng.normal(size=(10, 3))
        dv = divergence_closed_form(p, omegas)
        tr = np.trace(f.jac(omegas), axis1=-2, axis2=-1)
        tr_fd = np.trace(fd_jacobian(f.eval, omegas), axis1=-2, axis2=-1)
        scale = np.maximum(1.0, np.abs(tr))
        worst_tr = max(worst_tr, np.max(np.abs(dv - tr) / scale))
        worst_fd = max(worst_fd, np.max(np.abs(dv - tr_fd) / scale))
    elapsed = time.perf_counter() - t0
    ok = worst_tr <= 1e-8 and worst_fd <= 1e-6 and elapsed < 5.0
    _line(1, ok, f"trace dev {worst_tr:.2e}, fd dev {worst_fd:.2e}, {elapsed:.2f}s")
    assert worst_tr <= 1e-8
    assert worst_fd <= 1e-6
    assert elapsed < 5.0


def test_criterion_02_divergence_free_predicate():
    axes = np.linspace(-1.0, 1.0, 10)
    grid = np.array(list(itertools.product(axes, axes, axes)))
    norms = np.linalg.norm(grid, axis=1)
    grid = grid / np.maximum(1.0, norms)[:, None]  # 1000 points in the unit ball
    results = {}
    for a1, a2 in itertools.product((-1.0, 0.0, 1.0), repeat=2):
        p = validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=a1, a2=a2)
        results[(a1, a2)] = float(np.max(np.abs(divergence(vector_field(p), grid))))
    ok = all(
        (val == 0.0) if (a1 == 0.0 and a2 == 0.0) else (val > 1e-6)
        for (a1, a2), val in results.items()
    )
    _line(2, ok, f"euler max {results[(0.0, 0.0)]:.1e}, "
                 f"min nonzero max {min(v for k, v in results.items() if k != (0.0, 0.0)):.2e}")
    assert results[(0.0, 0.0)] == 0.0
    for key, val in results.items():
        if key != (0.0, 0.0):
            assert val > 1e-6, key


def test_criterion_03_stationary_density_pde():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    cases = [PSTAR] + [draw_classA_params(rng) for _ in range(4)]
    worst_resid, worst_plane = 0.0, 0.0
    for k, p in enumerate(cases):
        res = residual_sweep(p, n_points=10000, seed=300 + k, tol=1e-6)
        planes = plane_defect_sweep(p, n_points=1000, seed=600 + k, tol=1e-10)
        worst_resid = max(worst_resid, res["max_residual"])
        worst_plane = max(worst_plane, planes["max_defect"])
    elapsed = time.perf_counter() - t0
    ok = worst_resid <= 1e-6 and worst_plane <= 1e-10 and elapsed < 30.0
    _line(3, ok, f"pde residual {worst_resid:.2e}, plane defect {worst_plane:.2e}, "
                 f"{elapsed:.1f}s")
    assert worst_resid <= 1e-6
    assert worst_plane <= 1e-10
    assert elapsed < 30.0


def test_criterion_04_stability_table():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        p = draw_params(rng)
        betas = []
        for i in (1, 2, 3):
            alpha, beta = stability_coefficients(p, i)
            alpha_cf, beta_cf = stability_coefficients_closed_form(p, i)
            worst = max(worst, abs(beta - beta_cf) / max(abs(beta_cf), 1e-30))
            worst = max(worst, abs(alpha - alpha_cf) / max(abs(beta_cf), 1.0))
            betas.append(beta)
        assert betas[0] > 0 and betas[1] < 0 and betas[2] > 0
    table_ok = True
    for a1, a2 in itertools.product((-1.0, 0.0, 1.0), repeat=2):
        p = validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=a1, a2=a2)
        r1, r2, r3 = (classify(p, i) for i in (1, 2, 3))
        want1 = (Classification.LINEAR_CENTER_PAIR if a2 == 0.0
                 else Classification.SOURCE_SINK_PAIR)
        want3 = (Classification.LINEAR_CENTER_PAIR if a1 * a2 == 0.0
                 else Classification.SOURCE_SINK_PAIR)
        table_ok &= (r1.classification is want1
                     and r2.classification is Classification.SADDLE
                     and r3.classification is want3)
    ok = worst <= 1e-9 and table_ok
    _line(4, ok, f"closed-form dev {worst:.2e}, case table {'ok' if table_ok else 'BAD'}")
    assert worst <= 1e-9
    assert table_ok


def test_criterion_05_conservation():
    dp = density_params(PSTAR)
    ics = sample_off_plane(PSTAR, dp, 20, seed=505, norm_range=(0.5, 1.5))
    t0 = time.perf_counter()
    worst_E, worst_F = 0.0, 0.0
    for omega0 in ics:
        traj = simulate(PSTAR, omega0, 100.0, tol=1e-10)
        worst_E = max(worst_E, traj.energy_drift)
        F = first_integral_F(PSTAR, dp, traj.states)
        worst_F = max(worst_F, np.max(np.abs(F - F[0])) / abs(F[0]))
    elapsed = time.perf_counter() - t0
    ok = worst_E <= 1e-9 and worst_F <= 1e-6 and elapsed < 10.0
    _line(5, ok, f"E drift {worst_E:.2e}, F drift {worst_F:.2e}, {elapsed:.1f}s")
    assert worst_E <= 1e-9
    assert worst_F <= 1e-6
    assert elapsed < 10.0


def test_criterion_06_reversibility_and_scaling():
    def endpoint(field, x0, T):
        traj = integrate(field, np.asarray(x0, dtype=float), T)
        return traj.states[0] if T < 0 else traj.states[-1]

    T = 10.0
    errs = {}

    f_full = vector_field(PSTAR_FULL)
    omega0 = np.array([0.7, -0.4, 0.5])
    errs["time-reversal"] = np.max(np.abs(
        endpoint(f_full, -omega0, -T) - (-endpoint(f_full, omega0, T))))

    S2 = np.diag([1.0, -1.0, 1.0])
    f_a2zero = vector_field(PSTAR)
    errs["sigma2"] = np.max(np.abs(
        S2 @ endpoint(f_a2zero, S2 @ omega0, -T) - endpoint(f_a2zero, omega0, T)))

    S1 = np.diag([-1.0, 1.0, 1.0])
    p_a1zero = validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=0.0, a2=1.0)
    f_a1zero = vector_field(p_a1zero)
    errs["sigma1"] = np.max(np.abs(
        S1 @ endpoint(f_a1zero, S1 @ omega0, -T) - endpoint(f_a1zero, omega0, T)))

    for c in (0.5, 2.0):
        errs[f"scaling c={c}"] = np.max(np.abs(
            endpoint(f_full, c * omega0, T) - c * endpoint(f_full, omega0, c * T)))

    worst = max(errs.values())
    ok = worst <= 1e-7
    _line(6, ok, ", ".join(f"{k} {v:.1e}" for k, v in errs.items()))
    assert worst <= 1e-7, errs


def test_criterion_07_liouville_oracle():
    worst = 0.0
    for p, omega0 in ((PSTAR_FULL, [0.6, 0.4, 0.8]),
                      (PSTAR, [0.9, -0.3, 0.5])):
        for t in (5.0, 20.0):
            out = liouville_residual(p, np.array(omega0), t)
            worst = max(worst, out["residual"])
    euler = validate(3.0, 2.0, 1.0, 0.5, 1.0)
    _, D = flow_map_with_jacobian(
        vector_field(euler), np.array([0.9, 0.5, 0.7]), 20.0)
    det_dev = abs(np.linalg.det(D) - 1.0)
    ok = worst <= 1e-6 and det_dev <= 1e-8
    _line(7, ok, f"liouville residual {worst:.2e}, euler det dev {det_dev:.2e}")
    assert worst <= 1e-6
    assert det_dev <= 1e-8


def test_criterion_08_fixture_measure_transport():
    box = np.array([[1.0, 2.0], [1.0, 2.0]])
    field, dens = example2d(), example2d_density()
    rep0 = measure_transport_check(field, dens, box, 0.0, 1_000_000, seed=808)
    mu_ok = abs(rep0.mu_A - 24.5) <= 3.0 * rep0.se_mu_A
    transport_ok = {}
    for t in (0.5, 1.0):
        rep = measure_transport_check(field, dens, box, t, 1_000_000, seed=808)
        transport_ok[t] = rep.within_3se
    ok = mu_ok and all(transport_ok.values())
    _line(8, ok, f"mu_A {rep0.mu_A:.4f} (3SE {3 * rep0.se_mu_A:.4f}), "
                 f"transport t=0.5 {transport_ok[0.5]}, t=1 {transport_ok[1.0]}")
    assert mu_ok
    assert all(transport_ok.values())


def test_criterion_09_attractor_capture():
    t0 = time.perf_counter()
    rep_sink = suslov_attractor_probe(PSTAR_FULL, eta=1.0, samples=500,
                                      T=200.0, seed=909)
    # alpha1 < 0 for a2 > 0, so the sink of the +-v1 pair is -v1
    sink_v1_fraction = rep_sink.fractions["-v1"] + rep_sink.fractions["+v1"]
    rep_rec = suslov_attractor_probe(PSTAR, eta=1.0, samples=500,
                                     T=200.0, seed=909)
    recurrent_fraction = 1.0 - rep_rec.none_fraction
    elapsed = time.perf_counter() - t0
    ok = sink_v1_fraction >= 0.95 and recurrent_fraction <= 0.01 and elapsed < 60.0
    _line(9, ok, f"sink-of-v1 capture {sink_v1_fraction:.3f} (need >= 0.95), "
                 f"recurrent capture {recurrent_fraction:.3f} (need <= 0.01), "
                 f"{elapsed:.1f}s")
    assert elapsed < 60.0
    assert recurrent_fraction <= 0.01
    # the orbit population splits between the sinks of +-v1 and +-v3, so
    # the 95% single-sink share asserted here is not what the dynamics
    # produces; kept as the claim under test rather than weakened
    assert sink_v1_fraction >= 0.95


def test_criterion_10_portrait_regression(tmp_path):
    import json
    regimes = {
        "a2zero": (1.0, 0.0),
        "twosinks": (1.0, 1.0),
        "a1zero": (0.0, 1.0),
    }
    stable = True
    for name, (a1, a2) in regimes.items():
        pf = tmp_path / f"{name}.json"
        pf.write_text(json.dumps({"I1": 3.0, "I2": 2.0, "I3": 1.0, "K1": 0.5,
                                  "K3": 1.0, "a1": a1, "a2": a2, "a3": 1.0}))
        outs = []
        for run in (1, 2):
            d = tmp_path / f"{name}_{run}"
            rc = main(["portrait", "--params", str(pf), "--T", "20",
                       "--samples", "6", "--seed", "17", "--out", str(d)])
            assert rc == 0
            outs.append(d)
        manifest = json.loads((outs[0] / "manifest.json").read_text())
        assert manifest["files"], name
        for fname in manifest["files"]:
            b1 = (outs[0] / fname).read_bytes()
            b2 = (outs[1] / fname).read_bytes()
            stable &= b1 == b2
    _line(10, stable, f"{len(regimes)} regimes, trajectory files byte-stable: {stable}")
    assert stable

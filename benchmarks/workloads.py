"""The three benchmark workloads.

Each workload builds its parameters and specs once, derives the inputs of
pass ``k`` from ``(seed, k)`` alone, runs one pass of public calls through a
call surface (``tracing.Direct`` or ``tracing.Traced``) and checks every
output against a route that does not share the code under test.  The README
beside this file says why each workload exists and which layer it loads.
"""
from __future__ import annotations

import json
import math
from functools import partial

import numpy as np

REFERENCE = dict(I1=3.0, I2=2.0, I3=1.0, K1=0.5, K3=1.0)

#: largest |relative_error| accepted from one transport op (about 6e-10 at 20k)
TRANSPORT_REL_ERR = 1e-7
#: largest relative energy drift accepted from one simulate call (about 1e-10)
ENERGY_DRIFT = 1e-8
#: initial conditions of the long simulate + reconstruct runs, fixed so that
#: these slow ops, which set the tail, do not change with the seed; the first
#: is ROADMAP's
LONG_ICS = ((0.3, -0.4, 0.5), (-0.5, 0.2, 0.4), (0.2, 0.5, -0.6))
#: the probe's split between the sinks -v1 and -v3 on a = (1, 1, 1) at 500
#: samples (0.684 at seed 0; 0.662 in criterion 9's run); criterion 9's claim
#: of >= 0.95 for -v1 is known false
PROBE_SPLIT = {"-v1": 0.675, "-v3": 0.325}
#: the density exponent window of the tests' draw_classA_params; outside it
#: ROADMAP item 4's sample_off_plane hang can make residual_sweep never return
GAMMA_WINDOW = (0.3, 2.5)


class Transport:
    """measure_transport_check on the reference classA instance, 20k samples."""

    name = "transport"
    ops_per_pass = 1
    op_limit_s = 90.0
    cli_skip = frozenset()
    T = 5.0
    samples = 20_000

    def __init__(self, sk, seed: int) -> None:
        self.sk = sk
        self.seed = seed
        self.params = sk.validate(**REFERENCE, a1=1.0, a2=0.0)
        self.field = sk.vector_field(self.params)
        self.density = sk.density_spec(self.params, sk.density_params(self.params))
        self.box = np.array([[0.8, 1.2]] * 3)

    def inputs(self, k: int) -> int:
        return _pass_seed(self.seed, k)

    def run(self, api, op_seed: int, call) -> None:
        call("transport", self.check, api.measure_transport_check,
             self.field, self.density, self.box, self.T, self.samples, op_seed)

    def check(self, rep):
        ok = (
            rep.within_3se
            and abs(rep.relative_error) <= TRANSPORT_REL_ERR
            and rep.sample_count == {"mu_A": self.samples, "transport": self.samples}
        )
        return ok, (rep.mu_A, rep.mu_phi_t_A)

    def cli(self, op_seed: int, workdir, main) -> list[int]:
        pfile = _write_params(workdir, "ref", self.params)
        return [main([
            "transport", "suslov", "--params", pfile, "--T", repr(self.T),
            "--samples", str(self.samples), "--seed", str(op_seed),
            "--out", str(workdir / "transport.json"),
        ])]


class Orbits:
    """Portrait bundles, long simulations with attitude reconstruction, and
    the attractor probe on the reference instance in both regimes."""

    name = "orbits"
    ics = 24
    ops_per_pass = 2 * (1 + 2 * ics + 2 * len(LONG_ICS)) + 1
    op_limit_s = 30.0
    cli_skip = frozenset({"probe"})
    T_portrait = 40.0
    T_long = 100.0
    tol = 1e-10
    probe_samples = 500
    T_probe = 200.0

    def __init__(self, sk, seed: int) -> None:
        self.sk = sk
        self.seed = seed
        self.regimes = (
            ("a101", sk.validate(**REFERENCE, a1=1.0, a2=0.0)),
            ("a111", sk.validate(**REFERENCE, a1=1.0, a2=1.0)),
        )
        self.grid = np.linspace(0.0, self.T_portrait, 201)[1:]

    def inputs(self, k: int) -> int:
        return _pass_seed(self.seed, k)

    def run(self, api, seed: int, call) -> None:
        for _, p in self.regimes:
            ics = call("sample_ellipsoid", partial(self.check_ics, p),
                       api.sample_ellipsoid, p, 1.0, self.ics, seed)
            for w in ics:
                for sign in (1.0, -1.0):
                    call("simulate", self.check_sim, api.simulate, p, w,
                         sign * self.T_portrait, self.tol, sign * self.grid)
            for w in LONG_ICS:
                traj = call("simulate", self.check_sim, api.simulate, p,
                            np.array(w), self.T_long, self.tol)
                call("reconstruct", partial(self.check_recon, p, traj),
                     api.reconstruct, p, traj)
        call("probe", self.check_probe, api.probe, self.regimes[1][1], 1.0,
             self.probe_samples, self.T_probe, seed)

    def check_ics(self, p, ics):
        e = self.sk.energy(p, ics)
        return bool(ics.shape == (self.ics, 3) and np.all(np.abs(e - 1.0) <= 1e-12)), float(ics.sum())

    def check_sim(self, traj):
        ok = traj.energy_drift is not None and traj.energy_drift <= ENERGY_DRIFT
        return ok, (float(traj.states[-1].sum()), traj.integrator_stats["nfev"])

    def check_recon(self, p, traj, att):
        """Unit quaternions, the constraint column, and the rotor angle against
        an independent quadrature of -<a, Omega> along the dense orbit."""
        q_norm = np.abs(np.linalg.norm(att.rotations, axis=1) - 1.0).max()
        a = np.array([p.a1, p.a2, 1.0])
        a_dot = traj.states @ a
        constraint = np.abs(a_dot + att.theta_dot).max()
        ts = np.linspace(traj.times[0], traj.times[-1], 20001)
        rate = traj.dense(ts).T @ a
        quad = -float(np.sum(0.5 * (rate[1:] + rate[:-1]) * np.diff(ts)))
        scale = float(np.sum(np.abs(rate[1:]) * np.diff(ts)))
        theta_err = abs((att.theta[-1] - att.theta[0]) - quad) / scale
        ok = q_norm <= 1e-12 and constraint <= 1e-12 * (1.0 + np.abs(a_dot).max()) and theta_err <= 1e-6
        return bool(ok), float(att.theta[-1])

    def check_probe(self, rep):
        se = math.sqrt(0.25 / rep.samples)
        ok = rep.none_fraction <= 0.01 and all(
            abs(rep.fractions[k] - v) <= 5.0 * se for k, v in PROBE_SPLIT.items()
        )
        return ok, tuple(int(a) for a in rep.assignments)

    def cli(self, seed: int, workdir, main) -> list[int]:
        codes = []
        for tag, p in self.regimes:
            pfile = _write_params(workdir, tag, p)
            outdir = workdir / f"portrait_{tag}"
            rc = main([
                "portrait", "--params", pfile, "--T", repr(self.T_portrait),
                "--samples", str(self.ics), "--seed", str(seed), "--out", str(outdir),
            ])
            if rc == 0:
                # portrait exits 0 even when single trajectories fail
                manifest = json.loads((outdir / "manifest.json").read_text())
                if manifest["failures"] or len(manifest["files"]) != self.ics:
                    rc = 1
            codes.append(rc)
            for j, w in enumerate(LONG_ICS):
                codes.append(main([
                    "simulate", "--params", pfile,
                    "--omega0=" + ",".join(map(repr, w)),
                    "--T", repr(self.T_long), "--reconstruct",
                    "--out", str(workdir / f"sim_{tag}_{j}.csv"),
                ]))
        return codes


class Verify:
    """analyze + verify over seeded random parameter sets, no integration."""

    name = "verify"
    # two a2 = 0 sets per a2 != 0 set: with an even split the median op would
    # fall in the gap between the ~20 ms and ~4 ms clusters and jump between runs
    classA_per_block = 2
    ops_per_pass = 48
    op_limit_s = 10.0
    cli_skip = frozenset()
    sweep_points = 10_000
    plane_points = 1000
    sweep_tol = 1e-6

    def __init__(self, sk, seed: int) -> None:
        self.sk = sk
        self.seed = seed

    def inputs(self, k: int) -> list:
        rng = np.random.default_rng([self.seed, k])
        out = []
        for j in range(self.ops_per_pass):
            classA = j % (self.classA_per_block + 1) != self.classA_per_block
            p = draw_params(self.sk, rng, a2=0.0 if classA else None)
            while classA and not (
                GAMMA_WINDOW[0] <= self.sk.density_params(p).gamma <= GAMMA_WINDOW[1]
            ):
                p = draw_params(self.sk, rng, a2=0.0)
            out.append((p, int(rng.integers(2**31))))
        return out

    def run(self, api, sets, call) -> None:
        for p, op_seed in sets:
            call("verify_set", partial(self.check, p), self.op, api, p, op_seed)

    def op(self, api, p, op_seed):
        reports = [api.classify(p, i) for i in (1, 2, 3)]
        if self.sk.classA_measure_exists(p):
            return reports, (
                api.residual_sweep(p, self.sweep_points, op_seed, self.sweep_tol),
                api.plane_defect_sweep(p, self.plane_points, op_seed),
            )
        return reports, (api.divergence_witness(p, op_seed),)

    def check(self, p, out):
        """classify against the closed-form coefficients, and the sweeps'
        own pass flags (the witness by the CLI's declared check)."""
        reports, sweeps = out
        cls = self.sk.Classification
        ok = True
        for r in reports:
            alpha_cf, beta_cf = self.sk.stability_coefficients_closed_form(p, r.index)
            ok &= abs(r.beta - beta_cf) <= 1e-8 * abs(beta_cf)
            if beta_cf < 0.0:
                ok &= r.classification is cls.SADDLE
            elif alpha_cf == 0.0:
                ok &= r.classification is cls.LINEAR_CENTER_PAIR
            else:
                ok &= r.classification is cls.SOURCE_SINK_PAIR
                ok &= r.sink_sign == (-1 if alpha_cf < 0.0 else 1)
        if len(sweeps) == 2:
            ok &= sweeps[0]["pass"] and sweeps[1]["pass"]
            digest = (sweeps[0]["max_residual"], sweeps[1]["max_defect"])
        else:
            wit = sweeps[0]
            ok &= wit["supremum_unit_ball"] > 0.0
            ok &= wit["max_divergence"] >= 0.5 * wit["supremum_unit_ball"]
            digest = (wit["max_divergence"],)
        return bool(ok), digest + tuple(r.beta for r in reports)

    def cli(self, sets, workdir, main) -> list[int]:
        codes = []
        for j, (p, op_seed) in enumerate(sets):
            pfile = _write_params(workdir, f"set{j}", p)
            codes.append(main(["analyze", "--params", pfile]))
            codes.append(main([
                "verify", "suslov", "--params", pfile, "--seed", str(op_seed),
                "--out", str(workdir / f"verify_{j}.json"),
            ]))
        return codes


def draw_params(sk, rng, a2=None):
    """One admissible parameter set, drawn as the test suite draws them."""
    I3 = rng.uniform(0.2, 2.0)
    I2 = I3 + rng.uniform(0.1, 2.0)
    I1 = I2 + rng.uniform(0.1, 2.0)
    K1 = rng.uniform(0.0, 1.5)
    K3 = rng.uniform(0.1, 2.0)
    a1 = rng.uniform(-2.0, 2.0)
    if a2 is None:
        a2 = rng.uniform(-2.0, 2.0)
    return sk.validate(I1, I2, I3, K1, K3, a1=a1, a2=a2)


def _pass_seed(seed: int, k: int) -> int:
    """The seed handed to the program in pass k."""
    return int(np.random.default_rng([seed, k]).integers(2**31))


def _write_params(workdir, tag, p) -> str:
    path = workdir / f"params_{tag}.json"
    path.write_text(json.dumps(p.to_dict()))
    return str(path)


WORKLOADS = {w.name: w for w in (Transport, Orbits, Verify)}

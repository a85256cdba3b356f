"""Outside-in tracing of suslovkit.

Two call surfaces with the same methods: ``Direct`` calls the public API as a
user would; ``Traced`` records a span around every public call and wraps the
``eval``/``jac`` of each ``VectorFieldSpec`` and the ``eval`` of each
``DensitySpec`` it hands to a spec-taking function.  Where a convenience
wrapper builds its own spec (``simulate``, ``suslov_attractor_probe``,
``residual_sweep``), ``Traced`` calls the spec-taking function beneath it with
the same arguments, so nothing under ``src/`` is patched.
"""
from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: flow spans whose field evaluations are stages of the shared-step batch integrator
BATCH_SPANS = ("flow.measure_transport_check", "flow.detect_attractor")

#: counts that must repeat exactly across runs of the same code and seed
EXACT_COUNTS = (
    "core.eval_calls",
    "core.jac_calls",
    "flow.batch_stage_evals",
    "flow.scalar_nfev",
    "fields.fd_density_evals",
)

# the convenience wrappers' own defaults, passed explicitly on both surfaces
PROBE_CAPTURE_RADIUS = 0.05
PROBE_TOL = 1e-8
PROBE_ATOL = 1e-10
SIM_ATOL = 1e-12


def _rows(x) -> int:
    x = np.asarray(x)
    return 1 if x.ndim <= 1 else int(x.size // x.shape[-1])


class Tracer:
    """In-memory span recorder: name, start, end and parent of every span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rows: list[int] = []
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self.fd_input = None

    def open(self, name: str, rows: int = 0) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.rows.append(rows)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self.stack.pop()

    def times(self) -> tuple[np.ndarray, np.ndarray]:
        """Duration and self time (duration minus direct children) of every span."""
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=int)
        child = np.zeros(len(dur))
        np.add.at(child, parents[parents >= 0], dur[parents >= 0])
        return dur, dur - child

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)


class Direct:
    """The public API, called as a user would call it."""

    def __init__(self, sk) -> None:
        self.sk = sk

    def measure_transport_check(self, field, density, box, t, N, seed):
        return self.sk.measure_transport_check(field, density, box, t, N, seed)

    def sample_ellipsoid(self, p, eta, count, seed):
        return self.sk.sample_ellipsoid(p, eta, count, seed)

    def simulate(self, p, omega0, T, tol, record_times=None):
        return self.sk.simulate(p, omega0, T, tol=tol, atol=SIM_ATOL, record_times=record_times)

    def reconstruct(self, p, traj):
        return self.sk.reconstruct(p, traj)

    def probe(self, p, eta, samples, T, seed):
        return self.sk.suslov_attractor_probe(
            p, eta=eta, samples=samples, T=T, seed=seed,
            capture_radius=PROBE_CAPTURE_RADIUS, tol=PROBE_TOL, atol=PROBE_ATOL,
        )

    def classify(self, p, i):
        return self.sk.classify(p, i)

    def residual_sweep(self, p, n_points, seed, tol):
        return self.sk.residual_sweep(p, n_points=n_points, seed=seed, tol=tol)

    def plane_defect_sweep(self, p, n_points, seed):
        return self.sk.plane_defect_sweep(p, n_points=n_points, seed=seed)

    def divergence_witness(self, p, seed):
        return self.sk.divergence_witness(p, seed=seed)


class Traced(Direct):
    """The same calls, each under a span, with every spec it passes wrapped."""

    def __init__(self, sk, tracer: Tracer) -> None:
        super().__init__(sk)
        self.tr = tracer

    def field(self, spec):
        tr = self.tr

        def evaluate(x):
            i = tr.open("core.eval", _rows(x))
            try:
                return spec.eval(x)
            finally:
                tr.close(i)

        jacobian = None
        if spec.jac is not None:
            def jacobian(x):
                i = tr.open("core.jac", _rows(x))
                try:
                    return spec.jac(x)
                finally:
                    tr.close(i)

        return self.sk.VectorFieldSpec(dim=spec.dim, eval=evaluate, jac=jacobian)

    def density(self, spec):
        tr = self.tr

        def evaluate(x):
            inp = tr.fd_input
            if inp is not None:
                xa = np.asarray(x)
                direct = xa is inp or (xa.shape == inp.shape and np.array_equal(xa, inp))
                if not direct:
                    tr.counts["fd_density_rows"] += _rows(x)
            i = tr.open("measures.density_eval", _rows(x))
            try:
                return spec.eval(x)
            finally:
                tr.close(i)

        return self.sk.DensitySpec(
            eval=evaluate,
            zero_set_description=spec.zero_set_description,
            differentiability_class=spec.differentiability_class,
        )

    def measure_transport_check(self, field, density, box, t, N, seed):
        field, density = self.field(field), self.density(density)
        with self.tr.span("flow.measure_transport_check"):
            return self.sk.measure_transport_check(field, density, box, t, N, seed)

    def sample_ellipsoid(self, p, eta, count, seed):
        with self.tr.span("flow.sample_ellipsoid"):
            return self.sk.sample_ellipsoid(p, eta, count, seed)

    def simulate(self, p, omega0, T, tol, record_times=None):
        sk = self.sk
        with self.tr.span("core.vector_field"):
            field = self.field(sk.vector_field(p))
        with self.tr.span("flow.integrate"):
            traj = sk.integrate(
                field, omega0, T, tol=tol, atol=SIM_ATOL, record_times=record_times,
                energy_fn=lambda w: sk.energy(p, w), project=None,
            )
        stats = traj.integrator_stats
        self.tr.counts["scalar_nfev"] += stats["nfev"]
        self.tr.counts["scalar_accepted"] += stats["n_accepted"]
        self.tr.counts["scalar_rejected"] += stats["n_rejected"]
        return traj

    def reconstruct(self, p, traj):
        with self.tr.span("flow.reconstruct"):
            return self.sk.reconstruct(p, traj)

    def probe(self, p, eta, samples, T, seed):
        sk, tr = self.sk, self.tr
        with tr.span("equilibria.equilibrium_directions"):
            dirs = sk.equilibrium_directions(p)
        candidates = []
        with tr.span("equilibria.scale_to_ellipsoid"):
            for i, v in enumerate(dirs, start=1):
                for sign, tag in ((1, "+"), (-1, "-")):
                    candidates.append(
                        (f"{tag}v{i}", sk.scale_to_ellipsoid(p, v, eta, sign=sign))
                    )
        with tr.span("core.vector_field"):
            field = self.field(sk.vector_field(p))
        sampler = lambda count, sd: self.sample_ellipsoid(p, eta, count, sd)
        with tr.span("flow.detect_attractor"):
            rep = sk.detect_attractor(
                field, candidates, sampler, samples, T,
                capture_radius=PROBE_CAPTURE_RADIUS, seed=seed, metric="angular",
                tol=PROBE_TOL, atol=PROBE_ATOL,
            )
        tr.counts["probe_samples"] += rep.samples
        tr.counts["probe_captured"] += int(np.sum(rep.assignments >= 0))
        return rep

    def classify(self, p, i):
        with self.tr.span("equilibria.classify"):
            return self.sk.classify(p, i)

    def residual_sweep(self, p, n_points, seed, tol):
        sk, tr = self.sk, self.tr
        m = sk.measures
        with tr.span("measures.residual_sweep"):
            dp = m.density_params(p)
            field = self.field(sk.vector_field(p))
            dens = self.density(m.density_spec(p, dp, extra_power=0))
            excl = m.exclusion_radius(dp, tol=tol)
            with tr.span("measures.sample_off_plane"):
                pts = m.sample_off_plane(p, dp, n_points, seed, excl=excl)
            tr.fd_input = pts
            try:
                with tr.span("measures.pde_residual"):
                    res = m.pde_residual(field, dens, pts)
                with tr.span("measures.residual_scale"):
                    scale = m.residual_scale(field, dens, pts)
            finally:
                tr.fd_input = None
            tr.counts["swept_points"] += len(pts)
            worst = float(np.max(np.abs(res) / scale))
        return {"max_residual": worst, "tolerance": tol, "pass": bool(worst <= tol)}

    def plane_defect_sweep(self, p, n_points, seed):
        with self.tr.span("measures.plane_defect_sweep"):
            return super().plane_defect_sweep(p, n_points, seed)

    def divergence_witness(self, p, seed):
        with self.tr.span("measures.divergence_witness"):
            return super().divergence_witness(p, seed)


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer totals of one traced pass, from its spans and counts."""
    dur, self_t = tr.times()
    names = np.array(tr.names, dtype=object)
    parents = np.array(tr.parents)
    rows = np.array(tr.rows)

    def total(name, arr=dur):
        return float(arr[names == name].sum())

    def calls(name):
        return int(np.sum(names == name))

    in_batch = np.isin(names[np.maximum(parents, 0)], BATCH_SPANS) & (parents >= 0)
    stage = (names == "core.eval") & in_batch
    batch_self = float(sum(total(s, self_t) for s in BATCH_SPANS))
    batch_rows = int(rows[stage].sum())
    jac_in_batch = bool(np.any((names == "core.jac") & in_batch))
    state_dim = 3 + 9 if jac_in_batch else 3
    c = tr.counts
    return {
        "core.eval_s": total("core.eval"),
        "core.eval_calls": calls("core.eval"),
        "core.eval_rows": int(rows[names == "core.eval"].sum()),
        "core.jac_s": total("core.jac"),
        "core.jac_calls": calls("core.jac"),
        "core.jac_rows": int(rows[names == "core.jac"].sum()),
        "flow.batch_self_s": batch_self,
        "flow.batch_stage_evals": int(stage.sum()),
        "flow.batch_ns_per_row_eval": 1e9 * batch_self / batch_rows if batch_rows else 0.0,
        "flow.batch_state_bytes": int(rows[stage].max() * state_dim * 8) if batch_rows else 0,
        "flow.scalar_self_s": total("flow.integrate", self_t),
        "flow.scalar_nfev": c["scalar_nfev"],
        "flow.scalar_accepted": c["scalar_accepted"],
        "flow.scalar_rejected": c["scalar_rejected"],
        "flow.reconstruct_s": total("flow.reconstruct"),
        "flow.sample_s": total("flow.sample_ellipsoid"),
        "flow.probe_s": total("flow.detect_attractor"),
        "flow.probe_capture_frac": (
            c["probe_captured"] / c["probe_samples"] if c["probe_samples"] else 0.0
        ),
        "measures.density_eval_s": total("measures.density_eval"),
        "measures.density_eval_rows": int(rows[names == "measures.density_eval"].sum()),
        "measures.sweep_s": total("measures.residual_sweep"),
        "measures.sample_off_plane_s": total("measures.sample_off_plane"),
        "measures.pde_residual_s": total("measures.pde_residual"),
        "measures.residual_scale_s": total("measures.residual_scale"),
        "measures.plane_defect_s": total("measures.plane_defect_sweep"),
        "measures.witness_s": total("measures.divergence_witness"),
        "fields.fd_density_evals": (
            c["fd_density_rows"] / c["swept_points"] if c["swept_points"] else 0.0
        ),
        "equilibria.classify_s": total("equilibria.classify"),
        "equilibria.classify_calls": calls("equilibria.classify"),
    }


def unattributed_frac(tr: Tracer) -> float:
    """Share of the traced time spent in the benchmark's own spans (names
    starting with ``bench.``) rather than in a layer of the program."""
    dur, self_t = tr.times()
    own = np.char.startswith(np.array(tr.names), "bench.")
    return float(self_t[own].sum() / dur[np.array(tr.parents) < 0].sum())


def span_violations(tr: Tracer, slack: float = 1e-6) -> list[str]:
    """Spans that leave their parent's interval, and parents whose children
    add up to more than the parent's own duration."""
    dur, self_t = tr.times()
    bad = [f"{tr.names[i]}#{i} ends before it starts" for i in np.flatnonzero(dur < 0.0)]
    for i, parent in enumerate(tr.parents):
        if parent >= 0 and (tr.starts[i] < tr.starts[parent] - slack
                            or tr.ends[i] > tr.ends[parent] + slack):
            bad.append(f"{tr.names[i]}#{i} outside parent {tr.names[parent]}#{parent}")
    bad += [f"children of {tr.names[i]}#{i} exceed it" for i in np.flatnonzero(self_t < -slack)]
    return bad

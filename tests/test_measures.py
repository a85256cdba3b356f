import math
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from suslovkit import measures
from suslovkit.core import validate, vector_field
from suslovkit.fields import DensitySpec, VectorFieldSpec, divergence, fd_gradient
from suslovkit.measures import (
    ClassADensityParams,
    _least_c1_n,
    _plane_rows,
    _rejection_sample,
    _sweep_report,
    classA_measure_exists,
    density_params,
    density_spec,
    divergence_witness,
    exclusion_radius,
    first_integral_F,
    fixture2d_residual_sweep,
    pde_residual,
    plane_defect_sweep,
    positive_c1_measure_exists,
    residual_scale,
    residual_sweep,
    sample_off_plane,
)

from conftest import divergence_closed_form, draw_classA_params, draw_params


class TestPredicates:
    def test_positive_c1(self):
        assert positive_c1_measure_exists(validate(3, 2, 1, 0.5, 1))
        assert not positive_c1_measure_exists(validate(3, 2, 1, 0.5, 1, a1=1))
        assert not positive_c1_measure_exists(validate(3, 2, 1, 0.5, 1, a2=0.3))

    def test_classA(self):
        assert classA_measure_exists(validate(3, 2, 1, 0.5, 1, a1=1))
        assert not classA_measure_exists(validate(3, 2, 1, 0.5, 1, a2=0.3))
        assert classA_measure_exists(validate(3, 2, 1, 0.5, 1))


class TestDensityParams:
    def test_reference_instance(self, pstar):
        dp = density_params(pstar)
        R = math.sqrt(28.0)  # 1 + 4*4.5*1*1*1.5
        assert dp.R == pytest.approx(R, rel=1e-14)
        assert dp.xi_plus == pytest.approx((1.0 + R) / 9.0, rel=1e-14)
        assert dp.xi_minus == pytest.approx((1.0 - R) / 9.0, rel=1e-14)
        assert dp.gamma == pytest.approx((R - 1.0) / (R + 1.0), rel=1e-14)
        assert dp.n == 3

    def test_euler_symmetric(self, euler):
        dp = density_params(euler)
        assert dp.gamma == pytest.approx(1.0, rel=1e-14)
        l1, l2, _ = euler.lam
        assert dp.xi_plus == pytest.approx(dp.R / (2 * (l1 - l2) * l1), rel=1e-13)
        assert dp.xi_minus == pytest.approx(-dp.xi_plus, rel=1e-13)

    def test_a2_nonzero_rejected(self, pstar_full):
        with pytest.raises(ValueError):
            density_params(pstar_full)

    def test_structural_invariants(self, rng):
        for _ in range(100):
            p = draw_params(rng, a2=0.0)
            dp = density_params(p)
            assert dp.R > abs(p.a1 * p.K3 * p.lam[2])
            assert dp.gamma > 0
            assert dp.xi_plus > dp.xi_minus
            assert dp.n % 2 == 1
            assert dp.exp_plus >= 1.0 and dp.exp_minus >= 1.0 - 1e-15

    @pytest.mark.parametrize("args, correctly_rounded", [
        pytest.param((3.0, 2.0, 1.0, 0.5, 1.0, 1.0), True, id="pstar"),
        pytest.param((1.1, 1.0, 0.9, 0.0, 20.0, 1.0), False, id="n=3417"),
        pytest.param((1.1, 1.0, 0.9, 0.0, 50.0, -2.0), False, id="gamma=4477"),
    ])
    def test_cancellation_free_to_60_digits(self, args, correctly_rounded):
        # R - |A| cancels when |A| is close to R; the exact reference takes
        # the float inputs as rationals and R to 60 digits. On pstar
        # (|A| / R = 0.19) nothing cancels, and every value is the double
        # nearest the reference
        *system, a1 = args
        p = validate(*system, a1=a1, a2=0.0)
        l1, l2, l3 = (Fraction(v) for v in p.lam)
        a, k3 = Fraction(p.a1), Fraction(p.K3)
        A = a * k3 * l3
        D = A * A + 4 * (l1 + a * a * k3) * l3 * (l1 - l2) * (l2 - l3)
        den = 2 * (l1 - l2) * (l1 + a * a * k3)
        with localcontext() as ctx:
            ctx.prec = 60
            dec = lambda q: Decimal(q.numerator) / Decimal(q.denominator)
            R, A, den = dec(D).sqrt(), dec(A), dec(den)
            exact = {"R": R, "gamma": (R - A) / (R + A),
                     "xi_plus": (A + R) / den, "xi_minus": (A - R) / den}
            dp = density_params(p)
            for name, value in exact.items():
                rel = abs((Decimal(getattr(dp, name)) - value) / value)
                assert rel <= Decimal("4e-16"), (name, rel)
                if correctly_rounded:
                    assert getattr(dp, name) == float(value), name

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ClassADensityParams(R=1.0, xi_plus=0.5, xi_minus=0.6,
                                gamma=1.0, n=3)  # xi_plus <= xi_minus
        # n is the family parameter: an even n is a member like any other,
        # since both factors carry abs
        dp = ClassADensityParams(R=1.0, xi_plus=0.5, xi_minus=-0.5, gamma=1.0, n=4)
        assert (dp.exp_plus, dp.exp_minus) == (3.0, 3.0)


    @pytest.mark.parametrize("kw, named", [
        (dict(R=0.0), "R and gamma must be positive"),
        (dict(gamma=-1.0), "R and gamma must be positive"),
        (dict(gamma=0.5), "exponents n-1 and n\\*gamma-1 must each be 0 or above 1, "
                          "got \\(2.0, 0.5\\)"),
        (dict(R=math.inf), "must be finite, got \\{'R': inf\\}"),
        (dict(xi_plus=math.inf), "must be finite, got \\{'xi_plus': inf\\}"),
        (dict(xi_minus=-math.inf), "must be finite, got \\{'xi_minus': -inf\\}"),
        (dict(gamma=math.nan), "must be finite, got \\{'gamma': nan\\}"),
    ], ids=["R=0", "gamma<0", "n*gamma<2", "R=inf", "xi_plus=inf", "xi_minus=-inf",
            "gamma=nan"])
    def test_unusable_constructor_value_is_named(self, kw, named):
        with pytest.raises(ValueError, match=named):
            ClassADensityParams(**{"R": 1.0, "xi_plus": 0.5, "xi_minus": -0.5,
                                   "gamma": 1.0, "n": 3, **kw})

    @staticmethod
    def _searched_n(gamma):
        # the search for n gamma - 1 > 1 that density_params ran before n
        # was computed, under the strict rule
        n = 3
        while n * gamma - 1.0 <= 1.0:
            n += 2
        return n

    def test_n_is_the_searchs_n(self):
        # log-uniform gamma, and the boundary values 2/k with both float
        # neighbours, where exact arithmetic and the float search disagree
        gammas = list(10.0 ** np.random.default_rng(8).uniform(-3.0, 3.0, 2000))
        for k in range(1, 1500):
            g = 2.0 / k
            gammas += [math.nextafter(g, 0.0), g, math.nextafter(g, 4.0)]
        for g in gammas:
            assert _least_c1_n(g) == self._searched_n(g), g

    @pytest.mark.parametrize("system", [
        (1.0 + 1e-9, 1.0, 0.9, 0.0, 20.0), (3.0, 2.0, 1.0, 0.5, 1e8), (3.0, 2.0, 1.0, 0.5, 1e150),
    ], ids=["d=1e-9", "K3=1e8", "K3=1e150"])
    def test_n_of_a_tiny_gamma_is_computed(self, system):
        # the search took O(1/gamma) steps: about 1.7e11 on the first set;
        # the constructor checks that n makes both exponents exceed 1
        dp = density_params(validate(*system, a1=1.0, a2=0.0))
        assert dp.n % 2 == 1 and dp.exp_minus > 1.0
        if dp.n < 2 ** 53:
            assert (dp.n - 2) * dp.gamma - 1.0 < 1.0

    @pytest.mark.parametrize("gamma, n", [(0.4, 7), (2.0 / 3.0, 5)])
    def test_an_exponent_of_one_is_not_c1(self, gamma, n):
        # at n - 2, n gamma - 1 rounds to exactly 1, and |u-|^1 has a kink
        assert (n - 2) * gamma - 1.0 == 1.0
        assert _least_c1_n(gamma) == n == self._searched_n(gamma)
        dp = ClassADensityParams(R=1.0, xi_plus=0.5, xi_minus=-0.5, gamma=gamma, n=n)
        assert dp.exp_plus > 1.0 and dp.exp_minus > 1.0
        with pytest.raises(ValueError, match="must each be 0 or above 1"):
            ClassADensityParams(R=1.0, xi_plus=0.5, xi_minus=-0.5, gamma=gamma, n=n - 2)

    @pytest.mark.parametrize("a1", [1.0, -1.0])
    def test_gamma_past_the_square_overflow(self, a1):
        # at K3 = 1e154, (R + |A|)^2 passes the largest float (Python's float
        # ** raises there) and R + A = 0 at a1 = -1; the reference takes
        # every value by a form without cancellation, to 60 digits
        p = validate(3.0, 2.0, 1.0, 0.5, 1e154, a1=a1, a2=0.0)
        l1, l2, l3 = (Fraction(v) for v in p.lam)
        a, k3 = Fraction(p.a1), Fraction(p.K3)
        A = a * k3 * l3
        N = 4 * (l1 + a * a * k3) * l3 * (l1 - l2) * (l2 - l3)
        den = 2 * (l1 - l2) * (l1 + a * a * k3)
        with localcontext() as ctx:
            ctx.prec = 60
            dec = lambda q: Decimal(q.numerator) / Decimal(q.denominator)
            R, A, N, den = dec(A * A + N).sqrt(), dec(A), dec(N), dec(den)
            s = R + abs(A)
            small = -N / (s * den) if a1 > 0 else N / (s * den)
            exact = {"R": R, "gamma": N / (s * s) if a1 > 0 else s * s / N,
                     "xi_plus": (A + R) / den if a1 > 0 else small,
                     "xi_minus": small if a1 > 0 else (A - R) / den}
            dp = density_params(p)
            for name, value in exact.items():
                rel = abs((Decimal(getattr(dp, name)) - value) / value)
                assert rel <= Decimal("4e-16"), (name, rel)
        assert dp.n % 2 == 1 and dp.exp_plus > 1.0 and dp.exp_minus > 1.0

    @pytest.mark.parametrize("a1", [1e102, -1e102])
    def test_small_xi_survives_an_overflowing_product(self, a1):
        # (R + |A|) den passes the largest float below the 2^512 scaling, and
        # N / that product flushed the small xi to -0.0 (or 0.0); the
        # reference takes the float inputs as rationals, to 50 digits
        p = validate(3.0, 2.0, 1.0, 0.5, 10.0, a1=a1, a2=0.0)
        l1, l2, l3 = (Fraction(v) for v in p.lam)
        a, k3 = Fraction(p.a1), Fraction(p.K3)
        A = a * k3 * l3
        N = 4 * (l1 + a * a * k3) * l3 * (l1 - l2) * (l2 - l3)
        den = 2 * (l1 - l2) * (l1 + a * a * k3)
        with localcontext() as ctx:
            ctx.prec = 50
            dec = lambda q: Decimal(q.numerator) / Decimal(q.denominator)
            s = dec(A * A + N).sqrt() + abs(dec(A))
            exact = dec(N) / (s * dec(den))
        dp = density_params(p)
        small = -dp.xi_minus if a1 > 0 else dp.xi_plus
        assert abs(Decimal(small) - exact) <= 2 * Decimal(math.ulp(float(exact)))
        assert small > 0.0

    def test_overflowing_density_params_name_gamma(self):
        # at K3 = 1e200, A^2 overflows: R = inf and gamma = inf / inf = nan
        with pytest.raises(ValueError, match="must be finite.*'gamma': nan"):
            density_params(validate(3.0, 2.0, 1.0, 0.5, 1e200, a1=1.0, a2=0.0))


class TestDensityM:
    def test_vanishes_on_planes(self, pstar):
        dp = density_params(pstar)
        on_plus = np.array([dp.xi_plus * 2.0, 0.7, 2.0])
        on_minus = np.array([dp.xi_minus * -1.5, 0.1, -1.5])
        M = density_spec(pstar, dp).eval
        assert M(on_plus) == 0.0
        assert M(on_minus) == 0.0

    def test_unit_value_off_axis(self, pstar):
        dp = density_params(pstar)
        assert density_spec(pstar, dp).eval(np.array([1.0, 0.0, 0.0])) == \
            pytest.approx(1.0, rel=1e-14)

    def test_nonnegative_everywhere(self, pstar, rng):
        dp = density_params(pstar)
        pts = rng.normal(size=(200, 3))
        assert np.all(density_spec(pstar, dp).eval(pts) >= 0.0)


class TestFirstIntegralF:
    def test_zero_on_plus_plane(self, pstar):
        dp = density_params(pstar)
        assert first_integral_F(pstar, dp, np.array([dp.xi_plus, 0.3, 1.0])) == 0.0

    def test_unit_value(self, pstar):
        dp = density_params(pstar)
        assert first_integral_F(pstar, dp, np.array([1.0, 0.0, 0.0])) == \
            pytest.approx(1.0, rel=1e-14)

    def test_gradient_orthogonal_to_field(self, rng):
        # <grad F, X> = 0 off the planes: F is a first integral
        for _ in range(20):
            p = draw_classA_params(rng)
            dp = density_params(p)
            f = vector_field(p)
            pts = sample_off_plane(p, dp, 10, seed=int(rng.integers(1 << 31)))
            for x in pts:
                g = fd_gradient(lambda y: first_integral_F(p, dp, y), x)
                rate = abs(g @ f.eval(x))
                assert rate <= 1e-7 * np.linalg.norm(g) * np.linalg.norm(f.eval(x))

    def test_scaling_homogeneity(self, pstar, rng):
        dp = density_params(pstar)
        for _ in range(30):
            x = rng.normal(size=3)
            c = rng.uniform(0.1, 5.0)
            f0 = first_integral_F(pstar, dp, x)
            fc = first_integral_F(pstar, dp, c * x)
            assert fc == pytest.approx(c ** (1.0 + dp.gamma) * f0, rel=1e-12)

    def test_point_is_its_batch_row_bit_for_bit(self, pstar):
        # a (3,) point runs the batch's array power, not numpy's scalar pow
        dp = density_params(pstar)
        x = np.random.default_rng(0).normal(size=(2000, 3))
        points = np.array([first_integral_F(pstar, dp, row) for row in x])
        assert points.tobytes() == first_integral_F(pstar, dp, x).tobytes()


class TestPlaneInvariance:
    def test_sweep(self, pstar):
        report = plane_defect_sweep(pstar, n_points=200, seed=3)
        assert report["pass"]
        assert report["max_defect"] <= 1e-10

    @pytest.mark.parametrize("n_points", [0, -5, 1])
    def test_point_count_below_one_is_named(self, pstar, n_points):
        # each plane needs a point, so the bound is 2
        with pytest.raises(ValueError, match=f"n_points must be at least 2, got {n_points}"):
            plane_defect_sweep(pstar, n_points=n_points, seed=3)

    @pytest.mark.parametrize("n_points", [1000, 201, 2])
    def test_reports_the_count_it_was_given(self, pstar, n_points, monkeypatch):
        # ceil(n / 2) points on pi+, floor(n / 2) on pi-, one field call each
        drawn = []

        def recording(params):
            f = vector_field(params)
            return VectorFieldSpec(dim=3, eval=lambda w: drawn.append(len(w)) or f.eval(w))

        monkeypatch.setattr("suslovkit.measures.vector_field", recording)
        report = plane_defect_sweep(pstar, n_points=n_points, seed=3)
        assert report["sample_count"] == n_points
        assert drawn == [n_points - n_points // 2, n_points // 2]


class TestPdeResidual:
    def test_fixture_at_unit_point(self):
        from suslovkit.fields import example2d, example2d_density
        r = pde_residual(example2d(), example2d_density(), np.array([1.0, 1.0]))
        assert abs(r) <= 1e-7

    def test_constant_density_gives_divergence(self):
        from suslovkit.fields import example2d
        ones = DensitySpec(eval=lambda x: np.ones(np.asarray(x).shape[:-1]),
                           zero_set_description="empty")
        r = pde_residual(example2d(), ones, np.array([1.0, 1.0]))
        assert r == pytest.approx(1.0, abs=1e-9)

    def test_field_without_jac_is_refused_before_differencing(self):
        # div X is the trace of the analytic jac; central differences of eval
        # are not a fallback, so the density is never evaluated
        from suslovkit.fields import example2d, example2d_density
        seen = []
        dens = DensitySpec(eval=lambda x: seen.append(x) or example2d_density().eval(x),
                           zero_set_description="coordinate axes")
        bare = VectorFieldSpec(dim=2, eval=example2d().eval)
        for route in (pde_residual, residual_scale):
            with pytest.raises(ValueError, match="jac slot"):
                route(bare, dens, np.array([1.0, 1.0]))
        assert seen == []

    def test_euler_uniform_density_stationary(self, euler, rng):
        ones = DensitySpec(eval=lambda x: np.ones(np.asarray(x).shape[:-1]),
                           zero_set_description="empty")
        f = vector_field(euler)
        for x in rng.normal(size=(10, 3)):
            assert abs(pde_residual(f, ones, x)) <= 1e-9


def test_residual_scale_frobenius_matches_linalg_norm(pstar, rng):
    field, dens = vector_field(pstar), density_spec(pstar, density_params(pstar))
    x = rng.normal(size=(500, 3))
    grad_M, X = fd_gradient(dens.eval, x), field.eval(x)
    expected = (
        np.linalg.norm(X, axis=-1) * np.linalg.norm(grad_M, axis=-1)
        + np.abs(dens.eval(x)) * np.linalg.norm(field.jac(x), axis=(-2, -1))
    )
    np.testing.assert_allclose(residual_scale(field, dens, x), expected, rtol=1e-14, atol=0)


class TestResidualSweep:
    def test_reference_instance(self, pstar):
        report = residual_sweep(pstar, n_points=2000, seed=5)
        assert report["pass"]
        assert report["max_residual"] <= 1e-6

    def test_density_times_F_powers_remain_stationary(self, pstar):
        # M |F|^k is the family member n + k: its density, exclusion radius
        # and samples all read that one member's factor table, so its larger
        # exponents widen the radius (k = 10 needs 0.144 where n needs 0.0114)
        dp = density_params(pstar)
        for k in (1, 2, 10):
            member = replace(dp, n=dp.n + k)
            report = _sweep_report(
                "M |F|^k", {}, vector_field(pstar), _plane_rows(member),
                (member.exp_plus, member.exp_minus), 20000, 1, 1e-6,
            )
            assert report["exclusion_radius"] == exclusion_radius(member) > exclusion_radius(dp)
            assert report["max_residual"] <= 1e-7, f"k={k}: {report['max_residual']}"

    def test_main_theorem_parameter_sweep(self, rng):
        # the headline stationarity claim over many a2 = 0 parameter draws
        worst = 0.0
        for _ in range(1000):
            p = draw_classA_params(rng)
            report = residual_sweep(p, n_points=100,
                                    seed=int(rng.integers(1 << 31)))
            worst = max(worst, report["max_residual"])
            assert report["pass"], (p, report["max_residual"])
        assert worst <= 1e-6


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_residual_sweep_is_its_linalg_norm_oracle(seed):
    # the sweep written out with boolean indexing and np.linalg.norm over
    # rows, on one stream drawn whole: Philox draws do not depend on chunking
    p = draw_classA_params(np.random.default_rng(seed))
    dp, n, tol = density_params(p), 3000, 1e-6
    excl = exclusion_radius(dp, tol)
    x = np.random.Generator(np.random.Philox(key=seed)).uniform(-2.0, 2.0, size=(20 * n, 3))
    nrm = np.linalg.norm(x, axis=-1)
    mask = (nrm > 0.3) & (nrm < 2.0)
    for xi in (dp.xi_plus, dp.xi_minus):
        mask &= np.abs(x[:, 0] - xi * x[:, 2]) > excl * nrm * (1.0 + abs(xi))
    pts = x[mask][:n]
    field, dens = vector_field(p), density_spec(p, dp)
    grad_M, X, M, J = fd_gradient(dens.eval, pts), field.eval(pts), dens.eval(pts), field.jac(pts)
    res = np.sum(grad_M * X, axis=-1) + M * np.trace(J, axis1=-2, axis2=-1)
    scale = (np.linalg.norm(X, axis=-1) * np.linalg.norm(grad_M, axis=-1)
             + np.abs(M) * np.linalg.norm(J, axis=(-2, -1)))
    worst = np.max(np.abs(res) / np.maximum(scale, np.finfo(float).tiny * 1e20))
    report = residual_sweep(p, n_points=n, seed=seed, tol=tol)
    assert report["sample_count"] == len(pts) == n
    assert report["max_residual"] == worst


class TestExclusionRadius:
    def test_formula_reproduction(self, pstar):
        dp = density_params(pstar)
        r = exclusion_radius(dp)
        qs = (dp.exp_plus, dp.exp_minus, dp.exp_plus + dp.exp_minus)
        C = max(abs((q - 1.0) * (q - 2.0)) for q in qs)
        eps3 = np.finfo(float).eps ** (1.0 / 3.0)
        assert r == pytest.approx(eps3 * math.sqrt(C * 10.0 / (6.0 * 1e-6)), rel=1e-12)

    def test_samples_respect_exclusion(self, pstar, rng):
        dp = density_params(pstar)
        r = exclusion_radius(dp)
        pts = sample_off_plane(pstar, dp, 500, seed=9)
        for xi in (dp.xi_plus, dp.xi_minus):
            d = np.abs(pts[:, 0] - xi * pts[:, 2])
            norm = np.linalg.norm(pts, axis=1) * (1.0 + abs(xi))
            assert np.all(d / norm >= r * 0.999)

    def test_planes_are_read_from_one_row_table(self, pstar, monkeypatch):
        # with pi+ moved, the density, F and the sampler all follow the rows
        dp = density_params(pstar)
        rows = ((1.0, 0.0, -(dp.xi_plus + 0.25)), (1.0, 0.0, -dp.xi_minus))
        monkeypatch.setattr(measures, "_plane_rows", lambda dp: rows)
        t = np.linspace(-2.0, 2.0, 41)
        on_shifted = np.stack([(dp.xi_plus + 0.25) * t, 0.3 - t, t], axis=-1)
        assert np.all(density_spec(pstar, dp).eval(on_shifted) == 0.0)
        assert np.all(first_integral_F(pstar, dp, on_shifted) == 0.0)
        excl = exclusion_radius(dp)
        pts = sample_off_plane(pstar, dp, 2000, seed=9)
        nrm = np.linalg.norm(pts, axis=1)
        for row in rows:
            d = np.abs(pts[:, 0] + row[2] * pts[:, 2])
            assert np.all(d > excl * nrm * np.sum(np.abs(row)))

    @pytest.mark.parametrize("norm_range", [(2.0, 0.3), (1.0, 1.0), (-0.5, 1.0)])
    def test_empty_annulus_rejected(self, pstar, norm_range):
        dp = density_params(pstar)
        with pytest.raises(ValueError, match="norm_range"):
            sample_off_plane(pstar, dp, 10, seed=0, norm_range=norm_range)


class TestRejectionSample:
    """The sampler returns the first count rows of one Philox stream that
    pass keep, however it splits the stream into rounds."""

    BOUND, DIM = 2.0, 3

    def _oracle(self, seed, count, keep, draws):
        rng = np.random.Generator(np.random.Philox(key=seed))
        x = rng.uniform(-self.BOUND, self.BOUND, size=(draws, self.DIM))
        kept = x[keep(x)]
        assert len(kept) >= count
        return kept[:count]

    @staticmethod
    def _recording(keep):
        rounds = []

        def wrapped(x):
            rounds.append(len(x))
            return keep(x)

        return wrapped, rounds

    @pytest.mark.parametrize("keep, min_rounds", [
        pytest.param(lambda x: np.ones(len(x), dtype=bool), 1, id="all"),
        pytest.param(lambda x: x[:, 0] > 0.0, 2, id="half"),
        pytest.param(lambda x: x[:, 0] > 1.8, 3, id="five_percent"),
    ])
    @pytest.mark.parametrize("count", [1, 37, 2000])
    def test_first_count_rows_of_one_stream(self, keep, min_rounds, count):
        recording, rounds = self._recording(keep)
        pts = _rejection_sample(11, count, self.BOUND, self.DIM, recording, 0.5)
        expect = self._oracle(11, count, keep, sum(rounds))
        assert pts.shape == (count, self.DIM)
        assert pts.tobytes() == expect.tobytes()
        assert max(rounds) <= 4 * count
        if count >= 37:
            assert len(rounds) >= min_rounds

    @pytest.mark.parametrize("seed", [0, 3, 11, 2 ** 100])
    @pytest.mark.parametrize("count", [5, 64, 1500])
    def test_compaction_is_boolean_indexing(self, seed, count):
        # a keep passing 5% of rows: the 5-row first rounds keep nothing
        keep = lambda x: x[:, 0] > 1.8
        kept = []

        def recording(x):
            mask = keep(x)
            kept.append(int(mask.sum()))
            return mask

        pts = _rejection_sample(seed, count, self.BOUND, self.DIM, recording, 0.5)
        assert pts.tobytes() == self._oracle(seed, count, keep, 400 * count).tobytes()
        if count == 5:
            assert kept[0] == 0

    def test_gives_up_after_budget(self):
        count = 7
        recording, rounds = self._recording(lambda x: np.zeros(len(x), dtype=bool))
        with pytest.raises(ValueError, match="only 0 of 7 sample points clear "
                                             "the exclusion radius 0.5"):
            _rejection_sample(3, count, self.BOUND, self.DIM, recording, 0.5)
        assert sum(rounds) == 400 * count
        assert max(rounds) <= 4 * count

    def test_scarce_keep_counted_against_budget(self):
        # about 1 row in 800 passes, so 400 draws per point hold about half
        # the quota; the error counts exactly what the budget's draws kept
        count = 50
        keep = lambda x: x[:, 0] > 1.995
        recording, rounds = self._recording(keep)
        with pytest.raises(ValueError) as err:
            _rejection_sample(5, count, self.BOUND, self.DIM, recording, 0.5)
        assert sum(rounds) == 400 * count
        rng = np.random.Generator(np.random.Philox(key=5))
        have = int(np.sum(keep(rng.uniform(-self.BOUND, self.BOUND,
                                           size=(400 * count, self.DIM)))))
        assert str(err.value).startswith(f"only {have} of {count} sample points")


class TestDivergenceWitness:
    def test_euler_supremum_zero(self, euler):
        # the covector c_k = div X(e_k) read off the Jacobian is exactly zero
        c = divergence(vector_field(euler), np.eye(3))
        assert np.array_equal(c, np.zeros(3))
        w = divergence_witness(euler, n_points=500, seed=1)
        assert w["supremum_unit_ball"] == 0.0
        assert w["max_divergence"] == 0.0
        assert w["divergence_free"]
        assert w["pass"] is False  # nothing nonzero to witness

    def test_a2_nonzero_has_positive_witness(self, pstar_full):
        w = divergence_witness(pstar_full, n_points=2000, seed=1)
        assert w["supremum_unit_ball"] > 0.0
        assert w["max_divergence"] >= 0.5 * w["supremum_unit_ball"]
        assert not w["divergence_free"]
        assert w["pass"] is True

    def test_no_points_is_named(self, pstar_full):
        with pytest.raises(ValueError, match="n_points must be at least 1, got 0"):
            divergence_witness(pstar_full, n_points=0)

    def test_draws_that_miss_the_ball_fail(self, pstar_full):
        # the one draw at seed 0 lies outside the unit ball
        w = divergence_witness(pstar_full, n_points=1, seed=0)
        assert w["sample_count"] == 0
        assert w["max_divergence"] == 0.0
        assert w["supremum_unit_ball"] > 0.0
        assert w["pass"] is False

    def test_witness_carries_no_predicates(self, pstar_full):
        # the verify report states the measure predicates once, beside it
        w = divergence_witness(pstar_full, n_points=10, seed=0)
        assert not {"positive_c1_measure_exists", "classA_measure_exists"} & set(w)

    def test_supremum_matches_dense_sphere_max(self, pstar_full, rng):
        # independent route: |div| is linear in Omega, so its max over the
        # unit sphere approaches the coefficient norm
        w = divergence_witness(pstar_full, n_points=10, seed=0)
        g = rng.normal(size=(20000, 3))
        sphere = g / np.linalg.norm(g, axis=1, keepdims=True)
        dense_max = np.max(np.abs(divergence_closed_form(pstar_full, sphere)))
        assert dense_max <= w["supremum_unit_ball"] * (1.0 + 1e-12)
        assert dense_max >= w["supremum_unit_ball"] * 0.99


def test_fixture2d_sweep_machine_level():
    report = fixture2d_residual_sweep(n_points=2000, seed=4)
    assert report["pass"]
    assert report["max_residual"] <= 1e-8


def test_fixture2d_sweep_samples_the_annulus_off_the_axes(monkeypatch):
    # the fixture's points come from the class-A sampler, rows eye(2)
    seen = {}
    residual_of = measures._residual_and_scale

    def spy(field, density, x):
        seen.update(pts=x)
        return residual_of(field, density, x)

    monkeypatch.setattr(measures, "_residual_and_scale", spy)
    excl = fixture2d_residual_sweep(n_points=2000, seed=4)["exclusion_radius"]
    pts = seen["pts"]
    nrm = np.linalg.norm(pts, axis=1)
    assert len(pts) == 2000
    assert np.all((nrm > 0.3) & (nrm < 2.0))
    assert np.all(np.abs(pts) > excl * nrm[:, None])


def test_negative_extra_power_is_named(pstar):
    with pytest.raises(ValueError, match="extra_power must be a nonnegative integer"):
        density_spec(pstar, density_params(pstar), extra_power=-1)


def test_sweep_density_block_lists_the_params_fields(pstar):
    # the report reads its density block off ClassADensityParams, in field order
    report = residual_sweep(pstar, n_points=10, seed=1)
    dp = density_params(pstar)
    assert report["density"] == {"R": dp.R, "xi_plus": dp.xi_plus, "xi_minus": dp.xi_minus,
                                 "gamma": dp.gamma, "n": dp.n}
    assert list(report["density"]) == ["R", "xi_plus", "xi_minus", "gamma", "n"]


def test_density_spec_powers_zero_set(pstar):
    dp = density_params(pstar)
    spec = density_spec(pstar, dp, extra_power=1)
    assert "invariant planes" in spec.zero_set_description
    x = np.array([0.9, -0.2, 0.4])
    expected = density_spec(pstar, dp).eval(x) * abs(first_integral_F(pstar, dp, x))
    assert spec.eval(x) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("sweep", [
    lambda p, seed: residual_sweep(p, n_points=10, seed=seed),
    lambda p, seed: plane_defect_sweep(p, n_points=10, seed=seed),
    lambda p, seed: divergence_witness(p, n_points=10, seed=seed),
    lambda p, seed: fixture2d_residual_sweep(n_points=10, seed=seed),
    lambda p, seed: sample_off_plane(p, density_params(p), 10, seed),
], ids=["residual_sweep", "plane_defect_sweep", "divergence_witness",
        "fixture2d_residual_sweep", "sample_off_plane"])
@pytest.mark.parametrize("seed", [-1, 2 ** 128], ids=["negative", "2**128"])
def test_seed_out_of_range_is_named(pstar, sweep, seed):
    with pytest.raises(ValueError, match="seed must satisfy 0 <= seed < 2\\*\\*128"):
        sweep(pstar, seed)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
@pytest.mark.parametrize("check", [
    lambda p, tol: exclusion_radius(density_params(p), tol),
    lambda p, tol: residual_sweep(p, n_points=10, tol=tol),
    lambda p, tol: fixture2d_residual_sweep(n_points=10, tol=tol),
    lambda p, tol: plane_defect_sweep(p, n_points=10, tol=tol),
], ids=["exclusion_radius", "residual_sweep", "fixture2d_residual_sweep",
        "plane_defect_sweep"])
def test_unusable_tol_is_named(pstar, check, tol):
    with pytest.raises(ValueError, match=f"^tol must be finite and positive, got {tol}$"):
        check(pstar, tol)

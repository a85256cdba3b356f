import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from suslovkit.core import (
    SuslovParams,
    energy,
    load_params,
    matrices,
    multiplier_zeta,
    validate,
    vector_field,
)
from suslovkit.fields import fd_jacobian

from conftest import (
    divergence_closed_form, divergence_covector, draw_params, exact_energy, factor_sets,
)

omega_strategy = st.lists(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False),
    min_size=3, max_size=3,
).map(np.array)


class TestValidate:
    def test_constraint_vector_normalized(self):
        p = validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=2.0, a2=0.0, a3=2.0)
        assert p.a1 == 1.0 and p.a2 == 0.0

    def test_inertia_ordering_rejected(self):
        with pytest.raises(ValueError, match="ordering"):
            validate(1.0, 2.0, 3.0, 0.5, 1.0)

    def test_zero_rotor_transverse_moment_allowed(self):
        p = validate(3.0, 2.0, 1.0, 0.0, 1.0)
        assert p.lam == (3.0, 2.0, 1.0)

    def test_a3_zero_rejected(self):
        with pytest.raises(ValueError):
            validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=1.0, a2=0.0, a3=0.0)

    @pytest.mark.parametrize("a3", [np.inf, -np.inf, np.nan])
    def test_non_finite_a3_is_named(self, a3):
        # a1/inf and a2/inf are 0: a3 = inf must not become the Euler regime
        with pytest.raises(ValueError, match="a3 must be finite and nonzero"):
            validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=1.0, a2=1.0, a3=a3)

    @pytest.mark.parametrize("a1, a2, ratio", [(1.0, 0.0, "a1/a3"), (0.0, -1.0, "a2/a3")])
    def test_overflowing_ratio_is_named(self, a1, a2, ratio):
        with pytest.raises(ValueError, match=f"{ratio} = .* is not finite"):
            validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=a1, a2=a2, a3=1e-320)

    @pytest.mark.parametrize("args, named", [
        ((np.nan, 2.0, 1.0, 0.5, 1.0), "parameters must be finite"),
        ((3.0, 2.0, 1.0, 0.5, 1.0, np.inf), "parameters must be finite"),
        ((3.0, 2.0, 0.0, 0.5, 1.0), "need I3 > 0"),
        ((3.0, 2.0, 1.0, -0.1, 1.0), "K1 must be nonnegative"),
        # I1 + K1 and I2 + K1 round to one double: lambda1 = lambda2 in floats
        ((3.0, 2.0, 1.0, 1e17, 1.0), r"K1 = 1e\+17 is too large"),
    ], ids=["I1=nan", "a1=inf", "I3=0", "K1<0", "K1=1e17"])
    def test_unusable_moment_is_named(self, args, named):
        with pytest.raises(ValueError, match=named):
            SuslovParams(*args, *(0.0,) * (7 - len(args)))

    def test_to_dict_lists_every_field_and_a3(self):
        p = validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=2.0, a2=-1.0, a3=2.0)
        assert p.to_dict() == {"I1": 3.0, "I2": 2.0, "I3": 1.0, "K1": 0.5, "K3": 1.0,
                               "a1": 1.0, "a2": -0.5, "a3": 1.0}
        assert list(p.to_dict()) == ["I1", "I2", "I3", "K1", "K3", "a1", "a2", "a3"]

    def test_nonpositive_k3_rejected(self):
        with pytest.raises(ValueError):
            validate(3.0, 2.0, 1.0, 0.5, 0.0)

    def test_lambda_ordering(self, pstar):
        l1, l2, l3 = pstar.lam
        assert l1 == 3.5 and l2 == 2.5 and l3 == 1.0

    def test_large_k1_allowed_while_lambda1_exceeds_lambda2(self):
        assert validate(3.0, 2.0, 1.0, 1e15, 1.0).lam[:2] == (1e15 + 3.0, 1e15 + 2.0)

    def test_lam_is_the_moment_triple(self, rng):
        for _ in range(50):
            p = draw_params(rng)
            assert p.lam == (p.I1 + p.K1, p.I2 + p.K1, p.I3)


class TestLoadParams:
    def test_from_file(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"I1": 3, "I2": 2, "I3": 1, "K1": 0.5,
                                 "K3": 1, "a1": 2, "a2": 0, "a3": 2}))
        p = load_params(str(f))
        assert p.a1 == 1.0

    def test_from_mapping(self):
        p = load_params({"I1": 3, "I2": 2, "I3": 1, "K1": 0.5, "K3": 1,
                         "a1": 0, "a2": 0})
        assert isinstance(p, SuslovParams)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            load_params({"I1": 3, "I2": 2, "I3": 1, "K1": 0.5, "K3": 1,
                         "a1": 0, "a2": 0, "bogus": 1})

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            load_params({"I1": 3})

    @pytest.mark.parametrize("value", [True, "1", None, [1.0]])
    def test_value_that_is_not_a_number_rejected(self, value):
        # a JSON true is not the number 1
        with pytest.raises(ValueError, match=r"must be numbers: \['a2'\]"):
            load_params({"I1": 3, "I2": 2, "I3": 1, "K1": 0.5, "K3": 1,
                         "a1": 1, "a2": value})

    @pytest.mark.parametrize("doc", [[1, 2], "I1", 3.0, None])
    def test_document_that_is_not_an_object_rejected(self, tmp_path, doc):
        f = tmp_path / "p.json"
        f.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="must be a JSON object"):
            load_params(str(f))


class TestMatrices:
    def test_reference_a2_zero(self, pstar):
        m = matrices(pstar)
        np.testing.assert_array_equal(m.Ka, np.diag([4.5, 2.5, 1.0]))
        np.testing.assert_array_equal(
            m.Ba, [[3.5, 0, 0], [0, 2.5, 0], [-1.0, 0, 1.0]])
        assert m.detKa == pytest.approx(11.25)

    def test_euler_case_Ka_equals_Ba(self, euler):
        m = matrices(euler)
        np.testing.assert_array_equal(m.Ka, np.diag([3.5, 2.5, 1.0]))
        np.testing.assert_array_equal(m.Ba, m.Ka)

    def test_offdiagonal_coupling(self, pstar_full):
        m = matrices(pstar_full)
        assert m.Ka[0, 1] == 1.0 and m.Ka[1, 0] == 1.0  # a1*a2*K3

    def test_invariants_random(self, rng):
        for _ in range(50):
            p = draw_params(rng)
            m = matrices(p)
            np.testing.assert_array_equal(m.Ka, m.Ka.T)
            assert np.all(np.linalg.eigvalsh(m.Ka) > 0)
            np.testing.assert_allclose(
                sorted(np.linalg.eigvals(m.Ba).real), sorted(p.lam), rtol=1e-12)
            np.testing.assert_allclose(m.Ka @ m.Ka_inv, np.eye(3), atol=1e-12)
            assert m.detKa > 0
            np.testing.assert_allclose(m.detKa, np.linalg.det(m.Ka), rtol=1e-12)

    def test_det_ka_against_exact_arithmetic_at_extreme_scales(self, rng):
        # det Ka = l3 (l1 l2 + K3 (l1 a2^2 + l2 a1^2)) in Fractions of the
        # doubles, over log-uniform moments, K3 and a spanning 1e-8..1e8,
        # where A C - B^2 cancelled to 0 or below on some 0.5% of draws, and
        # at a1 = a2 = 1e9, where it cancelled to 0 and matrices divided by it
        sets = [validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=1e9, a2=1e9)]
        while len(sets) < 2500:
            I3, I2, I1 = sorted(10.0 ** rng.uniform(-8.0, 8.0, 3))
            K1, K3, a1, a2 = 10.0 ** rng.uniform(-8.0, 8.0, 4)
            a1, a2 = a1 * rng.choice([-1.0, 1.0]), a2 * rng.choice([-1.0, 0.0, 1.0])
            try:
                sets.append(validate(I1, I2, I3, K1, K3, a1=a1, a2=a2))
            except ValueError:
                pass
        eps = np.finfo(float).eps
        for p in sets:
            l1, l2, l3 = map(Fraction, p.lam)
            f1, f2, k3 = Fraction(p.a1), Fraction(p.a2), Fraction(p.K3)
            exact = l3 * (l1 * l2 + k3 * (l1 * f2 * f2 + l2 * f1 * f1))
            det = matrices(p).detKa
            assert det > 0.0
            assert abs(Fraction(det) - exact) <= 4 * eps * exact

    def test_factor_reproduces_Ka(self, rng):
        for p in [draw_params(rng) for _ in range(50)] + factor_sets():
            m = matrices(p)
            assert np.all(np.triu(m.L, 1) == 0.0) and np.all(np.diag(m.L) > 0.0)
            np.testing.assert_allclose(m.L @ m.L.T, m.Ka, rtol=1e-14, atol=0.0)

    def test_factor_is_lapack_cholesky_bit_for_bit_when_a2_is_zero(
        self, rng, pstar, pstar_full, pstar_a1zero
    ):
        # where the two factors agree, sample_ellipsoid's draws keep the bits
        # they had when it factored the rounded Ka with LAPACK
        for p in [pstar, pstar_full, pstar_a1zero] + [
            draw_params(rng, a2=0.0) for _ in range(100)
        ]:
            m = matrices(p)
            np.testing.assert_array_equal(m.L, np.linalg.cholesky(m.Ka))

    def test_det_ka_keeps_its_bits_when_a2_is_zero(self, rng):
        # the rewritten determinant is A C - B^2 bit for bit when B = 0
        for _ in range(200):
            p = draw_params(rng, a2=0.0)
            m = matrices(p)
            A, C = m.Ka[0, 0], m.Ka[1, 1]
            assert m.detKa == (A * C - m.Ka[0, 1] ** 2) * p.lam[2]


class TestVectorField:
    def test_zero_at_origin(self, pstar):
        f = vector_field(pstar)
        np.testing.assert_array_equal(f.eval(np.zeros(3)), np.zeros(3))

    def test_euler_hand_value(self, euler):
        f = vector_field(euler)
        np.testing.assert_allclose(
            f.eval(np.array([1.0, 1.0, 1.0])), [3.0 / 7.0, -1.0, 1.0], rtol=1e-14)

    def test_equilibrium_direction_annihilated(self, pstar):
        f = vector_field(pstar)
        np.testing.assert_allclose(
            f.eval(np.array([-2.5, 0.0, 1.0])), np.zeros(3), atol=1e-14)

    @given(omega=omega_strategy,
           c=st.floats(min_value=0.01, max_value=5.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_quadratic_homogeneity(self, omega, c):
        f = vector_field(validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=1.0, a2=0.5))
        np.testing.assert_allclose(
            f.eval(c * omega), c ** 2 * f.eval(omega), atol=1e-10 * c ** 2)

    @given(omega=omega_strategy)
    @settings(max_examples=50, deadline=None)
    def test_even_under_sign_flip(self, omega):
        f = vector_field(validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=0.7, a2=-1.1))
        np.testing.assert_allclose(f.eval(-omega), f.eval(omega), atol=1e-12)

    def test_sigma2_equivariance_when_a2_zero(self, pstar, rng):
        f = vector_field(pstar)
        S = np.diag([1.0, -1.0, 1.0])
        for omega in rng.normal(size=(20, 3)):
            np.testing.assert_allclose(
                S @ f.eval(S @ omega), -f.eval(omega), atol=1e-12)

    def test_sigma1_equivariance_when_a1_zero(self, pstar_a1zero, rng):
        f = vector_field(pstar_a1zero)
        S = np.diag([-1.0, 1.0, 1.0])
        for omega in rng.normal(size=(20, 3)):
            np.testing.assert_allclose(
                S @ f.eval(S @ omega), -f.eval(omega), atol=1e-12)

    def test_euler_reduction(self, euler, rng):
        f = vector_field(euler)
        m = matrices(euler)
        for omega in rng.normal(size=(20, 3)):
            expected = m.Ka_inv @ np.cross(m.Ka @ omega, omega)
            np.testing.assert_allclose(f.eval(omega), expected, atol=1e-13)
            # momentum norm ||Ka W||^2 is conserved: d/dt = 2<Ka W, Ka X>
            mom_rate = 2.0 * (m.Ka @ omega) @ (m.Ka @ f.eval(omega))
            assert abs(mom_rate) <= 1e-12 * max(1.0, np.sum(omega ** 2)) ** 2

    def test_matches_cross_product_closed_forms(self, rng):
        # X = Ka^-1 ((Ba W) x W) and J = Ka^-1 (hat(Ba W) - hat(W) Ba), with
        # hat(v) w = v x w, built here independently of the quadratic tensor
        def hat(v):
            return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])

        for _ in range(50):
            p = draw_params(rng)
            assert p.a2 != 0.0
            f = vector_field(p)
            m = matrices(p)
            for omega in rng.normal(size=(5, 3)):
                bw = m.Ba @ omega
                X = m.Ka_inv @ np.cross(bw, omega)
                J = m.Ka_inv @ (hat(bw) - hat(omega) @ m.Ba)
                np.testing.assert_allclose(
                    f.eval(omega), X, rtol=1e-13, atol=1e-14 * np.max(np.abs(X)))
                np.testing.assert_allclose(
                    f.jac(omega), J, rtol=1e-13, atol=1e-14 * np.max(np.abs(J)))

    def test_analytic_jacobian_matches_fd(self, pstar_full):
        f = vector_field(pstar_full)
        pts = np.random.default_rng(3).uniform(-2, 2, size=(100, 3))
        J_an = f.jac(pts)
        J_fd = fd_jacobian(f.eval, pts)
        scale = np.maximum(np.abs(J_an), 1.0)
        assert np.max(np.abs(J_an - J_fd) / scale) <= 1e-6

    def test_batch_evaluation_matches_loop(self, pstar_full, rng):
        f = vector_field(pstar_full)
        pts = rng.normal(size=(7, 3))
        batch = f.eval(pts)
        for k in range(7):
            np.testing.assert_array_equal(batch[k], f.eval(pts[k]))

    def test_batch_rows_bit_equal_in_every_layout(self, rng):
        # every memory layout of a large batch must give each row exactly
        # the single-point result, wherever einsum puts its inner loop
        for _ in range(4):
            f = vector_field(draw_params(rng))
            W = rng.normal(size=(6000, 3))
            ref = np.array([f.eval(w) for w in W])
            wide = np.concatenate([W, rng.normal(size=(6000, 1))], axis=1)
            block = W.reshape(60, 100, 3)
            layouts = {
                "C-order": (W, ref),
                "F-order": (np.asfortranarray(W), ref),
                "strided": (wide[:, :3], ref),
                "reversed": (W[::-1], ref[::-1]),
                "block": (block, ref.reshape(60, 100, 3)),
                "F-order block": (np.asfortranarray(block), ref.reshape(60, 100, 3)),
            }
            for name, (batch, expected) in layouts.items():
                np.testing.assert_array_equal(f.eval(batch), expected, err_msg=name)

    def test_small_batches_and_stacks_bit_equal_to_points(self, rng):
        # 0, 1 and 2 rows, (k, m, 3) stacks and the strided x view of a
        # column-major (n, 4) state: at one row einsum sums in another order
        # than at many, so every row must still be exactly its point call
        shapes = [(0, 3), (1, 3), (2, 3), (1, 1, 3), (1, 2, 3), (2, 1, 3), (3, 4, 3)]
        for k in range(30):
            f = vector_field(draw_params(rng, a2=0.0 if k % 2 else None))
            for shape in shapes:
                W = rng.normal(size=shape)
                ref = np.array([f.eval(w) for w in W.reshape(-1, 3)]).reshape(shape)
                for batch in (W, np.asfortranarray(W)):
                    np.testing.assert_array_equal(f.eval(batch), ref, err_msg=str(shape))
            for n in (1, 2, 7):
                y = np.asfortranarray(rng.normal(size=(n, 4)))
                ref = np.array([f.eval(w) for w in y[:, :3]])
                np.testing.assert_array_equal(f.eval(y[:, :3]), ref, err_msg=f"{n} rows")

    def test_point_slot_is_eval_bit_for_bit(self, rng):
        # the scalar integrator calls point on Python floats; each result must
        # be the (3,) eval and its row of a batch, signed zeros included
        for k in range(20):
            f = vector_field(draw_params(rng, a2=0.0 if k % 2 else None))
            W = rng.normal(size=(40, 3))
            W[::5, 1] = -0.0
            W[1::5, ::2] = -0.0
            W[2::5] = 0.0
            batch = f.eval(W)
            for w, row in zip(W, batch):
                one = f.point(w.tolist())
                assert len(one) == 3 and all(type(x) is float for x in one)
                np.testing.assert_array_equal(
                    np.array(one).view(np.uint64), f.eval(w).view(np.uint64))
                np.testing.assert_array_equal(
                    np.array(one).view(np.uint64), row.view(np.uint64))

    def test_points_must_have_three_components(self, pstar):
        f = vector_field(pstar)
        for bad in (np.zeros(2), np.zeros((5, 4)), np.float64(1.0)):
            with pytest.raises(ValueError, match="shape"):
                f.eval(bad)


class TestEnergy:
    def test_values(self, pstar):
        assert energy(pstar, np.zeros(3)) == 0.0
        assert energy(pstar, np.array([0.0, 0.0, 1.0])) == pytest.approx(0.5)
        assert energy(pstar, np.array([1.0, 0.0, 0.0])) == pytest.approx(2.25)

    def test_positive_away_from_origin(self, pstar_full, rng):
        for omega in rng.normal(size=(30, 3)):
            assert energy(pstar_full, omega) > 0

    def test_against_exact_arithmetic_at_extreme_scales(self, rng):
        # random points, and points on the near-null direction of Ka's 2x2
        # block, where <Ka W, W> on the rounded Ka cancels to nothing
        for p in factor_sets():
            Ka = matrices(p).Ka
            r, s = -Ka[0, 1] / Ka[1, 1], -Ka[0, 1] / Ka[0, 0]
            pts = np.vstack([rng.normal(size=(20, 3)), [[1.0, r, 0.0], [s, 1.0, 0.0], [1.0, r, 1.0]]])
            for omega, e in zip(pts, energy(p, pts)):
                exact = exact_energy(p, omega)
                assert abs(Fraction(float(e)) - exact) <= 1e-12 * exact, (p, omega)

    def test_cancelling_direction_at_large_a(self):
        # Ka's block rounds to [[1e18, 1e18], [1e18, 1e18]], on which
        # <Ka W, W> at (1, -1, 0) is 0; the exact energy is (3.5 + 2.5) / 2
        p = validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=1e9, a2=1e9)
        assert energy(p, (1.0, -1.0, 0.0)) == pytest.approx(3.0, rel=1e-12)

    def test_first_integral_gradient_identity(self, rng):
        # <Ka W, X(W)> = 0: energy is conserved along the field
        for _ in range(30):
            p = draw_params(rng)
            f = vector_field(p)
            m = matrices(p)
            omega = rng.normal(size=3)
            rate = (m.Ka @ omega) @ f.eval(omega)
            assert abs(rate) <= 1e-12 * max(1.0, np.linalg.norm(omega) ** 3)


class TestMultiplierZeta:
    def test_zero_when_a_axial(self, euler, rng):
        for omega in rng.normal(size=(10, 3)):
            assert multiplier_zeta(euler, omega) == 0.0

    def test_zero_at_origin(self, pstar_full):
        assert multiplier_zeta(pstar_full, np.zeros(3)) == 0.0

    def test_reduces_to_first_component(self, pstar):
        # a = (1, 0, 1): zeta = K3(X3 - X1 - X3) = -K3 X1
        omega = np.array([1.0, 1.0, 1.0])
        x1 = vector_field(pstar).eval(omega)[0]
        assert multiplier_zeta(pstar, omega) == pytest.approx(-1.0 * x1, rel=1e-14)


class TestDivergence:
    """The package's one divergence, the field's covector slot, against the
    closed form, the trace of the field's Jacobian and central differences."""

    def test_euler_identically_zero(self, euler, rng):
        f = vector_field(euler)
        for omega in rng.normal(size=(20, 3)):
            assert f.div(omega) == 0.0

    def test_reference_values(self, pstar):
        f = vector_field(pstar)
        assert f.div(np.array([0.0, 1.0, 0.0])) == \
            pytest.approx(2.5 / 11.25, rel=1e-14)
        assert f.div(np.array([1.0, 0.0, 5.0])) == 0.0

    def test_matches_jacobian_trace(self, rng):
        # the divergence against the closed-form covector
        for _ in range(200):
            p = draw_params(rng)
            omega = rng.normal(size=3)
            dv = vector_field(p).div(omega)
            cf = divergence_closed_form(p, omega)
            assert abs(dv - cf) <= 1e-8 * max(1.0, abs(cf))

    def test_covector_slot_to_a_few_ulps(self, rng):
        # div X = <c, Omega> with c read off Q, against the closed-form
        # covector and the trace of jac, in ulps of sum_k |c_k Omega_k|
        eps = np.finfo(float).eps
        for k in range(200):
            p = draw_params(rng, a2=0.0 if k % 2 else None)
            f = vector_field(p)
            W = rng.normal(size=(20, 3))
            d = f.div(W)
            scale = np.abs(W) @ np.abs(divergence_covector(p))
            trace = np.einsum("...ii->...", f.jac(W))
            assert np.all(np.abs(d - divergence_closed_form(p, W)) <= 16 * eps * scale)
            assert np.all(np.abs(d - trace) <= 16 * eps * scale)

    @pytest.mark.parametrize("a1, a2", [(0.0, 0.0), (0.0, 1.3), (0.7, 0.0)])
    def test_covector_zeros_are_exact(self, rng, a1, a2):
        # c_k vanishes exactly where the closed form says it does
        for _ in range(20):
            p = draw_params(rng, a1=a1, a2=a2)
            c = vector_field(p).div(np.eye(3))
            np.testing.assert_array_equal(c == 0.0, np.array(divergence_covector(p)) == 0.0)

    def test_matches_fd_trace(self, rng):
        for _ in range(50):
            p = draw_params(rng)
            f = vector_field(p)
            omega = rng.normal(size=3)
            tr = np.trace(fd_jacobian(f.eval, omega))
            dv = f.div(omega)
            assert abs(dv - tr) <= 1e-6 * max(1.0, abs(tr))


def test_public_exports():
    import suslovkit

    names = suslovkit.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(suslovkit, name), name

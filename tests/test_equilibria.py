import ast
import inspect
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from suslovkit.core import energy, matrices, validate, vector_field
from suslovkit.equilibria import (
    Classification,
    _checked_zero,
    classify,
    equilibrium_directions,
    scale_to_ellipsoid,
    stability_coefficients,
    stability_coefficients_closed_form,
)
from suslovkit.measures import classA_measure_exists

from conftest import admissible_draws, divergence_closed_form, draw_params


def _sign(x):
    return (x > 0) - (x < 0)


def _bits(xs):
    return np.array(xs, dtype=float).view(np.int64).tolist()


def exact_lines(p, flip=False):
    """For each line i = 1, 2, 3: (X(v_i), alpha, beta, the closed forms) in
    Fractions of the doubles p holds. Q = Ka^-1 eps Ba is summed as
    _vector_field sums it, J_ij = P_ijk v_k with P_ijk = Q_ijk + Q_ikj,
    alpha = -det Ka tr J and beta = det Ka (sum of J's principal 2x2 minors).
    flip negates Ba's (3, 1) entry, a mutant of the field."""
    l1, l2, l3 = map(Fraction, p.lam)
    a1, a2, K3 = map(Fraction, (p.a1, p.a2, p.K3))
    A, B, C = l1 + a1 * a1 * K3, a1 * a2 * K3, l2 + a2 * a2 * K3
    d2 = A * C - B * B
    Ka_inv = [[C / d2, -B / d2, 0], [-B / d2, A / d2, 0], [0, 0, 1 / l3]]
    Ba = [[l1, 0, 0], [0, l2, 0], [(a1 if flip else -a1) * K3, -a2 * K3, l3]]
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
    Q = [[[sum(Ka_inv[i][l] * e * Ba[m][j] for (l, m, k2), e in eps.items() if k2 == k)
           for k in range(3)] for j in range(3)] for i in range(3)]
    detKa = d2 * l3
    exact = SimpleNamespace(lam=(l1, l2, l3), a1=a1, a2=a2, K3=K3)
    out = []
    for n, v in enumerate([(l3 - l1, 0, a1 * K3), (0, l3 - l2, a2 * K3), (0, 0, 1)], start=1):
        X = [sum(Q[i][j][k] * v[j] * v[k] for j in range(3) for k in range(3))
             for i in range(3)]
        J = [[sum((Q[i][j][k] + Q[i][k][j]) * v[k] for k in range(3)) for j in range(3)]
             for i in range(3)]
        minors = sum(J[i][i] * J[j][j] - J[i][j] * J[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
        out.append((X, -detKa * (J[0][0] + J[1][1] + J[2][2]), detKa * minors,
                    stability_coefficients_closed_form(exact, n)))
    return out


def sign_table(p):
    """The table the closed forms prove for lambda1 > lambda2 > lambda3 > 0,
    as (sign beta, sign alpha) per line; line 2's alpha sign is not read."""
    s1, s2 = _sign(p.a1), _sign(p.a2)
    return [(1, -s2), (-1, None), (1, -s1 * s2)]


def sign_lemma_failures(p, flip=False):
    """The checks that fail on p, as (line, check): X(v_i) = 0, the exact
    (alpha, beta) equal to the closed forms, their signs equal to the
    table's, and classify returning the table."""
    failed = []
    lines = exact_lines(p, flip)
    for i, ((X, alpha, beta, cf), (sb, sa)) in enumerate(zip(lines, sign_table(p)), start=1):
        if any(X):
            failed.append((i, "zero"))
        if (alpha, beta) != cf:
            failed.append((i, "closed form"))
        if _sign(beta) != sb or (sa is not None and _sign(alpha) != sa):
            failed.append((i, "signs"))
        r = classify(p, i)
        want = ((Classification.SADDLE, None) if sb < 0 else
                (Classification.LINEAR_CENTER_PAIR, None) if sa == 0 else
                (Classification.SOURCE_SINK_PAIR, sa))
        if (r.classification, r.sink_sign) != want:
            failed.append((i, "classify"))
    return failed


def cross_product_linearization(p, i, v):
    """Linearization G of Omega -> (Ba Omega) x Omega at a point v of the
    i-th equilibrium line, with columns g_j = (b_j - lambda_i e_j) x v,
    built independently of the field's quadratic tensor."""
    Ba = matrices(p).Ba - p.lam[i - 1] * np.eye(3)
    return np.stack([np.cross(Ba[:, j], v) for j in range(3)], axis=-1)


def test_reference_directions(pstar):
    v1, v2, v3 = equilibrium_directions(pstar)
    np.testing.assert_array_equal(v1, [-2.5, 0.0, 1.0])
    np.testing.assert_array_equal(v2, [0.0, -1.5, 0.0])
    np.testing.assert_array_equal(v3, [0.0, 0.0, 1.0])


def test_directions_are_Ba_eigenvectors(rng):
    for _ in range(100):
        p = draw_params(rng)
        m = matrices(p)
        for lam, v in zip(p.lam, equilibrium_directions(p)):
            resid = m.Ba @ v - lam * v
            assert np.max(np.abs(resid)) <= 1e-12 * max(1.0, np.linalg.norm(v))


def test_directions_are_equilibria(rng):
    # equilibrium_directions itself asserts X(v) = 0; exercise across draws
    for _ in range(100):
        p = draw_params(rng)
        f = vector_field(p)
        for v in equilibrium_directions(p):
            assert np.linalg.norm(f.eval(v)) <= 1e-10 * (v @ v)


def _in_units(p, s):
    """p with its moments (I, K) written in units s times smaller."""
    return validate(*(s * m for m in (p.I1, p.I2, p.I3, p.K1, p.K3)), a1=p.a1, a2=p.a2)


class TestFieldZeroCheck:
    # X is quadratic, so the check compares |X(v)| with |v|^2 and gives the
    # same verdict whatever the units of the moments

    @pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
    def test_off_line_direction_is_rejected(self, pstar_full, s):
        p = _in_units(pstar_full, s)
        v1 = equilibrium_directions(p)[0]
        w = v1 + 0.3 * np.linalg.norm(v1) * np.array([0.0, 1.0, 0.0])
        f = vector_field(p)
        assert np.linalg.norm(f.eval(w)) / (w @ w) > 0.1  # far from a zero
        with pytest.raises(AssertionError, match="field zero check"):
            _checked_zero(f, w)

    @pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
    def test_true_directions_pass(self, pstar_full, rng, s):
        drawn = [draw_params(rng, a2=a2) for a2 in [0.0] * 10 + [None] * 10]
        for p in [_in_units(q, s) for q in [pstar_full, *drawn]]:
            f = vector_field(p)
            for v in equilibrium_directions(p):
                assert _checked_zero(f, v) is v


class TestScaleToEllipsoid:
    def test_axis_direction(self, pstar):
        v3 = np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(
            scale_to_ellipsoid(pstar, v3, 0.5), [0, 0, 1], rtol=1e-14)
        np.testing.assert_allclose(
            scale_to_ellipsoid(pstar, v3, 2.0), [0, 0, 2], rtol=1e-14)
        np.testing.assert_allclose(
            scale_to_ellipsoid(pstar, v3, 0.5, sign=-1), [0, 0, -1], rtol=1e-14)

    def test_lands_on_level_set(self, rng):
        for _ in range(30):
            p = draw_params(rng)
            v = rng.normal(size=3)
            eta = rng.uniform(0.1, 4.0)
            w = scale_to_ellipsoid(p, v, eta)
            assert energy(p, w) == pytest.approx(eta, rel=1e-12)

    @pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf, -1.0])
    def test_energy_level_must_be_finite_and_positive(self, pstar, eta):
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            scale_to_ellipsoid(pstar, np.array([0.0, 0.0, 1.0]), eta)

    def test_zero_direction_rejected(self, pstar):
        with pytest.raises(ValueError):
            scale_to_ellipsoid(pstar, np.zeros(3), 1.0)

    @pytest.mark.parametrize("sign", [0, 2, -0.5])
    def test_sign_must_be_unit(self, pstar, sign):
        with pytest.raises(ValueError, match="sign must be"):
            scale_to_ellipsoid(pstar, np.array([0.0, 0.0, 1.0]), 1.0, sign=sign)


class TestLinearization:
    def test_annihilates_direction(self, rng):
        # J(v) v = 2 X(v) = 0, so det J(v) and the constant term of p(z) vanish
        for _ in range(50):
            p = draw_params(rng)
            m = matrices(p)
            f = vector_field(p)
            for v in equilibrium_directions(p):
                G = m.Ka @ f.jac(v)
                assert np.max(np.abs(G @ v)) <= 1e-10 * max(1.0, v @ v)

    def test_equals_Ka_times_field_jacobian(self, pstar_full):
        f = vector_field(pstar_full)
        m = matrices(pstar_full)
        for i, v in enumerate(equilibrium_directions(pstar_full), start=1):
            G = cross_product_linearization(pstar_full, i, v)
            np.testing.assert_allclose(G, m.Ka @ f.jac(v), atol=1e-11)


class TestStabilityCoefficients:
    def test_reference_values(self, pstar):
        alpha1, beta1 = stability_coefficients(pstar, 1)
        assert alpha1 == pytest.approx(0.0, abs=1e-9)
        assert beta1 == pytest.approx(72.8125, rel=1e-9)
        _, beta2 = stability_coefficients(pstar, 2)
        assert beta2 == pytest.approx(-8.4375, rel=1e-9)
        alpha3, beta3 = stability_coefficients(pstar, 3)
        assert alpha3 == pytest.approx(0.0, abs=1e-9)
        assert beta3 == pytest.approx(3.75, rel=1e-9)

    @pytest.mark.parametrize("a1, a2", [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, 0.0)])
    def test_vanishing_alpha_is_positive_zero(self, a1, a2):
        p = validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=a1, a2=a2)
        for route in (stability_coefficients, stability_coefficients_closed_form):
            for i in (1, 2, 3):
                alpha, _ = route(p, i)
                assert alpha != 0.0 or math.copysign(1.0, alpha) == 1.0

    def test_matches_closed_forms(self, rng):
        for _ in range(200):
            p = draw_params(rng)
            for i in (1, 2, 3):
                alpha, beta = stability_coefficients(p, i)
                alpha_cf, beta_cf = stability_coefficients_closed_form(p, i)
                assert beta == pytest.approx(beta_cf, rel=1e-9)
                assert abs(alpha - alpha_cf) <= 1e-9 * max(abs(beta_cf), 1.0)

    def test_alpha_is_minus_detKa_times_divergence(self, rng):
        # tr J(v) = div X(v) = <c, v>, with c in closed form
        for _ in range(200):
            p = draw_params(rng)
            detKa = matrices(p).detKa
            for i, v in enumerate(equilibrium_directions(p), start=1):
                alpha, beta = stability_coefficients(p, i)
                expected = -detKa * float(divergence_closed_form(p, v))
                assert abs(alpha - expected) <= 1e-12 * max(abs(beta), 1.0)

    def test_sign_pattern(self, rng):
        for _ in range(200):
            p = draw_params(rng)
            assert stability_coefficients(p, 1)[1] > 0
            assert stability_coefficients(p, 2)[1] < 0
            assert stability_coefficients(p, 3)[1] > 0

    def test_alpha1_vanishes_iff_a2_zero(self, rng):
        for _ in range(40):
            p0 = draw_params(rng, a2=0.0)
            alpha, beta = stability_coefficients(p0, 1)
            assert abs(alpha) <= 1e-12 * max(abs(beta), 1.0)
        for _ in range(40):
            p1 = draw_params(rng)
            if abs(p1.a2) < 0.1:
                continue
            alpha, beta = stability_coefficients(p1, 1)
            assert abs(alpha) > 1e-9 * max(abs(beta), 1.0)

    def test_alpha3_vanishes_iff_a1a2_zero(self, rng):
        for _ in range(40):
            p0 = draw_params(rng, a1=0.0)
            alpha, beta = stability_coefficients(p0, 3)
            assert abs(alpha) <= 1e-12 * max(abs(beta), 1.0)
        for _ in range(40):
            p1 = draw_params(rng)
            if abs(p1.a1 * p1.a2) < 0.05:
                continue
            alpha, beta = stability_coefficients(p1, 3)
            assert abs(alpha) > 1e-10 * max(abs(beta), 1.0)

    def test_nonzero_eigenvalue_symmetric_functions(self, rng):
        # off the kernel of Ka^{-1} G: product = beta/detKa, sum = -alpha/detKa
        for _ in range(30):
            p = draw_params(rng)
            m = matrices(p)
            for i, v in enumerate(equilibrium_directions(p), start=1):
                alpha, beta = stability_coefficients(p, i)
                G = cross_product_linearization(p, i, v)
                eigs = np.linalg.eigvals(m.Ka_inv @ G)
                order = np.argsort(np.abs(eigs))
                assert abs(eigs[order[0]]) <= 1e-8 * max(1.0, np.abs(eigs).max())
                mu = eigs[order[1:]]
                np.testing.assert_allclose(
                    (mu[0] * mu[1]).real, beta / m.detKa, rtol=1e-7)
                np.testing.assert_allclose(
                    (mu[0] + mu[1]).real, -alpha / m.detKa, atol=1e-7 * max(1.0, abs(alpha / m.detKa)), rtol=1e-7)


class TestClassify:
    def test_case_table_nine_point_sweep(self):
        for a1 in (-1.0, 0.0, 1.0):
            for a2 in (-1.0, 0.0, 1.0):
                p = validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=a1, a2=a2)
                r1, r2, r3 = (classify(p, i) for i in (1, 2, 3))
                if a2 == 0.0:
                    assert r1.classification is Classification.LINEAR_CENTER_PAIR
                else:
                    assert r1.classification is Classification.SOURCE_SINK_PAIR
                assert r2.classification is Classification.SADDLE
                if a1 * a2 == 0.0:
                    assert r3.classification is Classification.LINEAR_CENTER_PAIR
                else:
                    assert r3.classification is Classification.SOURCE_SINK_PAIR

    def test_source_sink_orientation(self):
        # alpha1 = -a2 K3 l3 (positive bracket): a2 > 0 makes alpha < 0,
        # so +v1 is the source and -v1 the sink
        p = validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=1.0, a2=1.0)
        r = classify(p, 1)
        assert r.source_sign == 1 and r.sink_sign == -1
        pneg = validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=1.0, a2=-1.0)
        rneg = classify(pneg, 1)
        assert rneg.source_sign == -1 and rneg.sink_sign == 1

    def test_center_annotation_cites_known_result(self, pstar):
        r = classify(pstar, 1)
        assert "center" in r.annotation

    def test_scale_invariance_of_signs(self, rng):
        # p(z) for the direction c*v has alpha -> c*alpha, beta -> c^2*beta:
        # classification depends only on the signs, so any c > 0 agrees
        for _ in range(20):
            p = draw_params(rng)
            m = matrices(p)
            for i, v in enumerate(equilibrium_directions(p), start=1):
                alpha, beta = stability_coefficients(p, i)
                c = rng.uniform(0.2, 5.0)
                G = cross_product_linearization(p, i, c * v)
                zs = np.array([-2.0, -1.0, 1.0, 2.0]) * (
                    1.0 + np.linalg.norm(m.Ka_inv @ G, 2))
                ps = [np.linalg.det(z * m.Ka - G) for z in zs]
                coeffs = np.linalg.solve(np.vander(zs, 4), ps)
                assert np.sign(coeffs[2]) == np.sign(beta)
                if abs(alpha) > 1e-8 * max(abs(beta), 1.0):
                    assert np.sign(coeffs[1]) == np.sign(alpha)

    def test_small_a2_gives_source_sink_pairs(self, rng):
        # |a2| in [1e-12, 1e-6] makes alpha_1 and alpha_3 tiny against J's
        # scale; they are still nonzero, so lines 1 and 3 are source-sink
        # pairs, with the sink on the side of the closed form's alpha
        for _ in range(300):
            a2 = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -6.0)
            p = draw_params(rng, a2=a2)
            for i in (1, 3):
                alpha_cf, _ = stability_coefficients_closed_form(p, i)
                r = classify(p, i)
                assert r.classification is Classification.SOURCE_SINK_PAIR
                assert r.sink_sign == (-1 if alpha_cf < 0.0 else 1)

    def test_classA_measure_exists_iff_no_line_holds_a_sink(self):
        # the two halves of the dichotomy: a sink rules out a measure finite
        # near it, and a2 = 0, where no line holds one, keeps the density
        for doc in admissible_draws(0, 300):
            p = validate(**doc)
            kinds = {classify(p, i).classification for i in (1, 2, 3)}
            assert classA_measure_exists(p) is (Classification.SOURCE_SINK_PAIR not in kinds)

    @pytest.mark.parametrize("s", [1e-6, 1e-3, 1e3, 1e4, 1e6])
    def test_table_is_the_same_in_every_unit(self, rng, s):
        # moments in units s times smaller leave the field unchanged, while
        # alpha grows as s^4 and beta as s^5; so must their zero tests
        for a2 in [0.0] * 15 + [None] * 15:
            p = draw_params(rng, a2=a2)
            q = validate(*(s * m for m in (p.I1, p.I2, p.I3, p.K1, p.K3)), a1=p.a1, a2=p.a2)
            for i in (1, 2, 3):
                r, rq = classify(p, i), classify(q, i)
                assert (rq.classification, rq.source_sign, rq.sink_sign) == (
                    r.classification, r.source_sign, r.sink_sign)

    @pytest.mark.parametrize("route", [stability_coefficients,
                                       stability_coefficients_closed_form, classify])
    @pytest.mark.parametrize("i", [0, 4])
    def test_index_outside_one_to_three_is_named(self, pstar_full, route, i):
        with pytest.raises(ValueError, match="equilibrium index must be 1, 2 or 3"):
            route(pstar_full, i)

    def test_nearly_equal_moments_keep_the_table(self):
        # I1 - I2 = 1e-11 leaves beta_1 = 1.33e-10, beta_2 = -1.33e-10 and
        # alpha_3 = -1.0e-11: small, but no line is degenerate or a center
        p = validate(2.0 + 1e-11, 2.0, 1.0, 0.5, 1.0, a1=1.0, a2=1.0)
        r1, r2, r3 = (classify(p, i) for i in (1, 2, 3))
        assert (r1.classification, r1.sink_sign) == (Classification.SOURCE_SINK_PAIR, -1)
        assert r2.classification is Classification.SADDLE
        assert (r3.classification, r3.sink_sign) == (Classification.SOURCE_SINK_PAIR, -1)

    def test_report_json_lists_the_fields_in_order(self, pstar_full):
        r = classify(pstar_full, 1)
        d = r.to_dict()
        assert list(d) == ["index", "lambda", "direction", "alpha", "beta",
                           "classification", "source_sign", "sink_sign", "annotation"]
        assert d["lambda"] == r.lambda_i and d["direction"] == r.direction.tolist()
        assert (d["source_sign"], d["sink_sign"]) == (1, -1)
        assert type(d["classification"]) is str

    def test_report_round_trip(self, pstar_full):
        r = classify(pstar_full, 1)
        d = r.to_dict()
        assert d["classification"] == "SourceSinkPair"
        assert d["index"] == 1
        assert len(d["direction"]) == 3


class TestSignLemma:
    """The closed forms fix the signs of beta on every line and of alpha on
    lines 1 and 3 by sign(a1) and sign(a2) alone, which is the table
    classify reads. Proved here in exact arithmetic on seeded admissible
    sets: the J route in Fractions equals the closed forms, its signs are
    the table's, and classify returns it."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_on_admissible_draws(self, seed):
        for doc in admissible_draws(seed, 300):
            assert sign_lemma_failures(validate(**doc)) == [], doc

    def test_a_mutant_field_fails_the_check(self):
        # with Ba's (3, 1) entry of the other sign, v_1 is no zero and the
        # exact coefficients leave the closed forms, on every draw (a1 != 0)
        for doc in admissible_draws(0, 300):
            failed = sign_lemma_failures(validate(**doc), flip=True)
            assert (1, "zero") in failed and (1, "closed form") in failed, doc

    def test_where_a1_a2_underflows(self):
        # a1 a2 = 1e-400 rounds to 0, and the float alpha_3 with it; the
        # product of the signs still gives alpha_3 < 0, as alpha_1 = -8.75e-200
        p = validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=1e-200, a2=1e-200)
        assert sign_lemma_failures(p) == []
        assert classify(p, 3).alpha == 0.0
        for i in (1, 3):
            r = classify(p, i)
            assert (r.classification, r.sink_sign) == (Classification.SOURCE_SINK_PAIR, -1)

    def test_where_the_float_beta_cancels(self):
        # at a = 1e9 the J route's float beta is 0.0 on every line, while
        # classify reports the closed forms 1.8e19, -4.9e18 and 3.75
        p = validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=1e9, a2=1e9)
        assert sign_lemma_failures(p) == []
        assert [stability_coefficients(p, i)[1] for i in (1, 2, 3)] == [0.0, 0.0, 0.0]
        reports = [classify(p, i) for i in (1, 2, 3)]
        assert [r.beta for r in reports] == [1.8125e19, -4.875e18, 3.75]
        assert [r.classification.value for r in reports] == [
            "SourceSinkPair", "Saddle", "SourceSinkPair"]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_classify_reports_the_closed_forms(self, seed):
        # bit for bit, with the table's sign of beta on every line and of
        # alpha, the sink's side, on every source-sink line
        for doc in admissible_draws(seed, 300):
            p = validate(**doc)
            for i, (sb, sa) in enumerate(sign_table(p), start=1):
                r = classify(p, i)
                cf = stability_coefficients_closed_form(p, i)
                assert _bits((r.alpha, r.beta)) == _bits(cf), (doc, i)
                assert _sign(r.beta) == sb, (doc, i)
                if r.classification is Classification.SOURCE_SINK_PAIR:
                    assert _sign(r.alpha) == sa == r.sink_sign, (doc, i)

    def test_classify_forms_no_jacobian(self):
        # the J route runs only as the oracle: classify calls no Jacobian,
        # no trace and none of the J route's functions, and multiplies no
        # matrices
        tree = ast.parse(inspect.getsource(classify))
        called = {ast.unparse(node.func).rpartition(".")[2]
                  for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert not called & {"jac", "trace", "stability_coefficients",
                             "_linearization", "_coefficients"}, called
        assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree))

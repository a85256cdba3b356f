import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from suslovkit.core import vector_field
from suslovkit.fields import (
    FD_STEP_UNIT,
    DensitySpec,
    VectorFieldSpec,
    _trace,
    divergence,
    example1d,
    example2d,
    example2d_density,
    fd_gradient,
    fd_jacobian,
    fd_step,
    power_product,
    seeded_generator,
)
from suslovkit.measures import density_params, density_spec

finite_floats = st.floats(min_value=-10.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False)


def test_example2d_values():
    f = example2d()
    assert f.dim == 2
    np.testing.assert_array_equal(f.eval(np.array([0.0, 0.0])), [0.0, 0.0])
    np.testing.assert_array_equal(f.eval(np.array([1.0, 1.0])), [-1.0, 2.0])
    np.testing.assert_array_equal(f.eval(np.array([3.0, -2.0])), [-3.0, -4.0])


@given(c=finite_floats, x1=finite_floats, x2=finite_floats)
# c * x2 underflows, so f(c x) and c f(x) differ by one subnormal unit
@example(c=1.5, x1=0.0, x2=5e-324)
@example(c=0.25, x1=0.0, x2=2.2250738585e-313)
@example(c=1e-12, x1=0.0, x2=2.2250738585072014e-308)
@example(c=6.354477348262163e-161, x1=0.0, x2=6.354477348262163e-161)
# the exact c * x2 lies below tiny but rounds up to it
@example(c=0.9999999999999999, x1=0.0, x2=2.2250738585072014e-308)
@settings(max_examples=100, deadline=None)
def test_example2d_exactly_linear(c, x1, x2):
    # Negation and doubling are exact, so while c x is normal each component
    # of f(c x) and of c f(x) is one rounding of -c x1 or 2 c x2: bit-for-bit
    # equal. Once c x underflows, f(c x) doubles a product rounded to the
    # subnormal grid of 2**-1074 (error <= 1 unit) and c f(x) rounds once
    # (error <= 1/2 unit); both lie on that grid, so they differ by at most
    # one unit. A rounded product equal to tiny may come from an exact one
    # below it, hence the strict inequality.
    f = example2d()
    x = np.array([x1, x2])
    lhs, rhs = f.eval(c * x), c * f.eval(x)
    normal = np.abs(c * x) > np.finfo(float).tiny
    np.testing.assert_array_equal(lhs[normal], rhs[normal])
    assert np.all(np.abs(lhs - rhs)[~normal] <= np.nextafter(0.0, 1.0))


def test_example2d_density_values():
    m = example2d_density()
    assert m.eval(np.array([1.0, 1.0])) == 1.0
    assert m.eval(np.array([0.0, 5.0])) == 0.0
    assert m.eval(np.array([2.0, 3.0])) == 288.0
    assert m.differentiability_class == "C1"


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_class_a_density_is_its_formula_bit_for_bit(pstar, k):
    # M |F|^k is the member n + k, and the product of powers rounds as the
    # formula written out does
    dp = density_params(pstar)
    n = dp.n + k
    a, b = n - 1.0, n * dp.gamma - 1.0
    x = np.random.default_rng(k).normal(size=(10_000, 3))
    formula = (np.abs(x[..., 0] - dp.xi_plus * x[..., 2]) ** a
               * np.abs(x[..., 0] - dp.xi_minus * x[..., 2]) ** b)
    spec = density_spec(pstar, dp, extra_power=k)
    assert _same_bits(spec.eval(x), formula)
    assert spec.differentiability_class == "C1"  # a = n - 1 >= 2, b >= 1


def test_fixture_and_uniform_densities_are_their_formulas_bit_for_bit():
    x = np.random.default_rng(3).normal(size=(10_000, 2))
    fixture = example2d_density()
    assert _same_bits(fixture.eval(x), np.abs(x[..., 0]) ** 5 * x[..., 1] ** 2)
    assert fixture.differentiability_class == "C1"  # exponents 5 and 2
    uniform = power_product((), (), "empty")
    assert _same_bits(uniform.eval(x), np.ones(10_000))
    assert uniform.differentiability_class == "C1"  # no factor vanishes


@pytest.mark.parametrize("which", ["class A", "class A, k = 1", "fixture"])
def test_point_is_its_batch_row_bit_for_bit(pstar, which):
    # a (d,) point runs the batch's array arithmetic, not numpy's scalar pow
    dp = density_params(pstar)
    density, dim = {
        "class A": (density_spec(pstar, dp), 3),
        "class A, k = 1": (density_spec(pstar, dp, extra_power=1), 3),
        "fixture": (example2d_density(), 2),
    }[which]
    x = np.random.default_rng(11).normal(size=(2000, dim))
    batch = density.eval(x)
    assert _same_bits(np.array([density.eval(row) for row in x]), batch)


def test_power_product_class_follows_its_exponents():
    rows = ((1.0, 0.0), (0.0, 1.0))
    assert power_product(rows, (1.0, 3.5), "axes").differentiability_class == "C1"
    assert power_product(rows, (1.0, 0.5), "axes").differentiability_class == \
        "measurable-only"
    assert power_product(rows, (-0.5, 2.0), "axes").differentiability_class == \
        "measurable-only"


@pytest.mark.parametrize("rows, exponents", [
    (((1.0, 0.0),), (1.0, 2.0)),
    (((0.0, 0.0),), (1.0,)),
], ids=["count", "zero form"])
def test_power_product_rejects_unusable_forms(rows, exponents):
    with pytest.raises(ValueError, match="one exponent per linear form, and each form nonzero"):
        power_product(rows, exponents, "none")


def test_example1d_values():
    f = example1d()
    assert f.dim == 1
    assert f.eval(np.array([0.0]))[0] == 0.0
    assert abs(f.eval(np.array([math.pi]))[0]) < 1e-31
    assert f.eval(np.array([math.pi / 2]))[0] == pytest.approx(1.0, abs=1e-15)


def test_fd_step_formula():
    x = np.array([0.3, -4.0, 1.0])
    h = fd_step(x)
    expected = FD_STEP_UNIT * np.maximum(1.0, np.abs(x))
    np.testing.assert_array_equal(h, expected)
    assert FD_STEP_UNIT == pytest.approx(np.finfo(float).eps ** (1.0 / 3.0))


@pytest.mark.parametrize("make_field", [example2d, example1d])
def test_analytic_jacobian_matches_fd(make_field):
    # contract for every field carrying an analytic Jacobian
    f = make_field()
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2.0, 2.0, size=(100, f.dim))
    J_an = f.jac(pts)
    J_fd = fd_jacobian(f.eval, pts)
    scale = np.maximum(np.abs(J_an), 1.0)
    assert np.max(np.abs(J_an - J_fd) / scale) <= 1e-6


def _fd_jacobian_by_unit_vectors(f, x):
    """The central-difference Jacobian with shifts formed as x +- h_j e_j over
    every coordinate: the reference the one-column shift must match."""
    x = np.asarray(x, dtype=float)
    h = fd_step(x)
    dim = x.shape[-1]
    cols = []
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        hj = h[..., j:j + 1]
        cols.append((f(x + hj * e) - f(x - hj * e)) / (2.0 * h[..., j:j + 1]))
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("shape", [(), (50,), (4, 6)])
@pytest.mark.parametrize("target", ["example2d", "suslov_field", "classA_density"])
def test_fd_jacobian_bit_equal_to_unit_vector_shifts(target, shape, pstar, pstar_full):
    if target == "example2d":
        f, dim = example2d().eval, 2
    elif target == "suslov_field":
        f, dim = vector_field(pstar_full).eval, 3
    else:
        M = density_spec(pstar, density_params(pstar)).eval
        f, dim = (lambda y: M(y)[..., None]), 3
    x = np.random.default_rng(3).uniform(-2.0, 2.0, size=shape + (dim,))
    # x + 0.0 turns -0.0 into +0.0 where a lone column shift keeps it
    assert not np.any((x == 0.0) & np.signbit(x))
    J, J_ref = fd_jacobian(f, x), _fd_jacobian_by_unit_vectors(f, x)
    assert J.shape == J_ref.shape
    assert J.tobytes() == J_ref.tobytes()


def test_fd_gradient_on_polynomial():
    g = lambda x: x[..., 0] ** 3 + 2.0 * x[..., 0] * x[..., 1]
    x = np.array([1.5, -0.5])
    grad = fd_gradient(g, x)
    np.testing.assert_allclose(grad, [3 * 1.5 ** 2 - 1.0, 3.0], rtol=1e-9)


def test_fd_gradient_batch_shape():
    g = lambda x: np.sum(x ** 2, axis=-1)
    pts = np.random.default_rng(0).normal(size=(5, 3))
    grad = fd_gradient(g, pts)
    assert grad.shape == (5, 3)
    np.testing.assert_allclose(grad, 2 * pts, rtol=1e-8)


def test_divergence_prefers_analytic_route():
    f = example2d()
    x = np.array([0.7, -1.3])
    # linear field: both routes give the exact trace
    assert divergence(f, x) == pytest.approx(1.0, abs=1e-12)
    bare = VectorFieldSpec(dim=2, eval=f.eval)
    assert divergence(bare, x) == pytest.approx(1.0, abs=1e-9)


def test_vector_field_spec_rejects_bad_dim():
    with pytest.raises(ValueError):
        VectorFieldSpec(dim=0, eval=lambda x: x)


def test_density_spec_rejects_unknown_class():
    with pytest.raises(ValueError):
        DensitySpec(eval=lambda x: 1.0, zero_set_description="none",
                    differentiability_class="C17")


def test_trace_helper_bit_equal_to_np_trace():
    J = np.random.default_rng(7).normal(size=(1000, 3, 3))
    np.testing.assert_array_equal(_trace(J), np.trace(J, axis1=-2, axis2=-1))


@pytest.mark.parametrize("seed", [-1, 2 ** 128], ids=["negative", "2**128"])
def test_seeded_generator_rejects_seed_out_of_range(seed):
    with pytest.raises(ValueError, match="seed"):
        seeded_generator(seed)


def test_seeded_generator_is_the_keyed_philox_stream():
    for seed in (0, 7, 2 ** 128 - 1):
        expected = np.random.Generator(np.random.Philox(key=seed)).uniform(size=5)
        np.testing.assert_array_equal(seeded_generator(seed).uniform(size=5), expected)

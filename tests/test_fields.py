import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from suslovkit.core import vector_field
from suslovkit.fields import (
    FD_STEP_UNIT,
    DensitySpec,
    VectorFieldSpec,
    _check_positive,
    _is_c1,
    _row_norms,
    _trace,
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
    # |u|^1 has a kink on u = 0, and |u|^0 is the constant 1
    assert power_product(rows, (1.0, 3.5), "axes").differentiability_class == \
        "measurable-only"
    assert power_product(rows, (0.0, 2.0), "axes").differentiability_class == "C1"
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
    # a spec with jac but no div takes the trace of jac as its div, one with
    # its own div keeps it, and one with neither has none: central
    # differences of eval are an oracle, not a fallback
    f = example2d()
    assert f.div([0.7, -1.3]) == pytest.approx(1.0, abs=1e-12)
    X = np.random.default_rng(0).normal(size=(5, 2))
    np.testing.assert_array_equal(f.div(X), _trace(f.jac(X)))
    own = lambda x: np.zeros(np.shape(x)[:-1])
    assert VectorFieldSpec(dim=2, eval=f.eval, jac=f.jac, div=own).div is own
    assert VectorFieldSpec(dim=2, eval=f.eval).div is None


def test_spec_without_point_evaluates_one_point_with_eval():
    f = example2d()
    y = [0.7, -1.3]
    assert list(f.point(y)) == f.eval(np.array(y)).tolist()
    own = lambda y: y
    assert VectorFieldSpec(dim=2, eval=f.eval, point=own).point is own


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


@pytest.mark.parametrize("width", [2, 3, 4])
def test_row_norms_bit_equal_to_linalg_norm(width):
    rng = np.random.default_rng(width)
    # magnitudes 1e-100 ... 1e100, so some squares underflow and overflow
    x = rng.normal(size=(20_000, width)) * 10.0 ** rng.uniform(-100, 100, (20_000, width))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-320, 1e308])
    x[:2000] = rng.choice(special, size=(2000, width))
    x[2000:4000, 0] = rng.choice(special, size=2000)
    # both square and add alike: the same overflows, underflows and NaNs
    with np.errstate(all="ignore"):
        for batch in (x, x.reshape(-1, 40, width), np.asfortranarray(x), x[:24], x[7]):
            assert _same_bits(_row_norms(batch), np.linalg.norm(batch, axis=-1))


def test_no_axis_norm_in_the_package():
    # batch norms over the state axis go through _row_norms, one idiom;
    # np.linalg.norm stays for single vectors (no axis argument)
    src = Path(__file__).resolve().parent.parent / "src" / "suslovkit"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("linalg.norm")
                    and any(kw.arg == "axis" for kw in node.keywords)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"np.linalg.norm(..., axis=...) at {found}; use fields._row_norms"


def test_no_cholesky_call_in_the_package():
    # Ka's factor is stated in closed form by core.matrices; a factorization
    # of the rounded Ka fails where its 2x2 block rounds to singular
    src = Path(__file__).resolve().parent.parent / "src" / "suslovkit"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("cholesky"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"cholesky call at {found}; read matrices(params).L"


def test_one_density_constructor_and_one_positivity_check():
    # DensitySpec is built by power_product alone, and a "finite and
    # positive" error is raised by _check_positive alone
    src = Path(__file__).resolve().parent.parent / "src" / "suslovkit"
    owners = {"DensitySpec(": set(), "finite and positive": set()}
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "DensitySpec":
                    owners["DensitySpec("].add(owner)
                if isinstance(node, ast.Raise) and "finite and positive" in ast.unparse(node):
                    owners["finite and positive"].add(owner)
    assert owners == {"DensitySpec(": {"fields.power_product"},
                      "finite and positive": {"fields._check_positive"}}


def test_finite_differences_run_only_as_oracles():
    # central differences of a field run in the Liouville oracle and, for
    # the density, in the stationarity residual; no runtime Jacobian falls
    # back to them
    src = Path(__file__).resolve().parent.parent / "src" / "suslovkit"
    callers = {"fd_jacobian": set(), "fd_gradient": set()}
    defined = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = ast.unparse(node.func).rpartition(".")[2]
                    if name in callers:
                        callers[name].add(owner)
                names = {getattr(node, "name", None), getattr(node, "asname", None)}
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                if "_jacobian" in names:
                    defined.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert callers["fd_jacobian"] <= {"fields.fd_gradient", "flow.liouville_residual"}, callers
    assert callers["fd_gradient"] <= {"measures._residual_and_scale"}, callers
    assert not defined, f"_jacobian defined at {defined}"


@pytest.mark.parametrize("exponents, c1", [
    ((0.0,), True), ((1.0,), False), ((math.nextafter(1.0, 2.0),), True),
    ((0.5,), False), ((-0.5,), False), ((), True),
], ids=["0", "1", "above 1", "0.5", "-0.5", "no factor"])
def test_is_c1_wants_each_exponent_zero_or_above_one(exponents, c1):
    # |u|^k is C1 across u = 0 exactly when k = 0 or k > 1: |u| has a kink
    assert _is_c1(exponents) is c1


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_check_positive_names_what_it_refuses(value):
    with pytest.raises(ValueError, match=f"^width must be finite and positive, got {value}$"):
        _check_positive(value, "width")
    _check_positive(5e-324, "width")


@pytest.mark.parametrize("seed", [-1, 2 ** 128], ids=["negative", "2**128"])
def test_seeded_generator_rejects_seed_out_of_range(seed):
    with pytest.raises(ValueError, match="seed"):
        seeded_generator(seed)


def test_seeded_generator_is_the_keyed_philox_stream():
    for seed in (0, 7, 2 ** 128 - 1):
        expected = np.random.Generator(np.random.Philox(key=seed)).uniform(size=5)
        np.testing.assert_array_equal(seeded_generator(seed).uniform(size=5), expected)

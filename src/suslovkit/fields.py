"""Generic autonomous vector fields, candidate measure densities, and the
small fixture systems used to validate the verification machinery.

Field evaluations are vectorized: ``eval`` maps arrays of shape (..., dim)
to arrays of the same shape, and ``jac`` maps (..., dim) to (..., dim, dim).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray

#: cube root of machine epsilon, the central-difference sweet spot for C^2 functions
FD_STEP_UNIT = float(np.cbrt(np.finfo(float).eps))

#: the plane fixture's stationary density |x1|^5 |x2|^2 as factor rows and exponents
EXAMPLE2D_FACTORS = (((1.0, 0.0), (0.0, 1.0)), (5.0, 2.0))


@dataclass(frozen=True)
class VectorFieldSpec:
    """Autonomous vector field on R^dim: eval, with an optional analytic
    Jacobian jac and an optional analytic divergence div, mapping (..., dim)
    to (..., dim, dim) and to (...,). point is eval at one point on Python
    floats (a list of dim floats in, dim floats out, each bit-equal to
    eval's), which the scalar integrator calls per stage to skip numpy's call
    overhead. A spec completes itself when built: without point, point is
    eval on the list as an array; without div, div is the trace of jac, or
    None when jac is None too (central differences of eval are an oracle,
    not a divergence)."""

    dim: int
    eval: Callable[[Array], Array]
    jac: Optional[Callable[[Array], Array]] = None
    div: Optional[Callable[[Array], Array]] = None
    point: Optional[Callable[[list], Sequence[float]]] = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("field dimension must be positive")
        evaluate, jac = self.eval, self.jac
        if self.point is None:
            object.__setattr__(self, "point", lambda y: evaluate(np.array(y)))
        if self.div is None and jac is not None:
            object.__setattr__(
                self, "div", lambda x: _trace(jac(np.asarray(x, dtype=float)))
            )


@dataclass(frozen=True)
class DensitySpec:
    """Candidate measure density: nonnegative, vanishing at most on the
    declared zero set."""

    eval: Callable[[Array], Array]
    zero_set_description: str
    differentiability_class: str = "C1"

    def __post_init__(self) -> None:
        if self.differentiability_class not in ("C1", "measurable-only"):
            raise ValueError(
                "differentiability_class must be 'C1' or 'measurable-only'"
            )


def linear_forms(rows: Sequence[Sequence[float]]) -> Callable[[Array], list[Array]]:
    """The map from x (..., d) to the signed forms [<rows[i], x>] (...), for
    nonzero rows. A form skips zero coefficients and the multiply of a unit
    one and starts from its first term: x1 - xi x3 is one multiply, one add."""
    forms = [[(j, float(c)) for j, c in enumerate(row) if c != 0.0] for row in rows]

    def evaluate(x: Array) -> list[Array]:
        x = np.asarray(x, dtype=float)
        return [
            reduce(add, (x[..., j] if c == 1.0 else c * x[..., j] for j, c in form))
            for form in forms
        ]

    return evaluate


def power_product(
    rows: Sequence[Sequence[float]], exponents: Sequence[float], zero_set_description: str
) -> DensitySpec:
    """The density prod_i |<rows[i], x>|^exponents[i] (1 with no rows) over
    linear_forms(rows), C1 when _is_c1(exponents). The product
    starts from its first factor, and a (d,) point is evaluated as a batch
    of one row, so it gets the bits of the same row in any batch."""
    if len(rows) != len(exponents) or not all(any(row) for row in rows):
        raise ValueError("need one exponent per linear form, and each form nonzero")
    forms, powers = linear_forms(rows), [float(k) for k in exponents]

    def evaluate(x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return evaluate(x[None])[0]
        if not powers:
            return np.ones(x.shape[:-1])
        return reduce(mul, (np.abs(u) ** k for u, k in zip(forms(x), powers)))

    c1 = _is_c1(powers)
    return DensitySpec(evaluate, zero_set_description, "C1" if c1 else "measurable-only")


def _is_c1(exponents: Sequence[float]) -> bool:
    """Whether prod_i |f_i|^k_i over transversal factors is C1: each k_i is 0 or above 1."""
    return all(k == 0.0 or k > 1.0 for k in exponents)


def _row_norms(x: Array) -> Array:
    """Euclidean norms over the last axis, (..., d) to (...): the sum of
    x[..., k]**2 taken in column order, then sqrt. These are the bits of
    np.linalg.norm(x, axis=-1), whose add.reduce sums a short last axis in
    the same order, without its generic reduction over a d-wide axis."""
    sq = x[..., 0] * x[..., 0]
    for k in range(1, x.shape[-1]):
        sq += x[..., k] * x[..., k]
    return np.sqrt(sq)


def seeded_generator(seed: int) -> np.random.Generator:
    """The counter-based Philox generator keyed by seed; raises ValueError
    unless 0 <= seed < 2**128."""
    if not 0 <= seed < 2 ** 128:
        raise ValueError(f"seed must satisfy 0 <= seed < 2**128, got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def _check_sample_count(count: int, what: str = "sample count") -> None:
    """Raise ValueError, naming what, unless count is at least 1."""
    if count < 1:
        raise ValueError(f"{what} must be at least 1, got {count}")


def _check_positive(value: float, what: str) -> None:
    """Raise ValueError, naming what, unless value is finite and positive."""
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"{what} must be finite and positive, got {value}")


def fd_step(x: Array) -> Array:
    """Per-coordinate central-difference step h = cbrt(eps) * max(1, |x_i|)."""
    return FD_STEP_UNIT * np.maximum(1.0, np.abs(x))


def fd_jacobian(f: Callable[[Array], Array], x: Array) -> Array:
    """Central-difference Jacobian of a vectorized map at points x.

    Returns shape (..., dim_out, dim) with entry [..., i, j] = df_i/dx_j.
    Each column shifts only coordinate j of a copy of x, to x_j +- h_j with
    h = fd_step(x).
    """
    x = np.asarray(x, dtype=float)
    h = fd_step(x)

    def shifted(j: int, step: Array) -> Array:
        y = x.copy()
        y[..., j] += step
        return y

    cols = []
    for j in range(x.shape[-1]):
        hj = h[..., j]
        cols.append((f(shifted(j, hj)) - f(shifted(j, -hj))) / (2.0 * h[..., j:j + 1]))
    return np.stack(cols, axis=-1)


def fd_gradient(f: Callable[[Array], Array], x: Array) -> Array:
    """Central-difference gradient of a scalar-valued vectorized map."""
    return fd_jacobian(lambda y: np.asarray(f(y))[..., None], x)[..., 0, :]


def _trace(J: Array) -> Array:
    """Trace over the last two axes; einsum is several times faster than
    np.trace on large batches of small matrices, with identical sums."""
    return np.einsum("...ii->...", J)


def example2d() -> VectorFieldSpec:
    """The linear plane field (dx1, dx2) = (-x1, 2 x2)."""

    def evaluate(x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        return np.stack([-x[..., 0], 2.0 * x[..., 1]], axis=-1)

    J = np.array([[-1.0, 0.0], [0.0, 2.0]])

    def jacobian(x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(J, x.shape[:-1] + (2, 2)).copy()

    return VectorFieldSpec(dim=2, eval=evaluate, jac=jacobian)


def example2d_density() -> DensitySpec:
    """Stationary density M(x1, x2) = |x1|^5 |x2|^2 for the linear plane field."""
    return power_product(*EXAMPLE2D_FACTORS, "coordinate axes x1 = 0 and x2 = 0")


def example1d() -> VectorFieldSpec:
    """The scalar field dx1 = sin^2(x1); every multiple of pi is an equilibrium."""

    def evaluate(x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        return np.sin(x) ** 2

    def jacobian(x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        return np.sin(2.0 * x)[..., None]

    return VectorFieldSpec(dim=1, eval=evaluate, jac=jacobian)

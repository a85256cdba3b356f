"""Invariant-measure machinery: the stationarity residual div(M X) at a
point, smooth-measure existence predicates, and the explicit stationary
density available when a2 = 0.

For a2 = 0 the planes pi+-: O1 - xi_pm O3 = 0 are flow invariant and

    M(Omega) = |O1 - xi_+ O3|^(n-1) |O1 - xi_- O3|^(n gamma - 1)

is stationary: div(M X) = 0 away from the planes, and C1 once both
exponents exceed 1. n is the family parameter: density_params computes the
least odd n >= 3 with both above 1, and M |F|^k (F below) is the member n + k.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import SuslovParams, vector_field
from .fields import (
    Array,
    DensitySpec,
    EXAMPLE2D_FACTORS,
    FD_STEP_UNIT,
    VectorFieldSpec,
    _check_positive,
    _check_sample_count,
    _is_c1,
    _row_norms,
    _trace,
    example2d,
    fd_gradient,
    linear_forms,
    power_product,
    seeded_generator,
)

#: draws a rejection sampler makes, as a multiple of its quota, before it
#: gives up; an exclusion radius near 1 rejects every point in the annulus
_MAX_REJECTION_DRAWS = 400

#: largest rejection round, as a multiple of the quota; bounds peak memory
_MAX_ROUND = 4

#: margin on the expected acceptance, and extra rows, in a rejection round
#: after the first, so one more round almost always fills the quota
_ROUND_MARGIN, _ROUND_FLOOR = 1.1, 64

#: factor on the finite-difference truncation estimate behind the exclusion
#: radius around the invariant planes
_EXCLUSION_SAFETY = 10.0

#: the norm annulus lo < |x| < hi both stationarity sweeps sample
_ANNULUS = (0.3, 2.0)


@dataclass(frozen=True)
class ClassADensityParams:
    """Parameters (R, xi_pm, gamma, n) of the explicit stationary density."""

    R: float
    xi_plus: float
    xi_minus: float
    gamma: float
    n: int

    def __post_init__(self) -> None:
        infinite = {k: v for k, v in asdict(self).items() if k != "n" and not math.isfinite(v)}
        if infinite:
            raise ValueError(f"R, xi_plus, xi_minus and gamma must be finite, got {infinite}")
        if self.R <= 0.0 or self.gamma <= 0.0:
            raise ValueError("R and gamma must be positive")
        if self.xi_plus <= self.xi_minus:
            raise ValueError("xi_plus must exceed xi_minus")
        if not _is_c1(k := (self.exp_plus, self.exp_minus)):
            raise ValueError(f"exponents n-1 and n*gamma-1 must each be 0 or above 1, got {k}")

    @property
    def exp_plus(self) -> float:
        """Exponent n - 1 of the pi+ factor; n is the family parameter, and
        M |F|^k is the member n + k."""
        return float(self.n - 1)

    @property
    def exp_minus(self) -> float:
        """Exponent n*gamma - 1 of the pi- factor."""
        return self.n * self.gamma - 1.0


def positive_c1_measure_exists(params: SuslovParams) -> bool:
    """Whether an invariant measure with strictly positive C1 density exists:
    exactly when the divergence vanishes identically, i.e. a1 = a2 = 0."""
    return params.a1 == 0.0 and params.a2 == 0.0


def classA_measure_exists(params: SuslovParams) -> bool:
    """Whether an invariant measure with an a.e.-positive, locally integrable
    density exists: exactly when a2 = 0, as the density above shows; for
    a2 != 0 line 1 holds a sink. At a1 = 0, 1/|q(O2, O3)| (q quadratic) is an
    a.e.-positive invariant density that is not locally integrable."""
    return params.a2 == 0.0


def density_params(params: SuslovParams) -> ClassADensityParams:
    """Compute (R, xi_pm, gamma, n) for the stationary density; needs a2 = 0."""
    if params.a2 != 0.0:
        raise ValueError("the explicit stationary density requires a2 = 0")
    l1, l2, l3 = params.lam
    a1, K3 = params.a1, params.K3
    A = a1 * K3 * l3
    N = 4.0 * (l1 + a1 * a1 * K3) * l3 * (l1 - l2) * (l2 - l3)
    R = float(np.sqrt(A * A + N))
    den = 2.0 * (l1 - l2) * (l1 + a1 * a1 * K3)
    # from R + |A| = 2^512 the squares below overflow (Python's float **
    # raises), so there they run on (A, R, N) / (8, 8, 64): exact, gamma is
    # free of the scale and xi is scaled back. R - |A| cancels once |A| > R/2
    # (below that it at most doubles R's rounding error, and the direct forms
    # round fewer times); there N = (R - A)(R + A) gives it without loss
    c = 8.0 if R + abs(A) >= 2.0 ** 512 else 1.0
    a, r, m = A / c, R / c, N / (c * c)
    xi_plus, xi_minus = (a + r) / den, (a - r) / den
    if a > 0.5 * r:
        gamma, xi_minus = m / (r + a) ** 2, -_quotient(m, r + a, den)
    elif a < -0.5 * r:
        gamma, xi_plus = (r - a) ** 2 / m, _quotient(m, r - a, den)
    else:
        gamma = (r - a) / (r + a)
    return ClassADensityParams(R, c * xi_plus, c * xi_minus, gamma, _least_c1_n(gamma))


def _quotient(m: float, s: float, den: float) -> float:
    """m / (s den), dividing by s and then den only where that product
    overflows, which would flush the quotient to 0."""
    product = s * den
    return m / product if math.isfinite(product) else m / s / den


def _least_c1_n(gamma: float) -> int:
    """The n at which the search n = 3, 5, 7, ... for n gamma - 1 > 1 stops,
    in a few steps: up from the odd ceiling of 2 / gamma by 2, or to the next
    float. No smaller n passes, as that needs an integer between 2 / gamma
    and its rounding below 2^53, and n - 2 and n round alike above. Where
    2 / gamma is not finite and positive, 3 leaves the constructor to refuse."""
    if not (gamma > 0.0 and math.isfinite(bound := 2.0 / gamma)):
        return 3
    n = max(3, 2 * math.ceil((bound - 1.0) / 2.0) + 1)
    while not _is_c1((n - 1.0, n * gamma - 1.0)):
        n = max(n + 2, int(math.nextafter(n, math.inf)) | 1)  # n + 2 below 2^53
    return n


def _plane_rows(dp: ClassADensityParams) -> tuple[tuple[float, ...], ...]:
    """The rows of the forms O1 - xi_pm O3 whose zero sets are the planes
    pi+-, the one statement of them that M, F, the sampler and the plane
    defect read through linear_forms."""
    return ((1.0, 0.0, -dp.xi_plus), (1.0, 0.0, -dp.xi_minus))


def first_integral_F(params: SuslovParams, dp: ClassADensityParams, omega: Array) -> Array:
    """The first integral F = (O1 - xi_+ O3) |O1 - xi_- O3|^gamma (a2 = 0).

    Homogeneous of degree 1 + gamma: F(c Omega) = c^(1+gamma) F(Omega), c > 0.
    A (3,) point is evaluated as a batch of one row, so it gets the bits of
    the same row in any batch.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.ndim == 1:
        return first_integral_F(params, dp, omega[None])[0]
    u_plus, u_minus = linear_forms(_plane_rows(dp))(omega)
    return u_plus * np.abs(u_minus) ** dp.gamma


def density_spec(
    params: SuslovParams, dp: ClassADensityParams, extra_power: int = 0
) -> DensitySpec:
    """M |F|^k as a DensitySpec: the family member n + k, for an integer
    k >= 0; it is again stationary since F is conserved."""
    if extra_power < 0:
        raise ValueError("extra_power must be a nonnegative integer")
    dp = replace(dp, n=dp.n + int(extra_power))
    return power_product(
        _plane_rows(dp),
        (dp.exp_plus, dp.exp_minus),
        "invariant planes O1 - xi_plus O3 = 0 and O1 - xi_minus O3 = 0",
    )


def _residual_and_scale(
    field: VectorFieldSpec, density: DensitySpec, x: Array
) -> tuple[Array, Array]:
    """div(M X) and its local scale at x, evaluating grad M, X, M and jac J once."""
    if field.jac is None:
        raise ValueError("the stationarity residual needs the field's jac slot; it has none")
    x = np.asarray(x, dtype=float)
    grad_M, X, M, J = fd_gradient(density.eval, x), field.eval(x), density.eval(x), field.jac(x)
    # <grad M, X> by column adds: the bits of np.sum(grad_M * X, axis=-1)
    # without its reduction overhead or its (..., dim) product
    res = grad_M[..., 0] * X[..., 0]
    for k in range(1, x.shape[-1]):
        res = res + grad_M[..., k] * X[..., k]
    res = res + M * _trace(J)
    # |X| and |grad M| by _row_norms; |J|_F by einsum, which forms no
    # (..., dim, dim) square
    scale = (
        _row_norms(X) * _row_norms(grad_M)
        + np.abs(M) * np.sqrt(np.einsum("...ij,...ij->...", J, J))
    )
    return res, np.maximum(scale, np.finfo(float).tiny * 1e20)


def pde_residual(field: VectorFieldSpec, density: DensitySpec, x: Array) -> Array:
    """Stationarity residual sum_i d(M X_i)/dx_i at x.

    Split by the product rule as <grad M, X> + M div X, with the density
    gradient by central finite differences and div X the trace of the
    field's analytic jac; a field without jac is a ValueError.
    """
    return _residual_and_scale(field, density, x)[0]


def residual_scale(field: VectorFieldSpec, density: DensitySpec, x: Array) -> Array:
    """Local magnitude of grad(M X) used to normalize the residual:
    |X| |grad M| + |M| |J|_F, with a floor to keep ratios finite."""
    return _residual_and_scale(field, density, x)[1]


def _fd_exclusion(exponents: tuple[float, float], tol: float) -> float:
    """Exclusion radius for a density with these two factor exponents, at a
    finite positive tolerance tol."""
    _check_positive(tol, "tol")
    C = max(abs((q - 1.0) * (q - 2.0)) for q in (*exponents, sum(exponents)))
    return FD_STEP_UNIT * float(np.sqrt(C * _EXCLUSION_SAFETY / (6.0 * tol)))


def exclusion_radius(dp: ClassADensityParams, tol: float = 1e-6) -> float:
    """Normalized distance from the planes inside which the finite-difference
    residual is not trusted.

    A factor |u|^q differentiated centrally at distance d carries relative
    truncation error about (h/d)^2 |(q-1)(q-2)| / 6; near the intersection
    line of the planes the exponents add. Solving for d at the target
    tolerance (with the margin _EXCLUSION_SAFETY) gives the radius, in units
    of the finite-difference step at unit scale.
    """
    return _fd_exclusion((dp.exp_plus, dp.exp_minus), tol)


def _rejection_sample(
    seed: int, count: int, bound: float, dim: int,
    keep: Callable[[Array], Array], excl: float,
) -> Array:
    """The first count uniform draws from the cube [-bound, bound]^dim that
    pass keep; raises ValueError unless count >= 1, or when
    _MAX_REJECTION_DRAWS * count draws hold fewer than count such points.

    keep maps an (m, dim) array to an (m,) mask, row by row. The first round
    draws count rows; each later one sizes itself from the acceptance seen
    so far, capped at _MAX_ROUND * count rows. Philox draws do not depend on
    how they are chunked, so the rounds change cost, not the result.
    """
    _check_sample_count(count)
    rng = seeded_generator(seed)
    budget = _MAX_REJECTION_DRAWS * count
    out: list[Array] = []
    have = drawn = 0
    size = count
    while have < count:
        if drawn == budget:
            raise ValueError(
                f"only {have} of {count} sample points clear the exclusion radius "
                f"{excl:.3g} after {drawn} draws"
            )
        size = min(size, _MAX_ROUND * count, budget - drawn)
        x = rng.uniform(-bound, bound, size=(size, dim))
        drawn += size
        out.append(np.compress(keep(x), x, axis=0))
        have += len(out[-1])
        if have:
            size = math.ceil(_ROUND_MARGIN * (count - have) * drawn / have) + _ROUND_FLOOR
        else:
            size = _MAX_ROUND * count
    return np.concatenate(out)[:count]


def _sample_off_zero_set(
    rows: Sequence[Sequence[float]], count: int, seed: int, norm_range: tuple, excl: float
) -> Array:
    """count points in the norm annulus lo < |x| < hi, each clearing the zero
    set of every form <row, x> by excl |x| |row|_1, drawn by
    _rejection_sample from the cube [-hi, hi]^d."""
    lo, hi = norm_range
    if not 0.0 <= lo < hi:
        raise ValueError(f"norm_range must satisfy 0 <= lo < hi, got {norm_range}")
    forms = linear_forms(rows)

    def keep(x: Array) -> Array:
        nrm = _row_norms(x)
        mask = (nrm > lo) & (nrm < hi)
        for u, row in zip(forms(x), rows):
            mask &= np.abs(u) > excl * nrm * sum(abs(c) for c in row)
        return mask

    return _rejection_sample(seed, count, hi, len(rows[0]), keep, excl)


def sample_off_plane(
    params: SuslovParams,
    dp: ClassADensityParams,
    count: int,
    seed: int,
    norm_range: tuple[float, float] = _ANNULUS,
    excl: float | None = None,
) -> Array:
    """Sample points in a norm annulus, rejecting the exclusion neighborhood
    of the planes pi+- (distances normalized by |Omega| (1 + |xi|))."""
    if excl is None:
        excl = exclusion_radius(dp)
    return _sample_off_zero_set(_plane_rows(dp), count, seed, norm_range, excl)


def _sweep_report(
    claim: str, context: dict, field: VectorFieldSpec, rows: Sequence[Sequence[float]],
    exponents: tuple[float, float], n_points: int, seed: int, tol: float,
) -> dict:
    """Stationarity report of the density prod_i |<rows[i], x>|^exponents[i]
    against field: the worst ratio of the residual to its local scale at
    n_points points off the forms' zero sets, passing when it is at most tol;
    density, radius and points all read this one table. Context follows claim."""
    excl = _fd_exclusion(exponents, tol)
    pts = _sample_off_zero_set(rows, n_points, seed, _ANNULUS, excl)
    density = power_product(rows, exponents, "zero sets of the swept forms")
    res, scale = _residual_and_scale(field, density, pts)
    worst = float(np.max(np.abs(res) / scale))
    return {
        "claim": claim,
        **context,
        "sample_count": len(pts),
        "exclusion_radius": excl,
        "max_residual": worst,
        "tolerance": tol,
        "pass": bool(worst <= tol),
    }


def residual_sweep(
    params: SuslovParams,
    n_points: int = 10000,
    seed: int = 0,
    tol: float = 1e-6,
) -> dict:
    """Monte Carlo stationarity check of M for the reduced field.

    Evaluates the residual at off-plane sample points and reports the worst
    ratio to the local scale; pass means max ratio <= tol.
    """
    dp = density_params(params)
    return _sweep_report(
        "div(M X) = 0 off the invariant planes",
        {"params": params.to_dict(), "density": asdict(dp)}, vector_field(params),
        _plane_rows(dp), (dp.exp_plus, dp.exp_minus), n_points, seed, tol,
    )


def plane_defect_sweep(
    params: SuslovParams,
    n_points: int = 1000,
    seed: int = 0,
    tol: float = 1e-10,
) -> dict:
    """Check flow invariance of pi+- at n_points on-plane sample points,
    ceil(n_points / 2) on pi+ and floor(n_points / 2) on pi-: the defect
    |<row, X>| = |X1 - xi X3| must stay below tol * |X|, tol finite and
    positive. Each plane needs a point, so n_points below 2 is a ValueError."""
    if n_points < 2:
        raise ValueError(f"n_points must be at least 2, got {n_points}: one point per plane")
    _check_positive(tol, "tol")
    dp = density_params(params)
    field = vector_field(params)
    rng = seeded_generator(seed)
    worst = 0.0
    for row, count in zip(_plane_rows(dp), (n_points - n_points // 2, n_points // 2)):
        # the plane <row, x> = 0 of a row (1, 0, r3) holds (-r3 t2, t1, t2)
        t = rng.uniform(-2.0, 2.0, size=(count, 2))
        pts = np.stack([-row[2] * t[:, 1], t[:, 0], t[:, 1]], axis=-1)
        X = field.eval(pts)
        defect = np.abs(linear_forms([row])(X)[0])
        denom = np.maximum(_row_norms(X), np.finfo(float).tiny * 1e20)
        worst = max(worst, float(np.max(defect / denom)))
    return {
        "claim": "planes pi+- are flow invariant",
        "params": params.to_dict(),
        "sample_count": n_points,
        "max_defect": worst,
        "tolerance": tol,
        "pass": bool(worst <= tol),
    }


def fixture2d_residual_sweep(n_points: int = 4096, seed: int = 0, tol: float = 1e-6) -> dict:
    """Stationarity sweep for the plane fixture, M = |x1|^5 |x2|^2 against
    (dx1, dx2) = (-x1, 2 x2): the main density's sweep on the fixture's
    factor table EXAMPLE2D_FACTORS (degree 7 at 0)."""
    return _sweep_report(
        "div(M X) = 0 off the coordinate axes (plane fixture)", {},
        example2d(), *EXAMPLE2D_FACTORS, n_points, seed, tol,
    )


def divergence_witness(params: SuslovParams, n_points: int = 4096, seed: int = 0) -> dict:
    """Largest sampled |div X| over the unit ball: positive exactly when a
    positive C1 stationary density is obstructed ((a1, a2) != (0, 0)).

    The divergence is the field's covector slot div.
    It is linear in Omega, so div X = <c, Omega> with c_k = div X(e_k), and
    its true supremum over the unit ball is |c|; pass means that supremum is
    positive and the sampled maximum reaches at least half of it; draws that
    all miss the ball give a sampled maximum of 0, which fails.
    """
    _check_sample_count(n_points, "n_points")
    field = vector_field(params)
    rng = seeded_generator(seed)
    w = rng.uniform(-1.0, 1.0, size=(n_points, 3))
    w = np.compress(_row_norms(w) <= 1.0, w, axis=0)
    peak = float(np.max(np.abs(field.div(w)), initial=0.0))
    sup = float(np.linalg.norm(field.div(np.eye(3))))
    return {
        "claim": "div X vanishes identically iff a1 = a2 = 0",
        "params": params.to_dict(),
        "sample_count": int(len(w)),
        "max_divergence": peak,
        "supremum_unit_ball": sup,
        "divergence_free": sup == 0.0,
        "pass": bool(sup > 0.0 and peak >= 0.5 * sup),
    }

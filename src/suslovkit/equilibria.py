"""Relative equilibria of the reduced system.

The equilibrium set is the union of the three eigenlines V_i of Ba. On a
fixed energy ellipsoid each line contributes an antipodal pair +-v_i whose
stability is read off the characteristic polynomial of the field Jacobian
J = J(v_i),

    p(z) = det(Ka) det(z I - J) = det(Ka) z^3 + alpha z^2 + beta z,

    alpha = -det(Ka) tr J,   beta = det(Ka) (tr^2 J - tr J^2) / 2.

p(z) is also det(z Ka - G) for the linearization G = Ka J of
(Ba Omega) x Omega. Its constant term -det(Ka) det J vanishes because
J(v) v = 2 X(v) = 0: the zero root is motion along the equilibrium line.
The signs of alpha and beta classify the restricted equilibria, and
tr J(v) = div X(v) makes alpha = -det(Ka) div X(v_i).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .core import SuslovParams, _vector_field, energy, matrices, vector_field
from .fields import Array, VectorFieldSpec, _check_positive


class Classification(str, Enum):
    SADDLE = "Saddle"
    LINEAR_CENTER_PAIR = "LinearCenterPair"
    SOURCE_SINK_PAIR = "SourceSinkPair"


@dataclass(frozen=True)
class EquilibriumReport:
    """Stability data for one equilibrium line, at the fixed representative
    v_i below. The antipode -v_i swaps the source/sink roles (alpha changes
    sign under v -> -v while beta does not)."""

    index: int
    lambda_i: float
    direction: Array
    alpha: float
    beta: float
    classification: Classification
    source_sign: int | None = None
    sink_sign: int | None = None
    annotation: str = ""

    def to_dict(self) -> dict:
        """The fields in order, lambda_i as "lambda"."""
        doc = asdict(self)
        doc.update(direction=self.direction.tolist(), classification=self.classification.value)
        return {("lambda" if k == "lambda_i" else k): v for k, v in doc.items()}


def equilibrium_directions(params: SuslovParams) -> tuple[Array, Array, Array]:
    """Representatives v_1, v_2, v_3 of the three equilibrium lines.

    v_i spans the lambda_i eigenline of Ba; each is checked to be a zero of
    the reduced field.
    """
    field = vector_field(params)
    return tuple(_checked_zero(field, v) for v in _line_directions(params))


def _line_directions(params: SuslovParams) -> tuple[Array, Array, Array]:
    l1, l2, l3 = params.lam
    return (
        np.array([l3 - l1, 0.0, params.a1 * params.K3]),
        np.array([0.0, l3 - l2, params.a2 * params.K3]),
        np.array([0.0, 0.0, 1.0]),
    )


def _checked_zero(field: VectorFieldSpec, v: Array) -> Array:
    # X_i(v) = 1/2 sum_jk P_ijk v_j v_k with P_ijk = J(e_k)_ij, and X(v) is
    # rounded on the scale of the terms it sums, 1/2 sum_jk |P_ijk| |v_j| |v_k|
    # (|v|^2 alone is below it when Q's entries are large); the ratio of the
    # two is free of units
    P = np.abs(field.jac(np.eye(field.dim)))  # P[k, i, j] = |P_ijk|
    u = np.abs(v)
    terms = 0.5 * np.einsum("kij,j,k->i", P, u, u)
    if np.linalg.norm(field.eval(v)) > 1e-10 * np.linalg.norm(terms):
        raise AssertionError("equilibrium direction fails the field zero check")
    return v


def scale_to_ellipsoid(params: SuslovParams, v: Array, eta: float, sign: int = 1) -> Array:
    """Scale v onto the energy ellipsoid E = eta; sign selects the antipode."""
    v = np.asarray(v, dtype=float)
    _check_positive(eta, "eta")
    e = float(energy(params, v))
    if e == 0.0:
        raise ValueError("cannot scale the zero vector onto an ellipsoid")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return sign * np.sqrt(eta / e) * v


def _linearization(params: SuslovParams, i: int) -> tuple[Array, Array, float]:
    """The representative v_i of the i-th line, checked to be a zero of the
    field, the field Jacobian J(v_i) and det Ka."""
    if i not in (1, 2, 3):
        raise ValueError("equilibrium index must be 1, 2 or 3")
    mats = matrices(params)
    field = _vector_field(mats)
    v = _checked_zero(field, _line_directions(params)[i - 1])
    return v, field.jac(v), mats.detKa


def _coefficients(J: Array, detKa: float) -> tuple[float, float]:
    """(alpha, beta) of p(z) = det(Ka) det(z I - J)."""
    tr = np.trace(J)
    # + 0.0 turns the -0.0 of a vanishing trace into 0.0
    return float(-detKa * tr + 0.0), float(detKa * 0.5 * (tr * tr - np.trace(J @ J)))


def stability_coefficients(params: SuslovParams, i: int) -> tuple[float, float]:
    """Coefficients (alpha, beta) of p(z) = det(Ka) det(z I - J(v_i))."""
    _, J, detKa = _linearization(params, i)
    return _coefficients(J, detKa)


def stability_coefficients_closed_form(params: SuslovParams, i: int) -> tuple[float, float]:
    """Closed forms of (alpha, beta) at the fixed representatives."""
    l1, l2, l3 = params.lam
    a1, a2, K3 = params.a1, params.a2, params.K3
    if i == 1:
        beta = (l1 - l2) * (l1 - l3) * (
            (a1 * a1 * K3 + l1) * (l1 - l3) ** 2 + a1 * a1 * K3 * K3 * l3
        )
        alpha = -a2 * K3 * l3 * (a1 * a1 * K3 * (l1 - l2) + l1 * (l1 - l3))
    elif i == 2:
        beta = -(l1 - l2) * (l2 - l3) * (
            l2 * (l2 - l3) ** 2 + a2 * a2 * K3 * ((l2 - l3) ** 2 + K3 * l3)
        )
        alpha = -a1 * K3 * l3 * (l2 * (l3 - l2) + a2 * a2 * K3 * (l1 - l2))
    elif i == 3:
        beta = (l1 - l3) * (l2 - l3) * l3
        alpha = -a1 * a2 * K3 * (l1 - l2) * l3
    else:
        raise ValueError("equilibrium index must be 1, 2 or 3")
    # + 0.0 turns the -0.0 of a vanishing product into 0.0
    return alpha + 0.0, beta


def classify(params: SuslovParams, i: int) -> EquilibriumReport:
    """Classify the equilibrium pair +-v_i from the signs of (alpha, beta).
    alpha counts as zero when |alpha| <= 1e-10 det(Ka) ||J||_F, and beta when
    |beta| <= 1e-10 det(Ka) ||J||_F^2, which is a degenerate line (ValueError).
    Each test has the degree of the coefficient it judges, so the table is the
    same in every unit of the moments and for every representative c v_i."""
    v, J, detKa = _linearization(params, i)
    alpha, beta = _coefficients(J, detKa)
    jj = float(np.vdot(J, J))  # ||J||_F^2
    if abs(beta) <= 1e-10 * detKa * jj:
        raise ValueError(f"degenerate equilibrium line V_{i}: beta vanishes")
    src = snk = None
    note = ""
    if beta < 0.0:
        cls = Classification.SADDLE
    elif abs(alpha) <= 1e-10 * detKa * np.sqrt(jj):
        cls = Classification.LINEAR_CENTER_PAIR
        note = "nonlinear center on the energy ellipsoid (known result, not verified here)"
    else:
        cls = Classification.SOURCE_SINK_PAIR
        # alpha < 0: v_i is the source and -v_i the sink; alpha > 0 swaps them
        src, snk = (1, -1) if alpha < 0.0 else (-1, 1)
    return EquilibriumReport(
        index=i, lambda_i=params.lam[i - 1], direction=v, alpha=alpha, beta=beta,
        classification=cls, source_sign=src, sink_sign=snk, annotation=note,
    )

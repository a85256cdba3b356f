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
tr J(v) = div X(v) makes alpha = -det(Ka) div X(v_i). For lambda1 > lambda2 >
lambda3 > 0 the closed forms give beta_1, beta_3 > 0 > beta_2, alpha_1 = -a2
(positive) and alpha_3 = -a1 a2 (positive). So line 2 is a saddle; line 1 is a
pair of linear centers iff a2 = 0, line 3 iff a1 = 0 or a2 = 0, and any other
line a source-sink pair with its sink at sign(alpha_i) v_i. A report carries
the closed forms, whose signs are the table's; the float J route,
stability_coefficients, is kept as the oracle they are tested against. It
loses the sign where its terms cancel (beta is 0.0 on all lines at a = 1e9).
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


def stability_coefficients(params: SuslovParams, i: int) -> tuple[float, float]:
    """Coefficients (alpha, beta) of p(z) = det(Ka) det(z I - J(v_i)), from
    the field Jacobian at the zero-checked v_i: the oracle of the closed forms."""
    if i not in (1, 2, 3):
        raise ValueError("equilibrium index must be 1, 2 or 3")
    mats = matrices(params)
    field = _vector_field(mats)
    J = field.jac(_checked_zero(field, _line_directions(params)[i - 1]))
    tr = np.trace(J)
    # + 0.0 turns the -0.0 of a vanishing trace into 0.0
    return float(-mats.detKa * tr + 0.0), float(mats.detKa * 0.5 * (tr * tr - np.trace(J @ J)))


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
    # + 0 turns the -0.0 of a vanishing product into 0.0; rationals stay exact
    return alpha + 0, beta


def classify(params: SuslovParams, i: int) -> EquilibriumReport:
    """Classify +-v_i by the module docstring's table of sign(a1), sign(a2),
    and report the closed-form alpha and beta whose signs it is."""
    # the closed forms check i first: i = 0 would index line 3
    alpha, beta = stability_coefficients_closed_form(params, i)
    v = _checked_zero(vector_field(params), _line_directions(params)[i - 1])
    s1, s2 = ((a > 0.0) - (a < 0.0) for a in (params.a1, params.a2))
    # sign(alpha_i) as a product of signs: a1 a2 itself underflows to 0
    sink = -s2 if i == 1 else -s1 * s2
    src = snk = None
    note = ""
    if i == 2:
        cls = Classification.SADDLE
    elif sink == 0:
        cls = Classification.LINEAR_CENTER_PAIR
        note = "nonlinear center on the energy ellipsoid (known result, not verified here)"
    else:
        cls = Classification.SOURCE_SINK_PAIR
        # alpha < 0: v_i is the source and -v_i the sink; alpha > 0 swaps them
        src, snk = -sink, sink
    return EquilibriumReport(
        index=i, lambda_i=params.lam[i - 1], direction=v, alpha=alpha, beta=beta,
        classification=cls, source_sign=src, sink_sign=snk, annotation=note,
    )

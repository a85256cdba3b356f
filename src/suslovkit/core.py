"""Reduced equations of a rigid carrier with an axial rotor whose total
angular velocity is constrained to be orthogonal to a body-fixed axis a.

After normalizing a3 = 1 the reduced dynamics on angular-velocity space is

    d/dt (Ka @ Omega) = (Ba @ Omega) x Omega,

equivalently Omega' = X(Omega) = Ka^{-1} ((Ba @ Omega) x Omega), with Ka
symmetric positive definite and Ba lower triangular carrying the moments
lambda_i on its diagonal.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .fields import Array, VectorFieldSpec

#: absolute margin enforcing strict inertia ordering
ORDERING_MARGIN = 1e-12


@dataclass(frozen=True)
class SuslovParams:
    """Physical parameters of one system instance, normalized so a3 = 1.

    I1 > I2 > I3 > 0 are the carrier principal moments, K1 >= 0 and K3 > 0
    the rotor transverse and axial moments, and (a1, a2) the remaining
    components of the forbidden-rotation axis.
    """

    I1: float
    I2: float
    I3: float
    K1: float
    K3: float
    a1: float
    a2: float

    def __post_init__(self) -> None:
        if not np.isfinite(
            [self.I1, self.I2, self.I3, self.K1, self.K3, self.a1, self.a2]
        ).all():
            raise ValueError("parameters must be finite")
        if self.I3 <= ORDERING_MARGIN:
            raise ValueError("inertia ordering violated: need I3 > 0")
        if self.I2 - self.I3 <= ORDERING_MARGIN or self.I1 - self.I2 <= ORDERING_MARGIN:
            raise ValueError("inertia ordering violated: need 0 < I3 < I2 < I1")
        if self.K3 <= ORDERING_MARGIN:
            raise ValueError("rotor axial moment K3 must be positive")
        if self.K1 < 0.0:
            raise ValueError("rotor transverse moment K1 must be nonnegative")

    @property
    def lam1(self) -> float:
        return self.I1 + self.K1

    @property
    def lam2(self) -> float:
        return self.I2 + self.K1

    @property
    def lam3(self) -> float:
        return self.I3

    @property
    def lam(self) -> tuple[float, float, float]:
        return (self.lam1, self.lam2, self.lam3)

    def to_dict(self) -> dict[str, float]:
        return {
            "I1": self.I1, "I2": self.I2, "I3": self.I3,
            "K1": self.K1, "K3": self.K3,
            "a1": self.a1, "a2": self.a2, "a3": 1.0,
        }


def validate(
    I1: float, I2: float, I3: float, K1: float, K3: float,
    a1: float = 0.0, a2: float = 0.0, a3: float = 1.0,
) -> SuslovParams:
    """Normalize raw inputs into a SuslovParams instance.

    The constraint axis is homogeneous, so any a3 != 0 rescales to a3 = 1.
    a3 = 0 is rejected: without a rotor component along the axis the model
    degenerates to the classical constrained rigid body, not covered here.
    """
    if a3 == 0.0:
        raise ValueError("a3 = 0 not supported: constraint axis must have an axial component")
    return SuslovParams(
        I1=float(I1), I2=float(I2), I3=float(I3),
        K1=float(K1), K3=float(K3),
        a1=float(a1) / float(a3), a2=float(a2) / float(a3),
    )


def load_params(source: str | Mapping[str, float]) -> SuslovParams:
    """Load parameters from a flat JSON document (path or parsed mapping)."""
    if isinstance(source, Mapping):
        doc = dict(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    known = {"I1", "I2", "I3", "K1", "K3", "a1", "a2", "a3"}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
    missing = {"I1", "I2", "I3", "K1", "K3"} - set(doc)
    if missing:
        raise ValueError(f"missing parameter keys: {sorted(missing)}")
    return validate(**{k: float(v) for k, v in doc.items()})


@dataclass(frozen=True)
class SystemMatrices:
    """The matrices Ka, Ba of the reduced system, with Ka^{-1} in closed
    form (Ka is block diagonal), from which vector_field builds its tensor Q
    once."""

    Ka: Array
    Ba: Array
    Ka_inv: Array
    detKa: float


def matrices(params: SuslovParams) -> SystemMatrices:
    """Assemble Ka, Ba and the closed-form inverse of Ka."""
    l1, l2, l3 = params.lam
    a1, a2, K3 = params.a1, params.a2, params.K3
    A = l1 + a1 * a1 * K3
    B = a1 * a2 * K3
    C = l2 + a2 * a2 * K3
    Ka = np.array([[A, B, 0.0], [B, C, 0.0], [0.0, 0.0, l3]])
    Ba = np.array([[l1, 0.0, 0.0], [0.0, l2, 0.0], [-a1 * K3, -a2 * K3, l3]])
    # Ka is block diagonal: a 2x2 symmetric block plus the scalar l3.
    d2 = A * C - B * B
    Ka_inv = np.array([
        [C / d2, -B / d2, 0.0],
        [-B / d2, A / d2, 0.0],
        [0.0, 0.0, 1.0 / l3],
    ])
    for m in (Ka, Ba, Ka_inv):
        m.setflags(write=False)
    return SystemMatrices(Ka=Ka, Ba=Ba, Ka_inv=Ka_inv, detKa=d2 * l3)


def vector_field(params: SuslovParams) -> VectorFieldSpec:
    """The reduced field X(Omega) = Ka^{-1} ((Ba Omega) x Omega) as the
    quadratic form X_i = Q_ijk O_j O_k of one tensor

        Q_ijk = sum_lm (Ka^{-1})_il eps_lmk (Ba)_mj,

    with Jacobian J_ij = (Q_ijk + Q_ikj) O_k, linear in Omega."""
    mats = matrices(params)
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    Q = np.einsum("il,lmk,mj->ijk", mats.Ka_inv, eps, mats.Ba)
    # S[k, 3 i + j] = Q_ijk + Q_ikj, so J(Omega) is one (.., 3) @ (3, 9) product
    S = (Q + Q.transpose(0, 2, 1)).transpose(2, 0, 1).reshape(3, 9).copy()

    def evaluate(omega: Array) -> Array:
        # Column-major, the batch rows sit on einsum's innermost loop; C-order
        # would put the three components there, several times slower. Points
        # and column-major batches pass through uncopied. Layout changes only
        # the loop order, not each row's products or the order they are
        # summed in, so rows stay bit-equal to single-point calls; a matmul
        # form rounds one-row products differently.
        omega = np.asfortranarray(omega, dtype=float)
        return np.einsum("ijk,...j,...k->...i", Q, omega, omega)

    def jacobian(omega: Array) -> Array:
        omega = np.asarray(omega, dtype=float)
        return (omega @ S).reshape(omega.shape[:-1] + (3, 3))

    return VectorFieldSpec(dim=3, eval=evaluate, jac=jacobian)


def energy(params: SuslovParams, omega: Array) -> Array:
    """Kinetic energy E = (1/2) <Ka Omega, Omega>, a first integral."""
    omega = np.asarray(omega, dtype=float)
    Ka = matrices(params).Ka
    return 0.5 * np.sum((omega @ Ka) * omega, axis=-1)


def multiplier_zeta(params: SuslovParams, omega: Array) -> Array:
    """Constraint multiplier zeta = K3 (dOmega3/dt - <a, dOmega/dt>).

    With a3 = 1 the axial terms cancel, leaving -K3 (a1 X1 + a2 X2).
    """
    X = vector_field(params).eval(omega)
    return -params.K3 * (params.a1 * X[..., 0] + params.a2 * X[..., 1])


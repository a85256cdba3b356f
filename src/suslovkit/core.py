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
import math
from dataclasses import asdict, dataclass
from numbers import Real
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
        if self.I1 + self.K1 == self.I2 + self.K1:
            raise ValueError(
                f"rotor transverse moment K1 = {self.K1!r} is too large: I1 + K1 and "
                "I2 + K1 round to the same double, so lambda1 = lambda2"
            )

    @property
    def lam(self) -> tuple[float, float, float]:
        """The moments (I1 + K1, I2 + K1, I3) on the diagonal of Ba."""
        return (self.I1 + self.K1, self.I2 + self.K1, self.I3)

    def to_dict(self) -> dict[str, float]:
        return {**asdict(self), "a3": 1.0}


def validate(
    I1: float, I2: float, I3: float, K1: float, K3: float,
    a1: float = 0.0, a2: float = 0.0, a3: float = 1.0,
) -> SuslovParams:
    """Normalize raw inputs into a SuslovParams instance.

    The constraint axis is homogeneous, so any finite a3 != 0 rescales to
    a3 = 1. a3 = 0 is rejected: without a rotor component along the axis the
    model degenerates to the classical constrained rigid body, not covered
    here. An a3 that is not finite, or one so small that a1/a3 or a2/a3
    overflows, is a ValueError naming it, not a rescaling to a1 = a2 = 0.
    """
    a3 = float(a3)
    if not (math.isfinite(a3) and a3 != 0.0):
        raise ValueError(
            f"a3 must be finite and nonzero (the constraint axis needs an axial "
            f"component), got {a3}"
        )
    a1, a2 = float(a1), float(a2)
    for name, value in (("a1", a1), ("a2", a2)):
        if not math.isfinite(value / a3):
            raise ValueError(f"{name}/a3 = {value!r}/{a3!r} is not finite")
    return SuslovParams(
        I1=float(I1), I2=float(I2), I3=float(I3),
        K1=float(K1), K3=float(K3),
        a1=a1 / a3, a2=a2 / a3,
    )


def load_params(source: str | Mapping[str, float]) -> SuslovParams:
    """Load parameters from a flat JSON document (path or parsed mapping).
    A document that is not an object, or a value that is not a number (a
    boolean included), is a ValueError."""
    if isinstance(source, Mapping):
        doc = dict(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"parameters must be a JSON object, got {json.dumps(doc)[:60]}")
    known = {"I1", "I2", "I3", "K1", "K3", "a1", "a2", "a3"}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
    missing = {"I1", "I2", "I3", "K1", "K3"} - set(doc)
    if missing:
        raise ValueError(f"missing parameter keys: {sorted(missing)}")
    not_numbers = sorted(
        k for k, v in doc.items() if isinstance(v, bool) or not isinstance(v, Real)
    )
    if not_numbers:
        raise ValueError(f"parameter values must be numbers: {not_numbers}")
    return validate(**{k: float(v) for k, v in doc.items()})


@dataclass(frozen=True)
class SystemMatrices:
    """The matrices Ka, Ba of the reduced system, with Ka^{-1} and Ka's
    lower-triangular factor L (Ka = L L^T) in closed form, since Ka is block
    diagonal. vector_field builds its tensor Q from Ka^{-1} once, and every
    energy reads L; Ka itself is the oracle the tests check both against."""

    Ka: Array
    Ba: Array
    Ka_inv: Array
    L: Array
    detKa: float


def matrices(params: SuslovParams) -> SystemMatrices:
    """Assemble Ka, Ba and the closed-form inverse and factor of Ka."""
    l1, l2, l3 = params.lam
    a1, a2, K3 = params.a1, params.a2, params.K3
    A = l1 + a1 * a1 * K3
    B = a1 * a2 * K3
    C = l2 + a2 * a2 * K3
    Ka = np.array([[A, B, 0.0], [B, C, 0.0], [0.0, 0.0, l3]])
    Ba = np.array([[l1, 0.0, 0.0], [0.0, l2, 0.0], [-a1 * K3, -a2 * K3, l3]])
    # Ka is block diagonal: a 2x2 symmetric block plus the scalar l3. The
    # block's determinant A C - B^2 equals l2 A + l1 a2^2 K3, a sum of
    # nonnegative terms; the difference cancels to 0 or below once |a| is large.
    d2 = A * l2 + l1 * (a2 * a2 * K3)
    Ka_inv = np.array([
        [C / d2, -B / d2, 0.0],
        [-B / d2, A / d2, 0.0],
        [0.0, 0.0, 1.0 / l3],
    ])
    # L's pivot l22^2 = C - B^2 / A = d2 / A, again a sum of nonnegative terms
    l11 = math.sqrt(A)
    L = np.array([
        [l11, 0.0, 0.0],
        [B / l11, math.sqrt(l2 + l1 * (a2 * a2 * K3) / A), 0.0],
        [0.0, 0.0, math.sqrt(l3)],
    ])
    for m in (Ka, Ba, Ka_inv, L):
        m.setflags(write=False)
    return SystemMatrices(Ka=Ka, Ba=Ba, Ka_inv=Ka_inv, L=L, detKa=d2 * l3)


#: the Levi-Civita symbol eps_lmk
_EPS = np.zeros((3, 3, 3))
_EPS[0, 1, 2] = _EPS[1, 2, 0] = _EPS[2, 0, 1] = 1.0
_EPS[0, 2, 1] = _EPS[2, 1, 0] = _EPS[1, 0, 2] = -1.0
#: the monomials O1^2, O1 O2, O1 O3, O2^2, O2 O3 the field is a combination
#: of, as flat indices 3 j + k (from 0) of O_j O_k; O3^2 is not one, since its
#: coefficient Q_i33 vanishes because (Ba e_3) x e_3 = 0
_PAIRS = np.array([0, 1, 2, 4, 5])
_N_MONO = len(_PAIRS)


def vector_field(params: SuslovParams) -> VectorFieldSpec:
    """The reduced field X(Omega) = Ka^{-1} ((Ba Omega) x Omega) as the
    quadratic form X_i = Q_ijk O_j O_k of one tensor

        Q_ijk = sum_lm (Ka^{-1})_il eps_lmk (Ba)_mj.

    Every table the spec uses is read off Q and its symmetrization
    P_ijk = Q_ijk + Q_ikj by index:
    eval sums X_i = sum_m C_im mono_m over the monomials
    mono = (O1^2, O1 O2, O1 O3, O2^2, O2 O3), and point is that sum at one
    point on Python floats, with C_im = P_ijk for the pair m = (j, k), j < k,
    and Q_ijj for m = (j, j); jac is J_ij = P_ijk O_k, linear in Omega; and
    div is the covector product div X = <c, Omega>, c_k = sum_i P_iik, the
    trace of J."""
    return _vector_field(matrices(params))


def _vector_field(mats: SystemMatrices) -> VectorFieldSpec:
    """vector_field from matrices already built."""
    Q = np.einsum("il,lmk,mj->ijk", mats.Ka_inv, _EPS, mats.Ba)
    P = Q + Q.transpose(0, 2, 1)
    # each table in C order: einsum and matmul run about half as fast on a
    # strided one, as a fancy index or this reshape alone would give
    C = P.reshape(3, 9).take(_PAIRS, axis=1)
    # the squares O1^2 and O2^2 (pairs 0 and 3) take Q_ijj, not 2 Q_ijj
    C[:, 0], C[:, 3] = Q[:, 0, 0], Q[:, 1, 1]
    # J(Omega) is one (.., 3) @ (3, 9) product, S[k, 3 i + j] = P_ijk
    S = P.transpose(2, 0, 1).reshape(3, 9).copy()
    c = P[0, 0] + P[1, 1] + P[2, 2]
    # C's rows as Python floats, for the one-row sum
    (c00, c01, c02, c03, c04), (c10, c11, c12, c13, c14), (c20, c21, c22, c23, c24) = (
        C.tolist()
    )

    def point(w: list) -> list:
        w0, w1, w2 = w
        m0, m1, m2, m3, m4 = w0 * w0, w0 * w1, w0 * w2, w1 * w1, w1 * w2
        return [
            0.0 + c00 * m0 + c01 * m1 + c02 * m2 + c03 * m3 + c04 * m4,
            0.0 + c10 * m0 + c11 * m1 + c12 * m2 + c13 * m3 + c14 * m4,
            0.0 + c20 * m0 + c21 * m1 + c22 * m2 + c23 * m3 + c24 * m4,
        ]

    def evaluate(omega: Array) -> Array:
        # One sum, from +0.0 and mono_0 first, run by two executors that
        # round alike: Python floats for a single row, einsum for a batch. At
        # one row einsum switches to a reduction loop that adds in another
        # order, so no one-row input may reach it. With the monomial axis
        # first, the batch sits on einsum's innermost loop in every layout.
        omega = np.asarray(omega, dtype=float)
        if omega.shape == (3,):
            return np.array(point(omega.tolist()))
        if omega.shape[-1:] != (3,):
            raise ValueError(f"field points must have shape (..., 3), got {omega.shape}")
        if omega.size == 3:
            return evaluate(omega.reshape(3)).reshape(omega.shape)
        w = omega.transpose(-1, *range(omega.ndim - 1))
        mono = np.empty((_N_MONO,) + omega.shape[:-1])
        # O1 (O1, O2, O3), then O2 (O2, O3): the monomials in _PAIRS order
        np.multiply(w[0], w, out=mono[:3])
        np.multiply(w[1], w[1:], out=mono[3:])
        return np.einsum("im,m...->...i", C, mono)

    def jacobian(omega: Array) -> Array:
        omega = np.asarray(omega, dtype=float)
        return (omega @ S).reshape(omega.shape[:-1] + (3, 3))

    def div(omega: Array) -> Array:
        return np.asarray(omega, dtype=float) @ c

    return VectorFieldSpec(dim=3, eval=evaluate, jac=jacobian, div=div, point=point)


def energy(params: SuslovParams, omega: Array) -> Array:
    """Kinetic energy E = (1/2) <Ka Omega, Omega> = (1/2) |L^T Omega|^2, a
    first integral, read through Ka's closed-form factor L."""
    return _energy(matrices(params).L, omega)


def _energy(L: Array, omega: Array) -> Array:
    """energy from the factor L already built: a sum of squares, positive at
    every nonzero Omega, where <Ka Omega, Omega> on the rounded Ka cancels
    to 0 or below once |a| is large."""
    y = np.asarray(omega, dtype=float) @ L
    return 0.5 * np.sum(y * y, axis=-1)


def multiplier_zeta(params: SuslovParams, omega: Array) -> Array:
    """Constraint multiplier zeta = K3 (dOmega3/dt - <a, dOmega/dt>).

    With a3 = 1 the axial terms cancel, leaving -K3 (a1 X1 + a2 X2).
    """
    X = vector_field(params).eval(omega)
    return -params.K3 * (params.a1 * X[..., 0] + params.a2 * X[..., 1])


"""Shared fixtures: the reference parameter set in its three constraint
regimes, seeded random parameter draws, and the closed-form divergence the
package's divergence is checked against, and the exact energy Ka's factor
is checked against."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from suslovkit import SuslovParams, matrices, validate
from suslovkit.measures import density_params

# Every checkout runs the same examples: each property test is seeded from
# its own source and no example database is read or written.
# `--hypothesis-profile=default` restores random exploration.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def draw_params(
    rng: np.random.Generator,
    a1: float | None = None,
    a2: float | None = None,
) -> SuslovParams:
    """One random admissible parameter set. a1/a2 override the random
    constraint direction when given."""
    I3 = rng.uniform(0.2, 2.0)
    I2 = I3 + rng.uniform(0.1, 2.0)
    I1 = I2 + rng.uniform(0.1, 2.0)
    K1 = rng.uniform(0.0, 1.5)
    K3 = rng.uniform(0.1, 2.0)
    if a1 is None:
        a1 = rng.uniform(-2.0, 2.0)
    if a2 is None:
        a2 = rng.uniform(-2.0, 2.0)
    return validate(I1, I2, I3, K1, K3, a1=a1, a2=a2)


def draw_classA_params(rng: np.random.Generator) -> SuslovParams:
    """Random a2 = 0 parameter set with the density exponent window
    0.3 <= gamma <= 2.5, so n stays small and M stays representable."""
    while True:
        p = draw_params(rng, a2=0.0)
        dp = density_params(p)
        if 0.3 <= dp.gamma <= 2.5:
            return p


def admissible_draws(seed: int, count: int) -> list[dict[str, float]]:
    """count seeded parameter sets that validate accepts: moments log-uniform
    in 1e-6..1e6, K1, K3, |a1| and |a2| in 1e-9..1e9, with a random sign and
    a2 = 0 on about a third of the sets."""
    rng = np.random.default_rng(seed)
    sets = []
    while len(sets) < count:
        I3, I2, I1 = sorted(10.0 ** rng.uniform(-6.0, 6.0, 3))
        K1, K3, a1, a2 = 10.0 ** rng.uniform(-9.0, 9.0, 4)
        doc = {"I1": I1, "I2": I2, "I3": I3, "K1": K1, "K3": K3,
               "a1": a1 * rng.choice([-1.0, 1.0]), "a2": a2 * rng.choice([-1.0, 0.0, 1.0])}
        doc = {k: float(v) for k, v in doc.items()}
        try:
            validate(**doc)
        except ValueError:
            continue
        sets.append(doc)
    return sets


def factor_sets() -> list[SuslovParams]:
    """The sets Ka's factor is checked on: admissible_draws(0, 40), and
    a1 = a2 = 1e7, 1e8 and 1e9 on the reference moments, where Ka's 2x2 block
    rounds to nearly singular and, at 1e9, to [[1e18, 1e18], [1e18, 1e18]]."""
    return [validate(**doc) for doc in admissible_draws(0, 40)] + [
        validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=a, a2=a) for a in (1e7, 1e8, 1e9)
    ]


def exact_energy(params: SuslovParams, omega: np.ndarray) -> Fraction:
    """(1/2) <Ka Omega, Omega> in Fractions of the doubles params and omega
    hold, with Ka's entries formed exactly rather than rounded."""
    l1, l2, l3 = map(Fraction, params.lam)
    a1, a2, K3 = Fraction(params.a1), Fraction(params.a2), Fraction(params.K3)
    w1, w2, w3 = (Fraction(float(x)) for x in omega)
    return ((l1 + a1 * a1 * K3) * w1 * w1 + 2 * a1 * a2 * K3 * w1 * w2
            + (l2 + a2 * a2 * K3) * w2 * w2 + l3 * w3 * w3) / 2


def divergence_covector(params: SuslovParams) -> tuple[float, float, float]:
    """Coefficients c of the linear divergence, div X = <c, Omega>, in
    closed form:

        c = (lam3 K3 / det Ka) (-a2 lam1, a1 lam2, a1 a2 (lam1 - lam2)).
    """
    l1, l2, l3 = params.lam
    a1, a2 = params.a1, params.a2
    pref = l3 * params.K3 / matrices(params).detKa
    return (pref * -a2 * l1, pref * a1 * l2, pref * a1 * a2 * (l1 - l2))


def divergence_closed_form(params: SuslovParams, omega: np.ndarray) -> np.ndarray:
    """<c, Omega> with the closed-form covector c; identically zero exactly
    when a1 = a2 = 0."""
    omega = np.asarray(omega, dtype=float)
    c1, c2, c3 = divergence_covector(params)
    return c1 * omega[..., 0] + c2 * omega[..., 1] + c3 * omega[..., 2]


@pytest.fixture
def pstar() -> SuslovParams:
    # reference instance: I = (3, 2, 1), K1 = 0.5, K3 = 1, lambda = (3.5, 2.5, 1)
    return validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=1.0, a2=0.0)


@pytest.fixture
def pstar_full() -> SuslovParams:
    return validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=1.0, a2=1.0)


@pytest.fixture
def pstar_a1zero() -> SuslovParams:
    return validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=0.0, a2=1.0)


@pytest.fixture
def euler() -> SuslovParams:
    return validate(3.0, 2.0, 1.0, 0.5, 1.0, a1=0.0, a2=0.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260822)

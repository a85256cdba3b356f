"""Time integration and flow-map machinery: dense scalar integration,
a vectorized batch integrator for Monte Carlo work, variational equations
for flow-map Jacobians, attitude reconstruction, attractor detection, and
measure transport checks.
"""
from __future__ import annotations

import importlib.util
import math
from bisect import bisect_left
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .core import SuslovParams, _energy, _vector_field, matrices, vector_field
from .equilibria import equilibrium_directions, scale_to_ellipsoid
from .fields import (
    Array, DensitySpec, VectorFieldSpec, _check_positive, _check_sample_count, _row_norms,
    _trace, fd_jacobian, seeded_generator,
)


class IntegrationError(RuntimeError):
    """Raised when the integrator cannot continue (step-size underflow or
    step budget exhausted)."""

    def __init__(self, message: str, t_last: float | None = None):
        super().__init__(message)
        self.t_last = t_last


def _load_dop853_tableau():
    """scipy's DOP853 tableau, the module scipy/integrate/_ivp/
    dop853_coefficients.py executed from its own file. That file imports only
    numpy, and finding it runs no scipy code, so importing this module loads
    neither scipy nor scipy.integrate. The module is registered under no name."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("suslovkit needs scipy's DOP853 tableau, but scipy is not installed")
    path = Path(scipy.origin).parent / "integrate" / "_ivp" / "dop853_coefficients.py"
    if not path.is_file():
        # imported here only: it takes longer to import than the tableau
        from importlib.metadata import version

        raise ImportError(f"scipy's DOP853 tableau is not at {path} (scipy {version('scipy')})")
    spec = importlib.util.spec_from_file_location("suslovkit.flow._dop853", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_dop853 = _load_dop853_tableau()

#: scipy's DOP853 step-size control (scipy.integrate._ivp.rk): the safety
#: factor, the bounds on the factor by which one step may change the next, and
#: the exponent -1/8 of its order-7 error estimator
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0
#: the smallest positive double, below every error norm's nonzero denominator
_SMALLEST = math.ulp(0.0)
#: DOP853's stages 1 to 12 as (node c, bound dot of its row of A); the 12th
#: is at the step's end, its row is the weights B, and its state is y_new
_STAGES = [(float(_dop853.C[s]), _dop853.A[s, :s].dot) for s in range(1, _dop853.N_STAGES)]
_STAGES.append((1.0, _dop853.B.dot))
#: the products of the 5th- and 3rd-order error weights with the stages
_E5_DOT, _E3_DOT = _dop853.E5.dot, _dop853.E3.dot
#: accepted-or-rejected step budget of _dop853_steps before it gives up, and
#: the share of it, and least attempts, after which a run projects its total
#: (fewer would mostly time the first steps' growth from the initial step)
_MAX_STEPS = 1_000_000
_PROGRESS_SHARE, _PROGRESS_MIN = 0.01, 100
#: a batch's tile of columns holds about this many bytes of its 13 stage
#: rows, 13 d 8 per column (2520 columns at d = 4), so that they stay in a
#: core's 2 MiB L2 cache through an attempt
_TILE_BYTES = 1 << 20
#: relative and absolute tolerances of the variational, Liouville and
#: attitude integrations
_TOL, _ATOL = 1e-10, 1e-12


class _Step(NamedTuple):
    """One accepted step of _dop853_steps. y_new is the step's own end state,
    which its interpolant ends at; y is the state the next step starts from,
    project(y_new) when a project hook is given. y_old, y_new and y are lists
    of floats for one state and arrays for a batch. K holds the 13 stage
    rates in the loop's buffer, for a batch a list of its tiles' buffers,
    which the next step overwrites."""

    t_old: float
    t: float
    y_old: list | Array
    y_new: list | Array
    K: Array
    y: list | Array


class _FloatLeaves(NamedTuple):
    """The one-state leaves for a state of d floats (see _float_leaves)."""

    advance: Callable[[list, Array, float], list]
    error_scale_for: Callable[[float, float], Callable[[list, list], Array]]
    interpolate: Callable[[tuple, list, list], list]


#: the one-state leaves by state dimension d, each built at its first use
_FLOAT_LEAVES: dict[int, _FloatLeaves] = {}


def _float_leaves(d: int) -> _FloatLeaves:
    """The one-state leaves of _dop853_steps and DenseOutput._at for a state
    of d floats, each sum written out term by term, component by component.

    On Python 3.11 a comprehension over the components is a function call,
    which at d = 3 costs more than the sums it runs, so the leaves are built
    from source for each d, as dataclasses builds __init__, once, at first
    use:
    - advance(y, dy, h): the list y + dy h, for a list y and an array dy;
    - error_scale_for(atol, tol): the leaf that maps the lists y and y_new to
      the array atol + max(|y|, |y_new|) tol, whose max keeps np.maximum's
      NaN (u if u > v or u != u else v);
    - interpolate(P, y, F): the list y + (P[0] F[0] + ... + P[6] F[6]) for the
      7 basis values P, a list y and the step's (7, d) coefficients F as one
      list by rows.
    Each component is formed by the float operations of the array form the
    leaf stands for (the batch leaves of _dop853_steps, the sum of
    _interpolate), in the same order, so it has the same bits.
    """
    leaves = _FLOAT_LEAVES.get(d)
    if leaves is None:
        ys, zs, dys = (" ".join(f"{v}{i}," for i in range(d)) for v in ("y", "z", "d"))
        n_p = _dop853.INTERPOLATOR_POWER
        fs = " ".join(f"f{j}," for j in range(n_p * d))
        ps = " ".join(f"p{j}," for j in range(n_p))
        advanced = ", ".join(f"y{i} + d{i} * h" for i in range(d))
        abs_yz = "; ".join(f"u{i} = abs(y{i}); v{i} = abs(z{i})" for i in range(d))
        scales = ", ".join(f"atol + (u{i} if u{i} > v{i} or u{i} != u{i} else v{i}) * tol"
                           for i in range(d))
        sums = ", ".join(
            f"y{i} + (" + " + ".join(f"p{j} * f{j * d + i}" for j in range(n_p)) + ")"
            for i in range(d)
        )
        source = (
            f"def advance(y, dy, h):\n"
            f"    {ys} = y\n"
            f"    {dys} = dy.tolist()\n"
            f"    return [{advanced}]\n"
            f"def error_scale_for(atol, tol):\n"
            f"    def error_scale(y, y_new):\n"
            f"        {ys} = y\n"
            f"        {zs} = y_new\n"
            f"        {abs_yz}\n"
            f"        return array([{scales}])\n"
            f"    return error_scale\n"
            f"def interpolate(P, y, F):\n"
            f"    {ps} = P\n"
            f"    {ys} = y\n"
            f"    {fs} = F\n"
            f"    return [{sums}]\n"
        )
        namespace = {"array": np.array}
        exec(source, namespace)
        leaves = _FLOAT_LEAVES[d] = _FloatLeaves(*(namespace[f] for f in _FloatLeaves._fields))
    return leaves


def _sq_norms(x: Array) -> Array:
    """Sum of squares down axis 0, per column of a batch (d, n). For one state
    (d,), and for a batch of one, it is the x.dot(x) that np.linalg.norm
    takes, bit for bit: each column is one (1, d) @ (d, 1) product."""
    xt = x.T
    return (xt[..., None, :] @ xt[..., :, None])[..., 0, 0]


def _initial_step(rhs, t0, y0, f0, t1, tol, atol) -> float:
    """scipy's initial step (select_initial_step; Hairer, Norsett & Wanner,
    Solving ODEs I, II.4) for an error estimator of order 7. A batch (d, n)
    takes the smallest step over its columns; a column whose norms are not
    finite bids the whole interval, so it cannot make the step NaN."""
    interval = abs(t1 - t0)
    direction = 1.0 if t1 > t0 else -1.0
    scale = atol + np.abs(y0) * tol
    root_d = len(y0) ** 0.5
    d0 = np.sqrt(_sq_norms(y0 / scale)) / root_d
    d1 = np.sqrt(_sq_norms(f0 / scale)) / root_d
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.fmin(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), interval)
        f1 = rhs(t0 + h0 * direction, y0 + h0 * direction * f0)
        d2 = np.sqrt(_sq_norms((f1 - f0) / scale)) / root_d / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    h1 = np.min(np.maximum(1e-6, h0 * 1e-3)[flat], initial=np.inf)
    # h1 falls as max(d1, d2) grows, so the smallest h1 comes from the largest
    d12 = np.fmax.reduce(np.maximum(d1, d2)[~flat], initial=0.0)
    if d12 > 0.0:
        h1 = min(h1, (0.01 / d12) ** (1 / 8))
    return float(min(np.min(100 * h0), h1, interval))


def _error_norm(K2: Array, h: float, scale: Array) -> float:
    """scipy's DOP853 error norm, from the 5th- and 3rd-order error estimates
    that weigh the stage rates K2 (13, size of scale), of one state (d,), or
    the largest over the columns of a batch (d, n); a NaN column is the
    largest.

    After the two products with K2, one state runs on Python floats and is
    scipy's norm bit for bit: x.dot(x) is the sum np.linalg.norm takes, sqrt
    is correctly rounded in math as in numpy, and a float's ** 2 calls the
    same pow as the numpy scalar's ** 2 in scipy. E5 and E3 stay two
    (13,) @ (13, d) products, as in scipy: one (2, 13) product is a matrix
    product that BLAS sums in another order. A batch's ** 2 acts on an array,
    which multiplies instead of calling pow, so a batch of one can differ
    from one state in the last bit of a square."""
    err5, err3 = _E5_DOT(K2), _E3_DOT(K2)
    # in both branches a state whose estimates both vanish has norm 0, not 0 / 0
    if scale.ndim == 1:
        err5 /= scale
        err3 /= scale
        err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
        err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
        denom = max(err5_norm_2 + 0.01 * err3_norm_2, _SMALLEST)
        return abs(h) * err5_norm_2 / math.sqrt(denom * len(scale))
    # a batch's estimates (d n,) take the scale's shape (d, n)
    err5 = err5.reshape(scale.shape) / scale
    err3 = err3.reshape(scale.shape) / scale
    err5_norm_2 = np.sqrt(_sq_norms(err5)) ** 2
    err3_norm_2 = np.sqrt(_sq_norms(err3)) ** 2
    denom = np.maximum(err5_norm_2 + 0.01 * err3_norm_2, _SMALLEST)
    return float(np.max(abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))))


def _dop853_steps(
    rhs: Callable, t0: float, y0: Array, t1: float,
    tol: float, atol: float, what: str,
    project: Optional[Callable[[Array], Array]] = None,
    stats: Optional[dict] = None,
) -> Iterator[_Step]:
    """Step DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5 and II.10)
    from t0 to t1, yielding each accepted step as a _Step.

    The state y0 is one state (d,) or a batch (d, n) of columns that share
    every step; rhs maps a time and a state to its rate (see below). The
    tableau is scipy's (scipy.integrate._ivp.dop853_coefficients), and so are
    the initial step, the minimum step and the step-size control, so on one
    state the steps are scipy's DOP853 steps bit for bit. A batch's error
    norm is that of its worst column; a NaN or infinite norm rejects the step
    and shrinks it by _MIN_FACTOR. The one step shortened is the last, to
    land on t1; a time inside the run is read off its step's interpolant
    (_dense_coefficients), not stepped to. After each accepted step the
    state is replaced by project(y_new) when project is given, and its rate
    re-evaluated. stats, when given, holds n_accepted, n_rejected,
    nfev (every rhs call on the whole state) and the smallest and largest
    accepted |step|, h_min and h_max, as of the last yield, or of the end of
    the run however it ends. A step below 10 spacings of t or more than
    _MAX_STEPS attempts raise IntegrationError labelled with what, carrying
    the last accepted time, and so does a run whose attempts, projected at an
    accepted step as attempts (t1 - t0) / (t - t0), exceed _MAX_STEPS, once
    it has made _PROGRESS_SHARE of them and _PROGRESS_MIN. A t1 that is not
    finite, or a tol or atol that is not finite and positive, raises
    ValueError before any step. A t1 equal to t0 then yields nothing and
    calls rhs never.

    One loop body serves both shapes; its leaves, picked once by y0.ndim,
    each round as scipy does, and each stage is rhs at the stage state
    advance(y, dy, h) = y + h dy, the 12th stage's state being y_new. One
    state runs on Python floats: y, the stage states and y_new are lists,
    rhs takes a list and returns d floats, and project takes and returns an
    array. Its leaves advance and error_scale come from _float_leaves(d),
    written out term by term for the state's d: on Python 3.11 a
    comprehension over the components is one more function call, and the
    leaves run 13 times an attempt. Each component is still the same few
    float operations in the same order, so the steps keep scipy's bits.
    Stage sums stay np.dot of a row of A and the earlier stages, scipy's
    gemv, whose fused multiply-adds a Python sum would not repeat; float *
    and + round as numpy's elementwise ones, and the scale keeps
    np.maximum's NaN. Times, steps and factors are Python floats, whose **
    calls scipy's pow, and so is the error norm.

    A batch runs each attempt tile by tile, a tile being a range of columns
    whose 13 stage rows take about _TILE_BYTES: its 12 stages, y_new and
    error norm in its own buffers, whose rows then stay in L2 instead of
    streaming from L3. The step takes the largest tile norm. Each element of
    a tile gets the products and sums it gets in the whole batch, in the
    same order, so the bits do not depend on the tile width: for that the
    stage sums' gemv needs tiles a multiple of 4 columns wide, the last
    taking in a remainder below 4. A batch's rhs maps a time and a (d, w)
    state to its rate; its third argument, out, is the stage's row, which
    it may write the rate into and return. The first rate and the initial
    step's probe are taken on the whole batch, and nfev counts a tiled
    stage once.
    """
    if not np.isfinite(t1):
        raise ValueError(f"{what}: end time must be finite, got {t1}")
    for name, value in (("tol", tol), ("atol", atol)):
        _check_positive(value, f"{what}: {name}")
    n_accepted = n_rejected = nfev = 0
    h_min, h_max = math.inf, 0.0

    def flush():
        # item by item: a dict's update by keywords takes three times as long
        if stats is not None:
            stats["n_accepted"], stats["n_rejected"], stats["nfev"] = n_accepted, n_rejected, nfev
            stats["h_min"], stats["h_max"] = h_min, h_max

    flush()
    if t1 == t0:
        return
    direction = 1.0 if t1 > t0 else -1.0
    toward = direction * math.inf
    n_stages = _dop853.N_STAGES
    n_rows = n_stages + 1
    # the leaves: the state y + h dy, atol + max(|y|, |y_new|) tol, a
    # stage's rate into its row, and the one state the tiles' states join into
    if y0.ndim == 1:
        floats, array = np.ndarray.tolist, np.array
        leaves = _float_leaves(len(y0))
        advance, error_scale = leaves.advance, leaves.error_scale_for(atol, tol)
        rate_into = lambda row: rhs
        spans = [slice(None)]
        join = lambda parts: parts[0][0]
    else:
        floats = array = np.asarray  # the array itself
        # each in place on its fresh first operand: the bits of y + dy h and
        # of atol + np.maximum(|y|, |y_new|) tol, with fewer temporaries

        def advance(y, dy, h):
            dy = dy.reshape(y.shape)
            dy *= h
            dy += y
            return dy

        def error_scale(y, y_new):
            scale = np.abs(y)
            np.maximum(scale, np.abs(y_new), out=scale)
            scale *= tol
            scale += atol
            return scale

        rate_into = lambda row: lambda t, z: rhs(t, z, row)
        # OpenBLAS's gemv forms a row's results 4 at a time and its last few
        # one by one, so the tiles are a multiple of 4 columns wide and the
        # last takes in a remainder below 4: each element then takes the same
        # path in its tile as in the whole batch's row, and keeps its bits
        n = y0.shape[1]
        width = max(4, _TILE_BYTES // (n_rows * y0.shape[0] * y0.itemsize) // 4 * 4)
        starts = list(range(0, n, width))
        if len(starts) > 1 and n - starts[-1] < 4:
            starts.pop()
        spans = [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]
        join = lambda parts: np.concatenate([part for part, _, _ in parts], axis=1)
    # each tile's 13 stage rates (K[0] the rate at the state the step starts
    # from), the same as rows for the combinations, and its stages as (node,
    # bound dot of the row of A, earlier stages, own row, rate into it)
    Ks, tiles = [], []
    for cols in spans:
        K = np.empty((n_rows,) + y0[..., cols].shape)
        K2 = K.reshape(n_rows, -1)
        Ks.append(K)
        tiles.append((K2, [(c, dot, K2[:s], K[s], rate_into(K[s]))
                           for s, (c, dot) in enumerate(_STAGES, 1)]))

    def split(y):
        # each tile's state with its rows and stages, as the loop takes them
        return [(y if len(tiles) == 1 else y[:, cols], K2, stages)
                for cols, (K2, stages) in zip(spans, tiles)]

    # the stage rates a _Step carries: one state's buffer, or a batch's tiles
    K_step = Ks[0] if y0.ndim == 1 else Ks
    progress_after = max(_PROGRESS_SHARE * _MAX_STEPS, _PROGRESS_MIN)
    try:
        f0 = array(rhs(t0, floats(y0)))
        for cols, K in zip(spans, Ks):
            K[0] = f0[..., cols]
        h_abs = _initial_step(lambda t, z: rhs(t, floats(z)), t0, y0, f0, t1, tol, atol)
        nfev = 2  # K[0] and the initial step's probe
        t, y = float(t0), floats(y0)
        parts = split(y)
        attempts = 0
        while direction * (t - t1) < 0.0:
            if attempts >= progress_after:
                projected = attempts * (t1 - t0) / (t - t0)
                if projected > _MAX_STEPS:
                    raise IntegrationError(
                        f"{what} would need about {projected:.3g} steps to reach "
                        f"t = {t1:.6g}, past the budget of {_MAX_STEPS}: {attempts} "
                        f"steps reached t = {t:.6g}", t_last=t,
                    )
            min_step = 10 * abs(math.nextafter(t, toward) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise IntegrationError(
                        f"{what} failed at t = {t:.6g}: required step size is less "
                        "than spacing between numbers", t_last=t,
                    )
                if attempts == _MAX_STEPS:
                    raise IntegrationError(
                        f"{what} exceeded {_MAX_STEPS} steps at t = {t:.6g}", t_last=t
                    )
                attempts += 1
                t_new = t + h_abs * direction
                if direction * (t_new - t1) > 0.0:
                    t_new = t1
                h = t_new - t
                # tile by tile, each stage state is y + h sum_j a_j K[j],
                # rounded as scipy rounds it (the row's dot with the stages is
                # scipy's gemv); the step's norm is the largest tile norm, a
                # NaN as np.max takes it, from -1, below every norm
                ends, error_norm = [], -1.0
                for y_part, K2, stages in parts:
                    for c, dot, K_before, K_s, rate in stages:
                        z = advance(y_part, dot(K_before), h)
                        K_s[...] = rate(t + c * h, z)
                    ends.append((z, K2, stages))
                    # Python floats from here on: the same doubles as numpy scalars
                    norm = _error_norm(K2, h, error_scale(y_part, z))
                    if norm > error_norm or norm != norm:
                        error_norm = norm
                nfev += n_stages
                if error_norm < 1:
                    if error_norm == 0:
                        factor = _MAX_FACTOR
                    else:
                        factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                    if rejected:
                        factor = min(1, factor)
                    h_abs = abs(h) * factor
                    break
                if math.isfinite(error_norm):
                    factor = max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                else:
                    factor = _MIN_FACTOR
                h_abs = abs(h) * factor
                rejected = True
                n_rejected += 1
            n_accepted += 1
            # two comparisons: min and max are calls, eight times as long
            taken = abs(h)
            if taken < h_min:
                h_min = taken
            if taken > h_max:
                h_max = taken
            y_new = y_next = join(ends)
            if project is not None:
                y_next = floats(np.asarray(project(array(y_new)), dtype=float))
                ends = split(y_next)
            flush()
            yield _Step(t, t_new, y, y_new, K_step, y_next)
            t, y, parts = t_new, y_next, ends
            if project is None:
                for K in Ks:
                    K[0] = K[-1]
            else:
                for K, (y_part, _, _) in zip(Ks, parts):
                    K[0] = rhs(t, y_part)
                nfev += 1
    finally:
        flush()


def _basis(theta):
    """Interpolation basis p_j(theta), j = 0..6, of the DOP853 dense output:
    theta, theta(1 - theta), theta^2(1 - theta), ... by alternate factors,
    multiplied in the same order for a float and for an array."""
    u = 1.0 - theta
    p1 = theta * u
    p2 = p1 * theta
    p3 = p2 * u
    p4 = p3 * theta
    p5 = p4 * u
    return theta, p1, p2, p3, p4, p5, p5 * theta


def _interpolate(theta, y_old: Array, F: Array) -> Array:
    """y_old + (p_0 F_0 + ... + p_6 F_6), (m, d), for m steps' start states
    y_old (m, d) and coefficients F (m, 7, d), at the fractions theta of the
    steps, one float or (m, 1); elementwise, so a float theta and the same
    value in an array give the same bits."""
    P = _basis(theta)
    total = P[0] * F[:, 0]
    for j in range(1, len(P)):
        total = total + P[j] * F[:, j]
    return y_old + total


class DenseOutput:
    """Piecewise DOP853 interpolant over the accepted steps of one run.

    On the step from t_old to t_old + h it gives
    y_old + (p_0 F_0 + p_1 F_1 + ... + p_6 F_6), theta = (t - t_old) / h,
    with the basis p_j(theta) of _basis and the step's (7, d) coefficients F;
    this is the polynomial scipy's DOP853 builds for each step's dense
    output, written as one sum (_interpolate). Both branches form it from
    elementwise products and sums in that order, so a scalar time and the same time in
    an array give the same bits. The call contract is that of scipy's
    piecewise dense solution: a scalar t gives shape (d,) and an array of m
    times gives (d, m); at a step boundary the step that ends there in the
    direction of integration is used, and beyond either end the end step
    extrapolates. The steps stay in run order, and a time t is looked up in
    signed time: s t among the increasing breaks s t_0, s t_1, ..., with
    s = +-1 the direction of the run.
    """

    def __init__(self, t_old: Array, t_new: Array, y_old: Array, F: Array):
        self._sign = 1.0 if t_new[0] > t_old[0] else -1.0
        self._breaks = self._sign * np.concatenate([t_old[:1], t_new])
        self._t_old, self._h, self._y_old, self._F = t_old, t_new - t_old, y_old, F
        # per step t_old, h, y_old and the (7, d) coefficients by rows, as
        # Python floats for _at, the breaks as a list, and the sum written
        # out for d; built on first use
        self._rows = self._breaks_list = self._interpolate = None

    def _at(self, t: float) -> list:
        """The interpolant at one float time t as d floats: the sum of
        _interpolate, on Python floats, by the interpolate leaf of
        _float_leaves, which writes it out term by term for d (a
        comprehension over the components is a call per lookup on Python
        3.11) and rounds every component as the array branch does."""
        if self._rows is None:
            self._breaks_list = self._breaks.tolist()
            self._rows = list(zip(
                self._t_old.tolist(), self._h.tolist(), self._y_old.tolist(),
                self._F.reshape(len(self._h), -1).tolist(),
            ))
            self._interpolate = _float_leaves(self._y_old.shape[1]).interpolate
        # searching breaks[1:n] clamps k to the first and last step
        k = bisect_left(self._breaks_list, self._sign * t, 1, len(self._rows)) - 1
        t_old, h, y_old, F = self._rows[k]
        return self._interpolate(_basis((t - t_old) / h), y_old, F)

    def __call__(self, t):
        if type(t) is float or np.ndim(t) == 0:
            return np.array(self._at(float(t)))
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self._breaks, self._sign * t) - 1, 0, self._h.size - 1)
        theta = (t - self._t_old[k]) / self._h[k]
        return _interpolate(theta[:, None], self._y_old[k], self._F[k]).T


def _dense_coefficients(rhs, t_old, t_new, y_old, y_new, K) -> Array:
    """The coefficients F (m, 7, d) of DOP853's dense output (Hairer,
    Norsett & Wanner, Solving ODEs I, II.6), those scipy's per-step dense
    output uses, for m steps from t_old to t_new (m,), from y_old to y_new
    (m, d), with stage rates K (m, 13, d): a scalar run's accepted steps, or
    one batch step's columns. The three extra stages depend only on their
    own step's stages, so each is one rhs call, times (m,) and states (m, d)
    to rates (m, d)."""
    h = t_new - t_old
    hc = h[:, None]
    n_stages = _dop853.N_STAGES + 1
    Kx = np.empty((len(h), _dop853.N_STAGES_EXTENDED, y_old.shape[1]))
    Kx[:, :n_stages] = K
    for s in range(n_stages, _dop853.N_STAGES_EXTENDED):
        dy = (_dop853.A[s, :s] @ Kx[:, :s]) * hc
        Kx[:, s] = rhs(t_old + _dop853.C[s] * h, y_old + dy)
    delta = y_new - y_old
    F = np.empty((len(h), _dop853.INTERPOLATOR_POWER, y_old.shape[1]))
    F[:, 0] = delta
    F[:, 1] = hc * K[:, 0] - delta
    F[:, 2] = 2.0 * delta - hc * (K[:, -1] + K[:, 0])
    F[:, 3:] = h[:, None, None] * (_dop853.D @ Kx)
    return F


def _dop853_interpolant(rhs: Callable[[Array, Array], Array], steps: list) -> DenseOutput:
    """The DenseOutput of every step, given as (t_old, t, y_old, y_new, K)
    from the _Step that _dop853_steps yields, built after stepping."""
    t_old, t_new, y_old, y_new, K = (np.array(c) for c in zip(*steps))
    return DenseOutput(t_old, t_new, y_old, _dense_coefficients(rhs, t_old, t_new, y_old, y_new, K))


def _dense_run(rhs, dense_rhs, t0, y0, t1, tol, atol, what, project=None):
    """One state's _dop853_steps run with the bookkeeping of every scalar run
    that samples its interpolant: the times and states from (t0, y0) on,
    each state project(y_new) when project is given; the interpolant of
    every step (_dop853_interpolant, three batched dense_rhs calls after
    stepping), ending each step at its unprojected state; and the stats,
    whose nfev also counts those 3 stages of each accepted step."""
    ts, states, steps, stats = [t0], [y0.copy()], [], {}
    for step in _dop853_steps(rhs, t0, y0, t1, tol, atol, what, project=project, stats=stats):
        steps.append((step.t_old, step.t, step.y_old, step.y_new, step.K.copy()))
        ts.append(step.t)
        states.append(step.y)
    dense = _dop853_interpolant(dense_rhs, steps)
    stats["nfev"] += 3 * stats["n_accepted"]
    return ts, states, dense, stats


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution curve with integrator diagnostics.

    times are strictly increasing (backward runs are stored reversed).
    dense, when present, is the DOP853 interpolant of the whole run
    (DenseOutput: t gives (d,), an array of m times gives (d, m)).
    """

    times: Array
    states: Array
    energy_drift: Optional[float]
    integrator_stats: dict
    dense: Optional[DenseOutput] = None

    def __post_init__(self) -> None:
        if not np.all(np.diff(self.times) > 0.0):
            raise ValueError("trajectory times must be strictly increasing")
        if not np.isfinite(self.states).all():
            raise ValueError("trajectory states must be finite")


@dataclass(frozen=True)
class AttitudeTrajectory:
    """Reconstructed carrier attitude (unit quaternions, scalar first) and
    rotor angle along a trajectory. integrator_stats reports the attitude
    integration as Trajectory.integrator_stats reports its own."""

    times: Array
    rotations: Array
    theta: Array
    theta_dot: Array
    integrator_stats: dict


@dataclass(frozen=True)
class TransportReport:
    """Monte Carlo comparison of mu(A) and mu(phi_t(A)) for one box A."""

    box: Array
    t: float
    mu_A: float
    mu_phi_t_A: float
    relative_error: float
    sample_count: dict
    standard_error_estimate: float
    se_mu_A: float
    se_transport: float
    seed: int

    @property
    def within_3se(self) -> bool:
        return abs(self.mu_phi_t_A - self.mu_A) <= 3.0 * self.standard_error_estimate

    def to_dict(self) -> dict:
        return {**asdict(self), "box": self.box.tolist(), "within_3se": self.within_3se}


def _checked_start(field: VectorFieldSpec, x0: Array) -> Array:
    """x0 as a float array, checked to be one finite state of the field."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (field.dim,):
        raise ValueError(f"x0 must have shape ({field.dim},)")
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {x0.tolist()}")
    return x0


def integrate(
    field: VectorFieldSpec,
    x0: Array,
    T: float,
    tol: float = 1e-10,
    atol: float = 1e-12,
    record_times: Optional[Sequence[float]] = None,
    energy_fn: Optional[Callable[[Array], Array]] = None,
    project: Optional[Callable[[Array], Array]] = None,
) -> Trajectory:
    """Integrate the field from x0 over [0, T] (T may be negative).

    Adaptive DOP853 stepping by _dense_run, which builds the dense output
    and counts integrator_stats; samples are the accepted step points unless
    record_times supplies an explicit grid, which is read off the dense
    output. An optional project hook is applied to the state after every
    accepted step (used for energy re-projection on long portrait runs);
    projection is a flagged correction, never silent default behavior.
    integrator_stats gives n_accepted, n_rejected, nfev and the smallest and
    largest accepted |step|, h_min and h_max. The steps call field.point.
    An x0 that is not finite is a ValueError.
    """
    x0 = _checked_start(field, x0)
    if T == 0.0:
        raise ValueError("integration horizon T must be nonzero")
    if record_times is not None:
        grid = np.asarray(record_times, dtype=float)
        lo, hi = min(0.0, T), max(0.0, T)
        # the bounds are asserted, not their breach, so a NaN time fails
        # them; a T that is not finite is left to the stepper, which names it
        if np.isfinite(T) and not np.all((grid >= lo - 1e-12) & (grid <= hi + 1e-12)):
            raise ValueError("record_times must lie within the integration span")

    ts, states, dense, stats = _dense_run(
        lambda t, y: field.point(y), lambda t, y: field.eval(y), 0.0, x0, T, tol, atol,
        "integration", project=project,
    )

    if record_times is not None:
        t_out = np.unique(np.concatenate([[0.0, T], grid]))
        x_out = dense(t_out).T
    else:
        t_out = np.array(ts)
        x_out = np.array(states)
        if T < 0.0:
            t_out = t_out[::-1].copy()
            x_out = x_out[::-1].copy()

    drift = None
    if energy_fn is not None:
        e0 = float(energy_fn(x0))
        e = np.asarray(energy_fn(x_out), dtype=float)
        drift = float(np.max(np.abs(e - e0)) / max(abs(e0), np.finfo(float).tiny))
    return Trajectory(
        times=t_out, states=x_out, energy_drift=drift,
        integrator_stats=stats, dense=dense,
    )


def simulate(
    params: SuslovParams,
    omega0: Array,
    T: float,
    tol: float = 1e-10,
    atol: float = 1e-12,
    record_times: Optional[Sequence[float]] = None,
    project_energy: bool = False,
) -> Trajectory:
    """Integrate the reduced system with energy-drift diagnostics attached.
    project_energy rescales the state onto the initial energy ellipsoid after
    each step; an omega0 of energy 0 has none, which is a ValueError before
    any step."""
    mats = matrices(params)
    field = _vector_field(mats)
    e_fn = lambda w: _energy(mats.L, w)
    project = None
    if project_energy:
        eta0 = float(e_fn(omega0))
        if eta0 == 0.0:
            raise ValueError(
                f"omega0 = {np.asarray(omega0, dtype=float).tolist()} has energy 0, "
                "which cannot be projected onto"
            )

        def project(w: Array) -> Array:
            return w * np.sqrt(eta0 / float(e_fn(w)))

    return integrate(
        field, omega0, T, tol=tol, atol=atol, record_times=record_times,
        energy_fn=e_fn, project=project,
    )


def integrate_batch(
    field: VectorFieldSpec,
    x0: Array,
    T: float,
    tol: float = 1e-8,
    atol: float = 1e-10,
    record_times: Sequence[float] = (),
    stats: Optional[dict] = None,
) -> tuple[Array, list[tuple[float, Array]]]:
    """Integrate a batch of initial states with one shared adaptive step.

    The DOP853 loop of integrate, run on all states at once: the error norm
    is that of the worst state, so the step honors the tolerance for every
    member of the batch, and a batch of one state takes integrate's steps
    unless the last bit of its error norm's square differs (see _error_norm).
    Each attempt runs on tiles of columns whose stage rows, about 1 MiB,
    stay in L2 (see _dop853_steps); the bits do not depend on the tile
    width. The states are kept column-major: field.eval takes a tile's stage
    state as a transposed view, and the rate it returns is copied into the
    stage's row. Each of record_times, in (0, T], is read off the DOP853
    interpolant of the accepted step that holds it, as integrate reads its
    record_times off its dense output; the steps are the same with or
    without them, and a batch of one state records integrate's dense(r).
    Returns the endpoint states, a copy of x0 when T = 0, and the recorded
    (time, states) snapshots. stats, when given, is filled as integrate's
    integrator_stats: n_accepted, n_rejected, nfev (each a call on the whole
    batch, the 3 dense-output stages of each step that holds a record time
    included) and the smallest and largest accepted |step|, h_min and h_max.
    x0 is a batch (n, field.dim); any other shape, one state
    (field.dim,) included, or a batch of no states, is a ValueError before
    any step.
    """
    Y = np.asarray(x0, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != field.dim:
        raise ValueError(f"x0 must have shape (n, {field.dim}), got {np.shape(x0)}")
    _check_sample_count(len(Y), "number of states")
    s = 1.0 if T > 0.0 else -1.0
    rec = np.asarray(sorted(record_times, key=lambda r: s * r), dtype=float)
    # the bounds are asserted, not their breach, so a NaN time fails them;
    # a T that is not finite is left to the stepper, which names it
    if np.isfinite(T) and not np.all((s * rec > 0.0) & (s * rec <= s * T)):
        raise ValueError("record_times must lie in (0, T]")

    # a (d, n) C-ordered state is the (n, d) column-major batch, transposed
    rhs = lambda t, z, out=None: field.eval(z.T).T  # the loop copies it into out
    Z = np.asfortranarray(Y).T
    recorded: list[tuple[float, Array]] = []
    i_rec = n_dense = 0
    try:
        for step in _dop853_steps(rhs, 0.0, Z, T, tol, atol, "batch integration", stats=stats):
            Z = step.y
            F = None
            while i_rec < rec.size and s * rec[i_rec] <= s * step.t:
                if F is None:
                    # the step's n columns as n stacked steps
                    ends = [np.full(len(Y), t) for t in (step.t_old, step.t)]
                    y_old = step.y_old.T
                    F = _dense_coefficients(lambda t, y: field.eval(y), *ends, y_old,
                                            step.y_new.T,
                                            np.concatenate(step.K, axis=-1).transpose(2, 0, 1))
                    n_dense += 1
                theta = (rec[i_rec] - step.t_old) / (step.t - step.t_old)
                recorded.append((rec[i_rec], _interpolate(theta, y_old, F)))
                i_rec += 1
            del step  # its start state need not stay alive through the next step
    finally:
        if n_dense and stats is not None:  # stats hold the loop's counts by now
            stats["nfev"] += 3 * n_dense
    return np.array(Z.T), recorded  # at T = 0, Z.T may be x0's memory


def flow_map_with_jacobian(
    field: VectorFieldSpec, x0: Array, t: float
) -> tuple[Array, Array]:
    """Endpoint phi_t(x0) and the flow-map Jacobian D phi_t(x0), computed
    jointly from the variational equations with D(0) = identity. An x0 that
    is not finite is a ValueError."""
    x0 = _checked_start(field, x0)
    if field.jac is None:
        raise ValueError("flow-map Jacobians require an analytic field Jacobian")
    dim = field.dim

    def rhs(s, z):
        # the field and its variational equations dD/dt = J(x) D, at the
        # state z = (x, D by rows) as a list
        y = np.array(z)
        x, D = y[:dim], y[dim:].reshape(dim, dim)
        return np.concatenate([field.eval(x), (field.jac(x) @ D).ravel()])

    y = np.concatenate([x0, np.eye(dim).ravel()])
    for step in _dop853_steps(rhs, 0.0, y, t, _TOL, _ATOL, "variational integration"):
        y = step.y
    y = np.array(y)
    return y[:dim], y[dim:].reshape(dim, dim)


#: Simpson nodes for the divergence quadrature of liouville_residual
_LIOUVILLE_QUAD_POINTS = 2001


def liouville_residual(params: SuslovParams, omega0: Array, t: float) -> dict:
    """Two independent routes to the volume growth log det D phi_t: the
    variational Jacobian versus quadrature of the divergence along the orbit.
    Their difference is the reported residual. The quadrature takes the
    divergence by central differences of the field's eval, not from its jac,
    which the variational route integrates: Liouville's formula holds for any
    J, so a trace of that same jac would agree with it even where it is
    wrong. Central differences are exact for the quadratic field up to
    rounding."""
    field = vector_field(params)
    _, D = flow_map_with_jacobian(field, omega0, t)
    sign, logdet = np.linalg.slogdet(D)
    # scipy's quadrature, kept apart from the integrator; importing it loads
    # scipy.integrate, which nothing else in the package needs
    from scipy.integrate import simpson

    traj = integrate(field, omega0, t, tol=_TOL, atol=_ATOL)
    ts = np.linspace(0.0, t, _LIOUVILLE_QUAD_POINTS)
    div_vals = _trace(fd_jacobian(field.eval, traj.dense(ts).T))
    quad = float(simpson(div_vals, x=ts))
    return {
        "det_sign": float(sign),
        "log_det_jacobian": float(logdet),
        "divergence_quadrature": quad,
        "residual": abs(float(logdet) - quad),
    }


def _hamilton(q, r) -> tuple:
    """The four components of the Hamilton product of scalar-first
    quaternions q and r, whose components are floats or arrays alike."""
    w1, x1, y1, z1 = q
    w2, x2, y2, z2 = r
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def _trajectory_matches_field(field: VectorFieldSpec, traj: Trajectory) -> bool:
    """Check that the dense trajectory solves this field (guards against
    reconstructing with mismatched parameters)."""
    t0, t1 = traj.times[0], traj.times[-1]
    span = t1 - t0
    delta = 1e-6 * max(span, 1.0)
    probes = t0 + span * np.array([0.21, 0.43, 0.58, 0.71, 0.88])
    for t in probes:
        x = traj.dense(t)
        fd = (traj.dense(t + delta) - traj.dense(t - delta)) / (2.0 * delta)
        X = field.eval(x)
        if np.linalg.norm(fd - X) > 1e-5 * (np.linalg.norm(X) + 1.0):
            return False
    return True


def reconstruct(params: SuslovParams, traj: Trajectory) -> AttitudeTrajectory:
    """Reconstruct the carrier attitude and rotor angle along a trajectory,

        dg/dt = g hat(Omega),   dtheta/dt = -<a, Omega>,

    integrating quaternions against the dense angular-velocity history,
    from the identity attitude and theta = 0 at the first stored time.
    q' = q (0, Omega) / 2 is linear in q with a pure-quaternion generator,
    so |q| is conserved and scaling q commutes with the flow and with every
    step; the steps keep q as integrated, and only the sampled rotations
    are scaled to unit norm.
    The rhs reads Omega from traj.dense and takes one time and state or a
    batch of them, so _dense_run steps it and builds the attitude's dense
    output, which samples it at traj.times, and its integrator_stats, as it
    does integrate's.
    """
    if traj.dense is None:
        raise ValueError("reconstruction needs a trajectory with dense output")
    if not _trajectory_matches_field(vector_field(params), traj):
        raise ValueError("trajectory is inconsistent with the supplied parameters")
    a1, a2 = params.a1, params.a2
    dense_omega = traj.dense

    def rhs(t, y):
        # t float, y a list of 5 floats -> a list of 5 floats, or t (n,),
        # y (n, 5) -> (n, 5). One state reads Omega from the dense output's
        # float lookup, whose products and sums round as the batch's
        # elementwise ones do, and so do _hamilton's on floats. The rate is
        # written out, as a comprehension is a call on Python 3.11
        one = type(y) is list
        (w0, w1, w2), q = (dense_omega._at(t), y[:4]) if one else (dense_omega(t), y.T[:4])
        r0, r1, r2, r3 = _hamilton(q, (0.0, w0, w1, w2))
        rate = [0.5 * r0, 0.5 * r1, 0.5 * r2, 0.5 * r3, -(a1 * w0 + a2 * w1 + w2)]
        return rate if one else np.array(rate).T

    t0, t1 = float(traj.times[0]), float(traj.times[-1])
    y0 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    _, _, dense_att, stats = _dense_run(rhs, rhs, t0, y0, t1, _TOL, _ATOL, "attitude integration")
    samples = dense_att(traj.times).T
    quats = samples[:, :4]
    quats = quats / _row_norms(quats)[:, None]
    omega_samples = traj.states
    theta_dot = -(
        a1 * omega_samples[:, 0] + a2 * omega_samples[:, 1] + omega_samples[:, 2]
    )
    return AttitudeTrajectory(
        times=traj.times.copy(),
        rotations=quats,
        theta=samples[:, 4],
        theta_dot=theta_dot,
        integrator_stats=stats,
    )


def sample_ellipsoid(params: SuslovParams, eta: float, count: int, seed: int) -> Array:
    """Seeded samples on the energy ellipsoid E = eta.

    Standard Gaussians g are normalized and mapped through L^{-T}, with L the
    closed-form factor Ka = L L^T that matrices states and energy reads, which
    lands on the ellipsoid to rounding at every admissible set; the
    counter-based generator keeps the draw reproducible and independent of
    any worker partitioning. count must be at least 1.
    """
    _check_sample_count(count, "count")
    _check_positive(eta, "eta")
    L = matrices(params).L
    rng = seeded_generator(seed)
    g = rng.standard_normal((count, 3))
    y = np.sqrt(2.0 * eta) * g / _row_norms(g)[:, None]
    return np.linalg.solve(L.T, y.T).T


@dataclass(frozen=True)
class CaptureReport:
    """Capture statistics of endpoint classification against candidate
    attractor points."""

    labels: tuple[str, ...]
    fractions: dict
    none_fraction: float
    assignments: Array
    initial_states: Array
    endpoint_distances: Array
    samples: int
    T: float
    capture_radius: float


def _candidate_distances(states: Array, points: Array, metric: str) -> Array:
    """Distances from each state to each candidate, shape (n_candidates, N).
    The "angular" one between unit vectors a and b is 2 atan2(|a - b|,
    |a + b|) (Kahan), accurate near 0 and pi where arccos(a . b) is not."""
    if metric == "euclidean":
        return _row_norms(states[None, :, :] - points[:, None, :])
    sn = (states / _row_norms(states)[:, None])[None, :, :]
    pn = (points / _row_norms(points)[:, None])[:, None, :]
    return 2.0 * np.arctan2(_row_norms(sn - pn), _row_norms(sn + pn))


#: detect_attractor judges the distance trend on the last _TAIL_FRACTION of
#: the run, at _TAIL_CHECKS + 1 evenly spaced checkpoints
_TAIL_FRACTION = 0.1
_TAIL_CHECKS = 8


def detect_attractor(
    field: VectorFieldSpec,
    candidates: Sequence[tuple[str, Array]],
    sampler: Callable[[int, int], Array],
    samples: int,
    T: float,
    capture_radius: float = 0.05,
    seed: int = 0,
    metric: str = "euclidean",
    tol: float = 1e-8,
    atol: float = 1e-10,
) -> CaptureReport:
    """Empirical attractor probe: integrate seeded samples to time T and
    classify endpoints against the candidate points.

    A sample counts as captured only if its endpoint lies within
    capture_radius of a candidate and the distance to that candidate keeps
    decreasing over the last _TAIL_FRACTION of the run.  Spiraling approach
    makes checkpoint distances oscillate, so the trend is judged on the
    oscillation envelope: the peak distance over the late checkpoints must
    not exceed the peak over the early ones by more than the integration
    tolerance tol, below which a converged sample's distance is noise.  Slow
    transit near a saddle shows a growing envelope and fails. candidates
    must hold at least one point, samples must be at least 1, T finite and
    nonzero, capture_radius finite and positive, and metric "euclidean" or
    "angular", or ValueError is raised before any draw.
    """
    _check_sample_count(samples, "samples")
    if not (np.isfinite(T) and T != 0.0):
        raise ValueError(f"T must be finite and nonzero, got {T}")
    _check_positive(capture_radius, "capture_radius")
    if metric not in ("euclidean", "angular"):
        raise ValueError("metric must be 'euclidean' or 'angular'")
    labels = tuple(lbl for lbl, _ in candidates)
    if not labels:
        raise ValueError("candidates must hold at least one (label, point) pair")
    points = np.array([np.asarray(p, dtype=float) for _, p in candidates])
    x0 = np.asarray(sampler(samples, seed), dtype=float)
    checks = np.linspace(T * (1.0 - _TAIL_FRACTION), T, _TAIL_CHECKS + 1)
    _, recorded = integrate_batch(
        field, x0, T, tol=tol, atol=atol, record_times=checks
    )
    dists = np.stack(
        [_candidate_distances(states, points, metric) for _, states in recorded],
        axis=1,
    )  # (n_candidates, n_checks+1, N)
    d_end = dists[:, -1, :]
    nearest = np.argmin(d_end, axis=0)
    N = x0.shape[0]
    idx = np.arange(N)
    within = d_end[nearest, idx] <= capture_radius
    tail = dists[nearest, :, idx]  # (N, n_checks+1)
    head_len = max(2, (tail.shape[1] + 1) // 3)
    early = np.max(tail[:, :head_len], axis=1)
    late = np.max(tail[:, -head_len:], axis=1)
    decreasing = late <= early * (1.0 + 1e-6) + tol
    captured = within & decreasing
    assignments = np.where(captured, nearest, -1)
    fractions = {
        lbl: float(np.mean(assignments == i)) for i, lbl in enumerate(labels)
    }
    return CaptureReport(
        labels=labels,
        fractions=fractions,
        none_fraction=float(np.mean(assignments < 0)),
        assignments=assignments,
        initial_states=x0,
        endpoint_distances=d_end[nearest, idx],
        samples=N,
        T=float(T),
        capture_radius=float(capture_radius),
    )


def suslov_attractor_probe(
    params: SuslovParams,
    eta: float = 1.0,
    samples: int = 500,
    T: float = 200.0,
    seed: int = 0,
    capture_radius: float = 0.05,
    tol: float = 1e-8,
    atol: float = 1e-10,
) -> CaptureReport:
    """Attractor probe for the reduced system: candidates are the six
    equilibria +-v_i scaled onto the energy ellipsoid, samples are drawn
    uniformly on the ellipsoid, and distances are angular."""
    dirs = equilibrium_directions(params)
    candidates = []
    for i, v in enumerate(dirs, start=1):
        for sign, tag in ((1, "+"), (-1, "-")):
            candidates.append(
                (f"{tag}v{i}", scale_to_ellipsoid(params, v, eta, sign=sign))
            )
    sampler = lambda count, sd: sample_ellipsoid(params, eta, count, sd)
    return detect_attractor(
        vector_field(params), candidates, sampler, samples, T,
        capture_radius=capture_radius, seed=seed, metric="angular",
        tol=tol, atol=atol,
    )


def _log_volume_flow(
    field: VectorFieldSpec, x0: Array, t: float, tol: float, atol: float
) -> tuple[Array, Array]:
    """Endpoints phi_t(x0) of a batch and their log-volumes log|det D phi_t(x0)|,
    from one batch integration of (x, l) with x' = X(x), l' = div X(x), l(0) = 0.
    It steps the batch as integrate_batch does, with the states as columns
    (dim + 1, n), and writes each stage's rate straight into its stage row."""
    dim = field.dim

    def rhs(t, z, out=None):
        x = z[:dim].T
        if out is None:
            out = np.empty(z.shape)
        # the divergence first, so a trace's Jacobians are freed before eval allocates
        out[dim] = field.div(x)
        out[:dim] = field.eval(x).T
        return out

    z = np.zeros((dim + 1, len(x0)))
    z[:dim] = x0.T
    for step in _dop853_steps(rhs, 0.0, z, t, tol, atol, "batch integration"):
        z = step.y
    return z[:dim].T, z[dim]


def _require_finite(values: Array, what: str) -> None:
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise ValueError(f"{what} is not finite at {bad} of {values.size} samples")


def _standard_error(values: Array, vol: float, what: str) -> float:
    """vol times the standard error of the mean of finite values, not all 0.
    The spread is taken in units of the largest |value|, so squares cannot
    overflow."""
    scale = float(np.max(np.abs(values)))
    se = vol * scale * float(np.std(values / scale, ddof=1)) / float(np.sqrt(values.size))
    _require_finite(np.asarray(se), f"standard error of {what}")
    return se


#: relative and absolute tolerances of measure_transport_check's integration
_TRANSPORT_TOL = 1e-8
_TRANSPORT_ATOL = 1e-10
#: at most this many of measure_transport_check's N samples are transported
_TRANSPORT_MAX_SAMPLES = 100_000


def measure_transport_check(
    field: VectorFieldSpec,
    density: DensitySpec,
    A: Array,
    t: float,
    N: int,
    seed: int,
) -> TransportReport:
    """Monte Carlo check of measure invariance mu(phi_t(A)) = mu(A).

    mu(A) is estimated directly from N uniform samples in the box A; the
    transported measure uses the change of variables
    mu(phi_t(A)) = integral over A of M(phi_t(x)) |det D phi_t(x)| dx on the
    first min(N, _TRANSPORT_MAX_SAMPLES) of them. The volume factor comes
    from Liouville's formula, log|det D phi_t(x)| = integral from 0 to t of
    div X(phi_s(x)) ds, integrated as one extra state beside x; the
    variational route of flow_map_with_jacobian is its test oracle. Every t
    takes this path: at t = 0 the integration takes no step, so x_end = x
    and l_end = 0. Needs N >= 2. Raises ValueError before any draw when t
    is not finite or the field's div is None (a spec with neither div nor
    jac; central differences are only an oracle);
    when a box bound, the density at the box samples, a transport weight,
    or a standard error is not finite; and when mu(A) is 0 or every
    transport weight is 0, as when M underflows on the box, since no
    relative error exists then.
    """
    A = np.asarray(A, dtype=float)
    dim = field.dim
    if A.shape != (dim, 2):
        raise ValueError(f"box must have shape ({dim}, 2)")
    if not np.isfinite(A).all():
        raise ValueError("box bounds must be finite")
    widths = A[:, 1] - A[:, 0]
    if np.any(widths <= 0.0):
        raise ValueError("box must have positive widths")
    if N < 2:
        raise ValueError(f"N must be at least 2 for a standard error, got {N}")
    if not np.isfinite(t):
        raise ValueError(f"measure transport: end time must be finite, got {t}")
    if field.div is None:
        raise ValueError("measure transport requires an analytic field divergence or Jacobian")
    n_t = min(N, _TRANSPORT_MAX_SAMPLES)
    vol = float(np.prod(widths))
    rng = seeded_generator(seed)
    pts = A[:, 0] + rng.uniform(size=(N, dim)) * widths
    m_vals = np.asarray(density.eval(pts), dtype=float)
    _require_finite(m_vals, "density M at the box samples")
    mu_A = vol * float(np.mean(m_vals))
    if mu_A == 0.0:
        raise ValueError(
            "density M gives mu(A) = 0 on the box samples (it vanishes or underflows "
            "there), so mu(phi_t(A)) has no relative error"
        )
    se_A = _standard_error(m_vals, vol, "mu(A)")
    x_end, log_vol = _log_volume_flow(
        field, pts[:n_t], t, tol=_TRANSPORT_TOL, atol=_TRANSPORT_ATOL
    )
    weights = np.asarray(density.eval(x_end), dtype=float) * np.exp(log_vol)
    _require_finite(weights, "transport weight M(x_end) * exp(l_end)")
    if not weights.any():
        raise ValueError(
            f"transport weight M(x_end) * exp(l_end) is 0 at all {n_t} samples "
            "(density M vanishes or underflows on phi_t(A))"
        )
    mu_T = vol * float(np.mean(weights))
    se_T = _standard_error(weights, vol, "mu(phi_t(A))")
    return TransportReport(
        box=A,
        t=float(t),
        mu_A=mu_A,
        mu_phi_t_A=mu_T,
        relative_error=(mu_T - mu_A) / mu_A,
        sample_count={"mu_A": int(N), "transport": int(n_t)},
        standard_error_estimate=float(np.hypot(se_A, se_T)),
        se_mu_A=se_A,
        se_transport=se_T,
        seed=int(seed),
    )

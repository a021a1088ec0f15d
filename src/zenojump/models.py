"""Concrete measurement scenarios.

Three families are provided:

* time-independent measurements (static Zeno levels),
* pulsed measurements that switch a watched projector on after a free
  segment,
* an anisotropic Heisenberg spin chain whose measurement is a magnetic field
  rotating from ``z`` to ``x`` over a dimensionless schedule ``s in [0, 1]``.

For the chain the natural evolution variable is ``s = t / T``; builders
return models over ``[0, 1]`` with the perturbation scaled by ``T`` and the
measurement coupling equal to ``h * T``, which reproduces the physical
phases of the laboratory-time formulation.  The chain's field is a sum of
identical commuting one-site terms, so its intertwining frame is the tensor
power of the frame tracked for one spin (:func:`spin_chain_frame`).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .decomposition import (
    AdiabaticFrame,
    TimeDependentOperator,
    _checked_frame,
    decompose,
    track_frame,
)
from .errors import FrameResidualError, QuadratureError, ValidationError
from .jump import MeasurementModel, _simpson_weights
from .operators import SIGMA_X, SIGMA_Y, SIGMA_Z, as_square_matrix, check_projector, tensor_product
from .policy import NumericPolicy, default_policy
from .propagators import exact_propagator

__all__ = [
    "SpinChainSpec",
    "build_chain_h0",
    "build_chain_interaction",
    "spin_chain_model",
    "spin_chain_frame",
    "field_strength",
    "cumulative_field_strength",
    "site_frame_columns",
    "TwoQubitJump",
    "two_qubit_rotation_jump",
    "free_flip_probability",
    "chain_validity_flags",
    "time_independent_model",
    "time_independent_frame",
    "pulsed_measurement_model",
    "pulsed_frame",
]


def _site_operator(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Embed a single-site operator at position ``site`` (0-based)."""
    out = np.eye(1, dtype=complex)
    for j in range(n_sites):
        out = tensor_product(out, op if j == site else np.eye(2))
    return out


@dataclasses.dataclass(frozen=True)
class SpinChainSpec:
    """Anisotropic Heisenberg chain in a rotating magnetic field.

    ``couplings`` are the (xx, yy, zz) bond strengths of the perturbation,
    ``h`` the field amplitude and ``T`` the rotation duration.  Open boundary
    keeps bonds ``(j, j+1)`` only; periodic adds the wrap-around bond.
    """

    n_sites: int = 2
    couplings: tuple[float, float, float] = (1.0, 2.0, 1.0)
    h: float = 9.0
    T: float = 1.0
    boundary: str = "open"

    def __post_init__(self):
        if not (2 <= self.n_sites <= 12):
            raise ValidationError(f"n_sites must be within 2..12, got {self.n_sites}")
        if len(self.couplings) != 3:
            raise ValidationError("couplings must be a triple (xx, yy, zz)")
        if not (self.h > 0):
            raise ValidationError("field amplitude h must be positive")
        if not (self.T > 0):
            raise ValidationError("rotation duration T must be positive")
        if self.boundary not in ("open", "periodic"):
            raise ValidationError(f"boundary must be 'open' or 'periodic', got {self.boundary!r}")


def build_chain_h0(spec: SpinChainSpec) -> np.ndarray:
    """Exchange Hamiltonian ``sum_j (l1 XX + l2 YY + l3 ZZ)`` on the chain."""
    n = spec.n_sites
    l1, l2, l3 = spec.couplings
    dim = 2**n
    h0 = np.zeros((dim, dim), dtype=complex)
    bonds = [(j, j + 1) for j in range(n - 1)]
    if spec.boundary == "periodic":
        bonds.append((n - 1, 0))
    for a, b in bonds:
        for lam, sig in ((l1, SIGMA_X), (l2, SIGMA_Y), (l3, SIGMA_Z)):
            if lam != 0.0:
                h0 += lam * (_site_operator(sig, a, n) @ _site_operator(sig, b, n))
    return h0


def _field_direction(n_sites: int) -> TimeDependentOperator:
    """Unit-amplitude rotating field ``-sum_j ((1-s) Z_j + s X_j)`` over ``s``.

    A site sum of the one-site field ``-((1-s) Z + s X)``; the dense samples
    are formed from the summed ``Z_j`` and ``X_j``, which the exact oracle
    reads.
    """
    z = sum(_site_operator(SIGMA_Z, j, n_sites) for j in range(n_sites))
    x = sum(_site_operator(SIGMA_X, j, n_sites) for j in range(n_sites))

    def field_direction(s: float) -> np.ndarray:
        return -((1.0 - s) * z + s * x)

    def site_field(s: float) -> np.ndarray:
        return -((1.0 - s) * SIGMA_Z + s * SIGMA_X)

    site = TimeDependentOperator(evaluator=site_field, horizon=(0.0, 1.0), dim=2)
    return TimeDependentOperator.site_sum(site, n_sites, field_direction)


def build_chain_interaction(spec: SpinChainSpec) -> TimeDependentOperator:
    """Rotating-field measurement ``-h * sum_j ((1-s) Z_j + s X_j)`` over ``s``."""
    direction = _field_direction(spec.n_sites)
    h = spec.h
    return TimeDependentOperator(
        evaluator=lambda s: h * direction.evaluator(s), horizon=(0.0, 1.0), dim=direction.dim
    )


def spin_chain_model(spec: SpinChainSpec) -> MeasurementModel:
    """Chain model over the schedule variable ``s``.

    The Schroedinger equation in ``s`` carries a Jacobian ``T``:
    ``H(s) = T * H0 + (h T) * h_meas(s)`` with the unit-amplitude field
    direction as ``h_meas``, so the measurement coupling is ``h * T``.
    """
    h0 = spec.T * build_chain_h0(spec)
    return MeasurementModel(
        h0=TimeDependentOperator.constant(h0, (0.0, 1.0)),
        h_meas=_field_direction(spec.n_sites),
        coupling=spec.h * spec.T,
    )


def _stacked_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Slice-wise Kronecker product of the stacks ``a`` ``(K, p, p)`` and ``b`` ``(K, q, q)``."""
    k, p, q = len(a), a.shape[-1], b.shape[-1]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(k, p * q, p * q)


def spin_chain_frame(
    spec: SpinChainSpec,
    n_intervals: int = 1024,
    policy: NumericPolicy | None = None,
) -> AdiabaticFrame:
    """Intertwining frame of the rotating field on a uniform schedule grid.

    The field is a sum of identical commuting one-site terms, so the frame is
    the tensor power ``A = a^{(x)n}`` of the frame ``a(s)`` that
    :func:`track_frame` follows for one spin, and the levels are the
    magnetization sectors.  Level ``l`` (``l`` spins in the upper one-site
    level) has rank ``C(n, l)``, eigenvalue and phase ``(n-l)`` times the
    lower one-site value plus ``l`` times the upper one, and the projector
    ``P_l = p_0 (x) P'_l + p_1 (x) P'_{l-1}``, grown site by site from the
    one-site eigenprojectors ``p_0, p_1`` (``P'`` on one site fewer) at the
    two end nodes.  The degeneracy tolerance is ``n`` times the one-site one,
    which is what the dense route resolves from the chain's spectral range.

    ``residual`` is ``sqrt(2) n r``, ``r`` the one-site residual, checked
    against ``policy.frame_tol`` (a one-site frame that misses it is carried
    on to that check).  It bounds the max-norm of ``E = P_l(t) - A P_l(0) A^dagger``
    at every node.  With ``q_b = a p_b(0) a^dagger`` and ``D = p_0(t) - q_0 =
    q_1 - p_1(t)``, ``E`` telescopes over the sites into ``n`` terms
    ``(Pi_0 - Pi_1) (x) D``, ``D`` at site ``j`` and ``Pi_b`` the sum of the
    other sites' orthogonal products (``q`` left of ``j``, ``p`` right) with
    ``l - b`` upper spins.  ``Pi_0``, ``Pi_1`` are orthogonal projectors, so
    ``max|E| <= |E|_2 <= n |D|_2``; and ``D``, a difference of rank-1 2x2
    projectors and so Hermitian and traceless, has eigenvalues
    ``+-(D_00^2 + |D_01|^2)^(1/2)``: ``|D|_2 <= sqrt(2) max|D_ij| <= sqrt(2) r``.
    """
    pol = default_policy(policy)
    n = spec.n_sites
    grid = np.linspace(0.0, 1.0, n_intervals + 1)
    try:
        site = track_frame(_field_direction(1), spec.h * spec.T, grid, pol)
    except FrameResidualError as exc:
        site = exc.last_result  # the chain frame's check below decides
    # The one-site factor goes first: its 2x2 blocks then scale contiguous rows.
    a = intertwiners = site.intertwiners
    for _ in range(n - 1):
        intertwiners = _stacked_kron(a, intertwiners)
    # End-node level projectors; with l upper spins the new site is lower or upper.
    sectors = list(np.stack([site.initial_projectors, site.final_projectors], axis=1))
    p0, p1 = sectors
    for _ in range(n - 1):
        down, up = [_stacked_kron(p0, p) for p in sectors], [_stacked_kron(p1, p) for p in sectors]
        sectors = [down[0], *map(np.add, down[1:], up[:-1]), up[-1]]
    upper = np.arange(n + 1)[:, None]
    frame = AdiabaticFrame(
        grid=site.grid,
        intertwiners=intertwiners,
        eigenvalues=(n - upper) * site.eigenvalues[0] + upper * site.eigenvalues[1],
        phases=(n - upper) * site.phases[0] + upper * site.phases[1],
        initial_projectors=np.array([p[0] for p in sectors]),
        final_projectors=np.array([p[1] for p in sectors]),
        ranks=tuple(math.comb(n, l) for l in range(n + 1)),
        coupling=site.coupling,
        degeneracy_tol=n * site.degeneracy_tol,
        residual=math.sqrt(2.0) * n * site.residual,
    )
    return _checked_frame(frame, pol)


def field_strength(s):
    """Magnitude ``sqrt(s^2 + (1-s)^2)`` of the unit-amplitude rotating field."""
    s = np.asarray(s, dtype=float)
    out = np.sqrt(2.0 * s * s - 2.0 * s + 1.0)
    return float(out) if out.ndim == 0 else out


def _field_antiderivative(x):
    """Antiderivative of ``sqrt(2 x^2 + 1/2)``, the field strength at ``s = x + 1/2``."""
    return math.sqrt(2.0) * (x * np.sqrt(x * x + 0.25) / 2.0 + np.arcsinh(2.0 * x) / 8.0)


def cumulative_field_strength(s):
    """Integral of :func:`field_strength` from 0 to ``s`` (a value or an array), in closed form."""
    s = np.asarray(s, dtype=float)
    outside = ~((0.0 <= s) & (s <= 1.0))
    if np.any(outside):
        raise ValidationError(f"schedule value {float(s[outside].flat[0])!r} outside [0, 1]")
    out = _field_antiderivative(s - 0.5) - _field_antiderivative(-0.5)
    return float(out) if out.ndim == 0 else out


def site_frame_columns(s: float) -> np.ndarray:
    """Closed-form single-site frame for the rotating field.

    Columns diagonalize the unit-amplitude single-site field:
    ``A K(s) sigma_z A^dagger = (1-s) sigma_z + s sigma_x``.
    Valid for ``s`` in ``(0, 1]``; at ``s = 0`` the expression degenerates
    (its limit is ``diag(1, -1)``).
    """
    if not (0.0 < s <= 1.0):
        raise ValidationError("closed-form frame columns need s in (0, 1]")
    k = field_strength(s)
    c = 1.0 - s
    d_minus = math.sqrt(2.0 * k * k - 2.0 * k * c)
    d_plus = math.sqrt(2.0 * k * k + 2.0 * k * c)
    return np.array(
        [
            [s / d_minus, s / d_plus],
            [(k - c) / d_minus, (-k - c) / d_plus],
        ],
        dtype=complex,
    )


@dataclasses.dataclass(frozen=True)
class TwoQubitJump:
    """End-of-rotation jump probabilities for the two-site chain.

    ``to_opposite`` is the probability of arriving in the fully flipped
    product level; ``to_up_down`` and ``to_down_up`` are the single-flip
    channels, which vanish identically because the exchange perturbation has
    no matrix element between the aligned state and a single-flip state in
    the co-rotating basis (selection rule), at any schedule point.
    """

    to_opposite: float
    to_up_down: float
    to_down_up: float
    est_error: float
    intervals: int


def two_qubit_rotation_jump(
    h: float,
    T: float,
    rel_tol: float = 1e-8,
    min_intervals: int = 64,
    max_intervals: int = 2**20,
) -> TwoQubitJump:
    """Closed-channel jump probabilities of the two-site chain rotation.

    The only open channel reduces to two oscillatory schedule integrals,

        W = (int_0^1 cos Theta(s) ds)^2 + (int_0^1 sin Theta(s) ds)^2,
        Theta(s) = 4 h T * cumulative_field_strength(s),

    evaluated with composite Simpson under interval doubling until the value
    moves by less than ``rel_tol`` relatively.  Requires ``h, T >= 0``; at
    ``h T = 0`` the phase vanishes and the jump saturates at 1.
    """
    if h < 0 or T < 0:
        raise ValidationError("field amplitude and duration must be non-negative")
    if min_intervals % 4 != 0 or min_intervals < 4:
        raise ValidationError("min_intervals must be a multiple of 4")
    rate = 4.0 * h * T

    def value_at(n_int: int) -> float:
        nodes = np.linspace(0.0, 1.0, n_int + 1)
        theta = rate * cumulative_field_strength(nodes)
        w = _simpson_weights(n_int, 1.0 / n_int)
        c = float(w @ np.cos(theta))
        s = float(w @ np.sin(theta))
        return c * c + s * s

    n_int = min_intervals
    prev = value_at(n_int)
    while True:
        n_int *= 2
        if n_int > max_intervals:
            raise QuadratureError(
                f"schedule quadrature did not converge below rel_tol={rel_tol:.1e} "
                f"within {max_intervals} intervals"
            )
        cur = value_at(n_int)
        change = abs(cur - prev)
        if change <= rel_tol * abs(cur) + 1e-16:
            return TwoQubitJump(
                to_opposite=cur,
                to_up_down=0.0,
                to_down_up=0.0,
                est_error=change,
                intervals=n_int,
            )
        prev = cur


_REFERENCE_CHAIN = SpinChainSpec(n_sites=2, couplings=(1.0, 2.0, 1.0), h=1.0, T=1.0)


def free_flip_probability(t: float, tol: float = 1e-9) -> float:
    """Both-spins-flip probability of the bare two-site chain after time ``t``.

    Evolves ``|up,up>`` under the exchange Hamiltonian alone (no measurement)
    and returns the population of ``|down,down>``; the aligned pair behaves as
    a closed two-level system, so the exact value is ``sin^2(t)``.
    """
    if t < 0:
        raise ValidationError("time must be non-negative")
    if t == 0.0:
        return 0.0
    h0 = build_chain_h0(_REFERENCE_CHAIN)
    op = TimeDependentOperator.constant(h0, (0.0, float(t)))
    u = exact_propagator(op, float(t), tol=tol).matrix
    return float(abs(u[3, 0]) ** 2)


def chain_validity_flags(h: float, T: float, n_sites: int = 2) -> tuple[str, ...]:
    """Guideline diagnostics for the chain's perturbative treatment."""
    flags: list[str] = []
    if h < 4.0:
        flags.append("field below the perturbative threshold h >= 4")
    if h * T < 3.0 * math.sqrt(n_sites / 2.0):
        flags.append("rotation too fast: h*T should well exceed sqrt(n_sites/2)")
    return tuple(flags)


def time_independent_model(h0, h_meas, coupling: float, t_final: float) -> MeasurementModel:
    """Model with constant perturbation and constant measurement."""
    if not (t_final > 0):
        raise ValidationError("t_final must be positive")
    horizon = (0.0, float(t_final))
    return MeasurementModel(
        h0=TimeDependentOperator.constant(as_square_matrix(h0), horizon),
        h_meas=TimeDependentOperator.constant(as_square_matrix(h_meas), horizon),
        coupling=coupling,
    )


def time_independent_frame(
    model: MeasurementModel,
    n_intervals: int,
    policy: NumericPolicy | None = None,
    degeneracy_tol: float | None = None,
) -> AdiabaticFrame:
    """Static frame from the spectral decomposition of a constant measurement."""
    pol = default_policy(policy)
    t0, t1 = model.horizon
    dec = decompose(model.h_meas(t0), degeneracy_tol, pol)
    grid = np.linspace(t0, t1, n_intervals + 1)
    levels = [(float(dec.eigenvalues[l]), dec.projectors[l]) for l in range(dec.n_levels)]
    return AdiabaticFrame.static(
        grid, levels, model.coupling, pol, degeneracy_tol=dec.degeneracy_tol
    )


def pulsed_measurement_model(
    projector,
    h0,
    coupling: float,
    tau: float,
    tau_free: float,
) -> MeasurementModel:
    """Free evolution for ``tau_free``, then measurement of ``projector``.

    The measurement Hamiltonian is the watched projector itself, switched on
    for the remainder of the cycle ``[tau_free, tau]``.
    """
    if not (0.0 <= tau_free <= tau) or tau <= 0:
        raise ValidationError("need 0 <= tau_free <= tau with tau > 0")
    p = check_projector(projector)
    horizon = (0.0, float(tau))
    zero = np.zeros_like(p)

    def switched(t: float) -> np.ndarray:
        return p if t >= tau_free else zero

    breaks = (float(tau_free),) if 0.0 < tau_free < tau else ()
    return MeasurementModel(
        h0=TimeDependentOperator.constant(as_square_matrix(h0), horizon),
        h_meas=TimeDependentOperator(
            evaluator=switched, horizon=horizon, dim=p.shape[0], breakpoints=breaks
        ),
        coupling=coupling,
    )


def pulsed_frame(
    projector,
    coupling: float,
    tau: float,
    tau_free: float,
    n_intervals: int,
    policy: NumericPolicy | None = None,
) -> AdiabaticFrame:
    """Static two-level frame for a pulsed measurement.

    Level 0 is the watched subspace (eigenvalue 1 while the measurement is
    on), level 1 its complement (eigenvalue 0 throughout).  The switching
    instant must fall on a grid node so the accumulated phases are exact.
    """
    if not (0.0 <= tau_free <= tau) or tau <= 0:
        raise ValidationError("need 0 <= tau_free <= tau with tau > 0")
    p = check_projector(projector, policy)
    grid = np.linspace(0.0, float(tau), n_intervals + 1)
    if tau_free > 0.0 and float(np.min(np.abs(grid - tau_free))) > 1e-12 * tau:
        raise ValidationError(
            f"switching time {tau_free} must be a node of the {n_intervals}-interval grid"
        )

    def watched_eps(t: float) -> float:
        return 1.0 if t >= tau_free else 0.0

    complement = np.eye(p.shape[0], dtype=complex) - p
    return AdiabaticFrame.static(
        grid, [(watched_eps, p), (0.0, complement)], coupling, policy
    )

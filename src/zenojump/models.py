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
power of the frame tracked for one spin (:func:`spin_chain_frame`), and its
perturbation is a sum of one two-spin exchange term over its bonds
(:meth:`~zenojump.decomposition.TimeDependentOperator.bond_sum`).  Frames
carry no coupling, so one chain frame serves every ``h`` and ``T``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .decomposition import (
    AdiabaticFrame,
    TimeDependentOperator,
    _checked_frame,
    _eigenlevels,
    track_frame,
)
from .errors import NumericalError, QuadratureError, ValidationError
from .jump import MeasurementModel, _simpson_weights
from .operators import SIGMA_X, SIGMA_Y, SIGMA_Z, _bond_sum, as_square_matrix, check_projector, eigh
from .policy import NumericPolicy, default_policy
from .propagators import exact_propagator

__all__ = [
    "SpinChainSpec",
    "build_chain_h0",
    "spin_chain_model",
    "spin_chain_frame",
    "field_strength",
    "cumulative_field_strength",
    "TwoQubitJump",
    "two_qubit_rotation_jump",
    "free_flip_probability",
    "chain_validity_flags",
    "time_independent_model",
    "time_independent_frame",
    "pulsed_measurement_model",
    "pulsed_frame",
]


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
        if not isinstance(self.n_sites, (int, np.integer)):
            raise ValidationError(f"n_sites must be an integer, got {self.n_sites!r}")
        if not (2 <= self.n_sites <= 12):
            raise ValidationError(f"n_sites must be within 2..12, got {self.n_sites}")
        if len(self.couplings) != 3 or not all(isinstance(c, (int, float, np.integer, np.floating)) for c in self.couplings):
            raise ValidationError(f"couplings must be a triple (xx, yy, zz) of real numbers, got {self.couplings!r}")
        if not (self.h > 0):
            raise ValidationError("field amplitude h must be positive")
        if not (self.T > 0):
            raise ValidationError("rotation duration T must be positive")
        if not (0.0 < (coupling := self.h * self.T) < math.inf):
            raise ValidationError(f"coupling h * T leaves float range: h = {self.h!r}, T = {self.T!r}")
        if not coupling * coupling > 0.0:
            raise ValidationError(f"the square of the coupling h * T underflows to 0: h = {self.h!r}, T = {self.T!r}")
        if self.boundary not in ("open", "periodic"):
            raise ValidationError(f"boundary must be 'open' or 'periodic', got {self.boundary!r}")
        # T * bonds * sum |lambda| bounds every entry of T * H0; Python floats overflow to inf
        if not math.isfinite(self.T * len(_bond_pairs(self)) * sum(map(abs, self.couplings))):
            raise ValidationError(f"exchange Hamiltonian leaves float range: T = {self.T!r}, couplings {self.couplings!r}")


def _bond_term(spec: SpinChainSpec) -> np.ndarray:
    """Two-spin exchange ``l1 XX + l2 YY + l3 ZZ`` of one bond."""
    l1, l2, l3 = spec.couplings
    return l1 * np.kron(SIGMA_X, SIGMA_X) + l2 * np.kron(SIGMA_Y, SIGMA_Y) + l3 * np.kron(SIGMA_Z, SIGMA_Z)


def _bond_pairs(spec: SpinChainSpec) -> tuple[tuple[int, int], ...]:
    """Bonds ``(j, j+1)``, plus the wrap-around bond ``(n-1, 0)`` on a periodic chain."""
    n = spec.n_sites
    wrap = ((n - 1, 0),) if spec.boundary == "periodic" else ()
    return tuple((j, j + 1) for j in range(n - 1)) + wrap


def build_chain_h0(spec: SpinChainSpec) -> np.ndarray:
    """Exchange Hamiltonian ``sum_j (l1 XX + l2 YY + l3 ZZ)`` on the chain."""
    states = np.arange(2**spec.n_sites)
    return _bond_sum(_bond_term(spec), _bond_pairs(spec), spec.n_sites, states, states)


def _field_direction(n_sites: int) -> TimeDependentOperator:
    """Unit-amplitude rotating field ``-sum_j ((1-s) Z_j + s X_j)`` over ``s``.

    :meth:`~TimeDependentOperator.linear` in ``s`` with endpoints the summed
    ``-Z_j`` and ``-X_j``, scattered by state bits as the bonds are, so it
    samples a grid in one array expression; at one site it is the one-site
    field ``-((1-s) Z + s X)``.
    """
    states = np.arange(2**n_sites)
    z, x = -_bond_sum(np.array([SIGMA_Z, SIGMA_X]), [(j,) for j in range(n_sites)], n_sites, states, states)
    return TimeDependentOperator.linear(z, x, (0.0, 1.0))


def spin_chain_model(spec: SpinChainSpec) -> MeasurementModel:
    """Chain model over the schedule variable ``s``.

    The Schroedinger equation in ``s`` carries a Jacobian ``T``:
    ``H(s) = T * H0 + (h T) * h_meas(s)`` with the unit-amplitude field
    direction as ``h_meas``, so the measurement coupling is ``h * T``.
    ``h0`` is a :meth:`~TimeDependentOperator.bond_sum` of ``T`` times one
    bond's exchange term.
    """
    return MeasurementModel(
        h0=TimeDependentOperator.bond_sum(spec.T * _bond_term(spec), _bond_pairs(spec), spec.n_sites, (0.0, 1.0)),
        h_meas=_field_direction(spec.n_sites),
        coupling=spec.h * spec.T,
    )


def spin_chain_frame(
    spec: SpinChainSpec,
    n_intervals: int = 1024,
    policy: NumericPolicy | None = None,
    shared: dict | None = None,
) -> AdiabaticFrame:
    """Intertwining frame of the rotating field on a uniform schedule grid.

    The field is a sum of identical commuting one-site terms, so the frame is
    the tensor power ``A = a^{(x)n}`` of the frame ``a(s)`` that
    :func:`track_frame` follows for one spin: that frame with ``power = n``,
    so no array it keeps has a ``2^n`` axis.  The levels are the
    magnetization sectors.  Level ``l`` (``l`` spins in the upper one-site
    level) has rank ``C(n, l)``, eigenvalue and ``eps_integrals`` row
    ``(n-l)`` times the lower one-site row plus ``l`` times the upper one,
    and the states with ``l`` bits set as its end-node basis.  The degeneracy
    tolerance is ``n`` times the one-site one, which is what the dense route
    resolves from the chain's spectral range.

    The report figures come from one spin.  Neighbouring sectors lie the
    one-site gap ``g`` apart, so ``eps_min`` is the one-site one.  ``dH/dt``
    flips one spin at a time, so a product eigenvector couples to ``n``
    states, each with the one-site ``|<1|dh/dt|0>|^2 / g^2``: ``alpha_unit``
    is ``n`` times the one-site one.  This needs two site levels; with more,
    a spin's share depends on its level.

    The field direction has unit amplitude and the frame carries no
    coupling, so only ``n_sites`` of ``spec`` reaches it.  ``shared`` is a
    dict that the calls of one sweep pass in turn: the first call for an
    ``(n_sites, n_intervals, policy)`` keeps the frame there (read-only), and
    every call returns that frame after the residual check.  Keep the dict
    no longer than the sweep.

    ``residual`` is ``sqrt(2) n r``, ``r`` the one-site residual, checked
    against ``policy.frame_tol`` (the one-site frame is built unchecked, so
    this is the only check).  It bounds the max-norm of ``E = P_l(t) - A P_l(0) A^dagger``
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
    key = (spec.n_sites, n_intervals, pol)
    shared = {} if shared is None else shared
    if key not in shared:
        shared[key] = _chain_frame(*key)
    return _checked_frame(shared[key], pol)


def _uniform_grid(t0: float, t1: float, n_intervals) -> np.ndarray:
    """``n_intervals + 1`` equally spaced nodes from ``t0`` to ``t1``, ``n_intervals`` a positive integer."""
    if not isinstance(n_intervals, (int, np.integer)) or n_intervals < 1:
        raise ValidationError(f"n_intervals must be a positive integer, got {n_intervals!r}")
    return np.linspace(t0, t1, n_intervals + 1)


def _sector_rows(n: int, site_rows: np.ndarray) -> np.ndarray:
    """Rows ``(n - l) * site_rows[0] + l * site_rows[1]`` for ``l = 0..n`` upper spins."""
    upper = np.arange(n + 1)[:, None]
    return (n - upper) * site_rows[0] + upper * site_rows[1]


def _chain_frame(n: int, n_intervals: int, pol: NumericPolicy) -> AdiabaticFrame:
    """The chain frame of :func:`spin_chain_frame`, its arrays read-only, before the residual check."""
    grid = _uniform_grid(0.0, 1.0, n_intervals)
    # the one-site frame is not checked: the chain frame's residual check decides
    site = track_frame(_field_direction(1), grid, pol.replace(frame_tol=np.finfo(float).max))
    frame = dataclasses.replace(
        site,
        eigenvalues=_sector_rows(n, site.eigenvalues),
        eps_integrals=_sector_rows(n, site.eps_integrals),
        degeneracy_tol=n * site.degeneracy_tol,
        alpha_unit=n * site.alpha_unit,
        residual=math.sqrt(2.0) * n * site.residual,
        power=n,
    )
    for value in vars(frame).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return frame


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
    moves by less than ``rel_tol`` relatively.  Requires finite ``h, T >= 0``; at
    ``h T = 0`` the phase vanishes and the jump saturates at 1.
    """
    if not (0.0 <= h < math.inf and 0.0 <= T < math.inf):
        raise ValidationError(f"h and T must be finite and non-negative, got {h!r}, {T!r}")
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
    if not (0.0 <= h < math.inf and 0.0 <= T < math.inf):
        raise ValidationError(f"h and T must be finite and non-negative, got {h!r}, {T!r}")
    SpinChainSpec(n_sites=n_sites)  # refuses an n_sites the chain cannot have
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
) -> AdiabaticFrame:
    """Static frame from the one eigendecomposition of a constant measurement.

    The measurement's eigenvectors, which come grouped by level, are both end
    bases; the level sizes are ``factor_ranks`` and the level means the
    eigenvalues, as :func:`decompose` clusters them, and the phases are exact,
    ``eps_l (t - t_0)``.  The checks are ``max|V^dagger V - I| <= projector_tol``
    and :func:`track_frame`'s for a tolerance that merges a split spectrum,
    and a phase beyond float range raises :class:`NumericalError`.
    """
    pol = default_policy(policy)
    t0, t1 = model.horizon
    _, vecs, ranks, means, tol = _eigenlevels(model.h_meas(t0), pol)
    eps = float(np.max(np.abs(means)))
    if not math.isfinite(eps * (t1 - t0)):  # Python floats: inf, not a warning
        raise NumericalError(f"level phase eps * (t - t0) leaves float range: max|eps| = {eps:.3g}, span {t1 - t0:.3g}")
    grid = _uniform_grid(t0, t1, n_intervals)
    return AdiabaticFrame._from_basis(grid, means[:, None], means[:, None] * (grid - t0), vecs, ranks, tol, pol)


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
    tau: float,
    tau_free: float,
    n_intervals: int,
    policy: NumericPolicy | None = None,
) -> AdiabaticFrame:
    """Static two-level frame for a pulsed measurement.

    Level 0 is the watched subspace (eigenvalue 1 from ``tau_free`` on, phase
    ``max(t - tau_free, 0)``), level 1 its complement (eigenvalue 0), the order
    in which ``eigh(I - P)`` returns their columns.  ``tau_free`` must be a grid node.
    """
    if not (0.0 <= tau_free <= tau) or tau <= 0:
        raise ValidationError("need 0 <= tau_free <= tau with tau > 0")
    pol = default_policy(policy)
    p = check_projector(projector, pol)
    grid = _uniform_grid(0.0, float(tau), n_intervals)
    if tau_free > 0.0 and float(np.min(np.abs(grid - tau_free))) > 1e-12 * tau:
        raise ValidationError(f"switching time {tau_free} must be a node of the {n_intervals}-interval grid")
    rank = int(round(p.trace().real))
    eps = np.zeros((2, len(grid)))
    integrals = np.zeros_like(eps)
    eps[0] = grid >= tau_free
    integrals[0] = np.maximum(grid - tau_free, 0.0)
    basis = eigh(np.eye(len(p), dtype=complex) - p, pol)[1]
    return AdiabaticFrame._from_basis(grid, eps, integrals, basis, (rank, len(p) - rank), 0.0, pol)

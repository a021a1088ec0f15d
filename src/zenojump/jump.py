"""Second-order jump probabilities between Zeno subspaces.

With the system prepared inside subspace ``n`` (``rho0 = P_n rho0 P_n``), the
probability of finding it in subspace ``m != n`` after evolving under
``H = H0 + K * H_meas(t)`` is, to second order in the perturbation ``H0``,

    W = int_0^t int_0^t dt1 dt2
        Tr{ f(t1) rho0 f(t2) P_m(0) } exp(i [Lam(t1) - Lam(t2)])

with ``f(t) = A(t)^dagger H0(t) A(t)`` the perturbation seen from the
intertwining frame and ``Lam(t) = int_0^t K (eps_m - eps_n) dt'`` the
accumulated transition phase.  ``general_jump`` evaluates this double
integral on a frame grid; ``pulsed_jump`` and ``continuous_jump`` are the
closed forms it degenerates to for switched and for static measurements.

Only the ``m <- n`` block of ``f`` enters ``W``.  With ``Q`` and ``Y``
orthonormal bases of ``P_n(0)`` and ``P_m(0)``, a state confined to level
``n`` is ``rho0 = Q sigma Q^dagger`` and ``P_m(0) = Y Y^dagger``, so

    W = Tr[S sigma S^dagger],   S = int_0^t dt' Y^dagger f(t') Q exp(i Lam(t'))

and ``general_jump`` works on the ``r_m x r_n`` blocks ``Y^dagger f Q``
alone; it never forms ``f`` itself.  The blocks are separable,
``Y^dagger f(t) Q = sum_j c_j(t) G_j``: for the spin chain ``c`` holds the 16
entries of one bond's ``(a (x) a)^dagger h (a (x) a)`` and ``G_j`` are bond
sums between the levels' product basis states, so nothing ``2^n``-dimensional
is formed per node.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .decomposition import AdiabaticFrame, AdiabaticityReport, TimeDependentOperator, ZenoDecomposition, _check_coupling, adiabaticity_report
from .decomposition import _block, _level_columns, _tensor_power
from .errors import NumericalError, QuadratureError, ValidationError
from .operators import _bond_sum, _stack_matmul, as_square_matrix, check_density, check_hermitian, check_projector, max_norm
from .policy import NumericPolicy, default_policy

__all__ = [
    "MeasurementModel",
    "QuadraturePolicy",
    "JumpResult",
    "SpectralDensity",
    "SpectralOverlap",
    "general_jump",
    "pulsed_jump",
    "continuous_jump",
    "zeno_time",
    "transition_weight",
    "decay_rate",
    "spectral_overlap",
    "survival_power",
    "survival_exponential",
]


@dataclasses.dataclass(frozen=True)
class MeasurementModel:
    """Perturbation plus scaled measurement: ``H(t) = h0(t) + coupling * h_meas(t)``."""

    h0: TimeDependentOperator
    h_meas: TimeDependentOperator
    coupling: float

    def __post_init__(self):
        if self.h0.dim != self.h_meas.dim:
            raise ValidationError(
                f"perturbation dimension {self.h0.dim} != measurement dimension {self.h_meas.dim}"
            )
        if self.h0.horizon != self.h_meas.horizon:
            raise ValidationError("perturbation and measurement must share one horizon")
        _check_coupling(self.coupling)

    @property
    def dim(self) -> int:
        return self.h0.dim

    @property
    def horizon(self) -> tuple[float, float]:
        return self.h0.horizon

    def full_hamiltonian(self) -> TimeDependentOperator:
        """Total Hamiltonian for the exact-propagator route.

        Its :meth:`~TimeDependentOperator.sample` (and so its call, a one-row
        sample) adds the terms' own stacks and checks the sum's stack once.
        """
        return TimeDependentOperator._scaled_sum(((1.0, self.h0), (self.coupling, self.h_meas)))


@dataclasses.dataclass(frozen=True)
class QuadraturePolicy:
    """Convergence targets for the 2D Simpson refinement: ``rel_tol`` positive,
    ``abs_floor`` non-negative, both finite, else :class:`ValidationError`."""

    rel_tol: float = 1e-6
    abs_floor: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.rel_tol < math.inf:
            raise ValidationError(f"rel_tol: must be positive and finite, got {self.rel_tol!r}")
        if not 0.0 <= self.abs_floor < math.inf:
            raise ValidationError(f"abs_floor: must be non-negative and finite, got {self.abs_floor!r}")


@dataclasses.dataclass(frozen=True)
class JumpResult:
    """Jump probability with its numerical and validity diagnostics."""

    value: float
    imag_residual: float
    est_error: float
    adiabaticity: AdiabaticityReport
    warnings: tuple[str, ...] = ()


def _simpson_weights(n_intervals: int, step: float) -> np.ndarray:
    w = np.ones(n_intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (step / 3.0)


def general_jump(
    model: MeasurementModel,
    rho0,
    n: int,
    m: int,
    frame: AdiabaticFrame,
    quad: QuadraturePolicy | None = None,
    policy: NumericPolicy | None = None,
    target_projector=None,
    shared: dict | None = None,
) -> JumpResult:
    """Second-order jump probability from level ``n`` to level ``m``.

    The double time integral runs over the frame's grid span with a
    tensor-product composite Simpson rule on the level blocks of the module
    docstring: with ``Q`` and ``Y`` the frame's :meth:`~AdiabaticFrame.level_basis`
    of levels ``n`` and ``m``, ``sigma = Q^dagger rho0 Q`` and each node
    contributes the ``r_m x r_n`` block ``g_k = Y^dagger A_k^dagger h0(t_k) A_k Q``
    of :func:`_separable_kernel`.  The transition phase is
    ``Lam = K (E_m - E_n)``, ``K`` the model's coupling and ``E`` the
    frame's ``eps_integrals``.  Refinement steps through the stride-4
    / stride-2 / stride-1 subsets of the grid, each rung taking
    ``Tr[S sigma S^dagger]`` with ``S = sum_k w_k exp(i Lam_k) g_k``, so the
    grid interval count must be divisible by 8, the spacing uniform and the
    first node the model's horizon origin; the rule refuses to run when the
    grid resolves the fastest transition phase with fewer than 10 nodes per
    period, and a rung that leaves floating-point range raises
    :class:`NumericalError`.  ``est_error`` is the change of the last
    refinement, blind to the error of ``eps_integrals``, and
    ``imag_residual`` the imaginary part of the finest rung, which rounding
    alone makes nonzero.  The adiabaticity report reads the frame's figures
    (:func:`adiabaticity_report`).  :func:`_validity_flags` judges the value.

    ``target_projector``, a sub-projector ``P_t`` of level ``m`` (useful when
    a degenerate level is watched channel by channel), is the arrival
    projector in place of the level's: each rung's ``S`` becomes
    ``(Y^dagger P_t Y) S``, and ``Y (Y^dagger P_t Y) Y^dagger = P_t`` within 1e-8.

    The initial state must already live in level ``n``:
    ``rho0 = Q sigma Q^dagger`` within 1e-8.  A state confined only to that
    tolerance is read as ``Q sigma Q^dagger``.

    ``shared`` is a dict that the calls of one sweep pass in turn, as
    :func:`~zenojump.models.spin_chain_frame` takes it: the first call for a
    level pair and policy keeps there the kernel of :func:`_separable_kernel`
    with the frame and ``h0`` it was formed from, and a later call on that
    same frame and ``h0`` reuses it.  The kernel depends on neither the
    coupling nor the state, so an ``h`` sweep of the chain forms it once and
    the results equal those without ``shared``.  Keep the dict no longer
    than the sweep.
    """
    pol = default_policy(policy)
    qd = quad if quad is not None else QuadraturePolicy()
    rho = check_density(rho0, pol)
    n_levels = frame.n_levels
    if not (0 <= n < n_levels and 0 <= m < n_levels):
        raise ValidationError(f"level indices ({n}, {m}) outside 0..{n_levels - 1}")
    if n == m:
        raise ValidationError("jump probability needs distinct levels n != m")
    if rho.shape[0] != frame.dim or model.dim != frame.dim:
        raise ValidationError("model, frame and state dimensions disagree")

    q, y = frame.level_basis(n), frame.level_basis(m)
    sigma = q.conj().T @ rho @ q
    if max_norm(rho - q @ sigma @ q.conj().T) > 1e-8:
        raise ValidationError("initial state is not confined to level n: rho0 != P_n(0) rho0 P_n(0) within 1e-8")
    target = None if target_projector is None else check_projector(target_projector, pol)
    if target is not None and target.shape != rho.shape:
        raise ValidationError(f"target_projector has shape {target.shape}; the model's states need {rho.shape}")
    arrival = None if target is None else y.conj().T @ target @ y
    if target is not None and max_norm(y @ arrival @ y.conj().T - target) > 1e-8:
        raise ValidationError("target_projector must be a sub-projector of level m at t=0")

    grid = frame.grid
    if abs(grid[0] - model.horizon[0]) > model.h0.slack:
        raise ValidationError(
            f"frame grid starts at {float(grid[0])!r}, not at the model's horizon origin "
            f"{model.horizon[0]!r}"
        )
    n_int = len(grid) - 1
    steps = np.diff(grid)
    span = float(grid[-1] - grid[0])
    if max_norm(steps - steps[0]) > 1e-9 * span:
        raise ValidationError("general_jump requires a uniform frame grid")
    if n_int % 8 != 0:
        raise ValidationError(f"frame grid has {n_int} intervals; the Simpson refinement ladder needs a multiple of 8")

    # a frame's gaps are finite, and a Python float product overflows to inf without a warning
    rate = model.coupling * float(np.max(np.abs(frame.eigenvalues[m] - frame.eigenvalues[n])))
    if not math.isfinite(rate):
        raise NumericalError(f"transition rate leaves floating-point range at coupling {model.coupling!r}")
    if rate > 0.0:
        period, step = 2.0 * math.pi / rate, float(steps[0])
        if step > period / 10.0:
            nodes = span / (period / 10.0) + 1.0
            need = f"about {nodes:.3g} nodes over the span"
            if not math.isfinite(nodes):
                need = "no grid a float can count resolves the phase"
            raise QuadratureError(
                f"grid undersamples the transition phase: {period / step:.3g} nodes per oscillation period, "
                f"need >= 10 ({need})"
            )
    lam = model.coupling * (frame.eps_integrals[m] - frame.eps_integrals[n])

    key = ("kernel", n, m, pol)
    entry = None if shared is None else shared.get(key)
    if entry is None or entry[0] is not frame or entry[1] is not model.h0:
        entry = (frame, model.h0, *_separable_kernel(model, frame, n, m, pol))
        if shared is not None:
            shared[key] = entry
    c, blocks = entry[2:]
    values: list[complex] = []
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite rung raises below
        for stride in (4, 2, 1):
            nodes = slice(None, None, stride)
            w = _simpson_weights(n_int // stride, steps[0] * stride)
            # einsum, not @: OpenBLAS threads these thin products, and its idle
            # threads then spin through the rest of the process
            coef = np.einsum("k,kj->j", w * np.exp(1j * lam[nodes]), c[nodes])
            if blocks is not None:
                coef = np.einsum("j,jx->x", coef, blocks)
            s = coef.reshape(y.shape[1], q.shape[1])
            if arrival is not None:
                s = arrival @ s
            values.append(complex(np.trace(s @ sigma @ s.conj().T)))
    if not np.isfinite(values).all():
        raise NumericalError(f"jump quadrature left floating-point range: rungs {values}")
    est_error = abs(values[-1] - values[-2])
    value, imag_residual = values[-1].real, abs(values[-1].imag)
    if est_error > qd.rel_tol * abs(value) + qd.abs_floor:
        raise QuadratureError(
            f"jump quadrature not converged: last refinement changed the value by "
            f"{est_error:.3e} (target {qd.rel_tol:.1e} relative); provide a denser frame grid",
            last_result=value,
        )
    if imag_residual > pol.imag_residual_tol * (1.0 + abs(value)):
        raise NumericalError(f"jump kernel lost hermiticity: imaginary residual {imag_residual:.3e}")

    report = adiabaticity_report(frame, model.coupling, policy=pol)
    warnings = list(_validity_flags(value))
    if not report.adiabatic:
        warnings.append(
            f"measurement rotation is not adiabatic: ratio {report.ratio:.3g} exceeds "
            f"{report.margin:.3g} * coupling^2"
        )
    return JumpResult(
        value=value,
        imag_residual=imag_residual,
        est_error=est_error,
        adiabaticity=report,
        warnings=tuple(warnings),
    )


def _validity_flags(value: float) -> tuple[str, ...]:
    """The validity diagnostics of a jump probability ``value``, whichever route gave it:
    :class:`NumericalError` outside ``[0, 1]`` by more than the quadrature's default
    ``abs_floor`` 1e-12, below which no route resolves a value (a NaN passes, for the
    caller's finiteness check), and the flag that second order is unreliable above 0.5."""
    if value < -1e-12 or value > 1.0 + 1e-12:
        raise NumericalError(f"jump probability {value:.6g} lies outside [0, 1]")
    return (f"perturbation theory unreliable: jump probability {value:.3g} > 0.5",) if value > 0.5 else ()


def _separable_kernel(model, frame, n, m, pol):
    """``(c, G)``: the node blocks ``g_k = Y^dagger A_k^dagger h0(t_k) A_k Q``
    as ``c[k] @ G``, ``c`` of shape ``(K, J)``, ``G`` of shape ``(J, r_m r_n)``
    or ``None`` for the identity.

    ``Q`` and ``Y``, the frame's :meth:`~AdiabaticFrame.level_basis` of levels
    ``n`` and ``m``, are level columns of ``u^{(x)p}``, ``p`` the frame's
    ``power``, ``u`` its ``initial_basis`` and ``a`` its ``intertwiners``;
    with ``b_k = a_k u``, ``g_k = (b_k^{(x)p})[:,
    rows]^dagger h0_k (b_k^{(x)p})[:, cols]``.  A ``bond_sum`` ``h0`` at ``p > 1``
    keeps the 16 entries of ``(b_k (x) b_k)^dagger bond (b_k (x) b_k)`` in ``c[k]``
    (:func:`_bond_kernel`, a node block at a time), and ``G[j]`` is the bond sum of
    the matching unit matrix between the level columns.  Other ``h0`` keep ``c[k] = g_k``, or ``c = 1`` and
    ``G = g`` formed on one node where neither ``a`` (a broadcast stack, as
    static frames keep) nor ``h0`` changes over the nodes.
    """
    h0, p = model.h0, frame.power
    a, u = frame.intertwiners, frame.initial_basis
    cols, rows = (_level_columns(frame.factor_ranks, p, level) for level in (n, m))
    h0_nodes = h0.sample(frame.grid)  # a constant operator's is a view of its matrix
    check_hermitian(h0_nodes if h0.value is None else h0.value, pol)
    bond = h0.bond is not None and p > 1
    one_node = not bond and a.strides[0] == 0 and (h0.value is not None or (h0_nodes == h0_nodes[0]).all())
    count = 1 if one_node else len(a)
    c = np.empty((count, 16 if bond else len(rows) * len(cols)), dtype=complex)
    size = _block(len(u) ** (2 if bond else p))  # bounds the (size, d^p, d^p) temporaries, p = 2 for a bond
    for start in range(0, count, size):
        nodes = slice(start, min(start + size, count))
        if bond:
            c[nodes] = _bond_kernel(h0.bond, a[nodes], u).T
        else:
            b = _tensor_power(_stack_matmul(a[nodes], u), p)
            c[nodes] = (b[..., rows].conj().swapaxes(-1, -2) @ h0_nodes[nodes] @ b[..., cols]).reshape(len(b), -1)
    blocks = _bond_sum(np.eye(16).reshape(16, 4, 4), h0.pairs, p, rows, cols).reshape(16, -1) if bond else None
    if one_node:
        c, blocks = np.ones((len(a), 1)), c
    return c, blocks


def _bond_kernel(bond: np.ndarray, a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``(b_k (x) b_k)^dagger bond (b_k (x) b_k)``, ``b_k = a_k u``, of a ``4 x 4`` ``bond`` at
    each matrix of the ``(K, 2, 2)`` stack ``a``, as ``(16, K)`` row-major entries: the bond
    tensor ``t[x1, x2, y1, y2]`` contracted one index at a time along the node axis, with
    ``b`` over ``y2`` and ``y1``, then ``b*`` over ``x2`` and ``x1`` (a stacked ``@`` costs
    about 0.3 us per ``4 x 4`` matrix)."""
    a = a.transpose(1, 2, 0)  # node axis last
    b = a[:, :1] * u[0][:, None] + a[:, 1:] * u[1][:, None]
    t, bc = bond.reshape(2, 2, 2, 2, 1), b.conj()
    x = t[:, :, :, :1] * b[0]
    x += t[:, :, :, 1:] * b[1]  # [x1, x2, y1, j2, k]; in place, as a fresh sum costs an allocation
    y = x[:, :, :1] * b[0][:, None]
    y += x[:, :, 1:] * b[1][:, None]  # [x1, x2, j1, j2, k]
    x = bc[0][:, None, None] * y[:, :1]
    x += bc[1][:, None, None] * y[:, 1:]  # [x1, i2, j1, j2, k]
    y = bc[0][:, None, None, None] * x[0]
    y += bc[1][:, None, None, None] * x[1]  # [i1, i2, j1, j2, k]
    return y.reshape(16, -1)


def transition_weight(h0, rho0, projector_m) -> float:
    """Coupling strength ``Tr{P_m H0 rho0 H0}`` of the ``n -> m`` channel."""
    p, h, r = (as_square_matrix(x) for x in (projector_m, h0, rho0))
    if not p.shape == h.shape == r.shape:
        raise ValidationError(f"transition_weight shape mismatch: {p.shape}, {h.shape}, {r.shape}")
    return float(np.sum((p @ h @ r) * h.T).real)


def _closed_form(name: str, evaluate: Callable[[], float]) -> float:
    """``evaluate()``, or :class:`NumericalError` when it leaves floating-point range.

    Python float arithmetic raises on an overflowing power or a division by
    an underflowed zero, ``math`` raises on infinite arguments, and an
    infinite or NaN result is caught here.
    """
    try:
        value = evaluate()
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        reason = exc.args[-1] if exc.args else type(exc).__name__
        raise NumericalError(f"{name} left floating-point range: {reason}") from None
    if not math.isfinite(value):
        raise NumericalError(f"{name} is not finite: {value!r}")
    return value


def pulsed_jump(trace_factor: float, coupling: float, tau: float, tau_free: float) -> float:
    """Jump probability for one free-then-measure cycle.

    The system evolves freely for ``tau_free`` and is measured (coupling
    ``coupling`` to the watched projector) for the remaining
    ``tau - tau_free``.  Closed form of the general double integral for this
    switching profile:

        W = trace_factor * [ tau_free^2
            + (4 tau_free / K) sin(K d / 2) cos(K d / 2)
            + (4 / K^2) sin^2(K d / 2) ],   d = tau - tau_free.

    Inputs whose intermediates or result leave floating-point range raise
    :class:`NumericalError`.
    """
    if trace_factor < 0:
        raise ValidationError(f"trace factor must be non-negative, got {trace_factor!r}")
    if not (coupling > 0):
        raise ValidationError("coupling must be positive")
    if not (0.0 <= tau_free <= tau):
        raise ValidationError("need 0 <= tau_free <= tau")

    def evaluate() -> float:
        half = 0.5 * coupling * (tau - tau_free)
        bracket = (
            tau_free**2
            + (4.0 * tau_free / coupling) * math.sin(half) * math.cos(half)
            + (4.0 / coupling**2) * math.sin(half) ** 2
        )
        return trace_factor * bracket

    return _closed_form("pulsed jump probability", evaluate)


def continuous_jump(trace_factor: float, coupling: float, delta_eps: float, tau: float) -> float:
    """Jump probability under a static measurement with level gap ``delta_eps``.

        W = trace_factor * 4 sin^2(K delta_eps tau / 2) / (K delta_eps)^2

    Inputs whose intermediates or result leave floating-point range raise
    :class:`NumericalError`.
    """
    if trace_factor < 0:
        raise ValidationError(f"trace factor must be non-negative, got {trace_factor!r}")
    if not (coupling > 0):
        raise ValidationError("coupling must be positive")
    if delta_eps == 0:
        raise ValidationError("level gap delta_eps must be nonzero")

    def evaluate() -> float:
        x = coupling * delta_eps
        return trace_factor * 4.0 * math.sin(0.5 * x * tau) ** 2 / x**2

    return _closed_form("continuous jump probability", evaluate)


def zeno_time(h0, rho0, projector_m) -> float:
    """Characteristic decay time ``1 / sqrt(Tr{P_m H0 rho0 H0})``.

    Returns ``inf`` when the channel weight vanishes (no second-order leak
    into ``m``); a weight below ``-1e-12`` marks inconsistent inputs.
    """
    factor = transition_weight(h0, rho0, projector_m)
    if factor < -1e-12:
        raise NumericalError(
            f"channel weight {factor:.3e} is negative beyond roundoff; "
            f"inputs are inconsistent"
        )
    if factor <= 1e-14:
        return math.inf
    return 1.0 / math.sqrt(factor)


@dataclasses.dataclass(frozen=True)
class SpectralDensity:
    """Discrete coupling density: weights ``g_m`` at level positions ``eps_m``."""

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ent = tuple((float(e), float(g)) for e, g in self.entries)
        if not ent:
            raise ValidationError("spectral density needs at least one entry")
        if not all(math.isfinite(e) and 0.0 <= g < math.inf for e, g in ent):
            raise ValidationError("spectral density needs finite non-negative weights at finite positions")
        object.__setattr__(self, "entries", ent)

    @classmethod
    def from_transitions(
        cls, h0, rho0, decomposition: ZenoDecomposition, n: int
    ) -> "SpectralDensity":
        """Channel weights out of level ``n`` of a static decomposition."""
        if not (0 <= n < decomposition.n_levels):
            raise ValidationError(f"level index {n} outside decomposition")
        entries = []
        for m in range(decomposition.n_levels):
            if m == n:
                continue
            y = decomposition.level_basis(m)
            g = transition_weight(h0, rho0, y @ y.conj().T)
            entries.append((float(decomposition.eigenvalues[m]), max(g, 0.0)))
        return cls(entries=tuple(entries))

    def total_weight(self) -> float:
        return sum(g for _, g in self.entries)

    def center(self) -> float:
        """Weight-averaged position (centre of gravity)."""
        total = self.total_weight()
        if total == 0:
            return 0.0
        return sum(e * g for e, g in self.entries) / total

    def width(self) -> float:
        """Weighted standard deviation of the positions."""
        total = self.total_weight()
        if total == 0:
            return 0.0
        c = self.center()
        var = sum(g * (e - c) ** 2 for e, g in self.entries) / total
        return math.sqrt(max(var, 0.0))


def decay_rate(density: SpectralDensity, eps_n: float, coupling: float, tau: float) -> float:
    """Per-cycle decay rate ``R = sum_m W_m(tau) / tau`` out of level ``n``."""
    _check_rate_inputs(density, eps_n, coupling, tau)
    return sum(continuous_jump(g, coupling, eps_m - eps_n, tau) / tau for eps_m, g in density.entries)


def _check_rate_inputs(density: SpectralDensity, eps_n: float, coupling: float, tau: float) -> None:
    """:class:`ValidationError` unless ``tau`` and ``coupling`` are positive and finite,
    ``eps_n`` is finite and ``density`` carries no weight at ``eps_n``."""
    _check_coupling(coupling)
    if not 0.0 < tau < math.inf:
        raise ValidationError(f"tau must be positive and finite, got {tau!r}")
    if not math.isfinite(eps_n):
        raise ValidationError(f"watched level eps_n must be finite, got {eps_n!r}")
    if any(eps_m == eps_n for eps_m, _ in density.entries):
        raise ValidationError(f"spectral density carries weight at the watched level eps_n={eps_n!r}")


def _filter_function(eps: float, eps_n: float, coupling: float, tau: float) -> float:
    delta = eps - eps_n
    return (
        4.0
        * math.sin(0.5 * coupling * delta * tau) ** 2
        / (2.0 * math.pi * coupling**2 * delta**2 * tau)
    )


@dataclasses.dataclass(frozen=True)
class SpectralOverlap:
    """Decay rate written as spectral overlap, with the Zeno-regime flag.

    ``qze`` is true when the measurement sampling frequency ``nu = 1/tau``
    dominates both the density width and the distance from the watched level
    to the density's centre of gravity by the policy margin.
    """

    rate: float
    qze: bool
    nu: float
    width: float
    center_gap: float
    margin: float


def spectral_overlap(
    density: SpectralDensity,
    eps_n: float,
    coupling: float,
    tau: float,
    policy: NumericPolicy | None = None,
) -> SpectralOverlap:
    """Rate as ``sum_m g_m 2 pi F(eps_m)`` with the sinc-squared filter ``F``.

    Algebraically identical to :func:`decay_rate`; evaluated through the
    filter-function route as an independent cross-check of that identity.
    """
    pol = default_policy(policy)
    _check_rate_inputs(density, eps_n, coupling, tau)
    rate = _closed_form(
        "spectral overlap rate",
        lambda: sum(g * 2.0 * math.pi * _filter_function(e, eps_n, coupling, tau) for e, g in density.entries),
    )
    nu = 1.0 / tau
    width = density.width()
    center_gap = abs(eps_n - density.center())
    scale = max(width, center_gap)
    qze = bool(nu >= pol.qze_margin * scale)
    return SpectralOverlap(
        rate=rate, qze=qze, nu=nu, width=width, center_gap=center_gap, margin=pol.qze_margin
    )


def survival_power(w_cycle: float, n_cycles: int) -> float:
    """Survival after ``n_cycles`` independent cycles, ``w_cycle`` each."""
    if not (0.0 <= w_cycle <= 1.0):
        raise ValidationError("per-cycle survival must lie in [0, 1]")
    if not (0 <= n_cycles < math.inf):
        raise ValidationError(f"cycle count must be finite and non-negative, got {n_cycles!r}")
    return w_cycle**n_cycles


def survival_exponential(rate: float, n_cycles: int, tau: float) -> float:
    """Exponential-law survival ``exp(-rate * n_cycles * tau)``."""
    if not (0.0 <= rate < math.inf and 0 <= n_cycles < math.inf and 0.0 <= tau < math.inf):
        raise ValidationError(f"rate, n_cycles, tau must be finite and >= 0, got {(rate, n_cycles, tau)}")
    return math.exp(-rate * n_cycles * tau)

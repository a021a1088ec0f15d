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
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .decomposition import AdiabaticFrame, AdiabaticityReport, TimeDependentOperator, ZenoDecomposition, _check_coupling, adiabaticity_report
from .errors import NumericalError, QuadratureError, ValidationError
from .operators import check_density, check_projector, max_norm, trace_product
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

        Its call checks each sample once: the terms are evaluated with
        :meth:`TimeDependentOperator.unchecked` and the sum is checked.
        """
        h0, h_meas, k = self.h0, self.h_meas, self.coupling
        breaks = sorted(set(h0.breakpoints) | set(h_meas.breakpoints))
        return TimeDependentOperator(
            evaluator=lambda t: h0.unchecked(t) + k * h_meas.unchecked(t),
            horizon=self.horizon,
            dim=self.dim,
            breakpoints=tuple(breaks),
        )


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
            raise ValidationError(
                f"abs_floor: must be non-negative and finite, got {self.abs_floor!r}"
            )


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
) -> JumpResult:
    """Second-order jump probability from level ``n`` to level ``m``.

    The double time integral runs over the frame's grid span with a
    tensor-product composite Simpson rule; the frame-conjugated perturbation
    ``f(t_k)`` is evaluated once per node and the transition phase is read
    from the frame's accumulated phase arrays.  Refinement steps through the
    stride-4 / stride-2 / stride-1 subsets of the grid, so the grid interval
    count must be divisible by 8 and the spacing uniform; the rule refuses to
    run when the grid resolves the fastest transition phase with fewer than
    10 nodes per period.

    ``target_projector`` restricts the arrival projector to a sub-projector
    of level ``m`` (useful when a degenerate level is watched channel by
    channel); by default the level's full projector is used.

    The initial state must already live in level ``n``:
    ``rho0 = P_n(0) rho0 P_n(0)`` within 1e-8.
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

    pn0, pm0 = frame.initial_projectors[n], frame.initial_projectors[m]
    if max_norm(rho - pn0 @ rho @ pn0) > 1e-8:
        raise ValidationError(
            "initial state is not confined to level n: "
            "rho0 != P_n(0) rho0 P_n(0) within 1e-8"
        )
    if target_projector is None:
        target = pm0
    else:
        target = check_projector(target_projector, pol)
        if max_norm(pm0 @ target @ pm0 - target) > 1e-8:
            raise ValidationError("target_projector must be a sub-projector of level m at t=0")

    grid = frame.grid
    n_int = len(grid) - 1
    steps = np.diff(grid)
    span = float(grid[-1] - grid[0])
    if max_norm(steps - steps[0]) > 1e-9 * span:
        raise ValidationError("general_jump requires a uniform frame grid")
    if n_int % 8 != 0:
        raise ValidationError(
            f"frame grid has {n_int} intervals; the Simpson refinement ladder needs "
            f"a multiple of 8"
        )

    lam = frame.phases[m] - frame.phases[n]
    rate = float(np.max(np.abs(frame.coupling * (frame.eigenvalues[m] - frame.eigenvalues[n]))))
    if rate > 0.0:
        period = 2.0 * math.pi / rate
        if steps[0] > period / 10.0:
            needed = int(math.ceil(span / (period / 10.0))) + 1
            raise QuadratureError(
                f"grid undersamples the transition phase: {period / steps[0]:.2f} nodes "
                f"per oscillation period, need >= 10 (about {needed} nodes over the span)"
            )

    h0_nodes = model.h0.sample(grid)
    a = frame.intertwiners
    f_nodes = a.conj().swapaxes(-1, -2) @ h0_nodes @ a

    values: list[complex] = []
    for stride in (4, 2, 1):
        idx = np.arange(0, n_int + 1, stride)
        w = _simpson_weights(len(idx) - 1, steps[0] * stride)
        amp = w * np.exp(1j * lam[idx])
        f_sum = np.tensordot(amp, f_nodes[idx], axes=(0, 0))
        values.append(complex(np.trace(f_sum @ rho @ f_sum.conj().T @ target)))

    est_error = abs(values[-1] - values[-2])
    raw = values[-1]
    value = raw.real
    imag_residual = abs(raw.imag)
    if est_error > qd.rel_tol * abs(value) + qd.abs_floor:
        raise QuadratureError(
            f"jump quadrature not converged: last refinement changed the value by "
            f"{est_error:.3e} (target {qd.rel_tol:.1e} relative); provide a denser frame grid",
            last_result=value,
        )
    if imag_residual > pol.imag_residual_tol * (1.0 + abs(value)):
        raise NumericalError(
            f"jump kernel lost hermiticity: imaginary residual {imag_residual:.3e}"
        )

    report = adiabaticity_report(
        model.h_meas, frame.coupling, grid, pol, degeneracy_tol=frame.degeneracy_tol
    )
    warnings: list[str] = []
    if value > 0.5:
        warnings.append(
            f"perturbation theory unreliable: jump probability {value:.3g} > 0.5"
        )
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


def transition_weight(h0, rho0, projector_m) -> float:
    """Coupling strength ``Tr{P_m H0 rho0 H0}`` of the ``n -> m`` channel."""
    val = trace_product([projector_m, h0, rho0, h0])
    return float(val.real)


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
        if any(g < 0 for _, g in ent):
            raise ValidationError("spectral density weights must be non-negative")
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
            g = transition_weight(h0, rho0, decomposition.projectors[m])
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
    if not (tau > 0):
        raise ValidationError("tau must be positive")
    total = 0.0
    for eps_m, g in density.entries:
        if eps_m == eps_n:
            raise ValidationError(
                f"spectral density carries weight at the watched level eps_n={eps_n!r}"
            )
        total += continuous_jump(g, coupling, eps_m - eps_n, tau) / tau
    return total


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
    if not (tau > 0):
        raise ValidationError("tau must be positive")
    rate = 0.0
    for eps_m, g in density.entries:
        if eps_m == eps_n:
            raise ValidationError(
                f"spectral density carries weight at the watched level eps_n={eps_n!r}"
            )
        rate += g * 2.0 * math.pi * _filter_function(eps_m, eps_n, coupling, tau)
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
    if n_cycles < 0:
        raise ValidationError("cycle count must be non-negative")
    return w_cycle**n_cycles

def survival_exponential(rate: float, n_cycles: int, tau: float) -> float:
    """Exponential-law survival ``exp(-rate * n_cycles * tau)``."""
    if rate < 0:
        raise ValidationError("rate must be non-negative")
    return math.exp(-rate * n_cycles * tau)

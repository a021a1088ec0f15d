"""Time-evolution operators.

``exact_propagator`` is the reference route: a time-ordered product of
fourth-order Magnus step exponentials (two Gauss-Legendre samples and their
commutator per step; Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009))
with step doubling until successive refinements agree.
``adiabatic_propagator`` is the measurement-dominated approximation
``A(t) Phi(t)`` read off an :class:`AdiabaticFrame`; the two emit the same
states in the strong-coupling limit and their disagreement is a diagnostic,
not an error.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .decomposition import AdiabaticFrame, TimeDependentOperator
from .errors import NumericalError, ValidationError
from .operators import matrix_exp_unitary, max_norm
from .policy import NumericPolicy, default_policy

__all__ = ["PropagatorResult", "exact_propagator", "adiabatic_propagator"]


@dataclasses.dataclass(frozen=True)
class PropagatorResult:
    """Unitary with the step count and convergence estimate that produced it."""

    matrix: np.ndarray
    steps_used: int
    est_error: float


def _segments(op: TimeDependentOperator, t_final: float) -> list[tuple[float, float]]:
    t0 = op.horizon[0]
    edges = [t0] + [b for b in op.breakpoints if t0 < b < t_final] + [t_final]
    return list(zip(edges[:-1], edges[1:]))


#: offset of the two Gauss-Legendre nodes from the step midpoint, in steps
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
#: weight of the commutator term of the fourth-order Magnus exponent
_COMMUTATOR_WEIGHT = math.sqrt(3.0) / 12.0


#: matrix entries per stack of Gauss samples; bounds the temporaries of a refinement
_STACK_ENTRIES = 2**16


def _product_over(op, segments, steps_per: list[int], policy) -> np.ndarray:
    """Time-ordered product of fourth-order Magnus steps.

    Step ``[s, s + dt]`` samples ``H1`` and ``H2`` at the two Gauss nodes
    ``s + (1/2 -+ sqrt(3)/6) dt`` and applies ``exp(-i G)`` with the
    Hermitian exponent ``G = dt/2 (H1 + H2) + i sqrt(3)/12 dt^2 [H1, H2]``.
    The samples and exponents of a segment's steps are formed as stacks of
    at most ``_STACK_ENTRIES`` matrix entries (at least one step); each
    exponential is taken on its own, in time order.
    """
    u = np.eye(op.dim, dtype=complex)
    block = max(1, _STACK_ENTRIES // (2 * op.dim**2))
    for (a, b), n in zip(segments, steps_per):
        dt = (b - a) / n
        for start in range(0, n, block):
            mid = a + (np.arange(start, min(start + block, n)) + 0.5) * dt
            nodes = np.concatenate([mid - _GAUSS_OFFSET * dt, mid + _GAUSS_OFFSET * dt])
            h1, h2 = np.split(op.sample(nodes), 2)
            g = 0.5 * dt * (h1 + h2) + (1j * _COMMUTATOR_WEIGHT * dt * dt) * (h1 @ h2 - h2 @ h1)
            for step in g:
                u = matrix_exp_unitary(step, 1.0, policy) @ u
    return u


def exact_propagator(
    h_total: TimeDependentOperator,
    t_final: float,
    tol: float = 1e-8,
    max_doublings: int = 20,
    policy: NumericPolicy | None = None,
) -> PropagatorResult:
    """Reference propagator ``U(t_final, t0)`` by fourth-order Magnus steps.

    Each step exponentiates the 2-point Gauss Magnus exponent (see
    ``_product_over``), so the product is unitary by construction, its error
    falls as ``steps**-4`` on smooth pieces, and it is exact on constant
    pieces, where the commutator term vanishes.  Breakpoints of the
    Hamiltonian always land on step boundaries.  The total step count
    doubles until two successive refinements differ by less than ``tol`` in
    max norm; the last difference is reported as ``est_error``.  ``tol`` must
    be positive and finite (anything else could never be met), else
    :class:`ValidationError` before any step.
    Raises :class:`NumericalError` carrying the last estimate if the budget of
    ``max_doublings`` (at least 1) is exhausted.
    """
    pol = default_policy(policy)
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"tol must be positive and finite, got {tol!r}")
    if max_doublings < 1:
        raise ValidationError(f"max_doublings must be >= 1, got {max_doublings!r}")
    t0, t1 = h_total.horizon
    if not (t0 < t_final <= t1 + 1e-12 * (1.0 + abs(t1))):
        raise ValidationError(f"t_final {t_final!r} outside horizon ({t0}, {t1}]")
    segments = _segments(h_total, float(t_final))
    total = float(t_final) - t0
    base = max(8, 2 * len(segments))

    def counts(n_total: int) -> list[int]:
        return [max(1, int(round(n_total * (b - a) / total))) for a, b in segments]

    prev = _product_over(h_total, segments, counts(base), pol)
    steps = base
    for _ in range(max_doublings):
        steps *= 2
        cur = _product_over(h_total, segments, counts(steps), pol)
        diff = max_norm(cur - prev)
        if diff < tol:
            return PropagatorResult(matrix=cur, steps_used=sum(counts(steps)), est_error=diff)
        prev = cur
    raise NumericalError(
        f"exact propagator did not converge below {tol:.1e} after "
        f"{max_doublings} doublings (last change {diff:.3e})",
        last_result=PropagatorResult(matrix=prev, steps_used=sum(counts(steps)), est_error=diff),
    )


def adiabatic_propagator(frame: AdiabaticFrame, t: float) -> np.ndarray:
    """Zeroth-order propagator ``A(t) Phi(t)`` at a frame grid node.

    ``Phi(t) = sum_l exp(-i phase_l(t)) P_l(0)``.  Requesting a time between
    grid nodes is an error; frames are never interpolated.
    """
    k = frame.node_index(float(t))
    phi = np.tensordot(np.exp(-1j * frame.phases[:, k]), frame.initial_projectors, axes=(0, 0))
    return frame.intertwiners[k] @ phi

"""Time-evolution operators.

``exact_propagator`` is the reference route: a time-ordered product of
sixth-order Magnus step exponentials (three Gauss-Legendre samples and their
nested commutators per step; Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151
(2009), section 4) with step doubling until successive refinements agree.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .decomposition import TimeDependentOperator
from .errors import NumericalError, ValidationError
from .operators import matrix_exp_unitary, max_norm
from .policy import NumericPolicy, default_policy

__all__ = ["PropagatorResult", "exact_propagator"]


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


#: offset of the outer Gauss-Legendre nodes from the step midpoint, in steps
_GAUSS_OFFSET = math.sqrt(15.0) / 10.0


#: a doubling that cuts the change by this factor (half the sixth-order 2**6)
#: shows the ladder has resolved the dynamics; only then can it stall
_RESOLVED_SHRINK = 2.0**5

#: matrix entries per stack of Gauss samples; bounds the temporaries of a refinement
_STACK_ENTRIES = 2**16


def _bracket(x, y):
    """``-i [x, y]``, Hermitian for Hermitian ``x`` and ``y`` (stacks too)."""
    return -1j * (x @ y - y @ x)


def _magnus_exponent(h1, h2, h3, dt: float):
    """Hermitian sixth-order Magnus exponent ``G`` of one step, ``U = exp(-i G)``.

    ``h1``, ``h2``, ``h3`` are the samples at the Gauss nodes
    ``s + (1/2 - sqrt(15)/10, 1/2, 1/2 + sqrt(15)/10) dt``.  With
    ``a1 = dt h2``, ``a2 = sqrt(15)/3 dt (h3 - h1)``,
    ``a3 = 10/3 dt (h3 - 2 h2 + h1)``, ``c1 = -i [a1, a2]`` and
    ``c2 = -1/60 (-i [a1, 2 a3 + c1])``, the exponent is
    ``G = a1 + a3/12 + 1/240 (-i [-20 a1 - a3 + c1, a2 + c2])``: the Hermitian
    form of Blanes et al.'s ``Omega = -i G`` with ``A_j = -i h_j``.  On a
    constant piece ``a2 = a3 = 0`` and ``G = dt h2`` exactly.
    """
    a1 = dt * h2
    a2 = (math.sqrt(15.0) / 3.0 * dt) * (h3 - h1)
    a3 = (10.0 / 3.0 * dt) * (h3 - 2.0 * h2 + h1)
    c1 = _bracket(a1, a2)
    c2 = _bracket(a1, 2.0 * a3 + c1) / -60.0
    return a1 + a3 / 12.0 + _bracket(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0


def _product_over(op, segments, steps_per: list[int], policy) -> np.ndarray:
    """Time-ordered product of sixth-order Magnus steps.

    Step ``[s, s + dt]`` samples ``H`` at its three Gauss nodes and applies
    ``exp(-i G)`` with the exponent of :func:`_magnus_exponent`, which must
    stay in float range.  The samples and exponents of a segment's steps are
    formed as stacks of at most ``_STACK_ENTRIES`` matrix entries (at least
    one step); each exponential is taken on its own, in time order.
    """
    u = np.eye(op.dim, dtype=complex)
    block = max(1, _STACK_ENTRIES // (3 * op.dim**2))
    for (a, b), n in zip(segments, steps_per):
        dt = (b - a) / n
        for start in range(0, n, block):
            mid = a + (np.arange(start, min(start + block, n)) + 0.5) * dt
            nodes = np.concatenate([mid - _GAUSS_OFFSET * dt, mid, mid + _GAUSS_OFFSET * dt])
            samples = op.sample(nodes)
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite exponent raises below
                exponents = _magnus_exponent(*np.split(samples, 3), dt)
            if not np.isfinite(exponents).all():
                raise NumericalError(f"Magnus exponent leaves float range: step {dt:.3g}, max|H| {max_norm(samples):.3g}")
            for step in exponents:
                u = matrix_exp_unitary(step, 1.0, policy) @ u
    return u


def exact_propagator(
    h_total: TimeDependentOperator,
    t_final: float,
    tol: float = 1e-8,
    max_doublings: int = 20,
    policy: NumericPolicy | None = None,
) -> PropagatorResult:
    """Reference propagator ``U(t_final, t0)`` by sixth-order Magnus steps.

    Each step exponentiates the 3-point Gauss Magnus exponent (see
    ``_magnus_exponent``), so the product is unitary by construction, its
    error falls as ``steps**-6`` on smooth pieces, and it is exact on
    constant pieces, where the commutator terms vanish.  Breakpoints of the
    Hamiltonian always land on step boundaries.  The total step count
    doubles until two successive refinements differ by less than ``tol`` in
    max norm; the last difference is reported as ``est_error``.  ``tol`` must
    be positive and finite (anything else could never be met), else
    :class:`ValidationError` before any step.
    Raises :class:`NumericalError` carrying the last estimate if the budget of
    ``max_doublings`` (at least 1) is exhausted, or as soon as the difference
    has failed to shrink on two doublings in a row once some doubling has cut
    it ``_RESOLVED_SHRINK``-fold: rounding has then set a floor above
    ``tol``, and further doublings would only cost time.  Before such a cut
    the steps do not yet resolve the dynamics and the differences wander at
    order one, so a rise there is no stall.
    """
    pol = default_policy(policy)
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"tol must be positive and finite, got {tol!r}")
    if max_doublings < 1:
        raise ValidationError(f"max_doublings must be >= 1, got {max_doublings!r}")
    t0, t1 = h_total.horizon
    if not (t0 < t_final <= t1 + h_total.slack):
        raise ValidationError(f"t_final {t_final!r} outside horizon ({t0}, {t1}]")
    segments = _segments(h_total, float(t_final))
    total = float(t_final) - t0
    base = max(8, 2 * len(segments))

    def counts(n_total: int) -> list[int]:
        return [max(1, int(round(n_total * (b - a) / total))) for a, b in segments]

    prev = _product_over(h_total, segments, counts(base), pol)
    # last = 0: the first change can neither show resolution nor stall
    steps, last, resolved, stalls = base, 0.0, False, 0
    for doublings in range(1, max_doublings + 1):
        steps *= 2
        cur = _product_over(h_total, segments, counts(steps), pol)
        diff = max_norm(cur - prev)
        if diff < tol:
            return PropagatorResult(matrix=cur, steps_used=sum(counts(steps)), est_error=diff)
        resolved = resolved or _RESOLVED_SHRINK * diff <= last
        stalls = stalls + 1 if resolved and diff >= last else 0
        prev, last = cur, diff
        if stalls == 2:
            break
    raise NumericalError(
        f"exact propagator did not converge below {tol:.1e} after "
        f"{doublings} doublings (last change {diff:.3e})",
        last_result=PropagatorResult(matrix=prev, steps_used=sum(counts(steps)), est_error=diff),
    )

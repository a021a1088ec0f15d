"""Perturbative-vs-exact cross checks for jump probabilities.

The second-order result is validated against brute-force time evolution: the
state is propagated with the full Hamiltonian while the watched Zeno subspace
is carried along by the measurement-only propagator,

    W_exact = Tr[ U rho0 U^dagger . U0 P_m(0) U0^dagger ],

with both ``U`` (full) and ``U0`` (measurement only) computed by
``exact_propagator``.  Transporting the target with the measurement evolution
keeps every object in the oracle free of the adiabatic approximation, so the
reported gap isolates the perturbative truncation error.  Transport
``"instantaneous"`` (eigenprojector of the final-time measurement operator)
is offered as well; it folds the frame's own adiabatic error into the gap,
which is the right tool when that error is the thing under study.

The relative gap is measured against the larger of the two magnitudes (the
``math.isclose`` convention), so the comparison is symmetric in its
arguments.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .decomposition import AdiabaticFrame, AdiabaticityReport, TimeDependentOperator
from .errors import NumericalError, ValidationError
from .jump import JumpResult, MeasurementModel, QuadraturePolicy, general_jump
from .operators import check_density
from .policy import NumericPolicy, default_policy
from .propagators import exact_propagator

__all__ = ["JumpComparison", "exact_jump", "compare_jump"]

#: comparison verdicts; "out-of-validity" means the perturbative result was
#: outside its own validity regime, so the gap is reported but not judged
STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_OUT_OF_VALIDITY = "out-of-validity"

_TRANSPORTS = ("measurement", "instantaneous")
#: comparison defaults, of the keywords below and of the ``[compare]`` config section
_BOUND, _TRANSPORT, _EXACT_TOL = 0.1, "measurement", 1e-8


@dataclasses.dataclass(frozen=True)
class JumpComparison:
    """One perturbative value against its exact-propagator counterpart.

    ``est_error`` is the perturbative quadrature's error estimate.  The
    oracle's cost and accuracy are ``exact_steps``, the accepted steps of
    every exact propagator it ran (full plus measurement-only), and
    ``exact_est_error``, the larger of their last-doubling changes.
    """

    perturbative: float
    exact: float
    abs_gap: float
    rel_gap: float
    status: str
    bound: float
    transport: str
    adiabaticity: AdiabaticityReport
    est_error: float
    exact_steps: int
    exact_est_error: float
    warnings: tuple[str, ...] = ()

    @property
    def within_bound(self) -> bool:
        return self.rel_gap <= self.bound


def _scaled_measurement(model: MeasurementModel) -> TimeDependentOperator:
    # the wrapper's call checks each sample, so the inner one is not checked again
    k = model.coupling
    h_meas = model.h_meas
    return TimeDependentOperator(
        evaluator=lambda t: k * h_meas.unchecked(t),
        horizon=model.horizon,
        dim=model.dim,
        breakpoints=h_meas.breakpoints,
    )


def _oracle_jump(model, rho0, m, frame, transport, tol, policy) -> tuple[float, int, float]:
    """``exact_jump`` with the oracle's summed steps and larger ``est_error``."""
    pol = default_policy(policy)
    if transport not in _TRANSPORTS:
        raise ValidationError(f"unknown transport {transport!r}; choose from {_TRANSPORTS}")
    if not (0 <= m < frame.n_levels):
        raise ValidationError(f"level index {m} outside 0..{frame.n_levels - 1}")
    if model.dim != frame.dim:
        raise ValidationError("model and frame dimensions disagree")
    rho = check_density(rho0, pol)
    t0, t1 = model.horizon
    runs = [exact_propagator(model.full_hamiltonian(), t1, tol=tol, policy=pol)]
    if transport == "measurement":
        runs.append(exact_propagator(_scaled_measurement(model), t1, tol=tol, policy=pol))
        u_meas = runs[1].matrix
        target = u_meas @ frame.initial_projectors[m] @ u_meas.conj().T
    else:
        target = frame.final_projectors[m]
    u_full = runs[0].matrix
    rho_t = u_full @ rho @ u_full.conj().T
    val = complex(np.trace(rho_t @ target))
    if abs(val.imag) > pol.imag_residual_tol * (1.0 + abs(val.real)):
        raise NumericalError(
            f"exact jump probability lost realness: imaginary residual {abs(val.imag):.3e}"
        )
    return float(val.real), sum(r.steps_used for r in runs), max(r.est_error for r in runs)


def exact_jump(
    model: MeasurementModel,
    rho0,
    m: int,
    frame: AdiabaticFrame,
    transport: str = _TRANSPORT,
    tol: float = _EXACT_TOL,
    policy: NumericPolicy | None = None,
) -> float:
    """Jump probability into level ``m`` from brute-force time evolution.

    The state is evolved under the full Hamiltonian; the arrival projector is
    either the initial level projector transported by the exact measurement
    propagator (``transport="measurement"``) or the instantaneous level
    projector ``final_projectors[m]`` at the last node (``"instantaneous"``).
    """
    return _oracle_jump(model, rho0, m, frame, transport, tol, policy)[0]


def compare_jump(
    model: MeasurementModel,
    rho0,
    n: int,
    m: int,
    frame: AdiabaticFrame,
    bound: float = _BOUND,
    transport: str = _TRANSPORT,
    exact_tol: float = _EXACT_TOL,
    quad: QuadraturePolicy | None = None,
    policy: NumericPolicy | None = None,
) -> JumpComparison:
    """Second-order jump probability against the exact-propagator oracle.

    The relative gap is ``|W_pert - W_exact| / max(|W_pert|, |W_exact|,
    1e-12)``.  When the frame's adiabaticity diagnostic fails, the comparison
    is reported with status ``"out-of-validity"`` instead of being judged
    against ``bound``: outside the validity regime a large gap is expected
    and is not a defect of either route.
    """
    if not (bound > 0):
        raise ValidationError("comparison bound must be positive")
    pert: JumpResult = general_jump(model, rho0, n, m, frame, quad=quad, policy=policy)
    exact, exact_steps, exact_est_error = _oracle_jump(
        model, rho0, m, frame, transport, exact_tol, policy
    )
    abs_gap = abs(pert.value - exact)
    rel_gap = abs_gap / max(abs(pert.value), abs(exact), 1e-12)
    if not pert.adiabaticity.adiabatic:
        status = STATUS_OUT_OF_VALIDITY
    elif rel_gap <= bound:
        status = STATUS_PASS
    else:
        status = STATUS_FAIL
    return JumpComparison(
        perturbative=pert.value,
        exact=exact,
        abs_gap=abs_gap,
        rel_gap=rel_gap,
        status=status,
        bound=bound,
        transport=transport,
        adiabaticity=pert.adiabaticity,
        est_error=pert.est_error,
        exact_steps=exact_steps,
        exact_est_error=exact_est_error,
        warnings=pert.warnings,
    )

"""Unit tests for the exact and adiabatic propagators."""

import numpy as np
import pytest
import scipy.linalg

import zenojump as zj
from zenojump.compare import _scaled_measurement
from zenojump import propagators
from zenojump.propagators import _product_over, _segments

from properties import level_projectors, random_hermitian
from test_decomposition import rotation_family


def test_constant_hamiltonian_matches_expm():
    rng = np.random.default_rng(31)
    h = random_hermitian(rng, 4)
    op = zj.TimeDependentOperator.constant(h, (0.0, 2.0))
    res = zj.exact_propagator(op, 2.0, tol=1e-10)
    ref = scipy.linalg.expm(-2j * h)
    assert np.max(np.abs(res.matrix - ref)) < 1e-9
    assert res.est_error < 1e-10
    assert res.steps_used >= 16


def test_piecewise_constant_hamiltonian_is_exact():
    # The Magnus step is exact on each constant piece; breakpoints are
    # forced onto step boundaries so the product telescopes exactly.
    rng = np.random.default_rng(32)
    h_a = random_hermitian(rng, 3)
    h_b = random_hermitian(rng, 3)
    op = zj.TimeDependentOperator(
        evaluator=lambda t: h_a if t < 0.4 else h_b,
        horizon=(0.0, 1.0),
        dim=3,
        breakpoints=(0.4,),
    )
    res = zj.exact_propagator(op, 1.0, tol=1e-9)
    ref = scipy.linalg.expm(-1j * h_b * 0.6) @ scipy.linalg.expm(-1j * h_a * 0.4)
    assert np.max(np.abs(res.matrix - ref)) < 1e-9


def test_time_dependent_propagator_against_ode_solver():
    from scipy.integrate import solve_ivp

    rng = np.random.default_rng(33)
    gen = random_hermitian(rng, 3, scale=0.6)
    base = np.diag([-1.0, 0.5, 2.0]).astype(complex)
    op = rotation_family(gen, base)
    res = zj.exact_propagator(op, 1.0, tol=1e-9)

    def rhs(t, y):
        u = y.reshape(3, 3)
        return (-1j * op(t) @ u).ravel()

    sol = solve_ivp(
        rhs, (0.0, 1.0), np.eye(3, dtype=complex).ravel(),
        method="DOP853", rtol=1e-10, atol=1e-12,
    )
    ref = sol.y[:, -1].reshape(3, 3)
    assert np.max(np.abs(res.matrix - ref)) < 1e-7


def test_composition_over_subintervals():
    rng = np.random.default_rng(34)
    gen = random_hermitian(rng, 2, scale=0.5)
    op = rotation_family(gen, zj.SIGMA_Z)
    tol = 1e-9
    u_full = zj.exact_propagator(op, 1.0, tol=tol).matrix
    u_first = zj.exact_propagator(op, 0.5, tol=tol).matrix

    def shifted(t):
        return op(t + 0.5)

    op_second = zj.TimeDependentOperator(evaluator=shifted, horizon=(0.0, 0.5), dim=2)
    u_second = zj.exact_propagator(op_second, 0.5, tol=tol).matrix
    assert np.max(np.abs(u_second @ u_first - u_full)) < 1e-6


def test_propagator_validates_t_final():
    op = zj.TimeDependentOperator.constant(zj.SIGMA_Z, (0.0, 1.0))
    with pytest.raises(zj.ValidationError, match="horizon"):
        zj.exact_propagator(op, 2.0)
    with pytest.raises(zj.ValidationError, match="horizon"):
        zj.exact_propagator(op, 0.0)


def test_propagator_reads_the_operator_horizon_slack():
    # t_final may pass the horizon end by the same slack that sampling allows.
    op = zj.TimeDependentOperator.constant(zj.SIGMA_Z, (-5.0, 1.0))
    assert op.slack == 1e-12 * 7.0
    assert op.sample([1.0 + 0.5 * op.slack]).shape == (1, 2, 2)
    u = zj.exact_propagator(op, 1.0 + 0.5 * op.slack).matrix
    assert np.allclose(u, np.diag(np.exp([-6j, 6j])), rtol=0.0, atol=1e-10)
    with pytest.raises(zj.ValidationError, match="horizon"):
        zj.exact_propagator(op, 1.0 + 2.0 * op.slack)


def test_propagator_budget_exhaustion_carries_estimate():
    rng = np.random.default_rng(35)
    gen = random_hermitian(rng, 2, scale=2.0)
    op = rotation_family(gen, 5.0 * zj.SIGMA_Z)
    with pytest.raises(zj.NumericalError, match="did not converge") as exc:
        zj.exact_propagator(op, 1.0, tol=1e-16, max_doublings=3)
    carried = exc.value.last_result
    assert isinstance(carried, zj.PropagatorResult)
    assert carried.est_error > 1e-16


def test_pure_measurement_conserves_transported_populations():
    # Under H = K * H_meas(t) alone, the population of the transported level
    # U0 P_n(0) U0^dagger is constant because U0 intertwines the levels.
    rng = np.random.default_rng(36)
    gen = random_hermitian(rng, 3, scale=0.5)
    base = np.diag([-1.0, 0.0, 1.0]).astype(complex)
    coupling = 6.0
    h_meas = rotation_family(gen, base)
    scaled = zj.TimeDependentOperator(
        evaluator=lambda t: coupling * h_meas(t),
        horizon=h_meas.horizon,
        dim=3,
        derivative_evaluator=lambda t: coupling * h_meas.derivative_evaluator(t),
    )
    frame = zj.track_frame(h_meas, np.linspace(0.0, 1.0, 129))
    p0 = level_projectors(frame)[1]
    vec = p0 @ rng.normal(size=3)
    vec = vec / np.linalg.norm(vec)
    rho0 = np.outer(vec, vec.conj())
    for t in (0.5, 1.0):
        u0 = zj.exact_propagator(scaled, t, tol=1e-8).matrix
        rho_t = u0 @ rho0 @ u0.conj().T
        p_t = u0 @ p0 @ u0.conj().T
        pop = float(np.trace(rho_t @ p_t).real)
        assert pop == pytest.approx(1.0, abs=1e-6)


def test_exact_propagator_rejects_a_budget_without_doublings():
    op = zj.TimeDependentOperator.constant(zj.SIGMA_X, (0.0, 1.0))
    for budget in (0, -1):
        with pytest.raises(zj.ValidationError, match="max_doublings"):
            zj.exact_propagator(op, 1.0, max_doublings=budget)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_exact_propagator_rejects_a_tolerance_it_cannot_meet(tol):
    # 0, a negative value or NaN is never met, so the steps would double until
    # the budget runs out; inf would accept the first refinement unchecked.
    samples = []
    op = zj.TimeDependentOperator(
        evaluator=lambda t: samples.append(t) or zj.SIGMA_X, horizon=(0.0, 1.0), dim=2
    )
    with pytest.raises(zj.ValidationError, match="^tol must be positive and finite"):
        zj.exact_propagator(op, 1.0, tol=tol)
    assert samples == []  # rejected before any step


# --- sixth-order Magnus step ------------------------------------------------


def test_magnus_step_has_observed_order_six():
    rng = np.random.default_rng(41)
    gen = random_hermitian(rng, 3, scale=1.0)
    op = rotation_family(gen, np.diag([-1.0, 0.5, 2.0]).astype(complex))
    pol = zj.NumericPolicy()
    us = {n: _product_over(op, [(0.0, 1.0)], [n], pol) for n in (8, 16, 32)}
    ratio = zj.max_norm(us[8] - us[16]) / zj.max_norm(us[16] - us[32])
    assert 5.5 < np.log2(ratio) < 6.5


def _chain_at(h):
    return zj.spin_chain_model(zj.SpinChainSpec(n_sites=2, h=h)).full_hamiltonian()


def _midpoint_doubling_steps(op, tol):
    """Step count the step-doubled midpoint product needs to converge below ``tol``.

    The chain Hamiltonian is affine in ``s``, so every midpoint sample of a
    pass comes from its two end values in one stacked expression.
    """
    a = op(0.0)
    b = op(1.0) - a

    def product(n):
        mids = (np.arange(n) + 0.5) / n
        vals, vecs = np.linalg.eigh(a + mids[:, None, None] * b)
        step = (vecs * np.exp(-1j * vals / n)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
        while len(step) > 1:
            step = step[1::2] @ step[0::2]
        return step[0]

    steps, prev = 8, product(8)
    for _ in range(14):
        steps *= 2
        cur = product(steps)
        if zj.max_norm(cur - prev) < tol:
            return steps
        prev = cur
    raise AssertionError(f"midpoint reference not converged at {steps} steps")


def test_chain_propagator_matches_ode_reference():
    from scipy.integrate import solve_ivp

    op = _chain_at(15.0)
    res = zj.exact_propagator(op, 1.0, tol=1e-8)

    def rhs(t, y):
        return (-1j * op(t) @ y.reshape(4, 4)).ravel()

    sol = solve_ivp(
        rhs, (0.0, 1.0), np.eye(4, dtype=complex).ravel(),
        method="DOP853", rtol=1e-12, atol=1e-14,
    )
    assert sol.success
    assert np.max(np.abs(res.matrix - sol.y[:, -1].reshape(4, 4))) <= 1e-7


def test_chain_propagator_needs_a_sixteenth_of_the_midpoint_steps():
    op = _chain_at(15.0)
    res = zj.exact_propagator(op, 1.0, tol=1e-8)
    assert 16 * res.steps_used <= _midpoint_doubling_steps(op, 1e-8)


def test_chain_propagator_accepts_at_most_256_steps():
    # The fourth-order two-node step needed 1024 here.
    assert zj.exact_propagator(_chain_at(15.0), 1.0, tol=1e-8).steps_used <= 256


def _fourth_order_product(op, n):
    """The two-node fourth-order Magnus product of ``n`` steps over ``[0, 1]``.

    ``G = dt/2 (H1 + H2) + i sqrt(3)/12 dt^2 [H1, H2]`` at the Gauss nodes
    ``(1/2 -+ sqrt(3)/6) dt``: an independent rule to check the oracle's
    sixth-order step against.
    """
    dt = 1.0 / n
    mid = (np.arange(n) + 0.5) * dt
    h1 = np.stack([op(t) for t in mid - np.sqrt(3.0) / 6.0 * dt])
    h2 = np.stack([op(t) for t in mid + np.sqrt(3.0) / 6.0 * dt])
    g = 0.5 * dt * (h1 + h2) + (1j * np.sqrt(3.0) / 12.0 * dt * dt) * (h1 @ h2 - h2 @ h1)
    vals, vecs = np.linalg.eigh(g)
    u = np.eye(op.dim, dtype=complex)
    for step in (vecs * np.exp(-1j * vals)[:, None, :]) @ vecs.conj().swapaxes(1, 2):
        u = step @ u
    return u


def _converged_fourth_order_product(op, tol):
    steps, prev = 64, _fourth_order_product(op, 64)
    for _ in range(8):
        steps *= 2
        cur = _fourth_order_product(op, steps)
        if zj.max_norm(cur - prev) < tol:
            return cur
        prev = cur
    raise AssertionError(f"fourth-order reference not converged at {steps} steps")


@pytest.mark.parametrize("name", ["chain", "rotation_family"])
def test_sixth_order_product_agrees_with_the_fourth_order_rule(name):
    rng = np.random.default_rng(43)
    op = {
        "chain": lambda: _chain_at(12.5),
        "rotation_family": lambda: rotation_family(
            random_hermitian(rng, 3), np.diag([-1.0, 0.5, 2.0]).astype(complex)
        ),
    }[name]()
    sixth = zj.exact_propagator(op, 1.0, tol=1e-10).matrix
    assert zj.max_norm(sixth - _converged_fourth_order_product(op, 1e-10)) <= 1e-9


def test_an_unresolved_ladder_may_rise_before_it_converges(monkeypatch):
    # At coupling 200 the first steps span many periods: the changes rise on
    # two doublings in a row before the steps resolve the dynamics, and the
    # ladder must still run on to convergence.
    rng = np.random.default_rng(16)
    op = rotation_family(random_hermitian(rng, 2, scale=1.7), 200.0 * zj.SIGMA_Z)
    changes = []

    def recorded(m):
        changes.append(zj.max_norm(m))
        return changes[-1]

    monkeypatch.setattr(propagators, "max_norm", recorded)
    res = zj.exact_propagator(op, 1.0, tol=1e-8)
    assert res.est_error < 1e-8
    assert any(a <= b <= c for a, b, c in zip(changes, changes[1:], changes[2:]))


def test_a_ladder_stalled_by_rounding_stops_early():
    # Below about 1e-13 rounding outgrows the truncation error: the changes
    # grow with the step count, and the ladder stops after two such doublings
    # instead of running to its budget of 20.
    with pytest.raises(zj.NumericalError, match="did not converge below 1.0e-15") as exc:
        zj.exact_propagator(_chain_at(12.5), 1.0, tol=1e-15)
    doublings = int(str(exc.value).split(" after ")[1].split()[0])
    assert doublings <= 10
    carried = exc.value.last_result
    assert carried.steps_used == 8 * 2**doublings
    assert 1e-15 < carried.est_error < 1e-11


# --- stacked sampling ----------------------------------------------------------


def _per_step_product(op, segments, steps_per):
    """The Magnus product one step at a time from per-time ``op(t)`` calls.

    Each step forms Blanes et al.'s anti-Hermitian three-node exponent
    ``Omega`` from ``A_j = -i op(t_j)`` and exponentiates ``G = i Omega``.
    """
    u = np.eye(op.dim, dtype=complex)
    offset = np.sqrt(15.0) / 10.0
    for (a, b), n in zip(segments, steps_per):
        dt = (b - a) / n
        for i in range(n):
            mid = a + (i + 0.5) * dt
            a1, a2, a3 = (-1j * op(t) for t in (mid - offset * dt, mid, mid + offset * dt))
            al1 = dt * a2
            al2 = (np.sqrt(15.0) * dt / 3.0) * (a3 - a1)
            al3 = (10.0 * dt / 3.0) * (a3 - 2.0 * a2 + a1)
            c1 = al1 @ al2 - al2 @ al1
            x = 2.0 * al3 + c1
            c2 = -(al1 @ x - x @ al1) / 60.0
            left, right = -20.0 * al1 - al3 + c1, al2 + c2
            omega = al1 + al3 / 12.0 + (left @ right - right @ left) / 240.0
            u = zj.matrix_exp_unitary(1j * omega, 1.0) @ u
    return u


def _pulsed_model():
    rng = np.random.default_rng(47)
    p = np.diag([1.0, 0.0, 0.0]).astype(complex)
    return zj.pulsed_measurement_model(p, random_hermitian(rng, 3), 6.0, tau=1.0, tau_free=0.3)


def _oracle_operators():
    """Name -> ``(operator, steps per segment)``."""
    rng = np.random.default_rng(43)
    family = rotation_family(random_hermitian(rng, 3), np.diag([-1.0, 0.5, 2.0]).astype(complex))
    pulsed = _pulsed_model()
    return {
        "chain": (_chain_at(12.5), [600]),
        "rotation_family": (family, [300]),
        "pulsed": (pulsed.full_hamiltonian(), [90, 290]),
        "pulsed_measurement": (_scaled_measurement(pulsed), [90, 290]),
    }


@pytest.mark.parametrize("name", ["chain", "rotation_family", "pulsed", "pulsed_measurement"])
@pytest.mark.parametrize("block", [None, 64])
def test_stacked_product_matches_the_per_step_product(name, block, monkeypatch):
    op, steps = _oracle_operators()[name]
    if block is not None:  # stacks of 64 steps: several per segment, the last one partial
        monkeypatch.setattr(propagators, "_STACK_ENTRIES", block * 3 * op.dim**2)
    segments = _segments(op, 1.0)
    assert len(segments) == len(steps)  # the pulsed switch at 0.3 splits the horizon
    stacked = _product_over(op, segments, steps, zj.NumericPolicy())
    assert zj.max_norm(stacked - _per_step_product(op, segments, steps)) <= 1e-14


def _models():
    rng = np.random.default_rng(53)
    family = rotation_family(random_hermitian(rng, 3), np.diag([-1.0, 0.0, 1.0]).astype(complex))
    return {
        "chain": zj.spin_chain_model(zj.SpinChainSpec(n_sites=3, h=12.5, T=1.0)),
        "static": zj.time_independent_model(
            random_hermitian(rng, 4), np.diag([-1.0, 0.0, 0.0, 2.0]), 7.0, 1.0
        ),
        "pulsed": _pulsed_model(),
        "rotating": zj.MeasurementModel(
            h0=zj.TimeDependentOperator.constant(random_hermitian(rng, 3), (0.0, 1.0)),
            h_meas=family,
            coupling=4.0,
        ),
    }


@pytest.mark.parametrize("name", ["chain", "static", "pulsed", "rotating"])
def test_composed_operators_sample_their_per_time_calls_bit_for_bit(name):
    model = _models()[name]
    times = np.linspace(0.0, 1.0, 41)
    k = model.coupling
    sums = [
        (model.full_hamiltonian(), lambda t: model.h0(t) + k * model.h_meas(t)),
        (_scaled_measurement(model), lambda t: k * model.h_meas(t)),
    ]
    for op, evaluate in sums:
        assert op.terms is not None
        generic = zj.TimeDependentOperator(evaluator=evaluate, horizon=op.horizon, dim=op.dim)
        stack = op.sample(times)
        assert stack.shape == (len(times), model.dim, model.dim)
        assert np.array_equal(stack, generic.sample(times))

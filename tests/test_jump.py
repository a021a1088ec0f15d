"""Unit tests for jump probabilities, spectral densities and survival laws."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import zenojump as zj

from properties import _rotating_family, dense_intertwiners, level_projectors, random_hermitian, random_spread_hermitian


def static_setup(seed, dim=4, coupling=5.0, t_final=1.0, n_intervals=1024):
    """Random constant model, its static frame, and a pure state in level n."""
    rng = np.random.default_rng(seed)
    h0 = random_hermitian(rng, dim)
    h_meas = random_spread_hermitian(rng, dim, min_gap=0.7)
    model = zj.time_independent_model(h0, h_meas, coupling, t_final)
    frame = zj.time_independent_frame(model, n_intervals)
    n = int(rng.integers(0, frame.n_levels))
    pn = level_projectors(frame)[n]
    vec = pn @ (rng.normal(size=dim) + 1j * rng.normal(size=dim))
    vec = vec / np.linalg.norm(vec)
    rho0 = np.outer(vec, vec.conj())
    return model, frame, rho0, n


# --- model assembly ----------------------------------------------------------


def test_measurement_model_validation():
    op2 = zj.TimeDependentOperator.constant(zj.SIGMA_Z, (0.0, 1.0))
    op3 = zj.TimeDependentOperator.constant(np.eye(3, dtype=complex), (0.0, 1.0))
    shifted = zj.TimeDependentOperator.constant(zj.SIGMA_Z, (0.0, 2.0))
    with pytest.raises(zj.ValidationError, match="dimension"):
        zj.MeasurementModel(h0=op2, h_meas=op3, coupling=1.0)
    with pytest.raises(zj.ValidationError, match="horizon"):
        zj.MeasurementModel(h0=op2, h_meas=shifted, coupling=1.0)
    for coupling in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(zj.ValidationError, match="coupling must be positive and finite"):
            zj.MeasurementModel(h0=op2, h_meas=op2, coupling=coupling)


def test_full_hamiltonian_combines_terms_and_breakpoints():
    p = np.diag([1.0, 0.0]).astype(complex)
    model = zj.pulsed_measurement_model(p, zj.SIGMA_X, coupling=3.0, tau=1.0, tau_free=0.25)
    total = model.full_hamiltonian()
    assert total.breakpoints == (0.25,)
    assert np.array_equal(total(0.1), zj.SIGMA_X)
    assert np.array_equal(total(0.5), zj.SIGMA_X + 3.0 * p)


def test_composed_oracle_operators_still_reject_bad_terms():
    from zenojump.compare import _scaled_measurement

    good = zj.TimeDependentOperator.constant(zj.SIGMA_X, (0.0, 1.0))
    bad_terms = {
        "non-finite": lambda t: np.array([[np.nan, 0.0], [0.0, 1.0]]),
        "shape": lambda t: np.eye(1),
    }
    for match, evaluator in bad_terms.items():
        bad = zj.TimeDependentOperator(evaluator=evaluator, horizon=(0.0, 1.0), dim=2)
        for model in (
            zj.MeasurementModel(h0=good, h_meas=bad, coupling=2.0),
            zj.MeasurementModel(h0=bad, h_meas=good, coupling=2.0),
        ):
            with pytest.raises(zj.ValidationError, match=match):
                model.full_hamiltonian()(0.5)
            with pytest.raises(zj.ValidationError, match=match):
                model.full_hamiltonian().sample([0.25, 0.5])
        scaled = _scaled_measurement(zj.MeasurementModel(h0=good, h_meas=bad, coupling=2.0))
        with pytest.raises(zj.ValidationError, match=match):
            scaled(0.5)
        with pytest.raises(zj.ValidationError, match=match):
            scaled.sample([0.25, 0.5])
    model = zj.MeasurementModel(h0=good, h_meas=good, coupling=2.0)
    assert np.array_equal(_scaled_measurement(model)(0.5), 2.0 * zj.SIGMA_X)


# --- closed forms ------------------------------------------------------------


@pytest.mark.parametrize(
    "closed_form, args",
    [
        (zj.continuous_jump, (1.0, 1e160, 1.0, 1.0)),  # (K delta_eps)^2 overflows
        (zj.continuous_jump, (1.0, 1e200, 1e200, 1.0)),  # K delta_eps is infinite
        (zj.pulsed_jump, (1.0, 1e-200, 1.0, 0.5)),  # K^2 underflows to 0
        (zj.pulsed_jump, (1.0, 1e-170, 1.0, 0.5)),  # 4 / K^2 is infinite
    ],
)
def test_closed_forms_out_of_floating_point_range_raise_numerical_error(closed_form, args):
    with pytest.raises(zj.NumericalError, match="jump probability"):
        closed_form(*args)


def test_pulsed_jump_validation_and_limits():
    with pytest.raises(zj.ValidationError, match="non-negative"):
        zj.pulsed_jump(-1.0, 1.0, 1.0, 0.5)
    with pytest.raises(zj.ValidationError, match="coupling"):
        zj.pulsed_jump(1.0, 0.0, 1.0, 0.5)
    with pytest.raises(zj.ValidationError, match="tau_free"):
        zj.pulsed_jump(1.0, 1.0, 1.0, 1.5)
    # Measurement on the whole cycle reduces to the static form.
    assert zj.pulsed_jump(0.7, 4.0, 0.9, 0.0) == pytest.approx(
        zj.continuous_jump(0.7, 4.0, 1.0, 0.9), rel=1e-14
    )
    # No measured segment: free quadratic growth.
    assert zj.pulsed_jump(0.7, 4.0, 0.9, 0.9) == pytest.approx(0.7 * 0.81, rel=1e-14)


def test_continuous_jump_validation():
    with pytest.raises(zj.ValidationError, match="non-negative"):
        zj.continuous_jump(-0.1, 1.0, 1.0, 1.0)
    with pytest.raises(zj.ValidationError, match="delta_eps"):
        zj.continuous_jump(1.0, 1.0, 0.0, 1.0)
    # Phase-aligned duration tau = 2 pi / (K delta): the jump vanishes.
    assert zj.continuous_jump(1.0, 5.0, 2.0, 2.0 * math.pi / 10.0) == pytest.approx(0.0, abs=1e-28)


# --- general_jump ------------------------------------------------------------


def test_general_jump_matches_static_closed_form():
    for seed in (41, 42, 43):
        model, frame, rho0, n = static_setup(seed)
        eps = frame.eigenvalues[:, 0]
        tau = model.horizon[1]
        for m in range(frame.n_levels):
            if m == n:
                continue
            res = zj.general_jump(model, rho0, n, m, frame)
            tf = zj.transition_weight(model.h0(0.0), rho0, level_projectors(frame)[m])
            ref = zj.continuous_jump(tf, model.coupling, float(eps[m] - eps[n]), tau)
            assert res.value == pytest.approx(ref, rel=1e-6, abs=1e-12)
            assert res.imag_residual < 1e-10
            assert res.adiabaticity.adiabatic


def test_general_jump_matches_pulsed_closed_form():
    rng = np.random.default_rng(44)
    h0 = random_hermitian(rng, 3)
    p = np.diag([1.0, 0.0, 0.0]).astype(complex)
    coupling, tau, tau_free = 5.0, 0.8, 0.3
    model = zj.pulsed_measurement_model(p, h0, coupling, tau, tau_free)
    frame = zj.pulsed_frame(p, tau, tau_free, n_intervals=512)
    rho0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    res = zj.general_jump(model, rho0, 1, 0, frame)
    tf = zj.transition_weight(h0, rho0, p)
    ref = zj.pulsed_jump(tf, coupling, tau, tau_free)
    assert res.value == pytest.approx(ref, rel=1e-5)


def test_transition_weight_is_the_trace_and_checks_its_inputs():
    rng = np.random.default_rng(16)
    h0, rho0 = random_hermitian(rng, 4), random_hermitian(rng, 4)
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    ref = np.trace(p @ h0 @ rho0 @ h0).real
    assert zj.transition_weight(h0, rho0, p) == pytest.approx(ref, rel=1e-12)
    with pytest.raises(zj.ValidationError, match="shape mismatch"):
        zj.transition_weight(h0, rho0, np.eye(3))
    bad = rho0.copy()
    bad[1, 2] = np.nan
    with pytest.raises(zj.ValidationError, match="non-finite"):
        zj.transition_weight(h0, bad, p)


def test_general_jump_level_index_validation():
    model, frame, rho0, n = static_setup(45)
    m = (n + 1) % frame.n_levels
    with pytest.raises(zj.ValidationError, match="distinct levels"):
        zj.general_jump(model, rho0, n, n, frame)
    with pytest.raises(zj.ValidationError, match="outside"):
        zj.general_jump(model, rho0, n, frame.n_levels, frame)


def test_general_jump_rejects_unconfined_state():
    model, frame, rho0, n = static_setup(46)
    m = (n + 1) % frame.n_levels
    dim = frame.dim
    with pytest.raises(zj.ValidationError, match="not confined"):
        zj.general_jump(model, np.eye(dim, dtype=complex) / dim, n, m, frame)


def test_general_jump_rejects_bad_grids():
    model, frame, rho0, n = static_setup(47)
    m = (n + 1) % frame.n_levels
    ragged = dataclasses.replace(frame, grid=np.array([0.0, 0.1, 0.3, 0.6, 0.75, 0.8, 0.9, 0.95, 1.0]))
    with pytest.raises(zj.ValidationError, match="uniform"):
        zj.general_jump(model, rho0, n, m, ragged)
    coarse = dataclasses.replace(frame, grid=np.linspace(0.0, 1.0, 7))
    with pytest.raises(zj.ValidationError, match="multiple of 8"):
        zj.general_jump(model, rho0, n, m, coarse)


def test_general_jump_rejects_a_non_hermitian_perturbation():
    raising = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    model = zj.time_independent_model(raising, np.diag([1.0, -1.0]), 5.0, 1.0)
    frame = zj.time_independent_frame(model, 256)
    rho0 = level_projectors(frame)[0]
    with pytest.raises(zj.ValidationError, match="^matrix is not Hermitian: defect 1.000e"):
        zj.general_jump(model, rho0, 0, 1, frame)
    # A time-dependent h0 is checked node by node; this one turns at t = 0.5.
    turning = zj.TimeDependentOperator(
        evaluator=lambda t: zj.SIGMA_X + (t > 0.5) * raising, horizon=(0.0, 1.0), dim=2
    )
    model = zj.MeasurementModel(h0=turning, h_meas=model.h_meas, coupling=5.0)
    with pytest.raises(zj.ValidationError, match="^matrix 129 of the stack is not Hermitian"):
        zj.general_jump(model, rho0, 0, 1, frame)


def test_one_frame_serves_every_coupling():
    # A frame depends on the measurement alone; the model's coupling sets the phases.
    # (at 512 intervals the Simpson ladder misses its 1e-6 target at h = 7 and 9)
    chain = zj.spin_chain_frame(zj.SpinChainSpec(n_sites=2), n_intervals=1024)
    for h in (5.0, 7.0, 9.0):
        model = zj.spin_chain_model(zj.SpinChainSpec(n_sites=2, h=h, T=1.0))
        res = zj.general_jump(model, level_projectors(chain)[0], 0, 2, chain)
        assert res.value == pytest.approx(zj.two_qubit_rotation_jump(h, 1.0).to_opposite, rel=1e-5)
        assert res.adiabaticity.coupling == h
    base, frame, rho0, n = static_setup(66)
    m = (n + 1) % frame.n_levels
    eps = frame.eigenvalues[:, 0]
    tf = zj.transition_weight(base.h0.value, rho0, level_projectors(frame)[m])
    for coupling in (5.0, 10.0, 20.0):
        model = zj.time_independent_model(base.h0.value, base.h_meas.value, coupling, 1.0)
        res = zj.general_jump(model, rho0, n, m, frame)
        ref = zj.continuous_jump(tf, coupling, float(eps[m] - eps[n]), 1.0)
        assert res.value == pytest.approx(ref, rel=1e-6)


def test_general_jump_refuses_undersampled_phase():
    model, frame, rho0, n = static_setup(48, coupling=60.0, n_intervals=64)
    m = (n + 1) % frame.n_levels
    with pytest.raises(zj.QuadratureError, match="undersamples"):
        zj.general_jump(model, rho0, n, m, frame)


def test_general_jump_unconverged_quadrature_carries_value():
    model, frame, rho0, n = static_setup(49)
    m = (n + 1) % frame.n_levels
    strict = zj.QuadraturePolicy(rel_tol=1e-16, abs_floor=0.0)
    with pytest.raises(zj.QuadratureError, match="not converged") as exc:
        zj.general_jump(model, rho0, n, m, frame, quad=strict)
    assert isinstance(exc.value.last_result, float)


@pytest.mark.parametrize(
    "field, bad, needle",
    [
        *(("rel_tol", bad, "positive") for bad in (0.0, -1.0, float("nan"), float("inf"))),
        *(("abs_floor", bad, "non-negative") for bad in (-1.0, float("nan"), float("inf"))),
    ],
)
def test_quadrature_policy_rejects_a_bad_field_on_construction(field, bad, needle):
    # A NaN rel_tol once made the convergence test pass unconverged sums.
    with pytest.raises(zj.ValidationError, match=f"^{field}: must be {needle} and finite"):
        zj.QuadraturePolicy(**{field: bad})


def test_general_jump_target_projector_splits_degenerate_level():
    # Watching a degenerate level channel by channel adds up to the full level.
    rng = np.random.default_rng(50)
    h0 = random_hermitian(rng, 4)
    h_meas = np.diag([-1.0, 1.0, 1.0, 3.0]).astype(complex)
    model = zj.time_independent_model(h0, h_meas, coupling=4.0, t_final=1.0)
    frame = zj.time_independent_frame(model, 1024)
    assert frame.ranks == (1, 2, 1)
    rho0 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    full = zj.general_jump(model, rho0, 0, 1, frame)
    parts = []
    for channel in (1, 2):
        sub = np.zeros((4, 4), dtype=complex)
        sub[channel, channel] = 1.0
        parts.append(zj.general_jump(model, rho0, 0, 1, frame, target_projector=sub).value)
    assert sum(parts) == pytest.approx(full.value, rel=1e-10)
    bad = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(zj.ValidationError, match="sub-projector"):
        zj.general_jump(model, rho0, 0, 1, frame, target_projector=bad)


def test_a_target_projector_of_another_size_is_refused():
    model = zj.time_independent_model(0.3 * zj.SIGMA_X, np.diag([-1.0, 1.0]), 5.0, 1.0)
    frame = zj.time_independent_frame(model, 64)
    with pytest.raises(zj.ValidationError, match=r"shape \(3, 3\); the model's states need \(2, 2\)"):
        zj.general_jump(model, np.diag([1.0, 0.0]), 0, 1, frame, target_projector=np.diag([1.0, 0.0, 0.0]))


def test_general_jump_warns_when_perturbative_value_is_large():
    # Strong perturbation pushes W past 1/2 (to 0.708); the result is flagged, not raised.
    h0 = 1.0 * zj.SIGMA_X
    h_meas = np.diag([-1.0, 1.0]).astype(complex)
    model = zj.time_independent_model(h0, h_meas, coupling=1.0, t_final=1.0)
    frame = zj.time_independent_frame(model, 1024)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    res = zj.general_jump(model, rho0, 0, 1, frame)
    assert res.value > 0.5
    assert any("unreliable" in w for w in res.warnings)


def test_the_contracted_bond_kernel_equals_the_dense_product():
    # (b (x) b)^dagger bond (b (x) b), b = a u, for random unitaries, on Hermitian bonds and any 4 x 4 one
    from zenojump.jump import _bond_kernel

    rng = np.random.default_rng(33)
    a, u = (np.linalg.qr(rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))[0] for n in (40, 1))
    bonds = [random_hermitian(rng, 4) for _ in range(4)]
    bonds.append(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    for bond in bonds:
        dense = np.array([(np.kron(b, b).conj().T @ bond @ np.kron(b, b)).ravel() for b in a @ u[0]])
        contracted = _bond_kernel(bond, a, u[0]).T
        assert zj.max_norm(contracted - dense) <= 1e-14 * zj.max_norm(dense)


def test_a_jump_probability_outside_zero_one_beyond_rounding_raises():
    from zenojump.jump import _validity_flags

    assert _validity_flags(-1e-13) == _validity_flags(0.5) == _validity_flags(math.nan) == ()  # a NaN is named elsewhere
    assert _validity_flags(1.0 + 1e-13) == ("perturbation theory unreliable: jump probability 1 > 0.5",)
    for value in (-1e-9, 1.0 + 1e-9, 36.8, math.inf, -math.inf):
        with pytest.raises(zj.NumericalError, match="lies outside"):
            _validity_flags(value)


def test_general_jump_on_constant_operators_equals_plain_evaluators():
    model, frame, rho0, n = static_setup(seed=91, dim=5)
    m = (n + 1) % frame.n_levels
    h0, h_meas = model.h0.value, model.h_meas.value
    plain = zj.MeasurementModel(
        h0=zj.TimeDependentOperator(evaluator=lambda t: h0, horizon=model.horizon, dim=5),
        h_meas=zj.TimeDependentOperator(evaluator=lambda t: h_meas, horizon=model.horizon, dim=5),
        coupling=model.coupling,
    )
    assert zj.general_jump(model, rho0, n, m, frame) == zj.general_jump(plain, rho0, n, m, frame)


def _trace_form(model, rho0, n, m, frame, target_projector=None):
    """``(value, est_error)`` of the kernel's full-matrix form: the same
    Simpson ladder on the whole ``f_k = A_k^dagger h0_k A_k`` stack, each
    rung taking ``Tr[F rho0 F^dagger P]``."""
    grid = frame.grid
    step = grid[1] - grid[0]
    lam = model.coupling * (frame.eps_integrals[m] - frame.eps_integrals[n])
    target = level_projectors(frame)[m] if target_projector is None else target_projector
    a = dense_intertwiners(frame)
    f_nodes = a.conj().swapaxes(-1, -2) @ model.h0.sample(grid) @ a
    values = []
    for stride in (4, 2, 1):
        idx = np.arange(0, len(grid), stride)
        weights = np.ones(len(idx))
        weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
        amp = weights * (step * stride / 3.0) * np.exp(1j * lam[idx])
        f_sum = np.tensordot(amp, f_nodes[idx], axes=(0, 0))
        values.append(complex(np.trace(f_sum @ rho0 @ f_sum.conj().T @ target)))
    return values[-1].real, abs(values[-1] - values[-2])


def _assert_block_kernel_matches_trace_form(model, rho0, n, m, frame, target_projector=None):
    res = zj.general_jump(model, rho0, n, m, frame, target_projector=target_projector)
    value, est_error = _trace_form(model, rho0, n, m, frame, target_projector)
    assert value > 1e-8
    assert abs(res.value - value) <= 1e-13 * value
    # est_error is a difference of two rungs: compare it at the value's scale
    assert abs(res.est_error - est_error) <= 1e-13 * value


def test_general_jump_block_kernel_matches_trace_form_on_a_static_pair():
    for seed in (61, 62):
        model, frame, rho0, n = static_setup(seed, dim=16, coupling=10.0, n_intervals=2048)
        for m in {(n + 1) % frame.n_levels, (n + 5) % frame.n_levels}:
            _assert_block_kernel_matches_trace_form(model, rho0, n, m, frame)


@pytest.mark.parametrize(
    "n_sites, pairs",
    [(2, [(0, 2), (2, 0)]), (3, [(0, 2), (1, 3), (3, 1)]),
     (4, [(0, 2), (2, 4), (3, 1)]), (5, [(0, 2), (3, 5), (4, 2)])],
)
def test_general_jump_block_kernel_matches_trace_form_on_chains(n_sites, pairs):
    spec = zj.SpinChainSpec(n_sites=n_sites, h=12.5, T=1.0)
    model = zj.spin_chain_model(spec)
    frame = zj.spin_chain_frame(spec, n_intervals=1024)
    for n, m in pairs:
        rho0 = level_projectors(frame)[n] / frame.ranks[n]
        _assert_block_kernel_matches_trace_form(model, rho0, n, m, frame)


def test_general_jump_block_kernel_matches_trace_form_on_mixed_state_and_sub_projector():
    spec = zj.SpinChainSpec(n_sites=3, h=12.5, T=1.0)
    model = zj.spin_chain_model(spec)
    frame = zj.spin_chain_frame(spec, n_intervals=1024)
    assert frame.ranks == (1, 3, 3, 1)
    rng = np.random.default_rng(63)
    # a rank-2 mixed state in a random basis of the rank-3 level 1
    basis = np.linalg.eigh(level_projectors(frame)[1])[1][:, 5:]
    rotation = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    vecs = basis @ rotation
    rho0 = 0.7 * np.outer(vecs[:, 0], vecs[:, 0].conj()) + 0.3 * np.outer(vecs[:, 1], vecs[:, 1].conj())
    _assert_block_kernel_matches_trace_form(model, rho0, 1, 3, frame)
    # a rank-1 arrival channel inside the degenerate level 2
    vec = level_projectors(frame)[2] @ (rng.normal(size=8) + 1j * rng.normal(size=8))
    vec /= np.linalg.norm(vec)
    channel = np.outer(vec, vec.conj())
    rho_ground = level_projectors(frame)[0].astype(complex)
    _assert_block_kernel_matches_trace_form(model, rho_ground, 0, 2, frame, channel)


def test_general_jump_block_kernel_matches_trace_form_on_a_dense_frame_under_a_moving_h0():
    # Per-node blocks on a p = 1 frame: a dense tracked chain field, a
    # time-dependent h0, and an arrival channel applied to each rung's S.
    spec = zj.SpinChainSpec(n_sites=3, h=12.5, T=1.0)
    h_meas = zj.spin_chain_model(spec).h_meas
    frame = zj.track_frame(h_meas, np.linspace(0.0, 1.0, 1025))
    assert frame.power == 1 and frame.intertwiners.shape == (1025, 8, 8) and frame.ranks == (1, 3, 3, 1)
    rng = np.random.default_rng(66)
    h0 = zj.TimeDependentOperator.linear(random_hermitian(rng, 8), random_hermitian(rng, 8), (0.0, 1.0))
    model = zj.MeasurementModel(h0=h0, h_meas=h_meas, coupling=12.5)
    rho0 = level_projectors(frame)[1] / 3.0
    _assert_block_kernel_matches_trace_form(model, rho0, 1, 2, frame)
    vec = level_projectors(frame)[2] @ (rng.normal(size=8) + 1j * rng.normal(size=8))
    vec /= np.linalg.norm(vec)
    _assert_block_kernel_matches_trace_form(model, rho0, 1, 2, frame, np.outer(vec, vec.conj()))


def test_a_shared_kernel_changes_no_result(monkeypatch):
    # an h sweep's points share the frame and h0, and so the kernel; another h0 forms its own
    from zenojump import jump

    chain = zj.spin_chain_frame(zj.SpinChainSpec(n_sites=3), n_intervals=1024)
    model = zj.spin_chain_model(zj.SpinChainSpec(n_sites=3, h=12.5))
    other = zj.spin_chain_model(zj.SpinChainSpec(n_sites=3, h=12.5, T=1.2))
    rho0 = level_projectors(chain)[0]
    loose = zj.QuadraturePolicy(rel_tol=1e-3)

    def jump_of(model, shared=None):
        return zj.general_jump(model, rho0, 0, 2, chain, quad=loose, shared=shared)

    plain, plain_other = jump_of(model), jump_of(other)
    kernels = []
    original = jump._separable_kernel
    monkeypatch.setattr(jump, "_separable_kernel", lambda *args: kernels.append(args) or original(*args))
    shared = {}
    assert jump_of(model, shared) == jump_of(dataclasses.replace(model, coupling=12.5), shared) == plain
    assert len(kernels) == 1 and len(shared) == 1
    assert jump_of(other, shared) == plain_other
    assert len(kernels) == 2 and len(shared) == 1


def test_an_overflowing_transition_rate_is_a_numerical_error():
    model = zj.time_independent_model(0.3 * zj.SIGMA_X, np.diag([-1e10, 1e10]), 1e300, 1.0)
    frame = zj.time_independent_frame(model, 64)
    with pytest.raises(zj.NumericalError, match="transition rate leaves floating-point range at coupling 1e"):
        zj.general_jump(model, np.diag([1.0, 0.0]), 0, 1, frame)
    spec = zj.SpinChainSpec(h=1e300)
    chain = zj.spin_chain_frame(spec, 64)
    with pytest.raises(zj.QuadratureError, match=r"\(about 6\.37e\+300 nodes over the span\)"):
        zj.general_jump(zj.spin_chain_model(spec), level_projectors(chain)[0], 0, 2, chain)


def test_a_chain_frame_of_another_size_is_refused():
    model = zj.spin_chain_model(zj.SpinChainSpec(n_sites=2, h=12.5))
    frame = zj.spin_chain_frame(zj.SpinChainSpec(n_sites=3, h=12.5), 256)
    assert frame.dim == 8
    for rho0 in (np.diag([1.0, 0.0, 0.0, 0.0]), level_projectors(frame)[0]):
        with pytest.raises(zj.ValidationError, match="model, frame and state dimensions disagree"):
            zj.general_jump(model, rho0, 0, 2, frame)
    with pytest.raises(zj.ValidationError, match="model, frame and state dimensions disagree"):
        zj.compare_jump(model, np.diag([1.0, 0.0, 0.0, 0.0]), 0, 2, frame)


def test_general_jump_allocates_less_than_one_full_node_stack():
    spec = zj.SpinChainSpec(n_sites=5, h=12.5, T=1.0)
    model = zj.spin_chain_model(spec)
    frame = zj.spin_chain_frame(spec, n_intervals=1024)
    rho0 = level_projectors(frame)[2] / frame.ranks[2]
    stack_bytes = frame.n_nodes * frame.dim**2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        zj.general_jump(model, rho0, 2, 4, frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes


@pytest.mark.parametrize("n_sites", [3, 4, 5])
@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("lambda3", [1.0, 0.4])
def test_separable_chain_kernel_matches_the_dense_trace_form(n_sites, boundary, lambda3):
    # The bond-block kernel against the full-matrix reference on the dense
    # intertwiners formed from the frame's site.
    spec = zj.SpinChainSpec(n_sites=n_sites, couplings=(1.0, 2.0, lambda3), h=12.5, boundary=boundary)
    model = zj.spin_chain_model(spec)
    frame = zj.spin_chain_frame(spec, n_intervals=1024)
    rng = np.random.default_rng(64 + n_sites)
    scale = None
    for n, m in [(0, 2), (1, 3), (2, 3)]:
        rho0 = level_projectors(frame)[n] / frame.ranks[n]
        vec = level_projectors(frame)[m] @ (rng.normal(size=frame.dim) + 1j * rng.normal(size=frame.dim))
        vec /= np.linalg.norm(vec)
        for target in (None, np.outer(vec, vec.conj())):
            res = zj.general_jump(model, rho0, n, m, frame, target_projector=target)
            value, est_error = _trace_form(model, rho0, n, m, frame, target)
            # a selection-rule zero (2 -> 3 at lambda1 = lambda3) is held at the 0 -> 2 scale
            scale = value if scale is None else scale
            assert abs(res.value - value) <= 1e-12 * max(value, scale), (n, m, target is None)
            assert abs(res.est_error - est_error) <= 1e-12 * max(value, scale)
    # an h0 without its bond falls back to per-node blocks on the dense intertwiners
    plain = dataclasses.replace(model, h0=zj.TimeDependentOperator.constant(model.h0.value, model.horizon))
    rho0 = level_projectors(frame)[0]
    ref = zj.general_jump(model, rho0, 0, 2, frame).value
    assert zj.general_jump(plain, rho0, 0, 2, frame).value == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_chain_jump_to_level_two_is_the_bond_count_times_the_pair_value(boundary):
    # Level 0 is one product state and every bond sees the same one-site
    # frame, so each bond leaks into its own level-2 state with the 2-site
    # amplitude, for any exchange couplings.
    couplings = tuple(np.random.default_rng(65).uniform(0.3, 2.0, size=3))

    def w(n_sites, boundary):
        spec = zj.SpinChainSpec(n_sites=n_sites, couplings=couplings, h=12.5, boundary=boundary)
        frame = zj.spin_chain_frame(spec, n_intervals=1024)
        return zj.general_jump(zj.spin_chain_model(spec), level_projectors(frame)[0], 0, 2, frame).value

    pair = w(2, "open")
    for n_sites in range(2 if boundary == "open" else 3, 9):
        bonds = n_sites - 1 if boundary == "open" else n_sites
        assert abs(w(n_sites, boundary) - bonds * pair) <= 1e-12 * bonds * pair, n_sites


def test_an_eight_site_chain_jump_allocates_far_less_than_one_dense_frame():
    # One dense (2049, 256, 256) complex stack is 2.1 GB.
    spec = zj.SpinChainSpec(n_sites=8, h=12.5, T=1.0)
    model = zj.spin_chain_model(spec)
    tracemalloc.start()
    try:
        frame = zj.spin_chain_frame(spec, n_intervals=2048)
        res = zj.general_jump(model, level_projectors(frame)[0], 0, 2, frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.value > 0.0
    assert peak < 64 * 2**20


def test_general_jump_raises_when_a_rung_leaves_floating_point_range():
    # The rungs overflowed to inf and NaN, which passed both tolerance
    # checks: the result read value=inf, est_error=nan and adiabatic.
    model = zj.time_independent_model(1e300 * zj.SIGMA_X, np.diag([-1.0, 1.0]), coupling=1.0, t_final=1.0)
    frame = zj.time_independent_frame(model, 1024)
    with pytest.raises(zj.NumericalError, match="left floating-point range"):
        zj.general_jump(model, np.diag([1.0, 0.0]).astype(complex), 0, 1, frame)


def test_general_jump_rejects_a_frame_that_starts_after_the_model():
    model = zj.time_independent_model(0.3 * zj.SIGMA_X, np.diag([1.0, -1.0]), 5.0, 1.0)
    full = zj.time_independent_frame(model, 256)
    late = dataclasses.replace(full, grid=np.linspace(0.5, 1.0, 257))
    rho0 = level_projectors(late)[0]
    for route in (zj.general_jump, zj.compare_jump):
        with pytest.raises(zj.ValidationError, match="frame grid starts at 0.5, not at the model's horizon origin 0.0"):
            route(model, rho0, 0, 1, late)
    assert zj.compare_jump(model, rho0, 0, 1, full).status == "pass"


# --- channel weights and timescales ------------------------------------------


def test_zeno_time_basic_and_edge_cases():
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    p_other = np.diag([0.0, 1.0]).astype(complex)
    assert zj.zeno_time(zj.SIGMA_X, rho0, p_other) == pytest.approx(1.0)
    # sigma_x has no matrix element back into the watched state.
    assert zj.zeno_time(zj.SIGMA_X, rho0, rho0) == math.inf
    with pytest.raises(zj.NumericalError, match="negative"):
        zj.zeno_time(zj.SIGMA_X, rho0, -np.eye(2, dtype=complex))


def test_spectral_density_validation_and_moments():
    with pytest.raises(zj.ValidationError, match="at least one"):
        zj.SpectralDensity(entries=())
    with pytest.raises(zj.ValidationError, match="non-negative"):
        zj.SpectralDensity(entries=((1.0, -0.5),))
    density = zj.SpectralDensity(entries=((1.0, 1.0), (3.0, 1.0)))
    assert density.total_weight() == 2.0
    assert density.center() == 2.0
    assert density.width() == 1.0
    empty = zj.SpectralDensity(entries=((5.0, 0.0),))
    assert empty.center() == 0.0
    assert empty.width() == 0.0


@pytest.mark.parametrize("entry", [(1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (math.nan, 0.0)])
def test_spectral_density_rejects_a_non_finite_position_or_weight(entry):
    # NaN passed the sign check: total_weight() was nan, and center() was inf
    with pytest.raises(zj.ValidationError, match="finite"):
        zj.SpectralDensity(entries=(entry,))


@pytest.mark.parametrize("entries", [((1.0,),), ((1.0, 2.0, 3.0),), (("a", 1.0),), (1.0,)])
def test_spectral_density_refuses_an_entry_that_is_not_a_pair_of_numbers(entries):
    # ((1.0,),) raised a bare ValueError from unpacking
    with pytest.raises(zj.ValidationError, match="entries must be \\(position, weight\\) pairs"):
        zj.SpectralDensity(entries)


def test_spectral_density_from_transitions():
    rng = np.random.default_rng(51)
    h0 = random_hermitian(rng, 3)
    dec = zj.decompose(np.diag([-1.0, 0.0, 2.0]).astype(complex))
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    density = zj.SpectralDensity.from_transitions(h0, rho0, dec, n=0)
    assert len(density.entries) == 2
    positions = [e for e, _ in density.entries]
    assert positions == [0.0, 2.0]
    for (_, g), m in zip(density.entries, (1, 2)):
        assert g == pytest.approx(zj.transition_weight(h0, rho0, level_projectors(dec)[m]))
    with pytest.raises(zj.ValidationError, match="outside"):
        zj.SpectralDensity.from_transitions(h0, rho0, dec, n=5)


def test_decay_rate_equals_spectral_overlap():
    rng = np.random.default_rng(52)
    for _ in range(5):
        entries = tuple(
            (float(rng.uniform(0.5, 4.0)) * s, float(rng.uniform(0.0, 2.0)))
            for s in (-1.0, 1.0, 1.0)
        )
        density = zj.SpectralDensity(entries=entries)
        coupling = float(rng.uniform(1.0, 8.0))
        tau = float(rng.uniform(0.05, 1.5))
        rate = zj.decay_rate(density, 0.0, coupling, tau)
        overlap = zj.spectral_overlap(density, 0.0, coupling, tau)
        assert overlap.rate == pytest.approx(rate, rel=1e-12)


def test_decay_rate_validation():
    # spectral_overlap, documented as the same rate, once took a negative
    # coupling and returned NaN or raised bare Python errors on the others.
    density = zj.SpectralDensity(entries=((2.0, 1.0),))
    cases = [
        ((0.0, 1.0, 0.0), "tau"), ((0.0, 1.0, math.inf), "tau"), ((2.0, 1.0, 1.0), "watched level"),
        ((math.nan, 1.0, 1.0), "eps_n"), ((0.0, 0.0, 1.0), "coupling"), ((0.0, -1.0, 1.0), "coupling"),
        ((0.0, math.nan, 1.0), "coupling"), ((0.0, math.inf, 1.0), "coupling"),
    ]
    for route in (zj.decay_rate, zj.spectral_overlap):
        for (eps_n, coupling, tau), needle in cases:
            with pytest.raises(zj.ValidationError, match=needle):
                route(density, eps_n, coupling, tau)


def test_qze_flag_tracks_sampling_frequency():
    density = zj.SpectralDensity(entries=((2.0, 1.0),))
    fast = zj.spectral_overlap(density, 0.0, coupling=1.0, tau=0.04)
    slow = zj.spectral_overlap(density, 0.0, coupling=1.0, tau=1.0)
    assert fast.qze
    assert not slow.qze
    assert fast.nu == pytest.approx(25.0)
    assert fast.center_gap == pytest.approx(2.0)


@pytest.mark.parametrize(
    "rate, n_cycles, tau",
    [(math.nan, 3, 0.1), (math.inf, 3, 0.1), (1.0, 3, -1.0), (1.0, 3, math.nan), (1.0, 3, math.inf),
     (1.0, -1, 0.1), (1.0, math.inf, 0.1)],
)
def test_survival_exponential_rejects_what_is_not_a_finite_non_negative_law(rate, n_cycles, tau):
    # a negative tau gave a survival above 1, and a NaN rate a NaN survival
    with pytest.raises(zj.ValidationError, match="finite and >= 0"):
        zj.survival_exponential(rate, n_cycles, tau)


def test_survival_laws():
    with pytest.raises(zj.ValidationError, match="survival"):
        zj.survival_power(1.5, 3)
    for n_cycles in (-1, math.nan, math.inf):
        with pytest.raises(zj.ValidationError, match="cycle count"):
            zj.survival_power(0.5, n_cycles)
    with pytest.raises(zj.ValidationError, match="rate"):
        zj.survival_exponential(-1.0, 3, 0.1)
    assert zj.survival_power(0.99, 10) == pytest.approx(0.99**10)
    assert zj.survival_exponential(2.0, 3, 0.1) == pytest.approx(math.exp(-0.6))
    # Small per-cycle loss: the two laws agree to first order.
    w_cycle = 1e-4
    tau = 0.2
    n_cycles = 100
    power = zj.survival_power(1.0 - w_cycle, n_cycles)
    expo = zj.survival_exponential(w_cycle / tau, n_cycles, tau)
    assert power == pytest.approx(expo, rel=1e-4)


# --- the adiabaticity report reads the frame ---------------------------------


def _rotating_setup():
    """A tracked three-level rotating measurement, its model and a state in level 0."""
    rng = np.random.default_rng(71)
    h_meas = _rotating_family(rng, 3)
    h0 = zj.TimeDependentOperator.constant(random_hermitian(rng, 3, scale=0.3), h_meas.horizon)
    model = zj.MeasurementModel(h0=h0, h_meas=h_meas, coupling=8.0)
    frame = zj.track_frame(h_meas, np.linspace(0.0, 1.0, 1025))
    return model, frame, level_projectors(frame)[0], 0


def _chain_setup(dense):
    spec = zj.SpinChainSpec(n_sites=4, h=12.5, T=1.0)
    model = zj.spin_chain_model(spec)
    frame = zj.spin_chain_frame(spec)
    if dense:
        frame = zj.track_frame(model.h_meas, frame.grid)
    return model, frame, level_projectors(frame)[0], 0


def _pulsed_setup():
    rng = np.random.default_rng(44)
    p = np.diag([1.0, 0.0, 0.0]).astype(complex)
    model = zj.pulsed_measurement_model(p, random_hermitian(rng, 3), 5.0, 0.8, 0.3)
    frame = zj.pulsed_frame(p, 0.8, 0.3, n_intervals=512)
    return model, frame, np.diag([0.0, 0.0, 1.0]).astype(complex), 1


FRAME_KINDS = {
    "time-independent": lambda: static_setup(72),
    "pulsed": _pulsed_setup,
    "tracked": _rotating_setup,
    "chain": lambda: _chain_setup(dense=False),
    "dense-chain": lambda: _chain_setup(dense=True),
}


@pytest.mark.parametrize("kind", FRAME_KINDS)
def test_general_jump_reports_the_frame_figures_of_the_operator_form(kind):
    model, frame, rho0, n = FRAME_KINDS[kind]()
    res = zj.general_jump(model, rho0, n, (n + 1) % frame.n_levels, frame)
    ref = zj.adiabaticity_report(model.h_meas, model.coupling, frame.grid)
    for name in ("alpha_max", "eps_min", "ratio"):
        assert getattr(res.adiabaticity, name) == pytest.approx(getattr(ref, name), rel=1e-14, abs=0.0), name
    assert res.adiabaticity.adiabatic == ref.adiabatic
    assert res.adiabaticity == zj.adiabaticity_report(frame, model.coupling)
    if kind in ("tracked", "chain", "dense-chain"):
        assert res.adiabaticity.alpha_max > 0.0


def test_a_frame_report_takes_the_frame_grid_and_tolerance():
    model, frame, _, _ = static_setup(72)
    with pytest.raises(zj.ValidationError, match="frame's own grid"):
        zj.adiabaticity_report(frame, model.coupling, frame.grid)
    # the tolerance is the frame's, resolved from the policy: no call takes one
    with pytest.raises(TypeError, match="degeneracy_tol"):
        zj.adiabaticity_report(frame, model.coupling, degeneracy_tol=1e-3)
    with pytest.raises(zj.ValidationError, match="grid must be strictly increasing"):
        zj.adiabaticity_report(model.h_meas, model.coupling)


def test_pulsed_report_reads_the_switched_gap_not_a_rounding_gap():
    # The operator pass at the frame's zero tolerance splits the projector's
    # degenerate eigenvalue by rounding (a gap of about 1e-17); the frame
    # knows its levels are exactly 1 and 0.
    rng = np.random.default_rng(73)
    q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0][:, :1]
    p = q @ q.conj().T
    model = zj.pulsed_measurement_model(p, random_hermitian(rng, 3), 20.0, 1.0, 0.25)
    frame = zj.pulsed_frame(p, 1.0, 0.25, n_intervals=1024)
    rho0 = (np.eye(3) - p) / 2.0
    report = zj.general_jump(model, rho0, 1, 0, frame).adiabaticity
    assert report.eps_min == 1.0
    assert report.ratio == 0.0 and report.adiabatic


def test_a_static_frame_with_levels_inside_its_tolerance_raises():
    grid = np.linspace(0.0, 1.0, 65)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    model = zj.time_independent_model(zj.SIGMA_X, np.diag([0.0, 1e-3]), 5.0, 1.0)
    frame = dataclasses.replace(zj.time_independent_frame(model, 64), degeneracy_tol=1e-2)
    # the operator form clusters at its policy's 10 * 1e-3: one level of a split spectrum
    with pytest.raises(zj.NumericalError, match="merges every level"):
        zj.adiabaticity_report(model.h_meas, 5.0, grid, policy=zj.NumericPolicy(degeneracy_rel=10.0))
    with pytest.raises(zj.NumericalError, match="closer than the degeneracy tolerance"):
        zj.general_jump(model, p0, 0, 1, frame)

"""Unit tests for jump probabilities, spectral densities and survival laws."""

import math

import numpy as np
import pytest

import zenojump as zj

from properties import random_hermitian, random_spread_hermitian


def static_setup(seed, dim=4, coupling=5.0, t_final=1.0, n_intervals=1024):
    """Random constant model, its static frame, and a pure state in level n."""
    rng = np.random.default_rng(seed)
    h0 = random_hermitian(rng, dim)
    h_meas = random_spread_hermitian(rng, dim, min_gap=0.7)
    model = zj.time_independent_model(h0, h_meas, coupling, t_final)
    frame = zj.time_independent_frame(model, n_intervals)
    n = int(rng.integers(0, frame.n_levels))
    pn = frame.initial_projectors[n]
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
            _scaled_measurement(zj.MeasurementModel(h0=good, h_meas=bad, coupling=2.0))(0.5)
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
            tf = zj.transition_weight(model.h0(0.0), rho0, frame.initial_projectors[m])
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
    frame = zj.pulsed_frame(p, coupling, tau, tau_free, n_intervals=512)
    rho0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    res = zj.general_jump(model, rho0, 1, 0, frame)
    tf = zj.transition_weight(h0, rho0, p)
    ref = zj.pulsed_jump(tf, coupling, tau, tau_free)
    assert res.value == pytest.approx(ref, rel=1e-5)


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
    dec = zj.decompose(model.h_meas(0.0))
    levels = [(float(e), p) for e, p in zip(dec.eigenvalues, dec.projectors)]
    ragged = zj.AdiabaticFrame.static(
        np.array([0.0, 0.1, 0.3, 0.6, 0.75, 0.8, 0.9, 0.95, 1.0]), levels, model.coupling
    )
    with pytest.raises(zj.ValidationError, match="uniform"):
        zj.general_jump(model, rho0, n, m, ragged)
    coarse = zj.AdiabaticFrame.static(np.linspace(0.0, 1.0, 7), levels, model.coupling)
    with pytest.raises(zj.ValidationError, match="multiple of 8"):
        zj.general_jump(model, rho0, n, m, coarse)


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


def test_general_jump_warns_when_perturbative_value_is_large():
    # Strong perturbation pushes W past 1/2; the result is flagged, not raised.
    h0 = 5.0 * zj.SIGMA_X
    h_meas = np.diag([-1.0, 1.0]).astype(complex)
    model = zj.time_independent_model(h0, h_meas, coupling=1.0, t_final=1.0)
    frame = zj.time_independent_frame(model, 1024)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    res = zj.general_jump(model, rho0, 0, 1, frame)
    assert res.value > 0.5
    assert any("unreliable" in w for w in res.warnings)


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
        assert g == pytest.approx(zj.transition_weight(h0, rho0, dec.projectors[m]))
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
    density = zj.SpectralDensity(entries=((2.0, 1.0),))
    with pytest.raises(zj.ValidationError, match="tau"):
        zj.decay_rate(density, 0.0, 1.0, 0.0)
    with pytest.raises(zj.ValidationError, match="watched level"):
        zj.decay_rate(density, 2.0, 1.0, 1.0)
    with pytest.raises(zj.ValidationError, match="watched level"):
        zj.spectral_overlap(density, 2.0, 1.0, 1.0)


def test_qze_flag_tracks_sampling_frequency():
    density = zj.SpectralDensity(entries=((2.0, 1.0),))
    fast = zj.spectral_overlap(density, 0.0, coupling=1.0, tau=0.04)
    slow = zj.spectral_overlap(density, 0.0, coupling=1.0, tau=1.0)
    assert fast.qze
    assert not slow.qze
    assert fast.nu == pytest.approx(25.0)
    assert fast.center_gap == pytest.approx(2.0)


def test_survival_laws():
    with pytest.raises(zj.ValidationError, match="survival"):
        zj.survival_power(1.5, 3)
    with pytest.raises(zj.ValidationError, match="cycle count"):
        zj.survival_power(0.5, -1)
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

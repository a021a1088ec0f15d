"""Acceptance suite: one test per release criterion.

Each test states its claim in the name and asserts a frozen, independently
derived expectation; run with ``pytest -v`` to get one pass/fail line per
criterion.
"""

import math

import numpy as np
import pytest

import zenojump as zj
from zenojump.compare import STATUS_PASS

import properties


CUM_FULL_CLOSED_FORM = 0.5 + (math.sqrt(2.0) / 4.0) * math.log(1.0 + math.sqrt(2.0))

UP_UP, UP_DOWN, DOWN_UP, DOWN_DOWN = 0, 1, 2, 3


@pytest.fixture(scope="module")
def chain_9_1():
    spec = zj.SpinChainSpec(h=9.0, T=1.0)
    model = zj.spin_chain_model(spec)
    frame = zj.spin_chain_frame(spec, n_intervals=1024)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[UP_UP, UP_UP] = 1.0
    return model, frame, rho0


def basis_projector(index: int, dim: int = 4) -> np.ndarray:
    p = np.zeros((dim, dim), dtype=complex)
    p[index, index] = 1.0
    return p


def test_criterion_01_two_qubit_exchange_matrix_elements():
    h0 = zj.build_chain_h0(zj.SpinChainSpec())
    assert abs(h0[UP_DOWN, UP_UP]) <= 1e-12
    assert abs(h0[DOWN_UP, UP_UP]) <= 1e-12
    assert abs(h0[DOWN_DOWN, UP_UP] - (-1.0)) <= 1e-12


def test_criterion_02_free_flip_probability_is_sine_squared():
    ts = np.linspace(0.0, 2.0 * math.pi, 100)
    worst = max(abs(zj.free_flip_probability(float(t)) - math.sin(t) ** 2) for t in ts)
    assert worst <= 1e-8


def test_criterion_03_chain_field_levels_at_unit_amplitude():
    spec = zj.SpinChainSpec(h=1.0, T=1.0)
    dec = zj.decompose(zj.spin_chain_model(spec).h_meas(0.0))
    assert dec.n_levels == 3
    assert np.max(np.abs(dec.eigenvalues - np.array([-2.0, 0.0, 2.0]))) <= 1e-10
    assert dec.ranks == (1, 2, 1)


def test_criterion_04_general_quadrature_equals_closed_forms():
    # Static measurements: 20 random constant models, dimensions up to 8.
    rng = np.random.default_rng(properties.BASE_SEED + 10)
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        h0 = properties.random_hermitian(rng, dim)
        h_meas = properties.random_spread_hermitian(rng, dim, min_gap=0.6)
        coupling = float(rng.uniform(3.0, 6.0))
        t_final = float(rng.uniform(0.4, 1.2))
        model = zj.time_independent_model(h0, h_meas, coupling, t_final)
        frame = zj.time_independent_frame(model, 2048)
        n = int(rng.integers(0, frame.n_levels))
        m = int((n + 1 + rng.integers(0, frame.n_levels - 1)) % frame.n_levels)
        pn = properties.level_projectors(frame)[n]
        vec = pn @ (rng.normal(size=dim) + 1j * rng.normal(size=dim))
        vec = vec / np.linalg.norm(vec)
        rho0 = np.outer(vec, vec.conj())
        res = zj.general_jump(model, rho0, n, m, frame)
        tf = zj.transition_weight(h0, rho0, properties.level_projectors(frame)[m])
        delta = float(frame.eigenvalues[m, 0] - frame.eigenvalues[n, 0])
        ref = zj.continuous_jump(tf, coupling, delta, t_final)
        assert res.value == pytest.approx(ref, rel=1e-6)
    # Switched measurement: theta-profile model against the pulsed closed form.
    rng = np.random.default_rng(properties.BASE_SEED + 11)
    h0 = properties.random_hermitian(rng, 3)
    p = np.diag([1.0, 0.0, 0.0]).astype(complex)
    rho0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    tau, tau_free = 0.8, 0.3
    for coupling in (5.0, 20.0):
        model = zj.pulsed_measurement_model(p, h0, coupling, tau, tau_free)
        frame = zj.pulsed_frame(p, tau, tau_free, n_intervals=512)
        res = zj.general_jump(model, rho0, 1, 0, frame)
        ref = zj.pulsed_jump(zj.transition_weight(h0, rho0, p), coupling, tau, tau_free)
        assert res.value == pytest.approx(ref, rel=1e-5)


def test_criterion_05_short_time_survival_fits_the_zeno_time():
    h0 = zj.build_chain_h0(zj.SpinChainSpec())
    rho0 = basis_projector(UP_UP)
    watched = basis_projector(DOWN_DOWN)
    tau_z = zj.zeno_time(h0, rho0, watched)
    assert tau_z == pytest.approx(1.0, rel=1e-12)
    tf = zj.transition_weight(h0, rho0, watched)
    for tau in (1e-3, 1e-2):
        survival = 1.0 - zj.pulsed_jump(tf, 10.0, tau, tau)
        coefficient = (1.0 - survival) / tau**2
        assert abs(coefficient * tau_z**2 - 1.0) < 0.01


def test_criterion_06_continuous_envelope_scales_inverse_square():
    delta = 1.0
    values = {}
    for coupling in (10.0, 20.0, 40.0):
        # Phase-aligned time puts the oscillation at its peak: the envelope.
        tau_peak = math.pi / (coupling * delta)
        values[coupling] = zj.continuous_jump(1.0, coupling, delta, tau_peak)
    assert values[20.0] / values[10.0] == pytest.approx(0.25, abs=1e-10)
    assert values[40.0] / values[10.0] == pytest.approx(0.0625, abs=1e-10)


def test_criterion_07_decay_rate_identity_and_exponential_law():
    rng = np.random.default_rng(properties.BASE_SEED + 12)
    for _ in range(10):
        n_entries = int(rng.integers(1, 5))
        entries = tuple(
            (float(rng.uniform(0.3, 4.0) * rng.choice((-1.0, 1.0))), float(rng.uniform(0.0, 2.0)))
            for _ in range(n_entries)
        )
        density = zj.SpectralDensity(entries=entries)
        coupling = float(rng.uniform(1.0, 10.0))
        tau = float(rng.uniform(0.05, 2.0))
        rate = zj.decay_rate(density, 0.0, coupling, tau)
        overlap = zj.spectral_overlap(density, 0.0, coupling, tau)
        assert overlap.rate == pytest.approx(rate, rel=1e-12, abs=1e-300)
    # Power-law vs exponential survival in the small-loss regime.
    density = zj.SpectralDensity(entries=(( 2.0, 1.0),))
    coupling, tau = 20.0, 1e-3
    rate = zj.decay_rate(density, 0.0, coupling, tau)
    assert rate * tau <= 1e-3
    n_cycles = 1000
    power = zj.survival_power(1.0 - rate * tau, n_cycles)
    expo = zj.survival_exponential(rate, n_cycles, tau)
    assert abs(power - expo) / expo < 0.01


def _chain_envelope(h: float, T: float, min_intervals: int = 64) -> float:
    """Max jump probability over one oscillation period of the swept variable."""
    phase_rate = 4.0 * zj.cumulative_field_strength(1.0)
    period_h = 2.0 * math.pi / (phase_rate * T)
    best = 0.0
    for x in np.linspace(h, h + period_h, 41):
        w = zj.two_qubit_rotation_jump(float(x), T, min_intervals=min_intervals).to_opposite
        best = max(best, w)
    return best


def _chain_envelope_in_T(h: float, T: float, min_intervals: int = 64) -> float:
    phase_rate = 4.0 * zj.cumulative_field_strength(1.0)
    period_t = 2.0 * math.pi / (phase_rate * h)
    best = 0.0
    for x in np.linspace(T, T + period_t, 41):
        w = zj.two_qubit_rotation_jump(h, float(x), min_intervals=min_intervals).to_opposite
        best = max(best, w)
    return best


def test_criterion_08_chain_envelope_decreases_with_field_and_duration():
    hs = (9.0, 12.0, 15.0, 20.0, 30.0)
    env_h = [_chain_envelope(h, 1.0) for h in hs]
    assert all(a > b for a, b in zip(env_h, env_h[1:])), env_h
    ts = (1.0, 2.0, 4.0, 8.0)
    env_t = [_chain_envelope_in_T(9.0, t) for t in ts]
    assert all(a > b for a, b in zip(env_t, env_t[1:])), env_t
    # Values are stable to 3 significant digits under node doubling.
    for h, coarse in zip(hs, env_h):
        fine = _chain_envelope(h, 1.0, min_intervals=128)
        assert abs(fine - coarse) <= 5e-4 * coarse
    for t, coarse in zip(ts, env_t):
        fine = _chain_envelope_in_T(9.0, t, min_intervals=128)
        assert abs(fine - coarse) <= 5e-4 * coarse


def test_criterion_09_cumulative_field_strength_closed_form():
    assert abs(zj.cumulative_field_strength(1.0) - CUM_FULL_CLOSED_FORM) <= 1e-6


def test_criterion_10_perturbative_jump_within_ten_percent_of_exact(chain_9_1):
    model, frame, rho0 = chain_9_1
    comp = zj.compare_jump(model, rho0, 0, 2, frame, bound=0.1)
    # The adiabatic validity condition holds at h=9, T=1 ...
    assert comp.adiabaticity.ratio <= 0.01 * model.coupling**2
    assert comp.adiabaticity.adiabatic
    # ... and the second-order result sits within 10% of exact propagation.
    assert comp.rel_gap <= 0.10
    assert comp.status == STATUS_PASS
    # Frozen regression values for the two routes.
    assert comp.perturbative == pytest.approx(2.5113993239981756e-3, rel=1e-9)
    assert comp.exact == pytest.approx(2.2632315218818165e-3, rel=1e-6)


def test_criterion_11_single_flip_channels_are_selection_forbidden(chain_9_1):
    model, frame, rho0 = chain_9_1
    for target_index in (UP_DOWN, DOWN_UP):
        res = zj.general_jump(
            model, rho0, 0, 1, frame, target_projector=basis_projector(target_index)
        )
        assert abs(res.value) <= 1e-10
    spec = zj.SpinChainSpec(h=15.0, T=3.0)
    model_15 = zj.spin_chain_model(spec)
    frame_15 = zj.spin_chain_frame(spec, n_intervals=2048)
    for target_index in (UP_DOWN, DOWN_UP):
        res = zj.general_jump(
            model_15, rho0, 0, 1, frame_15, target_projector=basis_projector(target_index)
        )
        assert abs(res.value) <= 1e-10


def test_criterion_12_randomized_invariant_suite():
    for prop in properties.ALL_PROPERTIES:
        assert prop() >= 100

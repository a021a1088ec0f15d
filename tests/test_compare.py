"""Unit tests for the perturbative-vs-exact comparison route."""

import dataclasses

import numpy as np
import pytest

import zenojump as zj
from zenojump.compare import STATUS_OUT_OF_VALIDITY, STATUS_PASS

from properties import level_projectors


def chain_setup(h, T, n_intervals=512):
    spec = zj.SpinChainSpec(h=h, T=T)
    model = zj.spin_chain_model(spec)
    frame = zj.spin_chain_frame(spec, n_intervals=n_intervals)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    return model, frame, rho0


def oracle(model, rho0, m, frame, transport="measurement", tol=1e-8):
    """The exact oracle's value alone, as ``compare_jump`` runs it after ``general_jump``."""
    return zj.compare._oracle_jump(model, rho0, m, frame, transport, tol, zj.default_policy())[0]


def test_compare_validation():
    model, frame, rho0 = chain_setup(5.0, 1.0, n_intervals=64)
    with pytest.raises(zj.ValidationError, match="transport"):
        zj.compare_jump(model, rho0, 0, 2, frame, transport="teleport")
    with pytest.raises(zj.ValidationError, match="level indices"):
        zj.compare_jump(model, rho0, 0, 7, frame)
    other = zj.spin_chain_frame(zj.SpinChainSpec(n_sites=3, h=5.0), n_intervals=64)
    with pytest.raises(zj.ValidationError, match="model, frame and state dimensions disagree"):
        zj.compare_jump(model, rho0, 0, 2, other)


def test_an_unknown_transport_is_refused_before_the_quadrature(monkeypatch):
    from zenojump import compare

    def no_quadrature(*args, **kwargs):
        raise AssertionError("the quadrature ran")

    monkeypatch.setattr(compare, "general_jump", no_quadrature)
    model = zj.time_independent_model(0.3 * zj.SIGMA_X, np.diag([-1.0, 1.0]), 5.0, 1.0)
    frame = zj.time_independent_frame(model, 64)
    with pytest.raises(zj.ValidationError, match="unknown transport 'teleport'"):
        zj.compare_jump(model, np.diag([1.0, 0.0]), 0, 1, frame, transport="teleport")


def test_compare_rejects_nonpositive_bound():
    model, frame, rho0 = chain_setup(5.0, 1.0, n_intervals=64)
    with pytest.raises(zj.ValidationError, match="bound"):
        zj.compare_jump(model, rho0, 0, 2, frame, bound=0.0)


def test_vanishing_perturbation_agrees_exactly():
    # With H0 = 0 nothing ever jumps; both routes must return zero.
    h_meas = np.diag([-1.0, 0.0, 1.0]).astype(complex)
    model = zj.time_independent_model(np.zeros((3, 3)), h_meas, 5.0, 1.0)
    frame = zj.time_independent_frame(model, 64)
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    cmp = zj.compare_jump(model, rho0, 0, 2, frame)
    assert cmp.perturbative == 0.0
    assert cmp.exact == pytest.approx(0.0, abs=1e-10)
    assert cmp.abs_gap == pytest.approx(0.0, abs=1e-10)
    assert cmp.status == STATUS_PASS
    assert cmp.within_bound


def test_the_oracle_propagates_over_the_frame_span():
    # A frame over [0, 0.5] of a model over [0, 1]: both routes stop at 0.5.
    h0, h_meas = 0.3 * zj.SIGMA_X, np.diag([1.0, -1.0])
    model = zj.time_independent_model(h0, h_meas, 5.0, 1.0)
    half = zj.time_independent_model(h0, h_meas, 5.0, 0.5)
    frame = zj.time_independent_frame(half, 256)
    rho0 = level_projectors(frame)[0]
    for transport in ("measurement", "instantaneous"):
        cmp = zj.compare_jump(model, rho0, 0, 1, frame, transport=transport)
        ref = zj.compare_jump(half, rho0, 0, 1, frame, transport=transport)
        assert (cmp.perturbative, cmp.exact) == (ref.perturbative, ref.exact)
        assert cmp.status == STATUS_PASS
    assert cmp.perturbative == pytest.approx(zj.continuous_jump(0.09, 5.0, 2.0, 0.5), rel=1e-6)


def test_chain_comparison_passes_within_bound():
    model, frame, rho0 = chain_setup(9.0, 1.0, n_intervals=1024)
    cmp = zj.compare_jump(model, rho0, 0, 2, frame, bound=0.1)
    assert cmp.status == STATUS_PASS
    assert cmp.adiabaticity.adiabatic
    # Residual non-adiabatic leakage shrinks like 1/h; at h=9 it sits just
    # below the 10 percent bound.
    assert 0.05 < cmp.rel_gap < 0.1
    assert cmp.transport == "measurement"
    assert cmp.abs_gap == pytest.approx(abs(cmp.perturbative - cmp.exact))


def test_instantaneous_transport_widens_the_gap():
    model, frame, rho0 = chain_setup(9.0, 1.0, n_intervals=1024)
    moving = oracle(model, rho0, 2, frame, "measurement")
    frozen = oracle(model, rho0, 2, frame, "instantaneous")
    pert = zj.general_jump(model, rho0, 0, 2, frame).value
    gap_moving = abs(pert - moving) / max(pert, moving)
    gap_frozen = abs(pert - frozen) / max(pert, frozen)
    assert gap_frozen > gap_moving
    assert gap_frozen > 0.15


def test_fast_rotation_is_reported_out_of_validity():
    # h*T = 0.1 breaks the adiabatic condition; the gap is reported, not judged.
    model, frame, rho0 = chain_setup(0.1, 1.0, n_intervals=512)
    cmp = zj.compare_jump(model, rho0, 0, 2, frame)
    assert cmp.status == STATUS_OUT_OF_VALIDITY
    assert not cmp.adiabaticity.adiabatic
    assert any("not adiabatic" in w for w in cmp.warnings)


def test_relative_gap_is_symmetric():
    model, frame, rho0 = chain_setup(9.0, 1.0, n_intervals=1024)
    cmp = zj.compare_jump(model, rho0, 0, 2, frame)
    denom = max(abs(cmp.perturbative), abs(cmp.exact), 1e-12)
    assert cmp.rel_gap == pytest.approx(cmp.abs_gap / denom, rel=1e-12)


def test_comparison_carries_the_oracle_diagnostics():
    model, frame, rho0 = chain_setup(9.0, 1.0, n_intervals=1024)
    cmp = zj.compare_jump(model, rho0, 0, 2, frame, exact_tol=1e-8)
    runs = [
        zj.exact_propagator(model.full_hamiltonian(), 1.0, tol=1e-8),
        zj.exact_propagator(zj.compare._scaled_measurement(model), 1.0, tol=1e-8),
    ]
    assert cmp.exact_steps == sum(r.steps_used for r in runs)
    assert cmp.exact_est_error == max(r.est_error for r in runs)
    assert 0.0 < cmp.exact_est_error < 1e-8
    frozen = zj.compare_jump(model, rho0, 0, 2, frame, transport="instantaneous")
    assert frozen.exact_steps == runs[0].steps_used
    assert frozen.exact_est_error == runs[0].est_error


def test_instantaneous_transport_on_the_chain_frame_matches_the_dense_frame():
    # The instantaneous transport reads the frame's final level bases; the
    # chain frame's must give the dense tracked frame's value.
    spec = zj.SpinChainSpec(n_sites=3, h=9.0, T=1.0)
    model = zj.spin_chain_model(spec)
    frame = zj.spin_chain_frame(spec, n_intervals=256)
    dense = zj.track_frame(model.h_meas, frame.grid)
    rho0 = level_projectors(frame)[0]
    values = [
        oracle(model, rho0, 1, f, "instantaneous", tol=1e-6)
        for f in (frame, dense)
    ]
    assert values[0] == pytest.approx(values[1], rel=0.0, abs=1e-10)
    assert values[0] > 0.0


def test_the_oracle_target_comes_from_the_level_basis():
    # The arrival projector is formed from level_basis alone; it equals the
    # dense projector of the target level.
    model, frame, rho0 = chain_setup(12.5, 1.0, n_intervals=64)
    u_meas = zj.exact_propagator(zj.compare._scaled_measurement(model), 1.0, tol=1e-8).matrix
    u_full = zj.exact_propagator(model.full_hamiltonian(), 1.0, tol=1e-8).matrix
    rho_t = u_full @ rho0 @ u_full.conj().T
    targets = {
        "measurement": u_meas @ level_projectors(frame)[2] @ u_meas.conj().T,
        "instantaneous": level_projectors(frame, -1)[2],
    }
    for transport, target in targets.items():
        w = oracle(model, rho0, 2, frame, transport)
        assert w == pytest.approx(np.trace(rho_t @ target).real, rel=1e-12, abs=1e-15)


def test_an_oracle_value_outside_zero_one_raises(monkeypatch):
    # the oracle keeps the range rule of every route: a propagator that is not unitary is no oracle
    from zenojump import compare

    model, frame, rho0 = chain_setup(5.0, 1.0, n_intervals=64)
    exact = compare.exact_propagator

    def doubled(*args, **kwargs):
        result = exact(*args, **kwargs)
        return dataclasses.replace(result, matrix=2.0 * result.matrix)

    monkeypatch.setattr(compare, "exact_propagator", doubled)
    with pytest.raises(zj.NumericalError, match="lies outside \\[0, 1\\]"):
        oracle(model, rho0, 0, frame, "instantaneous")

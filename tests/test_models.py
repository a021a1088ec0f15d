"""Unit tests for the concrete measurement scenarios."""

import math

import numpy as np
import pytest

import zenojump as zj
from zenojump.models import _field_direction


CUM_FULL = 0.5 + (math.sqrt(2.0) / 4.0) * math.log(1.0 + math.sqrt(2.0))


def test_spin_chain_spec_validation():
    with pytest.raises(zj.ValidationError, match="n_sites"):
        zj.SpinChainSpec(n_sites=1)
    with pytest.raises(zj.ValidationError, match="triple"):
        zj.SpinChainSpec(couplings=(1.0, 2.0))
    with pytest.raises(zj.ValidationError, match="amplitude"):
        zj.SpinChainSpec(h=0.0)
    with pytest.raises(zj.ValidationError, match="duration"):
        zj.SpinChainSpec(T=-1.0)
    with pytest.raises(zj.ValidationError, match="boundary"):
        zj.SpinChainSpec(boundary="twisted")


def test_build_chain_h0_two_sites():
    h0 = zj.build_chain_h0(zj.SpinChainSpec())
    assert np.max(np.abs(h0 - h0.conj().T)) == 0.0
    # Exchange couples the aligned states only through the double flip.
    assert h0[1, 0] == 0.0
    assert h0[2, 0] == 0.0
    assert h0[3, 0] == pytest.approx(-1.0)
    vals = np.linalg.eigvalsh(h0)
    assert np.allclose(sorted(vals), [-4.0, 0.0, 2.0, 2.0])


def test_build_chain_h0_boundary_and_size():
    # Two sites with periodic boundary count the same bond twice.
    open_2 = zj.build_chain_h0(zj.SpinChainSpec(boundary="open"))
    per_2 = zj.build_chain_h0(zj.SpinChainSpec(boundary="periodic"))
    assert np.allclose(per_2, 2.0 * open_2)
    h0_3 = zj.build_chain_h0(zj.SpinChainSpec(n_sites=3))
    assert h0_3.shape == (8, 8)
    assert np.max(np.abs(h0_3 - h0_3.conj().T)) == 0.0


def test_spin_chain_model_scaling():
    spec = zj.SpinChainSpec(h=9.0, T=2.0)
    model = zj.spin_chain_model(spec)
    assert model.coupling == pytest.approx(18.0)
    assert model.horizon == (0.0, 1.0)
    assert np.allclose(model.h0(0.5), 2.0 * zj.build_chain_h0(spec))
    z = zj.tensor_product(zj.SIGMA_Z, np.eye(2)) + zj.tensor_product(np.eye(2), zj.SIGMA_Z)
    x = zj.tensor_product(zj.SIGMA_X, np.eye(2)) + zj.tensor_product(np.eye(2), zj.SIGMA_X)
    assert np.allclose(model.h_meas(0.0), -z)
    assert np.allclose(model.h_meas(1.0), -x)


def test_field_strength_symmetry():
    assert zj.field_strength(0.0) == pytest.approx(1.0)
    assert zj.field_strength(1.0) == pytest.approx(1.0)
    assert zj.field_strength(0.5) == pytest.approx(math.sqrt(0.5))
    s = np.linspace(0.0, 1.0, 21)
    assert np.max(np.abs(zj.field_strength(s) - zj.field_strength(1.0 - s))) < 1e-14


def test_cumulative_field_strength():
    assert zj.cumulative_field_strength(0.0) == 0.0
    assert zj.cumulative_field_strength(1.0) == pytest.approx(CUM_FULL, rel=1e-12)
    for s in (0.2, 0.35, 0.5, 0.8):
        lhs = zj.cumulative_field_strength(1.0) - zj.cumulative_field_strength(1.0 - s)
        assert lhs == pytest.approx(zj.cumulative_field_strength(s), abs=1e-10)
    with pytest.raises(zj.ValidationError, match="outside"):
        zj.cumulative_field_strength(1.5)


def test_cumulative_field_strength_on_arrays_matches_quadrature():
    from scipy.integrate import quad

    s = np.array([0.0, 1e-3, 0.1, 0.25, 0.5, 0.6180339887, 0.9, 1.0])
    ref = [quad(zj.field_strength, 0.0, x, epsabs=1e-14, epsrel=1e-14)[0] for x in s]
    out = zj.cumulative_field_strength(s)
    assert out.shape == s.shape
    assert np.max(np.abs(out - ref)) <= 1e-13
    assert zj.cumulative_field_strength(s.reshape(2, 4)).shape == (2, 4)
    with pytest.raises(zj.ValidationError, match="-0.25 outside"):
        zj.cumulative_field_strength(np.array([0.0, 0.5, -0.25, 2.0]))
    with pytest.raises(zj.ValidationError, match="outside"):
        zj.cumulative_field_strength(np.array([0.5, np.nan]))


def test_site_frame_columns_diagonalize_the_field():
    for s in (0.1, 0.5, 1.0):
        a = zj.site_frame_columns(s)
        assert np.max(np.abs(a.conj().T @ a - np.eye(2))) < 1e-12
        k = zj.field_strength(s)
        rebuilt = a @ np.diag([k, -k]).astype(complex) @ a.conj().T
        target = (1.0 - s) * zj.SIGMA_Z + s * zj.SIGMA_X
        assert np.max(np.abs(rebuilt - target)) < 1e-12
    with pytest.raises(zj.ValidationError, match="s in"):
        zj.site_frame_columns(0.0)


def test_spin_chain_frame_structure():
    spec = zj.SpinChainSpec(h=5.0, T=1.0)
    frame = zj.spin_chain_frame(spec, n_intervals=256)
    assert frame.ranks == (1, 2, 1)
    assert frame.residual < 1e-9
    # The field levels are -2K(s), 0, +2K(s) along the schedule.
    ks = zj.field_strength(frame.grid)
    assert np.max(np.abs(frame.eigenvalues[0] + 2.0 * ks)) < 1e-10
    assert np.max(np.abs(frame.eigenvalues[1])) < 1e-10
    assert np.max(np.abs(frame.eigenvalues[2] - 2.0 * ks)) < 1e-10
    # Accumulated phase of the top level follows the field integral; the
    # trapezoid accumulation is second order in the grid step.
    expected = 2.0 * spec.h * spec.T * CUM_FULL
    assert frame.phases[2, -1] == pytest.approx(expected, rel=1e-4)


def test_two_qubit_rotation_jump_matches_general_route():
    spec = zj.SpinChainSpec(h=5.0, T=1.0)
    model = zj.spin_chain_model(spec)
    frame = zj.spin_chain_frame(spec, n_intervals=512)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    res = zj.general_jump(model, rho0, 0, 2, frame)
    tq = zj.two_qubit_rotation_jump(5.0, 1.0)
    assert tq.to_opposite == pytest.approx(res.value, rel=1e-5)
    assert tq.to_up_down == 0.0
    assert tq.to_down_up == 0.0
    assert tq.est_error <= 1e-8 * tq.to_opposite + 1e-15


def test_two_qubit_rotation_jump_edges():
    assert zj.two_qubit_rotation_jump(0.0, 1.0).to_opposite == pytest.approx(1.0)
    assert zj.two_qubit_rotation_jump(9.0, 0.0).to_opposite == pytest.approx(1.0)
    with pytest.raises(zj.ValidationError, match="non-negative"):
        zj.two_qubit_rotation_jump(-1.0, 1.0)
    with pytest.raises(zj.ValidationError, match="multiple of 4"):
        zj.two_qubit_rotation_jump(9.0, 1.0, min_intervals=6)
    with pytest.raises(zj.QuadratureError, match="did not converge"):
        zj.two_qubit_rotation_jump(9.0, 1.0, min_intervals=64, max_intervals=64)


def test_free_flip_probability_is_sine_squared():
    for t in (0.3, 1.0, 2.5):
        assert zj.free_flip_probability(t) == pytest.approx(math.sin(t) ** 2, abs=1e-9)
    assert zj.free_flip_probability(0.0) == 0.0
    with pytest.raises(zj.ValidationError, match="non-negative"):
        zj.free_flip_probability(-0.1)


def test_chain_validity_flags():
    assert zj.chain_validity_flags(9.0, 1.0) == ()
    weak = zj.chain_validity_flags(0.1, 1.0)
    assert len(weak) == 2
    assert any("threshold" in f for f in weak)
    assert any("too fast" in f for f in weak)
    fast = zj.chain_validity_flags(9.0, 0.01)
    assert len(fast) == 1


def test_time_independent_builders():
    with pytest.raises(zj.ValidationError, match="t_final"):
        zj.time_independent_model(zj.SIGMA_X, zj.SIGMA_Z, 1.0, 0.0)
    model = zj.time_independent_model(zj.SIGMA_X, zj.SIGMA_Z, 2.0, 1.5)
    frame = zj.time_independent_frame(model, 16)
    assert frame.n_nodes == 17
    assert frame.ranks == (1, 1)
    assert np.allclose(frame.eigenvalues[:, 0], [-1.0, 1.0])
    # Static phases are exact linear ramps.
    assert frame.phases[1, -1] == pytest.approx(2.0 * 1.5)


def test_pulsed_builders_and_level_convention():
    p = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(zj.ValidationError, match="tau_free"):
        zj.pulsed_measurement_model(p, zj.SIGMA_X, 1.0, 1.0, 2.0)
    model = zj.pulsed_measurement_model(p, zj.SIGMA_X, 4.0, 1.0, 0.5)
    assert model.h_meas.breakpoints == (0.5,)
    assert np.allclose(model.h_meas(0.25), np.zeros((2, 2)))
    assert np.allclose(model.h_meas(0.75), p)
    frame = zj.pulsed_frame(p, 4.0, 1.0, 0.5, n_intervals=8)
    # Level 0 is the watched projector; its eigenvalue switches on at tau_free.
    assert np.allclose(frame.initial_projectors[0], p)
    assert np.allclose(frame.final_projectors[0], p)
    assert frame.eigenvalues[0, 0] == 0.0
    assert frame.eigenvalues[0, -1] == 1.0
    assert np.all(frame.eigenvalues[1] == 0.0)
    assert frame.phases[0, -1] == pytest.approx(4.0 * 0.5)
    with pytest.raises(zj.ValidationError, match="must be a node"):
        zj.pulsed_frame(p, 4.0, 1.0, 0.37, n_intervals=8)


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5])
def test_field_samples_equal_the_sum_of_embedded_sites(n_sites):
    h_meas = _field_direction(n_sites)
    site = h_meas.site
    assert (site.dim, h_meas.dim) == (2, 2**n_sites)
    assert (site.horizon, site.breakpoints) == (h_meas.horizon, h_meas.breakpoints)
    for s in np.linspace(0.0, 1.0, 17):
        embedded = sum(
            np.kron(np.kron(np.eye(2**j), site(s)), np.eye(2 ** (n_sites - 1 - j)))
            for j in range(n_sites)
        )
        assert np.max(np.abs(h_meas(s) - embedded)) <= 1e-15


@pytest.mark.parametrize(
    "n_sites, boundary", [(2, "open"), (3, "periodic"), (4, "open"), (5, "periodic")]
)
def test_spin_chain_frame_matches_the_dense_tracked_frame(n_sites, boundary):
    # The structured frame is the tensor power of the tracked one-site frame;
    # tracking the 2^n-dimensional field directly is the independent route.
    spec = zj.SpinChainSpec(n_sites=n_sites, h=12.5, T=1.0, boundary=boundary)
    model = zj.spin_chain_model(spec)
    dense = zj.track_frame(model.h_meas, model.coupling, np.linspace(0.0, 1.0, 1025))
    frame = zj.spin_chain_frame(spec)
    for name in ("intertwiners", "initial_projectors", "final_projectors", "eigenvalues", "phases"):
        assert np.max(np.abs(getattr(frame, name) - getattr(dense, name))) <= 1e-12, name
    assert frame.ranks == dense.ranks == tuple(math.comb(n_sites, l) for l in range(n_sites + 1))
    assert frame.degeneracy_tol == dense.degeneracy_tol
    assert frame.coupling == dense.coupling
    assert np.array_equal(frame.grid, dense.grid)
    assert 0.0 < frame.residual <= zj.default_policy().frame_tol


@pytest.mark.parametrize(
    "n_sites, boundary", [(2, "open"), (3, "periodic"), (4, "open"), (5, "periodic")]
)
def test_spin_chain_residual_bounds_the_dense_per_node_residual(n_sites, boundary):
    # The chain frame's residual is a proven bound, not a measurement: the
    # residual against the dense field's eigenprojectors at every node stays
    # below it (1e-14 covers rounding in forming the dense residual).
    spec = zj.SpinChainSpec(n_sites=n_sites, h=12.5, T=1.0, boundary=boundary)
    model = zj.spin_chain_model(spec)
    frame = zj.spin_chain_frame(spec)
    dense = max(
        zj.max_norm(a @ p0 @ a.conj().T - p)
        for s, a in zip(frame.grid, frame.intertwiners)
        for p0, p in zip(frame.initial_projectors, zj.decompose(model.h_meas(s)).projectors)
    )
    assert 0.0 < dense <= frame.residual + 1e-14


@pytest.mark.parametrize("n_sites, boundary", [(3, "open"), (4, "periodic")])
def test_spin_chain_end_projectors_equal_the_dense_decomposition(n_sites, boundary):
    spec = zj.SpinChainSpec(n_sites=n_sites, h=9.0, T=1.0, boundary=boundary)
    model = zj.spin_chain_model(spec)
    frame = zj.spin_chain_frame(spec, n_intervals=256)
    for s, projectors in ((0.0, frame.initial_projectors), (1.0, frame.final_projectors)):
        dense = zj.decompose(model.h_meas(s)).projectors
        assert projectors.shape == dense.shape
        assert np.max(np.abs(projectors - dense)) < 1e-12


def test_spin_chain_frame_keeps_end_node_projectors_only():
    # A per-node stack at 6 sites would be (7, 257, 64, 64).
    frame = zj.spin_chain_frame(zj.SpinChainSpec(n_sites=6, h=9.0, T=1.0), n_intervals=256)
    assert frame.initial_projectors.shape == frame.final_projectors.shape == (7, 64, 64)
    assert frame.intertwiners.shape == (257, 64, 64)


@pytest.mark.parametrize("frame_tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_spin_chain_frame_rejects_a_bad_frame_tol(frame_tol):
    with pytest.raises(zj.ValidationError, match="frame_tol"):
        zj.spin_chain_frame(
            zj.SpinChainSpec(), n_intervals=64, policy=zj.NumericPolicy().replace(frame_tol=frame_tol)
        )


def test_chain_jump_on_the_structured_frame_matches_the_dense_frame():
    spec = zj.SpinChainSpec(n_sites=4, h=12.5, T=1.0)
    model = zj.spin_chain_model(spec)
    frame = zj.spin_chain_frame(spec)
    dense = zj.track_frame(model.h_meas, model.coupling, frame.grid)
    rho0 = frame.initial_projectors[0]
    res = zj.general_jump(model, rho0, 0, 2, frame)
    ref = zj.general_jump(model, rho0, 0, 2, dense)
    assert res.value == pytest.approx(ref.value, rel=1e-12)
    assert res.adiabaticity == ref.adiabaticity


def test_spin_chain_frame_residual_failure_carries_the_chain_frame():
    spec = zj.SpinChainSpec(n_sites=3, h=5.0, T=1.0)
    with pytest.raises(zj.FrameResidualError, match="refine the grid") as exc:
        zj.spin_chain_frame(spec, n_intervals=4, policy=zj.NumericPolicy(frame_tol=1e-15))
    frame = exc.value.last_result
    assert isinstance(frame, zj.AdiabaticFrame)
    assert frame.dim == 8 and frame.ranks == (1, 3, 3, 1)
    assert frame.residual > 1e-15

"""Unit tests for level decomposition and adiabatic frame tracking."""

import numpy as np
import pytest

import zenojump as zj

from properties import random_hermitian


def rotation_family(generator, base, horizon=(0.0, 1.0), analytic=True):
    """H(t) = V(t) base V(t)^dagger with V(t) = exp(-i * generator * t)."""

    def evaluate(t):
        v = zj.matrix_exp_unitary(generator, t)
        return v @ base @ v.conj().T

    def derivative(t):
        h = evaluate(t)
        return -1j * (generator @ h - h @ generator)

    return zj.TimeDependentOperator(
        evaluator=evaluate,
        horizon=horizon,
        dim=base.shape[0],
        derivative_evaluator=derivative if analytic else None,
    )


# --- TimeDependentOperator ---------------------------------------------------


def test_operator_validates_horizon_and_breakpoints():
    ev = lambda t: np.eye(2, dtype=complex)
    with pytest.raises(zj.ValidationError, match="horizon"):
        zj.TimeDependentOperator(evaluator=ev, horizon=(1.0, 1.0), dim=2)
    with pytest.raises(zj.ValidationError, match="dimension"):
        zj.TimeDependentOperator(evaluator=ev, horizon=(0.0, 1.0), dim=0)
    with pytest.raises(zj.ValidationError, match="inside the horizon"):
        zj.TimeDependentOperator(evaluator=ev, horizon=(0.0, 1.0), dim=2, breakpoints=(1.5,))
    with pytest.raises(zj.ValidationError, match="strictly increasing"):
        zj.TimeDependentOperator(evaluator=ev, horizon=(0.0, 1.0), dim=2, breakpoints=(0.5, 0.5))


def test_site_sum_takes_a_two_level_site_and_its_horizon():
    site = zj.TimeDependentOperator(
        evaluator=lambda t: t * zj.SIGMA_X, horizon=(0.0, 2.0), dim=2, breakpoints=(0.5,)
    )
    dense = lambda t: t * (np.kron(zj.SIGMA_X, np.eye(2)) + np.kron(np.eye(2), zj.SIGMA_X))
    op = zj.TimeDependentOperator.site_sum(site, 2, dense)
    assert op.site is site
    assert (op.dim, op.horizon, op.breakpoints) == (4, (0.0, 2.0), (0.5,))
    assert zj.TimeDependentOperator(evaluator=dense, horizon=(0.0, 2.0), dim=4).site is None
    three = zj.TimeDependentOperator.constant(np.eye(3, dtype=complex), (0.0, 2.0))
    with pytest.raises(zj.ValidationError, match="two-level site"):
        zj.TimeDependentOperator.site_sum(three, 2, dense)
    for n_sites in (0, 2.0):
        with pytest.raises(zj.ValidationError, match="n_sites"):
            zj.TimeDependentOperator.site_sum(site, n_sites, dense)


def test_operator_rejects_out_of_horizon_times():
    op = zj.TimeDependentOperator.constant(zj.SIGMA_Z, (0.0, 1.0))
    assert np.array_equal(op(0.3), zj.SIGMA_Z)
    with pytest.raises(zj.ValidationError, match="outside horizon"):
        op(1.5)


def test_constant_operator_matrix_is_read_only():
    source = np.eye(2, dtype=complex)
    op = zj.TimeDependentOperator.constant(source, (0.0, 1.0))
    source[0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        op(0.5)[0, 0] = 7.0
    assert op(0.9)[0, 0] == 1.0
    assert np.array_equal(op.value, np.eye(2))


def test_constant_sample_is_a_read_only_view_checked_against_the_horizon():
    mat = random_hermitian(np.random.default_rng(4), 3)
    op = zj.TimeDependentOperator.constant(mat, (0.0, 1.0))
    stack = op.sample(np.linspace(0.0, 1.0, 5))
    assert stack.shape == (5, 3, 3)
    assert all(np.array_equal(m, mat) for m in stack)
    assert not stack.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        stack[2, 0, 0] = 0.0
    for times, bad in (([0.5, 1.5], "1.5"), ([-2.0, 0.5], "-2.0")):
        with pytest.raises(zj.ValidationError, match=f"time {bad} outside horizon"):
            op.sample(times)
    assert op.sample([]).shape == (0, 3, 3)
    plain = zj.TimeDependentOperator(evaluator=lambda t: mat, horizon=(0.0, 1.0), dim=3)
    assert plain.value is None


def test_operator_rejects_evaluator_dimension_mismatch():
    op = zj.TimeDependentOperator(
        evaluator=lambda t: np.eye(3, dtype=complex), horizon=(0.0, 1.0), dim=2
    )
    with pytest.raises(zj.ValidationError, match="declared"):
        op(0.5)


def test_sample_stacks_the_per_time_calls_and_their_checks():
    rng = np.random.default_rng(5)
    op = rotation_family(random_hermitian(rng, 3), np.diag([-1.0, 0.0, 1.0]).astype(complex))
    times = np.linspace(0.0, 1.0, 7)
    assert np.array_equal(op.sample(times), np.stack([op(t) for t in times]))
    with pytest.raises(zj.ValidationError, match="outside horizon"):
        op.sample([0.5, 1.5])
    wrong = zj.TimeDependentOperator(
        evaluator=lambda t: np.eye(3 if t > 0.5 else 2, dtype=complex), horizon=(0.0, 1.0), dim=2
    )
    for times in ([0.7, 0.9], [0.1, 0.9]):
        with pytest.raises(zj.ValidationError, match="declared"):
            wrong.sample(times)


def test_derivative_is_one_sided_at_breakpoints():
    # Triangle profile: slope +1 before the kink at 0.5, slope -1 after.
    def ev(t):
        s = t if t < 0.5 else 1.0 - t
        return s * zj.SIGMA_X

    op = zj.TimeDependentOperator(evaluator=ev, horizon=(0.0, 1.0), dim=2, breakpoints=(0.5,))
    assert op.piece_bounds(0.25) == (0.0, 0.5)
    assert op.piece_bounds(0.5) == (0.5, 1.0)
    assert op.piece_bounds(1.0) == (0.5, 1.0)
    d_left = op.derivative(0.25, 0.01)
    d_kink = op.derivative(0.5, 0.01)
    d_edge = op.derivative(0.0, 0.01)
    assert np.max(np.abs(d_left - zj.SIGMA_X)) < 1e-9
    assert np.max(np.abs(d_kink + zj.SIGMA_X)) < 1e-9
    assert np.max(np.abs(d_edge - zj.SIGMA_X)) < 1e-9


def test_analytic_derivative_takes_precedence():
    mark = 7.0 * np.eye(2, dtype=complex)
    op = zj.TimeDependentOperator(
        evaluator=lambda t: t * zj.SIGMA_Z,
        horizon=(0.0, 1.0),
        dim=2,
        derivative_evaluator=lambda t: mark,
    )
    assert np.array_equal(op.derivative(0.5, 0.01), mark)


# --- decompose ---------------------------------------------------------------


def test_decompose_nondegenerate_spectrum():
    rng = np.random.default_rng(21)
    h = random_hermitian(rng, 5)
    dec = zj.decompose(h)
    assert dec.n_levels == 5
    assert dec.ranks == (1,) * 5
    dec.verify()
    rebuilt = sum(e * p for e, p in zip(dec.eigenvalues, dec.projectors))
    assert np.max(np.abs(rebuilt - h)) < 1e-9


def test_decompose_groups_degenerate_eigenvalues():
    h = np.diag([-2.0, 0.0, 0.0, 2.0]).astype(complex)
    dec = zj.decompose(h)
    assert dec.ranks == (1, 2, 1)
    assert np.allclose(dec.eigenvalues, [-2.0, 0.0, 2.0])
    dec.verify()


def test_decompose_respects_explicit_tolerance():
    h = np.diag([0.0, 0.3, 1.0]).astype(complex)
    wide = zj.decompose(h, degeneracy_tol=0.5)
    assert wide.ranks == (2, 1)
    narrow = zj.decompose(h, degeneracy_tol=0.1)
    assert narrow.ranks == (1, 1, 1)


BAD_DEGENERACY_TOLS = [float("nan"), float("inf"), -1.0]


@pytest.mark.parametrize("tol", BAD_DEGENERACY_TOLS)
def test_decompose_rejects_a_bad_degeneracy_tol(tol):
    # A NaN tolerance would merge distinct levels, a negative one split every level.
    with pytest.raises(zj.ValidationError, match="degeneracy_tol"):
        zj.decompose(np.diag([0.0, 1.0]).astype(complex), degeneracy_tol=tol)
    assert zj.decompose(np.diag([0.0, 1.0]).astype(complex), degeneracy_tol=0.0).ranks == (1, 1)


def test_decompose_warns_on_ambiguous_gap():
    # Gap of 0.3 with tol 0.2 sits in the warn band (tol/2, 2 tol).
    dec = zj.decompose(np.diag([0.0, 0.3, 10.0]).astype(complex), degeneracy_tol=0.2)
    assert any("ambiguous gap" in w for w in dec.warnings)


def test_verify_flags_broken_structure():
    good = zj.decompose(np.diag([0.0, 1.0]).astype(complex))
    broken = zj.ZenoDecomposition(
        eigenvalues=good.eigenvalues,
        projectors=good.projectors * 0.5,
        ranks=good.ranks,
        degeneracy_tol=good.degeneracy_tol,
    )
    with pytest.raises(zj.ValidationError, match="sum to identity"):
        broken.verify()


# --- static frames -----------------------------------------------------------


def test_static_frame_phases_exact_for_switched_eigenvalue():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    switch = lambda t: 1.0 if t >= 0.5 else 0.0
    grid = np.linspace(0.0, 1.0, 9)
    frame = zj.AdiabaticFrame.static(grid, [(switch, p0), (0.0, p1)], coupling=10.0)
    # Midpoint sampling integrates the step profile exactly: 10 * 1 * 0.5.
    assert frame.phases[0, -1] == pytest.approx(5.0, abs=1e-14)
    assert frame.phases[1, -1] == 0.0
    assert np.array_equal(frame.intertwiners[3], np.eye(2))
    assert frame.ranks == (1, 1)
    assert frame.residual == 0.0
    assert frame.n_nodes == 9
    assert frame.dim == 2
    assert frame.node_index(0.5) == 4
    with pytest.raises(zj.ValidationError, match="grid node"):
        frame.node_index(0.51)


def test_static_frame_requires_complete_levels():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(zj.ValidationError, match="identity"):
        zj.AdiabaticFrame.static(np.linspace(0, 1, 5), [(1.0, p0)], coupling=1.0)


# --- track_frame -------------------------------------------------------------


def test_track_frame_transports_projectors():
    rng = np.random.default_rng(22)
    gen = random_hermitian(rng, 3, scale=0.5)
    base = np.diag([-1.0, 0.0, 1.0]).astype(complex)
    op = rotation_family(gen, base)
    grid = np.linspace(0.0, 1.0, 65)
    frame = zj.track_frame(op, coupling=5.0, grid=grid)
    assert frame.residual < 1e-6
    assert np.max(np.abs(frame.intertwiners[0] - np.eye(3))) < 1e-12
    for k in (10, 32, 64):
        u = frame.intertwiners[k]
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-10
    # Eigenvalues of a rotated operator never move.
    assert np.max(np.abs(frame.eigenvalues - base.diagonal().real[:, None])) < 1e-10


def test_track_frame_detects_level_crossing():
    op = zj.TimeDependentOperator(
        evaluator=lambda t: (0.5 - t) * zj.SIGMA_Z, horizon=(0.0, 1.0), dim=2
    )
    with pytest.raises(zj.LevelCrossingError, match="level"):
        zj.track_frame(op, coupling=1.0, grid=np.linspace(0.0, 1.0, 33))


def test_track_frame_rejects_levels_that_cannot_be_followed():
    # At the breakpoint t = 0.5 the eigenbasis jumps from the standard basis
    # to the columns of u.  Rows 0 and 1 of |u|^2 are both largest in column
    # 0, so the two lowest levels claim the same successor.
    def givens(i, j, angle):
        g = np.eye(3, dtype=complex)
        g[i, i] = g[j, j] = np.cos(angle)
        g[i, j], g[j, i] = -np.sin(angle), np.sin(angle)
        return g

    u = givens(0, 1, np.pi / 4) @ givens(1, 2, np.pi / 6)
    d = np.diag([0.0, 1.0, 2.0]).astype(complex)
    rotated = u @ d @ u.conj().T
    op = zj.TimeDependentOperator(
        evaluator=lambda t: d if t < 0.5 else rotated,
        horizon=(0.0, 1.0),
        dim=3,
        breakpoints=(0.5,),
    )
    with pytest.raises(zj.LevelCrossingError, match="at node t=0.5;"):
        zj.track_frame(op, coupling=1.0, grid=np.linspace(0.0, 1.0, 9))


def test_track_frame_residual_failure_carries_frame():
    rng = np.random.default_rng(23)
    gen = random_hermitian(rng, 3, scale=1.0)
    base = np.diag([-1.0, 0.0, 1.0]).astype(complex)
    op = rotation_family(gen, base, analytic=False)
    with pytest.raises(zj.FrameResidualError, match="refine the grid") as exc:
        zj.track_frame(
            op, coupling=5.0, grid=np.linspace(0.0, 1.0, 5), policy=zj.NumericPolicy(frame_tol=1e-10)
        )
    assert isinstance(exc.value.last_result, zj.AdiabaticFrame)
    assert exc.value.last_result.residual > 1e-10


def test_track_frame_keeps_the_residual_it_checked():
    rng = np.random.default_rng(22)
    op = rotation_family(random_hermitian(rng, 3, scale=0.5), np.diag([-1.0, 0.0, 1.0]))
    frame = zj.track_frame(op, coupling=5.0, grid=np.linspace(0.0, 1.0, 65))
    # The per-node residual, recomputed from decompose at every node; the
    # frame's levels are in decompose's ascending order (rotations keep them).
    recomputed = max(
        zj.max_norm(a @ p0 @ a.conj().T - p)
        for t, a in zip(frame.grid, frame.intertwiners)
        for p0, p in zip(frame.initial_projectors, zj.decompose(op(t)).projectors)
    )
    assert frame.residual == pytest.approx(recomputed, rel=0.0, abs=1e-12)
    assert 0.0 < frame.residual < 1e-6


@pytest.mark.parametrize("tol", BAD_DEGENERACY_TOLS)
def test_track_frame_rejects_a_bad_degeneracy_tol(tol):
    op = rotation_family(random_hermitian(np.random.default_rng(24), 3), np.diag([-1.0, 0.0, 1.0]))
    with pytest.raises(zj.ValidationError, match="degeneracy_tol"):
        zj.track_frame(op, coupling=5.0, grid=np.linspace(0.0, 1.0, 17), degeneracy_tol=tol)


@pytest.mark.parametrize("frame_tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_track_frame_rejects_a_bad_frame_tol(frame_tol):
    # The tolerance is the policy's, so the policy rejects it before any tracking.
    with pytest.raises(zj.ValidationError, match="frame_tol"):
        zj.NumericPolicy(frame_tol=frame_tol)


def test_track_frame_rejects_grid_missing_breakpoint():
    op = zj.TimeDependentOperator(
        evaluator=lambda t: (1.0 + t) * zj.SIGMA_Z,
        horizon=(0.0, 1.0),
        dim=2,
        breakpoints=(0.3,),
    )
    with pytest.raises(zj.ValidationError, match="grid node"):
        zj.track_frame(op, coupling=1.0, grid=np.linspace(0.0, 1.0, 5))


def test_track_frame_integrator_order():
    # Doubling the grid must shrink the endpoint error by ~2^4; require 3.5.
    rng = np.random.default_rng(24)
    gen = random_hermitian(rng, 3, scale=0.8)
    base = np.diag([-1.0, 0.0, 1.0]).astype(complex)
    op = rotation_family(gen, base)

    def endpoint(n_nodes):
        frame = zj.track_frame(op, coupling=5.0, grid=np.linspace(0.0, 1.0, n_nodes))
        return frame.intertwiners[-1]

    ref = endpoint(1025)
    err_coarse = np.max(np.abs(endpoint(17) - ref))
    err_fine = np.max(np.abs(endpoint(33) - ref))
    assert err_fine < err_coarse
    assert err_coarse / err_fine > 2.0**3.5


# --- adiabaticity ------------------------------------------------------------


def test_adiabaticity_ratio_scales_inverse_square_in_coupling():
    rng = np.random.default_rng(25)
    gen = random_hermitian(rng, 2, scale=0.5)
    op = rotation_family(gen, zj.SIGMA_Z)
    grid = np.linspace(0.0, 1.0, 33)
    slow = zj.adiabaticity_report(op, coupling=4.0, grid=grid)
    fast = zj.adiabaticity_report(op, coupling=8.0, grid=grid)
    assert slow.eps_min == pytest.approx(2.0, rel=1e-10)
    assert slow.ratio / fast.ratio == pytest.approx(4.0, rel=1e-9)
    assert fast.threshold == pytest.approx(fast.margin * 64.0)


def test_adiabaticity_constant_operator_is_adiabatic():
    op = zj.TimeDependentOperator.constant(zj.SIGMA_Z, (0.0, 1.0))
    rep = zj.adiabaticity_report(op, coupling=2.0, grid=np.linspace(0.0, 1.0, 9))
    assert rep.alpha_max == 0.0
    assert rep.adiabatic


def test_adiabaticity_single_level_has_no_transitions():
    op = zj.TimeDependentOperator.constant(np.eye(3, dtype=complex), (0.0, 1.0))
    rep = zj.adiabaticity_report(op, coupling=2.0, grid=np.linspace(0.0, 1.0, 9))
    assert rep.ratio == 0.0
    assert rep.adiabatic
    assert not np.isfinite(rep.eps_min)


@pytest.mark.parametrize("tol", BAD_DEGENERACY_TOLS)
def test_adiabaticity_rejects_a_bad_degeneracy_tol(tol):
    # Three rotating levels: a NaN tolerance would report ratio 0, adiabatic.
    op = rotation_family(random_hermitian(np.random.default_rng(25), 3), np.diag([-1.0, 0.0, 1.0]))
    with pytest.raises(zj.ValidationError, match="degeneracy_tol"):
        zj.adiabaticity_report(op, 5.0, np.linspace(0.0, 1.0, 17), degeneracy_tol=tol)


def test_adiabaticity_rejects_nonpositive_coupling():
    op = zj.TimeDependentOperator.constant(zj.SIGMA_Z, (0.0, 1.0))
    with pytest.raises(zj.ValidationError, match="coupling"):
        zj.adiabaticity_report(op, coupling=0.0, grid=np.linspace(0.0, 1.0, 9))


BAD_COUPLINGS = [0.0, -1.0, float("nan"), float("inf")]


@pytest.mark.parametrize("coupling", BAD_COUPLINGS)
def test_frames_and_report_reject_a_bad_coupling(coupling):
    # An infinite coupling (h*T overflowing, say) would give infinite phases.
    op = rotation_family(random_hermitian(np.random.default_rng(26), 2), zj.SIGMA_Z)
    grid = np.linspace(0.0, 1.0, 17)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    entry_points = (
        lambda: zj.track_frame(op, coupling, grid),
        lambda: zj.AdiabaticFrame.static(grid, [(1.0, p0), (0.0, np.eye(2) - p0)], coupling),
        lambda: zj.adiabaticity_report(op, coupling, grid),
    )
    for call in entry_points:
        with pytest.raises(zj.ValidationError, match="coupling must be positive and finite"):
            call()

"""Unit tests for level decomposition and adiabatic frame tracking."""

import tracemalloc

import numpy as np
import pytest

import zenojump as zj

from properties import level_projectors, random_hermitian


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


def test_every_operator_has_a_callable_evaluator():
    for evaluator in (None, np.eye(2)):
        with pytest.raises(zj.ValidationError, match="evaluator must be callable"):
            zj.TimeDependentOperator(evaluator=evaluator, horizon=(0.0, 1.0), dim=2)
    model = zj.spin_chain_model(zj.SpinChainSpec(n_sites=2, h=5.0))
    derived = (model.h0, model.h_meas, model.full_hamiltonian())
    for op in derived:
        assert np.array_equal(op.evaluator(0.25), op(0.25))


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
    assert np.array_equal(op.sample(times), np.stack([op.evaluator(t) for t in times]))
    assert np.array_equal(op(times[3]), op.evaluator(times[3]))
    with pytest.raises(zj.ValidationError, match="outside horizon"):
        op.sample([0.5, 1.5])
    wrong = zj.TimeDependentOperator(
        evaluator=lambda t: np.eye(3 if t > 0.5 else 2, dtype=complex), horizon=(0.0, 1.0), dim=2
    )
    for times in ([0.7, 0.9], [0.1, 0.9]):
        with pytest.raises(zj.ValidationError, match="declared"):
            wrong.sample(times)


def test_nan_times_fail_the_horizon_check():
    rng = np.random.default_rng(6)
    mat = random_hermitian(rng, 2)
    ops = [
        rotation_family(random_hermitian(rng, 2), mat),
        zj.TimeDependentOperator.constant(mat, (0.0, 1.0)),
        zj.TimeDependentOperator.linear(zj.SIGMA_Z, zj.SIGMA_X, (0.0, 1.0)),
    ]
    for op in ops:
        with pytest.raises(zj.ValidationError, match="time nan outside horizon"):
            op(float("nan"))
        with pytest.raises(zj.ValidationError, match="time nan outside horizon"):
            op.sample([0.5, float("nan"), 0.7])


def generic_linear(start, end, horizon):
    """``(1 - s) start + s end`` as a plain operator, evaluated one time at a time."""
    t0, t1 = horizon

    def evaluate(t):
        s = (t - t0) / (t1 - t0)
        return (1.0 - s) * np.asarray(start) + s * np.asarray(end)

    return zj.TimeDependentOperator(evaluator=evaluate, horizon=horizon, dim=len(start))


def test_linear_sample_equals_the_per_time_stack_bit_for_bit():
    rng = np.random.default_rng(7)
    start, end = random_hermitian(rng, 3), random_hermitian(rng, 3)
    horizon = (-0.5, 1.75)
    op = zj.TimeDependentOperator.linear(start, end, horizon)
    slack = 1e-12 * (1.0 + 0.5 + 1.75)
    grid = np.linspace(*horizon, 33)
    half = np.sort(np.concatenate([grid, (grid[:-1] + grid[1:]) / 2.0]))
    times = np.concatenate([[horizon[0] - slack / 2.0], half, [horizon[1] + slack / 2.0]])
    stack = op.sample(times)
    assert np.array_equal(stack, generic_linear(start, end, horizon).sample(times))
    assert np.array_equal(op(times[5]), stack[5])
    assert np.array_equal(stack[0], start) and np.array_equal(stack[-1], end)
    assert np.allclose(stack[33], (start + end) / 2.0, rtol=0.0, atol=1e-15)
    assert op.sample([]).shape == (0, 3, 3)
    for times, bad in (([0.5, 1.75 + 2 * slack], "1.75"), ([-0.6, 0.5], "-0.6")):
        with pytest.raises(zj.ValidationError, match=f"time {bad}.* outside horizon"):
            op.sample(times)


def test_linear_endpoints_are_checked_and_read_only():
    with pytest.raises(zj.ValidationError, match="non-finite"):
        zj.TimeDependentOperator.linear(np.diag([1.0, np.inf]), zj.SIGMA_X, (0.0, 1.0))
    with pytest.raises(zj.ValidationError, match="non-finite"):
        zj.TimeDependentOperator.linear(zj.SIGMA_Z, np.diag([np.nan, 0.0]), (0.0, 1.0))
    with pytest.raises(zj.ValidationError, match="differ in shape"):
        zj.TimeDependentOperator.linear(zj.SIGMA_Z, np.eye(3), (0.0, 1.0))
    with pytest.raises(zj.ValidationError, match="square"):
        zj.TimeDependentOperator.linear(np.ones((2, 3)), np.ones((2, 3)), (0.0, 1.0))
    source = zj.SIGMA_Z.copy()
    op = zj.TimeDependentOperator.linear(source, zj.SIGMA_X, (0.0, 1.0))
    source[0, 0] = 5.0
    assert np.array_equal(op.ends, [zj.SIGMA_Z, zj.SIGMA_X])
    with pytest.raises(ValueError, match="read-only"):
        op.ends[0, 0, 0] = 7.0
    assert op.value is None


def test_linear_sample_does_not_call_the_per_time_evaluator():
    # Guards the one-expression path: a per-time loop would raise here.
    op = zj.TimeDependentOperator.linear(-zj.SIGMA_Z, -zj.SIGMA_X, (0.0, 1.0))

    def refuse(t):
        raise AssertionError("sample called the per-time evaluator")

    object.__setattr__(op, "evaluator", refuse)
    stack = op.sample(np.linspace(0.0, 1.0, 4097))
    assert stack.shape == (4097, 2, 2)
    assert np.array_equal(stack[2048], -(zj.SIGMA_Z + zj.SIGMA_X) / 2.0)


def test_bond_sum_keeps_its_bond_and_checks_it():
    bond = np.kron(zj.SIGMA_X, zj.SIGMA_X) + np.kron(zj.SIGMA_Z, zj.SIGMA_Z)
    op = zj.TimeDependentOperator.bond_sum(bond, [(0, 1), (1, 2)], 3, (0.0, 2.0))
    assert (op.dim, op.horizon, op.pairs) == (8, (0.0, 2.0), ((0, 1), (1, 2)))
    assert np.array_equal(op.bond, bond) and np.array_equal(op(1.0), op.value)
    with pytest.raises(ValueError, match="read-only"):
        op.bond[0, 0] = 2.0
    first, second = (np.kron(np.kron(a, b), c) for a, b, c in
                     ((zj.SIGMA_X, zj.SIGMA_X, np.eye(2)), (np.eye(2), zj.SIGMA_X, zj.SIGMA_X)))
    assert np.array_equal(np.diag(op.value).real, [2.0, 0.0, -2.0, 0.0, 0.0, -2.0, 0.0, 2.0])
    assert np.max(np.abs(op.value - np.diag(np.diag(op.value)) - first - second)) == 0.0
    assert zj.TimeDependentOperator.constant(bond, (0.0, 1.0)).bond is None
    with pytest.raises(zj.ValidationError, match="4 x 4 two-spin term"):
        zj.TimeDependentOperator.bond_sum(np.eye(8), [(0, 1)], 3, (0.0, 1.0))
    for pairs in ([(0, 0)], [(0, 3)], [(-1, 1)]):
        with pytest.raises(zj.ValidationError, match="two distinct spins of 3"):
            zj.TimeDependentOperator.bond_sum(bond, pairs, 3, (0.0, 1.0))


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
    rebuilt = sum(e * p for e, p in zip(dec.eigenvalues, level_projectors(dec)))
    assert np.max(np.abs(rebuilt - h)) < 1e-9


def test_decompose_groups_degenerate_eigenvalues():
    h = np.diag([-2.0, 0.0, 0.0, 2.0]).astype(complex)
    dec = zj.decompose(h)
    assert dec.ranks == (1, 2, 1)
    assert np.allclose(dec.eigenvalues, [-2.0, 0.0, 2.0])
    assert [dec.level_basis(l).shape for l in range(3)] == [(4, 1), (4, 2), (4, 1)]
    assert np.array_equal(np.hstack([dec.level_basis(l) for l in range(3)]), dec.basis)
    assert not dec.basis.flags.writeable


def test_decompose_respects_explicit_tolerance():
    # the spectral range is 1, so degeneracy_rel is the absolute tolerance
    h = np.diag([0.0, 0.3, 1.0]).astype(complex)
    wide = zj.decompose(h, policy=zj.NumericPolicy(degeneracy_rel=0.5))
    assert wide.ranks == (2, 1)
    narrow = zj.decompose(h, policy=zj.NumericPolicy(degeneracy_rel=0.1))
    assert narrow.ranks == (1, 1, 1)


def test_decompose_refuses_a_tolerance_that_merges_a_split_spectrum():
    # as every frame builder and report does; an exactly degenerate spectrum stays one level
    merge = zj.NumericPolicy(degeneracy_rel=1.5)
    with pytest.raises(zj.NumericalError, match="degeneracy tolerance 3.000e\\+00 merges every level"):
        zj.decompose(np.diag([1.0, -1.0]).astype(complex), policy=merge)
    assert zj.decompose(np.eye(2, dtype=complex), policy=merge).ranks == (2,)


@pytest.mark.parametrize("policy", [None, zj.NumericPolicy(degeneracy_rel=0.5)])
def test_a_spectrum_wider_than_float_range_raises_before_it_overflows(policy):
    # The suite turns RuntimeWarning into an error, so an overflowing
    # subtraction before the raise would fail here too.
    with pytest.raises(zj.NumericalError, match="spectral range from -1e\\+308 to 1e\\+308 is not finite"):
        zj.decompose(np.diag([1e308, -1e308]).astype(complex), policy=policy)
    op = zj.TimeDependentOperator(
        evaluator=lambda t: 1e308 * np.array([[1.0 - t, t], [t, t - 1.0]], dtype=complex),
        horizon=(0.0, 1.0),
        dim=2,
    )
    with pytest.raises(zj.NumericalError, match="spectral range .* is not finite"):
        zj.track_frame(op, np.linspace(0.0, 1.0, 17), policy)


def test_a_level_summing_past_float_range_keeps_its_finite_mean():
    # 1.5e308 + 1.5e308 overflows, so the level mean is taken from its first eigenvalue
    dec = zj.decompose(np.diag([1.5e308, 1.5e308, 0.0]).astype(complex))
    assert dec.eigenvalues.tolist() == [0.0, 1.5e308]
    assert dec.ranks == (1, 2)


def test_decompose_warns_on_ambiguous_gap():
    # Gap of 0.3 with tol 0.02 * 10 = 0.2 sits in the warn band (tol/2, 2 tol).
    dec = zj.decompose(np.diag([0.0, 0.3, 10.0]).astype(complex), policy=zj.NumericPolicy(degeneracy_rel=0.02))
    assert any("ambiguous gap" in w for w in dec.warnings)


def test_decomposing_a_nine_site_chain_field_forms_no_projector_stack():
    # The field has 10 levels at d = 512: a (10, d, d) complex stack is 40 MiB;
    # the basis, its check and eigh's temporaries stay within a few d x d.
    h = zj.spin_chain_model(zj.SpinChainSpec(n_sites=9)).h_meas(0.0)
    d = len(h)
    tracemalloc.start()
    try:
        dec = zj.decompose(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.n_levels == 10 and dec.dim == d == 512
    assert peak < 6 * d * d * 16


def test_decompose_refuses_a_basis_that_is_not_unitary(monkeypatch):
    from zenojump import decomposition

    real = decomposition.eigh

    def scaled(*args):
        vals, vecs = real(*args)
        return vals, 0.5 * vecs

    monkeypatch.setattr(decomposition, "eigh", scaled)
    with pytest.raises(zj.ValidationError, match="not unitary"):
        zj.decompose(np.diag([0.0, 1.0]).astype(complex))


# --- static frames -----------------------------------------------------------


def test_static_frame_phases_exact_for_switched_eigenvalue():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    frame = zj.pulsed_frame(p0, 1.0, 0.5, n_intervals=8)
    assert frame.eps_integrals[0, -1] == 0.5
    assert frame.eps_integrals[1, -1] == 0.0
    assert np.array_equal(frame.intertwiners[3], np.eye(2))
    assert frame.ranks == (1, 1)
    assert frame.residual == 0.0
    assert frame.n_nodes == 9
    assert frame.dim == 2


# --- tensor-power levels -----------------------------------------------------


def test_level_columns_are_the_popcount_sectors_on_spins_and_ranges_at_p_one():
    from zenojump.decomposition import _level_columns

    for p in range(1, 7):
        states = np.arange(2**p)
        popcount = ((states[:, None] >> np.arange(p)) & 1).sum(axis=1)
        for level in range(p + 1):
            assert np.array_equal(_level_columns((1, 1), p, level), np.flatnonzero(popcount == level))
    ranges = [_level_columns((2, 1, 3), 1, level) for level in range(3)]
    assert [r.tolist() for r in ranges] == [[0, 1], [2], [3, 4, 5]]


# --- track_frame -------------------------------------------------------------


def test_track_frame_transports_projectors():
    rng = np.random.default_rng(22)
    gen = random_hermitian(rng, 3, scale=0.5)
    base = np.diag([-1.0, 0.0, 1.0]).astype(complex)
    op = rotation_family(gen, base)
    grid = np.linspace(0.0, 1.0, 65)
    frame = zj.track_frame(op, grid=grid)
    assert frame.residual < 1e-6
    assert np.max(np.abs(frame.intertwiners[0] - np.eye(3))) < 1e-12
    for k in (10, 32, 64):
        u = frame.intertwiners[k]
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-10
    # Eigenvalues of a rotated operator never move.
    assert np.max(np.abs(frame.eigenvalues - base.diagonal().real[:, None])) < 1e-10


def test_track_frame_detects_level_crossing():
    # 33 nodes put one on the crossing at t = 0.5; 30 and 32 step over it,
    # and the level that was lowest is the highest at the next node.
    op = zj.TimeDependentOperator(
        evaluator=lambda t: (0.5 - t) * zj.SIGMA_Z, horizon=(0.0, 1.0), dim=2
    )
    for nodes in (30, 32, 33):
        with pytest.raises(zj.LevelCrossingError, match="at node t=0\\.5"):
            zj.track_frame(op, grid=np.linspace(0.0, 1.0, nodes))


def test_track_frame_rejects_levels_that_cannot_be_followed():
    # At the breakpoint t = 0.5 the eigenbasis jumps from the standard basis
    # to the columns of u.  Rows 0 and 1 of |u|^2 are both largest in column
    # 0, so level 1 overlaps level 0 of the next node more than itself.
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
        zj.track_frame(op, grid=np.linspace(0.0, 1.0, 9))


def test_track_frame_sums_a_degenerate_levels_overlap_over_its_columns():
    # From t = 0.5 a split of 1e-10, inside the tolerance, orders the rank-2
    # level's columns e_1, e_0: column by column e_0 would overlap the other
    # column, but the level overlaps itself fully, so nothing crosses.
    op = zj.TimeDependentOperator(
        evaluator=lambda t: np.diag([0.0 if t < 0.5 else 1e-10, 0.0, 1.0]).astype(complex),
        horizon=(0.0, 1.0),
        dim=3,
        breakpoints=(0.5,),
    )
    frame = zj.track_frame(op, grid=np.linspace(0.0, 1.0, 9))
    assert frame.ranks == (2, 1) and np.array_equal(frame.final_basis, np.eye(3)[:, [1, 0, 2]])


def test_track_frame_residual_failure_carries_frame():
    rng = np.random.default_rng(23)
    gen = random_hermitian(rng, 3, scale=1.0)
    base = np.diag([-1.0, 0.0, 1.0]).astype(complex)
    op = rotation_family(gen, base, analytic=False)
    with pytest.raises(zj.FrameResidualError, match="refine the grid") as exc:
        zj.track_frame(
            op, grid=np.linspace(0.0, 1.0, 5), policy=zj.NumericPolicy(frame_tol=1e-10)
        )
    assert isinstance(exc.value.last_result, zj.AdiabaticFrame)
    assert exc.value.last_result.residual > 1e-10


def _poisoned(helper, rows):
    """``helper`` whose frame reads NaN at its first ``rows`` nodes."""

    def poisoned(*args):
        out = np.array(helper(*args))
        out[:rows] = np.nan
        return out

    return poisoned


def test_track_frame_keeps_a_non_finite_residual(monkeypatch):
    # The RK4 route: NaN intertwiners in the first residual block only (227
    # nodes of a 3 x 3 frame); np.maximum keeps that block's NaN maximum, which
    # the builtin max would drop for the finite later blocks.
    from zenojump import decomposition

    monkeypatch.setattr(decomposition, "_prefix_products", _poisoned(decomposition._prefix_products, 100))
    op = rotation_family(random_hermitian(np.random.default_rng(22), 3, scale=0.5), np.diag([-1.0, 0.0, 1.0]))
    with pytest.raises(zj.FrameResidualError, match="refine the grid") as exc:
        zj.track_frame(op, np.linspace(0.0, 1.0, 1025))
    frame = exc.value.last_result
    assert np.isnan(frame.residual) and np.isfinite(frame.intertwiners[100:]).all()


def test_a_planar_frame_keeps_a_non_finite_residual(monkeypatch):
    # The closed-form route of a linear 2 x 2 family: NaN in the first of five
    # residual blocks of 512 nodes, the rest finite.
    from zenojump import decomposition

    monkeypatch.setattr(decomposition, "_plane_rotation", _poisoned(decomposition._plane_rotation, 100))
    op = zj.TimeDependentOperator.linear(-zj.SIGMA_Z, -zj.SIGMA_X, (0.0, 1.0))
    with pytest.raises(zj.FrameResidualError, match="refine the grid") as exc:
        zj.track_frame(op, np.linspace(0.0, 1.0, 2049))
    frame = exc.value.last_result
    assert np.isnan(frame.residual) and np.isfinite(frame.intertwiners[100:]).all()


def test_a_planar_frame_off_by_a_turn_fails_its_residual_check(monkeypatch):
    # Every intertwiner turned a further 1e-4 rad about the plane normal (y for
    # -((1-s) Z + s X)) moves the transported projectors by sin(2e-4) / 2.
    from zenojump import decomposition

    real = decomposition._plane_rotation
    turn = np.cos(1e-4) * np.eye(2) - 1j * np.sin(1e-4) * zj.SIGMA_Y
    monkeypatch.setattr(decomposition, "_plane_rotation", lambda op, grid: real(op, grid) @ turn)
    op = zj.TimeDependentOperator.linear(-zj.SIGMA_Z, -zj.SIGMA_X, (0.0, 1.0))
    message = "frame residual 1.000e-04 exceeds tolerance 1.0e-06; refine the grid"
    with pytest.raises(zj.FrameResidualError, match=message):
        zj.track_frame(op, np.linspace(0.0, 1.0, 2049))


def test_track_frame_keeps_the_residual_it_checked():
    rng = np.random.default_rng(22)
    op = rotation_family(random_hermitian(rng, 3, scale=0.5), np.diag([-1.0, 0.0, 1.0]))
    frame = zj.track_frame(op, grid=np.linspace(0.0, 1.0, 65))
    # The per-node residual, recomputed from decompose at every node; the
    # frame's levels are in decompose's ascending order (rotations keep them).
    recomputed = max(
        zj.max_norm(a @ p0 @ a.conj().T - p)
        for t, a in zip(frame.grid, frame.intertwiners)
        for p0, p in zip(level_projectors(frame), level_projectors(zj.decompose(op(t))))
    )
    assert frame.residual == pytest.approx(recomputed, rel=0.0, abs=1e-12)
    assert 0.0 < frame.residual < 1e-6


def test_track_frame_refuses_a_tolerance_that_merges_every_level():
    # A one-level frame of a split spectrum read ratio = 0, adiabatic = True.
    grid = np.linspace(0.0, 1.0, 33)
    merge = zj.NumericPolicy(degeneracy_rel=100.0)
    with pytest.raises(zj.NumericalError, match="merges every level"):
        zj.track_frame(zj.models._field_direction(3), grid, merge)
    # an exactly degenerate spectrum is one level, whatever the tolerance
    flat = zj.TimeDependentOperator(evaluator=lambda t: (1.0 + t) * np.eye(2), horizon=(0.0, 1.0), dim=2)
    assert zj.track_frame(flat, grid, merge).ranks == (2,)


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
        zj.track_frame(op, grid=np.linspace(0.0, 1.0, 5))


def test_track_frame_integrator_order():
    # Doubling the grid must shrink the endpoint error by ~2^4; require 3.5.
    rng = np.random.default_rng(24)
    gen = random_hermitian(rng, 3, scale=0.8)
    base = np.diag([-1.0, 0.0, 1.0]).astype(complex)
    op = rotation_family(gen, base)

    def endpoint(n_nodes):
        frame = zj.track_frame(op, grid=np.linspace(0.0, 1.0, n_nodes))
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


def test_adiabaticity_rejects_nonpositive_coupling():
    op = zj.TimeDependentOperator.constant(zj.SIGMA_Z, (0.0, 1.0))
    with pytest.raises(zj.ValidationError, match="coupling"):
        zj.adiabaticity_report(op, coupling=0.0, grid=np.linspace(0.0, 1.0, 9))


# 1e-308: its square underflows, and alpha_unit / coupling**2 divided by 0
BAD_COUPLINGS = [0.0, -1.0, float("nan"), float("inf"), 1e-308]


@pytest.mark.parametrize("coupling", BAD_COUPLINGS)
def test_frames_and_report_reject_a_bad_coupling(coupling):
    # An infinite coupling (h*T overflowing, say) would give infinite phases.
    # Frames take no coupling; every entry point that does checks it.
    op = rotation_family(random_hermitian(np.random.default_rng(26), 2), zj.SIGMA_Z)
    grid = np.linspace(0.0, 1.0, 17)
    frame = zj.pulsed_frame(np.diag([1.0, 0.0]), 1.0, 0.0, n_intervals=16)
    entry_points = (
        lambda: zj.MeasurementModel(h0=op, h_meas=op, coupling=coupling),
        lambda: zj.adiabaticity_report(op, coupling, grid),
        lambda: zj.adiabaticity_report(frame, coupling),
    )
    for call in entry_points:
        with pytest.raises(zj.ValidationError, match="coupling must be positive and finite"):
            call()


def test_a_coupling_whose_square_overflows_reports_without_raising():
    # coupling**2 raised OverflowError above about 1.3e154; the product is inf
    frame = zj.spin_chain_frame(zj.SpinChainSpec(n_sites=2), 64)
    report = zj.adiabaticity_report(frame, 1e200)
    assert frame.alpha_unit > 0.0 and report.alpha_max == 0.0 and report.ratio == 0.0
    assert report.threshold == np.inf and report.adiabatic

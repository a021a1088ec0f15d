"""The batched spectral pass against per-slice reference implementations.

``eigh`` on a stack, ``adiabaticity_report`` and ``track_frame`` decompose a
whole grid at once.  Each is checked here against a straightforward
one-matrix-at-a-time implementation of the same definition, kept in this file
so that the batched code can never drift from it unnoticed.
"""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import linear_sum_assignment

import zenojump as zj

from properties import _rotating_family, closed_form_site_frame, level_projectors, random_hermitian, rk4_intertwiners


# --- per-slice reference implementations -------------------------------------


def ref_levels(mat, tol):
    """Eigendecompose one matrix and cluster its eigenvalues by gaps > tol."""
    vals, vecs = zj.eigh(mat)
    groups, start = [], 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > tol:
            groups.append(slice(start, i))
            start = i
    means = np.array([float(vals[g].mean()) for g in groups])
    projs = []
    for g in groups:
        p = vecs[:, g] @ vecs[:, g].conj().T
        projs.append((p + p.conj().T) / 2.0)
    return means, np.array(projs), vals, vecs, groups


def ref_derivative(op, t, step):
    """dH/dt at ``t``: the analytic derivative, else the difference over ``t +- step``
    clamped to the smooth piece owning ``t``."""
    if op.derivative_evaluator is not None:
        return np.asarray(op.derivative_evaluator(t), dtype=complex)
    lo, hi = op.piece_bounds(t)
    a, b = max(t - step, lo), min(t + step, hi)
    return (op(b) - op(a)) / (b - a) if b > a else np.zeros((op.dim, op.dim), dtype=complex)


def ref_report(op, coupling, grid, tol):
    """(alpha_max, eps_min): node-by-node, level-pair by level-pair."""
    alpha_max, eps_min = 0.0, np.inf
    steps = np.diff(grid)
    for k, t in enumerate(grid):
        means, _, _, vecs, groups = ref_levels(op(t), tol)
        if len(groups) < 2:
            continue
        eps_min = min(eps_min, float(np.diff(means).min()))
        hdot = ref_derivative(op, t, steps[min(k, len(steps) - 1)] / 2.0)
        w = vecs.conj().T @ hdot @ vecs
        for m, gm in enumerate(groups):
            total = 0.0
            for n, gn in enumerate(groups):
                if n != m:
                    bohr = coupling * (means[m] - means[n])
                    total += float(np.sum(np.abs(w[gm, gn]) ** 2)) / bohr**2
            alpha_max = max(alpha_max, total / (gm.stop - gm.start))
    return alpha_max, eps_min


def ref_generator(op, t, step, tol):
    means, _, _, vecs, groups = ref_levels(op(t), tol)
    label = np.empty(vecs.shape[0], dtype=int)
    for i, g in enumerate(groups):
        label[g] = i
    w = vecs.conj().T @ ref_derivative(op, t, step) @ vecs
    eps = means[label]
    same = label[:, None] == label[None, :]
    m_eig = np.where(same, 0.0, 1j * w / np.where(same, 1.0, eps[None, :] - eps[:, None]))
    m = vecs @ m_eig @ vecs.conj().T
    return (m + m.conj().T) / 2.0


def ref_track_frame(op, grid, tol):
    """(intertwiners, projectors, eps_integrals): match levels node by node, then
    one RK4 step per interval with polar re-unitarisation."""
    n, dim = len(grid), op.dim
    means, projs, *_ = ref_levels(op(grid[0]), tol)
    eps = np.empty((len(means), n))
    projectors = np.empty((len(means), n, dim, dim), dtype=complex)
    eps[:, 0], projectors[:, 0] = means, projs
    for k in range(1, n):
        new_means, new_projs, *_ = ref_levels(op(grid[k]), tol)
        overlap = np.einsum("aij,bji->ab", projs, new_projs).real
        cost = -overlap + 1e-9 * np.abs(means[:, None] - new_means[None, :])
        rows, cols = linear_sum_assignment(cost)
        order = np.empty(len(means), dtype=int)
        order[rows] = cols
        means, projs = new_means[order], new_projs[order]
        eps[:, k], projectors[:, k] = means, projs
    intertwiners = np.empty((n, dim, dim), dtype=complex)
    intertwiners[0] = np.eye(dim)
    for k in range(n - 1):
        h = grid[k + 1] - grid[k]
        m_a = ref_generator(op, grid[k], h / 2.0, tol)
        m_mid = ref_generator(op, (grid[k] + grid[k + 1]) / 2.0, h / 2.0, tol)
        m_b = ref_generator(op, grid[k + 1], h / 2.0, tol)
        a = intertwiners[k]
        k1 = -1j * (m_a @ a)
        k2 = -1j * (m_mid @ (a + (h / 2.0) * k1))
        k3 = -1j * (m_mid @ (a + (h / 2.0) * k2))
        k4 = -1j * (m_b @ (a + h * k3))
        u, _, vh = np.linalg.svd(a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        intertwiners[k + 1] = u @ vh
    integrals = cumulative_trapezoid(eps, grid, axis=1, initial=0.0)
    return intertwiners, projectors, integrals


def ref_residual(intertwiners, projectors):
    """Worst max-norm of ``A P_l(0) A^dagger - P_l(t)``, node by node and level by level."""
    return max(
        zj.max_norm(a @ projectors[l, 0] @ a.conj().T - projectors[l, k])
        for k, a in enumerate(intertwiners)
        for l in range(len(projectors))
    )


# --- stacked eigh ------------------------------------------------------------


def test_stacked_eigh_equals_per_matrix_eigh():
    rng = np.random.default_rng(61)
    stack = np.array([random_hermitian(rng, 5) for _ in range(12)])
    stack[3] = np.diag([1.0, 1.0, 2.0, 2.0, 2.0])  # degenerate slice
    vals, vecs = zj.eigh(stack)
    assert vals.shape == (12, 5) and vecs.shape == (12, 5, 5)
    for k, mat in enumerate(stack):
        ref_vals, ref_vecs = zj.eigh(mat)
        assert np.max(np.abs(vals[k] - ref_vals)) < 1e-13
        assert np.max(np.abs(vecs[k] - ref_vecs)) < 1e-13


def test_a_two_level_phase_tie_takes_the_first_row_as_pivot():
    # Equal diagonals with a real or an imaginary off-diagonal: each eigenvector
    # column's two entries have one modulus, and the first row's is made real
    # positive (with the second row's, row 0 of some columns would be -b or i b).
    rng = np.random.default_rng(69)
    offs = rng.uniform(0.1, 2.0, size=16) * np.repeat([1.0, -1.0, 1j, -1j], 4)
    stack = np.zeros((16, 2, 2), dtype=complex)
    stack[:, 0, 0] = stack[:, 1, 1] = rng.normal(size=16)
    stack[:, 1, 0], stack[:, 0, 1] = offs, offs.conj()
    vals, vecs = zj.eigh(stack)
    assert np.all(vecs[:, 0].imag == 0.0) and np.all(vecs[:, 0].real > 0.0)
    assert np.max(np.abs(stack @ vecs - vecs * vals[:, None, :])) <= 1e-15 * (1.0 + np.max(np.abs(stack)))
    for k, mat in enumerate(stack):
        one_vals, one_vecs = zj.eigh(mat)
        assert np.array_equal(bits(one_vals), bits(vals[k])) and np.array_equal(bits(one_vecs), bits(vecs[k]))


def test_stacked_eigh_checks_every_slice():
    rng = np.random.default_rng(62)
    stack = np.array([random_hermitian(rng, 3) for _ in range(4)])
    stack[2, 0, 1] += 1e-3
    with pytest.raises(zj.ValidationError, match="matrix 2 of the stack is not Hermitian"):
        zj.eigh(stack)


# --- adiabaticity report -----------------------------------------------------


def assert_report_matches(op, coupling, grid, tol, rel):
    """The report at its own tolerance against the reference clustered at ``tol``."""
    rep = zj.adiabaticity_report(op, coupling, grid)
    alpha, eps_min = ref_report(op, coupling, grid, tol)
    assert rep.alpha_max == pytest.approx(alpha, rel=rel)
    assert rep.eps_min == pytest.approx(eps_min, rel=rel)
    assert rep.ratio == pytest.approx(alpha / eps_min, rel=rel)
    return rep


@pytest.mark.parametrize("seed", [63, 64, 65])
def test_report_on_rotating_family(seed):
    rng = np.random.default_rng(seed)
    op = _rotating_family(rng, int(rng.integers(2, 6)))
    rep = assert_report_matches(op, 7.0, np.linspace(0.0, 1.0, 33), 1e-8, 1e-12)
    assert rep.alpha_max > 0.0


def test_report_on_pulsed_operator_with_merged_levels():
    # Off (a single merged level) until the switch at 0.375, then a rotating
    # spectrum sampled by finite differences, one-sided at the switch.
    rng = np.random.default_rng(66)
    rotating = _rotating_family(rng, 3)
    switch = 0.375
    op = zj.TimeDependentOperator(
        evaluator=lambda t: rotating(t) if t >= switch else np.zeros((3, 3), dtype=complex),
        horizon=(0.0, 1.0),
        dim=3,
        breakpoints=(switch,),
    )
    rep = assert_report_matches(op, 9.0, np.linspace(0.0, 1.0, 65), 1e-8, 1e-9)
    assert rep.alpha_max > 0.0


def test_report_on_degenerate_three_site_chain():
    # the chain's field is one dense operator: this covers its clustering into ranks (1, 3, 3, 1)
    model = zj.spin_chain_model(zj.SpinChainSpec(n_sites=3, h=9.0))
    grid = np.linspace(0.0, 1.0, 65)
    frame = zj.track_frame(model.h_meas, grid)
    assert frame.ranks == (1, 3, 3, 1)
    assert_report_matches(model.h_meas, model.coupling, grid, frame.degeneracy_tol, 1e-9)


def test_report_on_degenerate_three_site_chain_from_the_dense_field():
    # A plain operator on the field's evaluator alone samples one time at a
    # time; its report at ranks (1, 3, 3, 1) equals the chain field's own.
    model = zj.spin_chain_model(zj.SpinChainSpec(n_sites=3, h=9.0))
    h_meas = model.h_meas
    plain = zj.TimeDependentOperator(evaluator=h_meas.evaluator, horizon=h_meas.horizon, dim=h_meas.dim)
    grid = np.linspace(0.0, 1.0, 65)
    frame = zj.track_frame(plain, grid)
    assert frame.ranks == (1, 3, 3, 1)
    rep = assert_report_matches(plain, model.coupling, grid, frame.degeneracy_tol, 1e-9)
    own = zj.adiabaticity_report(h_meas, model.coupling, grid)
    for name in ("alpha_max", "eps_min", "ratio"):
        assert getattr(rep, name) == pytest.approx(getattr(own, name), rel=1e-12), name


@pytest.mark.parametrize("tol", [None, 1e-12, 1e-6])
@pytest.mark.parametrize("n_sites", [2, 3, 4, 5])
def test_site_sum_report_equals_the_dense_report(n_sites, tol):
    # The chain frame reads its figures off one spin; the dense operator form,
    # clustered under the same policy (degeneracy_rel = ``tol``, or the
    # default), is the reference.
    spec = zj.SpinChainSpec(n_sites=n_sites)
    pol = zj.NumericPolicy() if tol is None else zj.NumericPolicy(degeneracy_rel=tol)
    frame = zj.spin_chain_frame(spec, 256, pol)
    structured = zj.adiabaticity_report(frame, 9.0, policy=pol)
    h_meas = zj.spin_chain_model(spec).h_meas
    dense = zj.adiabaticity_report(h_meas, 9.0, frame.grid, pol)
    for name in ("alpha_max", "eps_min", "ratio"):
        assert getattr(structured, name) == pytest.approx(getattr(dense, name), rel=1e-14), name
    assert structured.adiabatic == dense.adiabatic
    assert structured.alpha_max > 0.0


def test_eight_site_report_is_four_times_the_two_site_report():
    # The dense 256-dimensional pass would hold about 4 GB of samples here.
    two, eight = (
        zj.adiabaticity_report(zj.spin_chain_frame(zj.SpinChainSpec(n_sites=n)), 9.0) for n in (2, 8)
    )
    assert eight.ratio == 4.0 * two.ratio
    assert eight.eps_min == two.eps_min


@pytest.mark.parametrize("tol", [1.5, 2.5, 100.0])
@pytest.mark.parametrize("per_time", [False, True])
def test_report_raises_when_the_tolerance_reaches_the_gap(per_time, tol):
    # The field's gap is 2 |field|, between sqrt(2) and 2, and its spectral
    # range at most 6, so degeneracy_rel = tol / 6 clusters at ``tol``.  A
    # tolerance above the gap must not merge the distinct levels into a
    # silent ratio of 0, whether the field is sampled in one expression or by
    # its evaluator per time.
    h_meas = zj.spin_chain_model(zj.SpinChainSpec(n_sites=3)).h_meas
    op = zj.TimeDependentOperator(h_meas.evaluator, h_meas.horizon, h_meas.dim) if per_time else h_meas
    with pytest.raises(zj.NumericalError, match="merges every level"):
        zj.adiabaticity_report(op, 9.0, np.linspace(0.0, 1.0, 33), policy=zj.NumericPolicy(degeneracy_rel=tol / 6.0))


def test_report_and_frame_refuse_one_policy_that_merges_a_split_spectrum():
    # The report clusters with its own pass's tolerance and judges each node
    # as track_frame does: a policy that merges the 3-site field's split
    # levels is refused by both, where the report used to read ratio 0.
    field_3 = zj.spin_chain_model(zj.SpinChainSpec(n_sites=3)).h_meas
    grid = np.linspace(0.0, 1.0, 33)
    merge = zj.NumericPolicy(degeneracy_rel=0.9)
    with pytest.raises(zj.NumericalError, match="merges every level"):
        zj.adiabaticity_report(field_3, 9.0, grid, policy=merge)
    with pytest.raises(zj.NumericalError, match="merges every level"):
        zj.track_frame(field_3, grid, merge)
    # at the default policy both keep the four levels
    assert zj.track_frame(field_3, grid).ranks == (1, 3, 3, 1)
    assert zj.adiabaticity_report(field_3, 9.0, grid).alpha_max > 0.0


# --- frame tracking ----------------------------------------------------------


@pytest.mark.parametrize("n_sites", [2, 3])
def test_track_frame_matches_per_node_reference(n_sites):
    model = zj.spin_chain_model(zj.SpinChainSpec(n_sites=n_sites, h=9.0))
    grid = np.linspace(0.0, 1.0, 129)
    frame = zj.track_frame(model.h_meas, grid)
    intertwiners, projectors, integrals = ref_track_frame(model.h_meas, grid, 1e-8)
    assert np.max(np.abs(frame.intertwiners - intertwiners)) < 1e-12
    assert np.max(np.abs(level_projectors(frame) - projectors[:, 0])) < 1e-12
    assert np.max(np.abs(level_projectors(frame, -1) - projectors[:, -1])) < 1e-12
    assert np.max(np.abs(frame.eps_integrals - integrals)) < 1e-12
    # The frame keeps end-node projectors only; its residual is still the
    # worst over every node, against the reference's per-node projectors.
    residual = ref_residual(frame.intertwiners, projectors)
    assert frame.residual == pytest.approx(residual, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("seed", [63, 64, 65])
def test_track_frame_residual_on_rotating_family(seed):
    rng = np.random.default_rng(seed)
    op = _rotating_family(rng, int(rng.integers(2, 6)))
    grid = np.linspace(0.0, 1.0, 129)
    frame = zj.track_frame(op, grid)
    _, projectors, _ = ref_track_frame(op, grid, 1e-8)
    residual = ref_residual(frame.intertwiners, projectors)
    assert frame.residual == pytest.approx(residual, rel=0.0, abs=1e-12)
    assert frame.residual > 0.0
    assert np.all(np.diff(frame.eigenvalues, axis=0) > 0.0)  # the l-th lowest level at every node


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("count", [1, 2, 63, 64, 65, 2048, 2049])
def test_blocked_prefix_product_equals_the_sequential_loop(count, dim):
    from zenojump.decomposition import _prefix_products

    rng = np.random.default_rng(count + 10 * dim)
    draws = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    steps = np.linalg.qr(draws)[0]
    ref = np.empty((count + 1, dim, dim), dtype=complex)
    ref[0] = np.eye(dim)
    for k in range(count):
        ref[k + 1] = steps[k] @ ref[k]
    got = _prefix_products(steps)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13


@pytest.mark.parametrize(
    "op, n_intervals",
    [
        (zj.TimeDependentOperator.linear(-zj.SIGMA_Z, -zj.SIGMA_X, (0.0, 1.0)), 128),
        (zj.spin_chain_model(zj.SpinChainSpec(n_sites=2, h=9.0)).h_meas, 192),
    ],
    ids=["site", "two-site"],
)
def test_polar_factor_only_where_a_step_is_not_unitary(op, n_intervals, monkeypatch):
    from zenojump.decomposition import _rk4_steps, _spectral_samples

    svd, polar_rows = np.linalg.svd, []

    def counted(x, *args, **kwargs):
        polar_rows.append(len(x))
        return svd(x, *args, **kwargs)

    grid = np.linspace(0.0, 1.0, n_intervals + 1)
    _, vecs, hdot, _, level_mean, _ = _spectral_samples(op, grid, zj.NumericPolicy(), True)
    monkeypatch.setattr(np.linalg, "svd", counted)
    steps = _rk4_steps(vecs, hdot, level_mean, grid)
    monkeypatch.undo()
    # the grid is coarse enough that some steps, not all, take the polar factor
    assert 0 < sum(polar_rows) < n_intervals
    defect = np.abs(steps.conj().swapaxes(1, 2) @ steps - np.eye(op.dim))
    assert np.max(defect) <= 1e-14
    frame = zj.track_frame(op, grid)
    if op.dim == 2:  # a linear 2 x 2 family takes no RK4 steps: its frame is the closed-form rotation
        assert np.max(np.abs(frame.intertwiners - closed_form_site_frame(grid))) <= 1e-15
    else:
        intertwiners, projectors, _ = ref_track_frame(op, grid, 1e-8)
        assert frame.residual == pytest.approx(ref_residual(intertwiners, projectors), rel=0.0, abs=1e-12)


# --- a linear two-level family: the frame in closed form ---------------------


def linear_family(seed, nodes):
    """A seeded linear ``2 x 2`` family with complex off-diagonals, an identity part
    and a horizon other than (0, 1), on a grid of ``nodes`` that stops short of its
    end; seed ``None`` is the chain's one-site field on (0, 1)."""
    if seed is None:
        return zj.TimeDependentOperator.linear(-zj.SIGMA_Z, -zj.SIGMA_X, (0.0, 1.0)), np.linspace(0.0, 1.0, nodes)
    rng = np.random.default_rng(700 + seed)
    start, end = (random_hermitian(rng, 2) + rng.normal() * np.eye(2) for _ in range(2))
    t0 = rng.uniform(-2.0, 2.0)
    t1 = t0 + rng.uniform(0.5, 3.0)
    return zj.TimeDependentOperator.linear(start, end, (t0, t1)), np.linspace(t0, t0 + 0.8 * (t1 - t0), nodes)


def bits(x):
    return np.ascontiguousarray(x).view(np.uint8)


@pytest.mark.parametrize("seed", range(6))
def test_a_linear_two_level_frame_is_the_rk4_frame_in_closed_form(seed):
    op, grid = linear_family(seed, 4097)
    frame = zj.track_frame(op, grid)
    assert np.max(np.abs(frame.intertwiners - rk4_intertwiners(op, grid))) <= 1e-12
    defect = np.abs(frame.intertwiners.conj().swapaxes(1, 2) @ frame.intertwiners - np.eye(2))
    assert np.max(defect) <= 1e-14
    assert frame.residual < 1e-14
    assert frame.alpha_unit > 0.0  # the family turns


@pytest.mark.parametrize("seed", [None, *range(6)])
def test_the_planar_pass_equals_the_stacked_pass_bit_for_bit(seed):
    # A linear 2 x 2 family's nodes-only pass lays its stacks out as entry
    # planes; the half-grid pass keeps node-first stacks, and its node rows
    # (the same samples, eigenpairs and difference quotients) are the reference.
    from zenojump.decomposition import _level_figures, _spectral_samples

    op, grid = linear_family(seed, 2049)
    pol = zj.NumericPolicy()
    vals, vecs, hdot, _, _, _ = _spectral_samples(op, grid, pol, midpoints=False)
    ref_vals, ref_vecs = zj.eigh(op.sample(grid))
    assert np.array_equal(bits(vals), bits(ref_vals)) and np.array_equal(bits(vecs), bits(ref_vecs))
    _, _, stacked, first, level_mean, _ = _spectral_samples(op, grid, pol, midpoints=True)
    assert np.array_equal(bits(hdot), bits(stacked[::2]))
    frame = zj.track_frame(op, grid)
    alpha_unit, eps_min, _ = _level_figures(stacked[::2], first[::2], level_mean[::2])
    assert (frame.alpha_unit, frame.eps_min) == (alpha_unit, eps_min)
    assert np.array_equal(bits(frame.initial_basis), bits(ref_vecs[0]))
    assert np.array_equal(bits(frame.final_basis), bits(ref_vecs[-1]))


@pytest.mark.parametrize("seed", [None, *range(6)])
def test_the_planar_residual_is_the_per_node_reference(seed):
    # the transported projector is w w^dagger, w = A v(0), where the reference forms
    # A P(0) A^dagger: the two differ by the rounding of unit-sized entries
    op, grid = linear_family(seed, 513)
    frame = zj.track_frame(op, grid)
    projectors = np.array([ref_levels(op(t), frame.degeneracy_tol)[1] for t in grid]).swapaxes(0, 1)
    reference = ref_residual(frame.intertwiners, projectors)
    assert frame.residual == pytest.approx(reference, rel=0.0, abs=np.finfo(float).eps)


def test_a_multiple_of_the_identity_is_one_level_with_identity_intertwiners():
    op = zj.TimeDependentOperator.linear(0.5 * np.eye(2), 2.0 * np.eye(2), (0.0, 1.0))
    frame = zj.track_frame(op, np.linspace(0.0, 1.0, 65))
    assert frame.ranks == (2,)
    assert (frame.alpha_unit, frame.eps_min, frame.residual) == (0.0, np.inf, 0.0)
    assert np.array_equal(frame.intertwiners, np.broadcast_to(np.eye(2), (65, 2, 2)))


def test_parallel_ends_give_identity_intertwiners():
    start = np.array([[1.0, 1.0 - 1.0j], [1.0 + 1.0j, -1.0]])
    op = zj.TimeDependentOperator.linear(start, 2.0 * start + 0.5 * np.eye(2), (0.0, 1.0))
    frame = zj.track_frame(op, np.linspace(0.0, 1.0, 65))
    assert np.array_equal(frame.intertwiners, np.broadcast_to(np.eye(2), (65, 2, 2)))
    assert frame.residual < 1e-14 and frame.alpha_unit < 1e-30  # no turn: alpha is rounding


@pytest.mark.parametrize(
    "start, end, message",
    [
        # antiparallel ends: the levels cross at s = 1/4, between the nodes 1/6 and 1/3
        (zj.SIGMA_Z, -3.0 * zj.SIGMA_Z, "overlaps another level more than itself at node t=0.333333333"),
        # a degenerate end: one level of rank 2 at the first node, two after it
        (0.5 * np.eye(2), zj.SIGMA_X + 0.2 * zj.SIGMA_Z, r"level count or ranks changed \(from 1 to 2 levels\)"),
    ],
    ids=["antiparallel", "degenerate-end"],
)
def test_a_linear_two_level_family_that_crosses_still_raises(start, end, message):
    op = zj.TimeDependentOperator.linear(start, end, (0.0, 1.0))
    with pytest.raises(zj.LevelCrossingError, match=message):
        zj.track_frame(op, np.linspace(0.0, 1.0, 7))


def test_the_dense_chain_field_keeps_the_rk4_route(monkeypatch):
    # the 2^n-dimensional field is linear but not 2 x 2, so the dense
    # cross-check of the chain frame stays independent of the closed form
    from zenojump import decomposition
    from zenojump.models import _field_direction

    calls = []
    rk4 = decomposition._rk4_steps
    monkeypatch.setattr(decomposition, "_rk4_steps", lambda *args: calls.append(1) or rk4(*args))
    grid = np.linspace(0.0, 1.0, 65)
    zj.track_frame(zj.spin_chain_model(zj.SpinChainSpec(n_sites=2)).h_meas, grid)
    assert len(calls) == 1
    zj.track_frame(_field_direction(1), grid)
    assert len(calls) == 1


# --- static frames -----------------------------------------------------------


def test_static_frame_arrays_are_read_only_views():
    p0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    frame = zj.pulsed_frame(p0, 1.0, 0.0, n_intervals=1024)
    assert frame.intertwiners.base is not None
    assert frame.initial_basis is frame.final_basis
    for arr in (frame.intertwiners, frame.initial_basis):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert frame.intertwiners.shape == (1025, 3, 3) and frame.initial_basis.shape == (3, 3)
    assert level_projectors(frame).shape == level_projectors(frame, -1).shape == (2, 3, 3)
    for projectors in (level_projectors(frame), level_projectors(frame, -1)):
        assert np.max(np.abs(projectors[0] - p0)) <= 1e-14
        assert np.max(np.abs(projectors[1] - (np.eye(3) - p0))) <= 1e-14


def test_static_frame_phases_equal_per_node_reference():
    # Static levels never move, so their phases are closed forms: the step
    # and ramp of a pulsed measurement and eps (t - t0) of a constant one.
    rng = np.random.default_rng(83)
    q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0][:, :2]
    p = q @ q.conj().T
    tau_free = 0.375
    frame = zj.pulsed_frame(p, 1.5, tau_free, n_intervals=256)
    grid = frame.grid
    assert np.array_equal(frame.eigenvalues, [[1.0 if t >= tau_free else 0.0 for t in grid], [0.0] * 257])
    assert np.array_equal(frame.eps_integrals, [[max(t - tau_free, 0.0) for t in grid], [0.0] * 257])
    for end in (0, -1):
        watched, rest = level_projectors(frame, end)
        assert np.max(np.abs(watched - p)) <= 1e-14
        assert np.max(np.abs(rest - (np.eye(4) - p))) <= 1e-14

    h_meas = zj.TimeDependentOperator.constant(random_hermitian(rng, 5), (0.25, 1.5))
    model = zj.MeasurementModel(h0=h_meas, h_meas=h_meas, coupling=1.0)
    frame = zj.time_independent_frame(model, 256)
    for eps, phases in zip(frame.eigenvalues[:, 0], frame.eps_integrals):
        assert np.array_equal(phases, [float(eps) * (t - 0.25) for t in frame.grid])


# --- constant operators ------------------------------------------------------


def test_constant_report_equals_plain_evaluator_report():
    mat = random_hermitian(np.random.default_rng(67), 6)
    grid = np.linspace(0.0, 2.0, 1025)
    plain = zj.TimeDependentOperator(evaluator=lambda t: mat, horizon=(0.0, 2.0), dim=6)
    expected = zj.adiabaticity_report(plain, 8.0, grid)
    constant = zj.TimeDependentOperator.constant(mat, (0.0, 2.0))
    report = zj.adiabaticity_report(constant, 8.0, grid)
    for field in dataclasses.fields(report):
        assert getattr(report, field.name) == getattr(expected, field.name), field.name
    assert report.alpha_max == 0.0


def test_constant_frame_equals_plain_evaluator_frame():
    mat = random_hermitian(np.random.default_rng(68), 4)
    grid = np.linspace(0.0, 1.0, 65)
    plain = zj.TimeDependentOperator(evaluator=lambda t: mat, horizon=(0.0, 1.0), dim=4)
    expected = zj.track_frame(plain, grid)
    frame = zj.track_frame(zj.TimeDependentOperator.constant(mat, (0.0, 1.0)), grid)
    for field in dataclasses.fields(frame):
        assert np.array_equal(getattr(frame, field.name), getattr(expected, field.name)), field.name

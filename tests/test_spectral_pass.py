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

from properties import _rotating_family, random_hermitian


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


def ref_report(op, coupling, grid, tol):
    """(alpha_max, eps_min): node-by-node, level-pair by level-pair."""
    alpha_max, eps_min = 0.0, np.inf
    steps = np.diff(grid)
    for k, t in enumerate(grid):
        means, _, _, vecs, groups = ref_levels(op(t), tol)
        if len(groups) < 2:
            continue
        eps_min = min(eps_min, float(np.diff(means).min()))
        hdot = op.derivative(t, steps[min(k, len(steps) - 1)] / 2.0)
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
    w = vecs.conj().T @ op.derivative(t, step) @ vecs
    eps = means[label]
    same = label[:, None] == label[None, :]
    m_eig = np.where(same, 0.0, 1j * w / np.where(same, 1.0, eps[None, :] - eps[:, None]))
    m = vecs @ m_eig @ vecs.conj().T
    return (m + m.conj().T) / 2.0


def ref_track_frame(op, coupling, grid, tol):
    """(intertwiners, projectors, phases): match levels node by node, then
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
    phases = cumulative_trapezoid(coupling * eps, grid, axis=1, initial=0.0)
    return intertwiners, projectors, phases


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


def test_stacked_eigh_checks_every_slice():
    rng = np.random.default_rng(62)
    stack = np.array([random_hermitian(rng, 3) for _ in range(4)])
    stack[2, 0, 1] += 1e-3
    with pytest.raises(zj.ValidationError, match="matrix 2 of the stack is not Hermitian"):
        zj.eigh(stack)


# --- adiabaticity report -----------------------------------------------------


def assert_report_matches(op, coupling, grid, tol, rel):
    rep = zj.adiabaticity_report(op, coupling, grid, degeneracy_tol=tol)
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
    model = zj.spin_chain_model(zj.SpinChainSpec(n_sites=3, h=9.0))
    grid = np.linspace(0.0, 1.0, 65)
    frame = zj.track_frame(model.h_meas, model.coupling, grid)
    assert frame.ranks == (1, 3, 3, 1)
    assert_report_matches(model.h_meas, model.coupling, grid, frame.degeneracy_tol, 1e-9)


def dense_copy(op):
    """The same evaluator as a plain operator, which carries no ``site``."""
    return zj.TimeDependentOperator(evaluator=op.evaluator, horizon=op.horizon, dim=op.dim)


def test_report_on_degenerate_three_site_chain_from_the_dense_field():
    # The chain's own field is reported from its site; this copy keeps the
    # dense clustering of ranks (1, 3, 3, 1) covered.
    model = zj.spin_chain_model(zj.SpinChainSpec(n_sites=3, h=9.0))
    grid = np.linspace(0.0, 1.0, 65)
    frame = zj.track_frame(model.h_meas, model.coupling, grid)
    assert frame.ranks == (1, 3, 3, 1)
    assert_report_matches(dense_copy(model.h_meas), model.coupling, grid, frame.degeneracy_tol, 1e-9)


@pytest.mark.parametrize("tol", [None, 1e-12, 1e-6])
@pytest.mark.parametrize("n_sites", [2, 3, 4, 5])
def test_site_sum_report_equals_the_dense_report(n_sites, tol):
    h_meas = zj.spin_chain_model(zj.SpinChainSpec(n_sites=n_sites)).h_meas
    assert h_meas.site is not None
    grid = np.linspace(0.0, 1.0, 257)
    structured = zj.adiabaticity_report(h_meas, 9.0, grid, degeneracy_tol=tol)
    dense = zj.adiabaticity_report(dense_copy(h_meas), 9.0, grid, degeneracy_tol=tol)
    for name in ("alpha_max", "eps_min", "ratio"):
        assert getattr(structured, name) == pytest.approx(getattr(dense, name), rel=1e-14), name
    assert structured.adiabatic == dense.adiabatic
    assert structured.alpha_max > 0.0


def test_eight_site_report_is_four_times_the_two_site_report():
    # The dense 256-dimensional pass would hold about 4 GB of samples here.
    grid = np.linspace(0.0, 1.0, 1025)
    two, eight = (
        zj.adiabaticity_report(zj.spin_chain_model(zj.SpinChainSpec(n_sites=n)).h_meas, 9.0, grid)
        for n in (2, 8)
    )
    assert eight.ratio == 4.0 * two.ratio
    assert eight.eps_min == two.eps_min


@pytest.mark.parametrize("tol", [1.5, 2.5, 100.0])
@pytest.mark.parametrize("dense", [False, True])
def test_report_raises_when_the_tolerance_reaches_the_gap(dense, tol):
    # The field's gap is 2 |field|, between sqrt(2) and 2.  A tolerance above
    # it must not merge the distinct levels into a silent ratio of 0.
    h_meas = zj.spin_chain_model(zj.SpinChainSpec(n_sites=3)).h_meas
    op = dense_copy(h_meas) if dense else h_meas
    with pytest.raises(zj.NumericalError, match="closer than the degeneracy tolerance"):
        zj.adiabaticity_report(op, 9.0, np.linspace(0.0, 1.0, 33), degeneracy_tol=tol)


# --- frame tracking ----------------------------------------------------------


@pytest.mark.parametrize("n_sites", [2, 3])
def test_track_frame_matches_per_node_reference(n_sites):
    model = zj.spin_chain_model(zj.SpinChainSpec(n_sites=n_sites, h=9.0))
    grid = np.linspace(0.0, 1.0, 129)
    frame = zj.track_frame(model.h_meas, model.coupling, grid, degeneracy_tol=1e-8)
    intertwiners, projectors, phases = ref_track_frame(model.h_meas, model.coupling, grid, 1e-8)
    assert np.max(np.abs(frame.intertwiners - intertwiners)) < 1e-12
    assert np.max(np.abs(frame.initial_projectors - projectors[:, 0])) < 1e-12
    assert np.max(np.abs(frame.final_projectors - projectors[:, -1])) < 1e-12
    assert np.max(np.abs(frame.phases - phases)) < 1e-12
    # The frame keeps end-node projectors only; its residual is still the
    # worst over every node, against the reference's per-node projectors.
    residual = ref_residual(frame.intertwiners, projectors)
    assert frame.residual == pytest.approx(residual, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("seed", [63, 64, 65])
def test_track_frame_residual_on_rotating_family(seed):
    rng = np.random.default_rng(seed)
    op = _rotating_family(rng, int(rng.integers(2, 6)))
    grid = np.linspace(0.0, 1.0, 129)
    frame = zj.track_frame(op, 7.0, grid, degeneracy_tol=1e-8)
    _, projectors, _ = ref_track_frame(op, 7.0, grid, 1e-8)
    residual = ref_residual(frame.intertwiners, projectors)
    assert frame.residual == pytest.approx(residual, rel=0.0, abs=1e-12)
    assert frame.residual > 0.0


# --- static frames -----------------------------------------------------------


def test_static_frame_arrays_are_read_only_views():
    p0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    frame = zj.AdiabaticFrame.static(
        np.linspace(0.0, 1.0, 1025), [(1.0, p0), (0.0, np.eye(3) - p0)], coupling=4.0
    )
    assert frame.intertwiners.base is not None
    for arr in (frame.intertwiners, frame.initial_projectors, frame.final_projectors):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert frame.intertwiners.shape == (1025, 3, 3)
    assert frame.initial_projectors.shape == frame.final_projectors.shape == (2, 3, 3)
    assert np.array_equal(frame.initial_projectors[0], p0)
    assert np.array_equal(frame.final_projectors[0], p0)


def test_static_frame_phases_equal_per_node_reference():
    grid = np.linspace(0.0, 1.5, 257)
    p0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    switched = lambda t: 2.0 if t >= 0.375 else 0.0
    levels = [(switched, p0), (-0.75, np.eye(3) - p0)]
    frame = zj.AdiabaticFrame.static(grid, levels, coupling=3.0)
    mids = (grid[:-1] + grid[1:]) / 2.0
    for l, (spec, _) in enumerate(levels):
        fn = spec if callable(spec) else (lambda t, v=spec: v)
        assert np.array_equal(frame.eigenvalues[l], [float(fn(t)) for t in grid])
        increments = 3.0 * np.array([float(fn(t)) for t in mids]) * np.diff(grid)
        assert np.array_equal(frame.phases[l], np.concatenate([[0.0], np.cumsum(increments)]))


# --- constant operators ------------------------------------------------------


def test_constant_report_equals_plain_evaluator_report_with_one_eigh(monkeypatch):
    from zenojump import decomposition

    mat = random_hermitian(np.random.default_rng(67), 6)
    grid = np.linspace(0.0, 2.0, 1025)
    plain = zj.TimeDependentOperator(evaluator=lambda t: mat, horizon=(0.0, 2.0), dim=6)
    expected = zj.adiabaticity_report(plain, 8.0, grid)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return zj.eigh(*args, **kwargs)

    monkeypatch.setattr(decomposition, "eigh", counted)
    constant = zj.TimeDependentOperator.constant(mat, (0.0, 2.0))
    report = zj.adiabaticity_report(constant, 8.0, grid)
    assert calls == [(6, 6)]
    for field in dataclasses.fields(report):
        assert getattr(report, field.name) == getattr(expected, field.name), field.name
    assert report.alpha_max == 0.0


def test_constant_frame_equals_plain_evaluator_frame():
    mat = random_hermitian(np.random.default_rng(68), 4)
    grid = np.linspace(0.0, 1.0, 65)
    plain = zj.TimeDependentOperator(evaluator=lambda t: mat, horizon=(0.0, 1.0), dim=4)
    expected = zj.track_frame(plain, 5.0, grid)
    frame = zj.track_frame(zj.TimeDependentOperator.constant(mat, (0.0, 1.0)), 5.0, grid)
    for field in dataclasses.fields(frame):
        assert np.array_equal(getattr(frame, field.name), getattr(expected, field.name)), field.name

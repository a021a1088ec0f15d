"""Unit tests for the concrete measurement scenarios."""

import dataclasses
import importlib.util
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

import zenojump as zj
from zenojump.models import _field_direction

from properties import closed_form_site_frame, dense_intertwiners, level_projectors, rk4_intertwiners


CUM_FULL = 0.5 + (math.sqrt(2.0) / 4.0) * math.log(1.0 + math.sqrt(2.0))


def site_operator(op, site, n_sites):
    """``op`` on spin ``site`` of ``n_sites`` as a Kronecker product ``I (x) op (x) I``."""
    left, right = np.eye(2**site, dtype=complex), np.eye(2 ** (n_sites - site - 1), dtype=complex)
    return np.kron(np.kron(left, op), right)


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
    for h, T in ((1e300, 1e10), (1e-300, 1e-300)):
        with pytest.raises(zj.ValidationError, match=r"h \* T leaves float range: h = .*, T = "):
            zj.SpinChainSpec(h=h, T=T)


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


@pytest.mark.parametrize("n_sites, boundary", [(3, "open"), (4, "periodic"), (5, "open")])
def test_build_chain_h0_equals_the_pauli_products(n_sites, boundary):
    spec = zj.SpinChainSpec(n_sites=n_sites, couplings=(0.7, 1.3, 0.4), boundary=boundary)
    bonds = [(j, j + 1) for j in range(n_sites - 1)] + ([(n_sites - 1, 0)] if boundary == "periodic" else [])
    ref = sum(
        lam * site_operator(sig, a, n_sites) @ site_operator(sig, b, n_sites)
        for a, b in bonds
        for lam, sig in zip(spec.couplings, (zj.SIGMA_X, zj.SIGMA_Y, zj.SIGMA_Z))
    )
    assert np.max(np.abs(zj.build_chain_h0(spec) - ref)) <= 1e-15
    h0 = zj.spin_chain_model(dataclasses.replace(spec, T=1.5)).h0
    assert h0.pairs == tuple(bonds)
    assert np.max(np.abs(h0.value - 1.5 * ref)) <= 1e-14
    pair = dataclasses.replace(spec, n_sites=2, boundary="open")
    assert np.max(np.abs(h0.bond - 1.5 * zj.build_chain_h0(pair))) <= 1e-15


@pytest.mark.parametrize("n_sites", range(1, 7))
def test_the_field_ends_equal_the_kronecker_build_bit_for_bit(n_sites):
    # -sum_j I (x) p (x) I, summed from 0 as Python's sum does: the same bits, signed zeros included
    ref = np.array([-sum(site_operator(p, j, n_sites) for j in range(n_sites)) for p in (zj.SIGMA_Z, zj.SIGMA_X)])
    ends = _field_direction(n_sites).ends
    assert ends.dtype == ref.dtype and ends.tobytes() == ref.tobytes()


def test_spin_chain_spec_refuses_a_non_integral_size():
    with pytest.raises(zj.ValidationError, match="n_sites must be an integer, got 2.5"):
        zj.SpinChainSpec(n_sites=2.5)
    assert zj.SpinChainSpec(n_sites=np.int64(3)).n_sites == 3


def test_spin_chain_frame_keeps_its_site_frame_and_no_dense_stack():
    spec = zj.SpinChainSpec(n_sites=5, h=9.0, T=1.0)
    frame = zj.spin_chain_frame(spec, n_intervals=256)
    site = zj.track_frame(_field_direction(1), frame.grid)
    assert (frame.power, frame.factor_ranks, frame.dim, site.power, site.dim) == (5, (1, 1), 32, 1, 2)
    assert frame.intertwiners.shape == (257, 2, 2) and frame.initial_basis.shape == (2, 2)
    assert np.array_equal(frame.intertwiners, site.intertwiners)
    assert np.array_equal(frame.eps_integrals, zj.models._sector_rows(5, site.eps_integrals))
    # nothing 2^n-dimensional is kept, let alone a stack over the nodes
    stack_bytes = 257 * 32 * 32 * np.dtype(complex).itemsize
    kept = [v for v in vars(frame).values() if isinstance(v, np.ndarray)]
    assert max(v.nbytes for v in kept) < stack_bytes / 16 and frame == frame
    dense = dense_intertwiners(frame)
    assert dense.shape == (257, 32, 32)
    for k in (0, 100, 256):
        power = np.eye(1)
        for _ in range(5):
            power = np.kron(frame.intertwiners[k], power)
        assert np.max(np.abs(dense[k] - power)) <= 1e-15
    assert repr(frame).startswith("AdiabaticFrame(levels=6, nodes=257, dim=32, residual=")
    static = zj.time_independent_frame(zj.time_independent_model(zj.SIGMA_X, zj.SIGMA_Z, 2.0, 1.0), 16)
    assert static.power == 1 and static.intertwiners.shape == (17, 2, 2)


def test_a_ten_site_chain_frame_keeps_nothing_two_to_the_n_dimensional():
    # A dense end-projector stack alone would be 2 x (11, 1024, 1024) complex, 352 MiB.
    tracemalloc.start()
    try:
        frame = zj.spin_chain_frame(zj.SpinChainSpec(n_sites=10), 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frame.dim == 1024 and frame.ranks == tuple(math.comb(10, l) for l in range(11))
    assert peak < 16 * 2**20


def _assert_level_bases_span(frame, ends, tol):
    """Each ``level_basis(l, end)`` is orthonormal, of rank ``ranks[l]``, and spans
    ``reference[l]`` for the ``(end, reference)`` pairs ``ends``."""
    for end, reference in ends:
        own = level_projectors(frame) if end == 0 else level_projectors(frame, -1)
        for level, (projector, rank) in enumerate(zip(reference, frame.ranks, strict=True)):
            q = frame.level_basis(level, end)
            assert q.shape == (frame.dim, rank)
            assert np.max(np.abs(q.conj().T @ q - np.eye(rank))) <= 1e-14
            assert np.max(np.abs(q @ q.conj().T - own[level])) <= 1e-14
            assert np.max(np.abs(q @ q.conj().T - projector)) <= tol


def test_level_basis_spans_the_end_projectors_of_every_frame_shape():
    # A chain frame and a dense tracked frame of the same field against the
    # field's eigenprojectors at both ends, a pulsed static frame against its input.
    spec = zj.SpinChainSpec(n_sites=3, h=12.5, T=1.0)
    h_meas = zj.spin_chain_model(spec).h_meas
    chain = zj.spin_chain_frame(spec, 256)
    dense = zj.track_frame(h_meas, chain.grid)
    assert (chain.power, dense.power, dense.ranks) == (3, 1, (1, 3, 3, 1))
    ends = [(end, level_projectors(zj.decompose(h_meas(s)))) for end, s in ((0, 0.0), (-1, 1.0))]
    _assert_level_bases_span(chain, ends, 1e-12)
    _assert_level_bases_span(dense, ends, 1e-12)
    p = np.diag([1.0, 0.0, 1.0]).astype(complex)
    pulsed = zj.pulsed_frame(p, 1.0, 0.25, 64)
    _assert_level_bases_span(pulsed, [(0, [p, np.eye(3) - p]), (-1, [p, np.eye(3) - p])], 1e-14)


@pytest.mark.parametrize("n_intervals", [-5, 0, 2.5, 64.0, "64"])
@pytest.mark.parametrize("builder", ["chain", "static", "pulsed"])
def test_frame_builders_name_a_bad_interval_count(builder, n_intervals):
    build = {
        "chain": lambda: zj.spin_chain_frame(zj.SpinChainSpec(), n_intervals),
        "static": lambda: zj.time_independent_frame(
            zj.time_independent_model(zj.SIGMA_X, zj.SIGMA_Z, 2.0, 1.0), n_intervals
        ),
        "pulsed": lambda: zj.pulsed_frame(np.diag([1.0, 0.0]), 1.0, 0.0, n_intervals),
    }[builder]
    with pytest.raises(zj.ValidationError, match=f"n_intervals must be a positive integer, got {n_intervals!r}"):
        build()


def test_spin_chain_model_scaling():
    spec = zj.SpinChainSpec(h=9.0, T=2.0)
    model = zj.spin_chain_model(spec)
    assert model.coupling == pytest.approx(18.0)
    assert model.horizon == (0.0, 1.0)
    assert np.allclose(model.h0(0.5), 2.0 * zj.build_chain_h0(spec))
    z = np.kron(zj.SIGMA_Z, np.eye(2)) + np.kron(np.eye(2), zj.SIGMA_Z)
    x = np.kron(zj.SIGMA_X, np.eye(2)) + np.kron(np.eye(2), zj.SIGMA_X)
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
    # The top level's integral follows the field integral; the trapezoid
    # accumulation is second order in the grid step.
    assert frame.eps_integrals[2, -1] == pytest.approx(2.0 * CUM_FULL, rel=1e-4)


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
    # SpinChainSpec's range: -2 raised a bare math domain error and 0 returned ()
    for n_sites in (-2, 0, 1, 13):
        with pytest.raises(zj.ValidationError, match="n_sites must be within 2..12"):
            zj.chain_validity_flags(9.0, 1.0, n_sites)


@pytest.mark.parametrize("h, T", [(math.nan, 1.0), (math.inf, 1.0), (9.0, math.nan), (9.0, math.inf)])
def test_a_non_finite_field_or_duration_is_an_input_error(h, T):
    # NaN and inf passed the sign check: the quadrature doubled to its ceiling
    # under RuntimeWarnings and raised QuadratureError, and the flags read ()
    with pytest.raises(zj.ValidationError, match="finite and non-negative"):
        zj.two_qubit_rotation_jump(h, T)
    with pytest.raises(zj.ValidationError, match="finite and non-negative"):
        zj.chain_validity_flags(h, T)


def test_time_independent_builders():
    with pytest.raises(zj.ValidationError, match="t_final"):
        zj.time_independent_model(zj.SIGMA_X, zj.SIGMA_Z, 1.0, 0.0)
    model = zj.time_independent_model(zj.SIGMA_X, zj.SIGMA_Z, 2.0, 1.5)
    frame = zj.time_independent_frame(model, 16)
    assert frame.n_nodes == 17
    assert frame.ranks == (1, 1)
    assert np.allclose(frame.eigenvalues[:, 0], [-1.0, 1.0])
    # Static level integrals are exact linear ramps.
    assert frame.eps_integrals[1, -1] == pytest.approx(1.5)


def _static_run_matrices(seed):
    """``h0`` and ``h_meas`` of the benchmark's ``static-run`` workload at ``seed``."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)  # its dataclass needs the module registered
    mats = workloads._static_matrices(np.random.default_rng(seed))
    return mats["h0"], mats["h_meas"]


def _degenerate_measurement():
    # levels -1, 0.5, 2 of ranks 2, 1, 3 in a random basis
    rng = np.random.default_rng(24)
    basis = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
    return np.zeros((6, 6)), (basis * [-1.0, -1.0, 0.5, 2.0, 2.0, 2.0]) @ basis.conj().T


@pytest.mark.parametrize("matrices", [1, 2, 3, "degenerate"])
def test_a_static_frame_is_the_decompose_and_static_route_from_one_eigh(monkeypatch, matrices):
    from zenojump import decomposition, operators

    h0, h_meas = _degenerate_measurement() if matrices == "degenerate" else _static_run_matrices(matrices)
    model = zj.time_independent_model(h0, h_meas, 10.0, 1.5)
    dec = zj.decompose(h_meas)
    calls = {"decomposition": 0, "operators": 0}
    for module in (decomposition, operators):
        def counted(*args, original=module.eigh, name=module.__name__.rsplit(".", 1)[1], **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "eigh", counted)
    frame = zj.time_independent_frame(model, 512)
    assert calls == {"decomposition": 1, "operators": 0}
    if matrices == "degenerate":
        assert frame.factor_ranks == (2, 1, 3)
    grid = np.linspace(0.0, 1.5, 513)
    assert np.array_equal(frame.grid, grid)
    assert np.array_equal(frame.eigenvalues, np.repeat(dec.eigenvalues[:, None], 513, axis=1))
    assert np.array_equal(frame.eps_integrals, dec.eigenvalues[:, None] * grid)
    assert np.array_equal(frame.initial_basis, dec.basis)
    assert (frame.factor_ranks, frame.degeneracy_tol) == (dec.ranks, dec.degeneracy_tol)
    assert frame.eps_min == np.min(np.diff(dec.eigenvalues))
    assert not frame.initial_basis.flags.writeable and frame.final_basis is frame.initial_basis


@pytest.mark.parametrize("seed", [4, 5, 21, 28])
def test_a_static_frame_meets_the_continuous_closed_form_to_rounding(seed):
    # Midpoint-summed phases were up to 1.3e-11 off at these seeds and tau = 2.
    h0, h_meas = _static_run_matrices(seed)
    dec = zj.decompose(h_meas)
    p0, p1 = (dec.level_basis(l) @ dec.level_basis(l).conj().T for l in (0, 1))
    weight = zj.transition_weight(h0, p0, p1)
    for tau in (0.5, 1.0, 1.5, 2.0):
        model = zj.time_independent_model(h0, h_meas, 10.0, tau)
        w = zj.general_jump(model, p0, 0, 1, zj.time_independent_frame(model, 2048)).value
        closed = zj.continuous_jump(weight, 10.0, dec.eigenvalues[1] - dec.eigenvalues[0], tau)
        assert abs(w - closed) <= 2e-12 * w, tau


def test_a_static_frame_refuses_a_basis_that_is_not_unitary():
    grid = np.linspace(0.0, 1.0, 5)
    eps = np.array([[0.0], [1.0]])
    with pytest.raises(zj.ValidationError, match="not unitary"):
        zj.AdiabaticFrame._from_basis(grid, eps, eps * grid, np.diag([1.0, 1.0 + 1e-9]).astype(complex), (1, 1), 0.0, zj.NumericPolicy())


def test_pulsed_builders_and_level_convention():
    p = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(zj.ValidationError, match="tau_free"):
        zj.pulsed_measurement_model(p, zj.SIGMA_X, 1.0, 1.0, 2.0)
    model = zj.pulsed_measurement_model(p, zj.SIGMA_X, 4.0, 1.0, 0.5)
    assert model.h_meas.breakpoints == (0.5,)
    assert np.allclose(model.h_meas(0.25), np.zeros((2, 2)))
    assert np.allclose(model.h_meas(0.75), p)
    frame = zj.pulsed_frame(p, 1.0, 0.5, n_intervals=8)
    # Level 0 is the watched projector; its eigenvalue switches on at tau_free.
    assert np.allclose(level_projectors(frame)[0], p)
    assert np.allclose(level_projectors(frame, -1)[0], p)
    assert frame.eigenvalues[0, 0] == 0.0
    assert frame.eigenvalues[0, -1] == 1.0
    assert np.all(frame.eigenvalues[1] == 0.0)
    assert frame.eps_integrals[0, -1] == pytest.approx(0.5)
    with pytest.raises(zj.ValidationError, match="must be a node"):
        zj.pulsed_frame(p, 1.0, 0.37, n_intervals=8)


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5])
def test_field_samples_equal_the_sum_of_embedded_sites(n_sites):
    h_meas, site = _field_direction(n_sites), _field_direction(1)
    assert (site.dim, h_meas.dim) == (2, 2**n_sites)
    assert (site.horizon, site.breakpoints) == (h_meas.horizon, h_meas.breakpoints)
    assert not hasattr(h_meas, "site") and not hasattr(zj.TimeDependentOperator, "site_sum")
    for s in np.linspace(0.0, 1.0, 17):
        embedded = sum(
            np.kron(np.kron(np.eye(2**j), site(s)), np.eye(2 ** (n_sites - 1 - j)))
            for j in range(n_sites)
        )
        assert np.max(np.abs(h_meas(s) - embedded)) <= 1e-15


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5])
def test_field_and_site_sample_as_linear_operators_bit_for_bit(n_sites):
    h_meas = _field_direction(n_sites)
    grid = np.linspace(0.0, 1.0, 65)
    half = np.sort(np.concatenate([grid, (grid[:-1] + grid[1:]) / 2.0]))
    for op in (h_meas, _field_direction(1)):
        assert op.ends is not None  # sampled in one array expression
        start, end = op.ends
        generic = zj.TimeDependentOperator(
            evaluator=lambda s: (1.0 - s) * start + s * end, horizon=(0.0, 1.0), dim=op.dim
        )
        assert np.array_equal(op.sample(half), generic.sample(half))


@pytest.mark.parametrize("intervals", [1024, 2048])
def test_tracked_site_frame_is_the_closed_form_rotation(intervals):
    grid = np.linspace(0.0, 1.0, intervals + 1)
    frame = zj.track_frame(_field_direction(1), grid)
    assert np.max(np.abs(frame.intertwiners - closed_form_site_frame(grid))) <= 1e-13
    # track_frame forms this rotation in closed form; the RK4 route it takes
    # on every other operator integrates the same rotation on the site field
    assert np.max(np.abs(rk4_intertwiners(_field_direction(1), grid) - closed_form_site_frame(grid))) <= 1e-13
    chain = zj.spin_chain_frame(zj.SpinChainSpec(n_sites=2, h=12.5, T=1.0), n_intervals=intervals)
    a = closed_form_site_frame(grid)
    pair = np.einsum("kab,kcd->kacbd", a, a).reshape(len(grid), 4, 4)
    assert np.max(np.abs(dense_intertwiners(chain) - pair)) <= 1e-13


@pytest.mark.parametrize(
    "n_sites, boundary", [(2, "open"), (3, "periodic"), (4, "open"), (5, "periodic")]
)
def test_spin_chain_frame_matches_the_dense_tracked_frame(n_sites, boundary):
    # The structured frame is the tensor power of the tracked one-site frame;
    # tracking the 2^n-dimensional field directly is the independent route.
    spec = zj.SpinChainSpec(n_sites=n_sites, h=12.5, T=1.0, boundary=boundary)
    model = zj.spin_chain_model(spec)
    dense = zj.track_frame(model.h_meas, np.linspace(0.0, 1.0, 1025))
    frame = zj.spin_chain_frame(spec)
    assert np.max(np.abs(dense_intertwiners(frame) - dense.intertwiners)) <= 1e-12
    for end in (0, -1):
        assert np.max(np.abs(level_projectors(frame, end) - level_projectors(dense, end))) <= 1e-12, end
    for name in ("eigenvalues", "eps_integrals"):
        assert np.max(np.abs(getattr(frame, name) - getattr(dense, name))) <= 1e-12, name
    assert frame.ranks == dense.ranks == tuple(math.comb(n_sites, l) for l in range(n_sites + 1))
    # the chain's tolerance is n times the site's, the dense route's comes
    # from the dense spectral range: equal up to rounding only
    assert frame.degeneracy_tol == pytest.approx(dense.degeneracy_tol, rel=1e-12)
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
        for s, a in zip(frame.grid, dense_intertwiners(frame))
        for p0, p in zip(level_projectors(frame), level_projectors(zj.decompose(model.h_meas(s))))
    )
    assert 0.0 < dense <= frame.residual + 1e-14


@pytest.mark.parametrize("n_sites, boundary", [(3, "open"), (4, "periodic")])
def test_spin_chain_end_projectors_equal_the_dense_decomposition(n_sites, boundary):
    spec = zj.SpinChainSpec(n_sites=n_sites, h=9.0, T=1.0, boundary=boundary)
    model = zj.spin_chain_model(spec)
    frame = zj.spin_chain_frame(spec, n_intervals=256)
    for s, projectors in ((0.0, level_projectors(frame)), (1.0, level_projectors(frame, -1))):
        dense = level_projectors(zj.decompose(model.h_meas(s)))
        assert projectors.shape == dense.shape
        assert np.max(np.abs(projectors - dense)) < 1e-12


def test_spin_chain_frame_keeps_end_node_projectors_only():
    # The frame keeps the 2 x 2 end bases, from which a reader forms the
    # end-node projectors; a per-node stack at 6 sites would be (7, 257, 64, 64).
    frame = zj.spin_chain_frame(zj.SpinChainSpec(n_sites=6, h=9.0, T=1.0), n_intervals=256)
    assert level_projectors(frame).shape == level_projectors(frame, -1).shape == (7, 64, 64)
    assert frame.initial_basis.shape == frame.final_basis.shape == (2, 2)
    assert frame.intertwiners.shape == (257, 2, 2) and frame.power == 6


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
    dense = zj.track_frame(model.h_meas, frame.grid)
    rho0 = level_projectors(frame)[0]
    res = zj.general_jump(model, rho0, 0, 2, frame)
    ref = zj.general_jump(model, rho0, 0, 2, dense)
    assert res.value == pytest.approx(ref.value, rel=1e-12)
    # each report is its own frame's; the chain frame's figures come from one spin,
    # the dense frame's from its own pass, so the two agree to rounding
    assert res.adiabaticity == zj.adiabaticity_report(frame, model.coupling)
    assert ref.adiabaticity == zj.adiabaticity_report(dense, model.coupling)
    for name in ("alpha_max", "eps_min", "ratio"):
        assert getattr(res.adiabaticity, name) == pytest.approx(getattr(ref.adiabaticity, name), rel=1e-14)
    assert res.adiabaticity.adiabatic == ref.adiabaticity.adiabatic


def test_spin_chain_frame_residual_failure_carries_the_chain_frame():
    spec = zj.SpinChainSpec(n_sites=3, h=5.0, T=1.0)
    with pytest.raises(zj.FrameResidualError, match="refine the grid") as exc:
        zj.spin_chain_frame(spec, n_intervals=4, policy=zj.NumericPolicy(frame_tol=1e-16))
    frame = exc.value.last_result
    assert isinstance(frame, zj.AdiabaticFrame)
    assert frame.dim == 8 and frame.ranks == (1, 3, 3, 1)
    assert frame.residual > 1e-16


def _same_bits(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, zj.AdiabaticFrame):
        return type(b) is zj.AdiabaticFrame and all(
            _same_bits(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_a_shared_chain_frame_equals_a_fresh_one_bit_for_bit(n_sites):
    shared = {}
    first = zj.spin_chain_frame(zj.SpinChainSpec(n_sites=n_sites, h=9.0), 256, shared=shared)
    # Another field, duration and exchange: none of them reaches the frame.
    spec = zj.SpinChainSpec(n_sites=n_sites, couplings=(0.5, 1.0, 3.0), h=13.5, T=1.3)
    frame = zj.spin_chain_frame(spec, 256, shared=shared)
    fresh = zj.spin_chain_frame(spec, 256)
    assert len(shared) == 1
    for field in dataclasses.fields(zj.AdiabaticFrame):
        assert _same_bits(getattr(frame, field.name), getattr(fresh, field.name)), field.name
    # the shared frame itself, read-only
    assert frame is first
    for value in vars(frame).values():
        assert not (isinstance(value, np.ndarray) and value.flags.writeable)
    assert frame.intertwiners.shape == (257, 2, 2) and frame.power == n_sites


def test_a_shared_chain_frame_is_keyed_by_size_grid_and_policy():
    shared = {}
    spec = zj.SpinChainSpec(n_sites=2, h=9.0)
    looser = zj.NumericPolicy().replace(frame_tol=1e-5)
    for n_intervals, policy in [(64, None), (128, None), (64, looser), (64, None)]:
        zj.spin_chain_frame(spec, n_intervals, policy, shared=shared)
    zj.spin_chain_frame(zj.SpinChainSpec(n_sites=3, h=9.0), 64, shared=shared)
    assert len(shared) == 4


def test_a_shared_chain_frame_checks_the_residual_on_every_call():
    shared, tight, failed = {}, zj.NumericPolicy(frame_tol=1e-16), []
    for h in (5.0, 6.0):
        with pytest.raises(zj.FrameResidualError, match="refine the grid") as exc:
            zj.spin_chain_frame(zj.SpinChainSpec(n_sites=3, h=h), 4, tight, shared=shared)
        failed.append(exc.value.last_result)
    assert len(shared) == 1 and failed[0] is failed[1]

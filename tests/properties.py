"""Randomized property loops shared by the invariant suite and the gate test.

Each function runs at least ``cases`` seeded random instances and raises
``AssertionError`` on the first violation; the acceptance gate calls them all
and the per-module invariant tests wrap them individually.  Plain seeded rng
loops keep failures reproducible by seed arithmetic alone.
"""

from __future__ import annotations

import numpy as np

import zenojump as zj

BASE_SEED = 20260814


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (raw + raw.conj().T)


def random_spread_hermitian(rng: np.random.Generator, dim: int, min_gap: float) -> np.ndarray:
    """Hermitian matrix with eigenvalue gaps of at least ``min_gap``."""
    gaps = min_gap + rng.uniform(0.0, 1.0, size=dim - 1)
    vals = np.concatenate([[0.0], np.cumsum(gaps)])
    vals -= vals.mean()
    basis = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    return (basis * vals) @ basis.conj().T


def level_projectors(obj, end: int = 0) -> np.ndarray:
    """``(levels, d, d)`` stack of the level projectors ``q q^dagger``, ``q`` each
    ``level_basis`` of a decomposition, or of a frame at its first node
    (``end = 0``) or its last (``end = -1``)."""
    at = (end,) if end else ()
    return np.array([q @ q.conj().T for q in (obj.level_basis(l, *at) for l in range(obj.n_levels))])


def projector_properties(cases: int = 100, seed: int = BASE_SEED) -> int:
    """Each decomposed level projector ``q q^dagger`` is Hermitian, idempotent, of trace ``ranks[l]``."""
    rng = np.random.default_rng(seed)
    for case in range(cases):
        dim = int(rng.integers(2, 9))
        dec = zj.decompose(random_hermitian(rng, dim, scale=3.0))
        for lvl, p in enumerate(level_projectors(dec)):
            assert zj.max_norm(p - p.conj().T) < 1e-10, f"case {case}: not Hermitian"
            assert zj.max_norm(p @ p - p) < 1e-9, f"case {case}: not idempotent"
            rank = zj.check_projector(p).trace().real
            assert round(rank) == dec.ranks[lvl] == dec.level_basis(lvl).shape[1], f"case {case}: rank mismatch"
    return cases


def completeness_properties(cases: int = 100, seed: int = BASE_SEED + 1) -> int:
    """The level basis is unitary: its projectors resolve the identity and are mutually orthogonal."""
    rng = np.random.default_rng(seed)
    for case in range(cases):
        dim = int(rng.integers(2, 9))
        dec = zj.decompose(random_hermitian(rng, dim, scale=2.0))
        assert dec.basis.shape == (dim, dim) and sum(dec.ranks) == dec.dim == dim, f"case {case}: shape"
        assert zj.max_norm(dec.basis.conj().T @ dec.basis - np.eye(dim)) < 1e-9, f"case {case}: not unitary"
        projectors = level_projectors(dec)
        total = np.sum(projectors, axis=0)
        assert zj.max_norm(total - np.eye(dim)) < 1e-9, f"case {case}: incomplete"
        for a in range(dec.n_levels):
            for b in range(a + 1, dec.n_levels):
                cross = projectors[a] @ projectors[b]
                assert zj.max_norm(cross) < 1e-9, f"case {case}: levels {a},{b} overlap"
    return cases


def unitarity_properties(cases: int = 100, seed: int = BASE_SEED + 2) -> int:
    """Exponential steps and short exact propagations stay unitary."""
    rng = np.random.default_rng(seed)
    for case in range(cases):
        dim = int(rng.integers(2, 7))
        h = random_hermitian(rng, dim, scale=2.0)
        dt = float(rng.uniform(0.05, 1.5))
        u = zj.matrix_exp_unitary(h, dt)
        assert zj.max_norm(u.conj().T @ u - np.eye(dim)) < 1e-10, f"case {case}: exp step"
        if case % 10 == 0:
            op = zj.TimeDependentOperator.constant(h, (0.0, dt))
            res = zj.exact_propagator(op, dt, tol=1e-9)
            defect = zj.max_norm(res.matrix.conj().T @ res.matrix - np.eye(dim))
            assert defect < 1e-8, f"case {case}: propagator defect {defect:.2e}"
    return cases


def _rotating_family(rng: np.random.Generator, dim: int):
    """Isospectral rotating Hermitian family with its exact derivative."""
    base = random_spread_hermitian(rng, dim, min_gap=1.0)
    gen = random_hermitian(rng, dim, scale=0.4)

    def evaluate(t: float) -> np.ndarray:
        v = zj.matrix_exp_unitary(gen, t)
        return v @ base @ v.conj().T

    def derivative(t: float) -> np.ndarray:
        h = evaluate(t)
        return -1j * (gen @ h - h @ gen)

    return zj.TimeDependentOperator(
        evaluator=evaluate, horizon=(0.0, 1.0), dim=dim, derivative_evaluator=derivative
    )


def frame_intertwining_properties(cases: int = 100, seed: int = BASE_SEED + 3) -> int:
    """Tracked frames start at identity, stay unitary and intertwine levels."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, 33)
    for case in range(cases):
        dim = int(rng.integers(2, 5))
        op = _rotating_family(rng, dim)
        rng.uniform(4.0, 12.0)  # a frame takes no coupling; the draw keeps the cases as they were
        frame = zj.track_frame(op, grid)
        assert zj.max_norm(frame.intertwiners[0] - np.eye(dim)) < 1e-12, f"case {case}: A(0)"
        k = int(rng.integers(1, len(grid)))
        a = frame.intertwiners[k]
        assert zj.max_norm(a.conj().T @ a - np.eye(dim)) < 1e-8, f"case {case}: unitarity"
        residual = frame.residual
        assert residual < 1e-6, f"case {case}: residual {residual:.2e}"
    return cases


def closed_form_site_frame(s):
    """``exp(-i theta sigma_y / 2)``, ``theta = atan2(s, 1 - s)``: the one-site
    field ``-((1 - s) Z + s X)`` turns by ``theta`` in the x-z plane, and this
    real rotation is its parallel-transport frame."""
    theta = np.arctan2(s, 1.0 - s)
    c, sn = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.stack([np.stack([c, -sn], axis=-1), np.stack([sn, c], axis=-1)], axis=-2)


def rk4_intertwiners(op, grid) -> np.ndarray:
    """The intertwiners that ``track_frame``'s RK4 steps give ``op``, which it takes on every
    operator but a linear ``2 x 2`` one, whose frame it forms in closed form."""
    from zenojump.decomposition import _prefix_products, _rk4_steps, _spectral_samples

    _, vecs, hdot, _, level_mean, _ = _spectral_samples(op, grid, zj.NumericPolicy(), True)
    return _prefix_products(_rk4_steps(vecs, hdot, level_mean, grid))


def dense_intertwiners(frame) -> np.ndarray:
    """A frame's ``(K, d, d)`` intertwiner stack: the ``power``-fold tensor power of its factor's."""
    return zj.decomposition._tensor_power(frame.intertwiners, frame.power)


def kernel_realness_properties(cases: int = 100, seed: int = BASE_SEED + 4) -> int:
    """General jump values are real non-negative with tiny imaginary residue."""
    rng = np.random.default_rng(seed)
    for case in range(cases):
        dim = int(rng.integers(3, 7))
        h_meas = random_spread_hermitian(rng, dim, min_gap=0.6)
        h0 = random_hermitian(rng, dim, scale=0.5)
        coupling = float(rng.uniform(3.0, 6.0))
        model = zj.time_independent_model(h0, h_meas, coupling, t_final=1.0)
        frame = zj.time_independent_frame(model, n_intervals=1024)
        n, m = rng.choice(frame.n_levels, size=2, replace=False)
        vec = level_projectors(frame)[n] @ rng.normal(size=dim)
        vec = vec / np.linalg.norm(vec)
        rho0 = np.outer(vec, vec.conj())
        res = zj.general_jump(model, rho0, int(n), int(m), frame)
        assert res.imag_residual < 1e-10, f"case {case}: imag {res.imag_residual:.2e}"
        assert res.value >= -1e-12, f"case {case}: negative probability {res.value:.2e}"
    return cases


ALL_PROPERTIES = (
    projector_properties,
    completeness_properties,
    unitarity_properties,
    frame_intertwining_properties,
    kernel_realness_properties,
)

"""Zeno subspace structure of a measurement Hamiltonian.

A finitely strong measurement is modelled by a Hermitian ``H_meas`` whose
eigenprojectors define the Zeno subspaces; degenerate eigenvalues are grouped
into a single subspace of rank > 1.  For time-dependent ``H_meas(t)`` the
subspaces rotate, and an intertwining frame ``A(t)`` with
``P_n(t) = A(t) P_n(0) A(t)^dagger`` solves ``i dA/dt = M(t) A(t)``, ``M = i
sum_n (dP_n/dt) P_n``: in closed form for a linear ``2 x 2`` ``H_meas``, by
integration otherwise.  A frame depends on ``H_meas`` alone; the coupling
``K`` enters the transition phases and the :class:`AdiabaticityReport`,
which summarises the quality of the adiabatic picture.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from .errors import FrameResidualError, LevelCrossingError, NumericalError, ValidationError
from .operators import _bond_sum, _outer, _row_sums, _stack_matmul, as_square_matrix, eigh, max_norm
from .policy import NumericPolicy, default_policy

__all__ = [
    "TimeDependentOperator",
    "ZenoDecomposition",
    "AdiabaticFrame",
    "AdiabaticityReport",
    "decompose",
    "track_frame",
    "adiabaticity_report",
]


@dataclasses.dataclass(frozen=True)
class TimeDependentOperator:
    """Piecewise-smooth Hermitian-valued function of time.

    ``breakpoints`` list the interior times where smoothness may fail (for
    example the switching instants of a pulsed measurement); they must lie
    strictly inside the horizon and be strictly increasing.  Derivatives are
    sampled by symmetric differences clamped to the smooth piece containing
    the evaluation point, so they are one-sided at breakpoints and at the
    horizon edges.  An optional analytic ``derivative_evaluator`` takes
    precedence over finite differences.  ``evaluator`` must be callable, else
    :class:`ValidationError`; a call ``op(t)`` is the one-row :meth:`sample`,
    which holds every check.  :meth:`constant` keeps its matrix
    read-only in ``value`` (``None`` for a time-dependent operator): its
    samples are views of that one matrix, and frames and reports decompose it
    once, with ``dH/dt = 0`` exactly.  :meth:`linear` keeps its two endpoint
    matrices read-only in ``ends`` (``None`` otherwise), and its :meth:`sample`
    is one array expression.  :meth:`bond_sum` keeps the two-spin term acting
    alike on each spin pair in ``bond`` (read-only) and the pairs in ``pairs``
    (``None`` otherwise): :func:`~zenojump.jump.general_jump` works from the
    bond.  A scaled sum of operators keeps its ``(scale, operator)`` pairs in
    ``terms`` (``None`` otherwise), and its :meth:`sample` adds their stacks.
    """

    evaluator: Callable[[float], np.ndarray]
    horizon: tuple[float, float]
    dim: int
    breakpoints: tuple[float, ...] = ()
    derivative_evaluator: Callable[[float], np.ndarray] | None = None
    value: np.ndarray | None = dataclasses.field(default=None, init=False, repr=False, compare=False)
    ends: np.ndarray | None = dataclasses.field(default=None, init=False, repr=False, compare=False)
    terms: tuple[tuple[float, TimeDependentOperator], ...] | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )
    bond: np.ndarray | None = dataclasses.field(default=None, init=False, repr=False, compare=False)
    pairs: tuple[tuple[int, int], ...] | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not callable(self.evaluator):
            raise ValidationError(f"evaluator must be callable, got {self.evaluator!r}")
        t0, t1 = self.horizon
        if not (np.isfinite(t0) and np.isfinite(t1)) or t1 <= t0:
            raise ValidationError(f"bad horizon {self.horizon}: need t0 < t1, finite")
        if self.dim < 1:
            raise ValidationError("operator dimension must be >= 1")
        pts = tuple(float(b) for b in self.breakpoints)
        if any(not (t0 < b < t1) for b in pts):
            raise ValidationError("breakpoints must lie strictly inside the horizon")
        if any(b2 <= b1 for b1, b2 in zip(pts, pts[1:])):
            raise ValidationError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", pts)

    @classmethod
    def constant(cls, matrix, horizon: tuple[float, float]) -> "TimeDependentOperator":
        mat = as_square_matrix(matrix).copy()
        mat.setflags(write=False)
        op = cls(evaluator=lambda t: mat, horizon=horizon, dim=mat.shape[0])
        object.__setattr__(op, "value", mat)
        return op

    @classmethod
    def linear(cls, start, end, horizon: tuple[float, float]) -> "TimeDependentOperator":
        """``(1 - s) start + s end``, ``s = (t - t0) / (t1 - t0)`` the position of ``t`` in the horizon."""
        a, b = as_square_matrix(start), as_square_matrix(end)
        if a.shape != b.shape:
            raise ValidationError(f"linear operator endpoints differ in shape: {a.shape} and {b.shape}")
        ends = np.array([a, b])
        ends.setflags(write=False)
        op = cls(evaluator=lambda t: op._between(t), horizon=horizon, dim=a.shape[0])
        object.__setattr__(op, "ends", ends)
        return op

    @classmethod
    def bond_sum(cls, bond, pairs, n_sites: int, horizon: tuple[float, float]) -> "TimeDependentOperator":
        """:meth:`constant` sum over ``pairs`` of spins ``(i, j)`` of the ``4 x 4``
        two-spin ``bond`` on ``i, j`` (see :func:`~zenojump.operators._bond_sum`);
        it keeps ``bond`` and ``pairs``."""
        b = as_square_matrix(bond).copy()
        if b.shape != (4, 4):
            raise ValidationError(f"a bond sum needs a 4 x 4 two-spin term, got shape {b.shape}")
        pairs = tuple((int(i), int(j)) for i, j in pairs)
        if not all(0 <= i < n_sites and 0 <= j < n_sites and i != j for i, j in pairs):
            raise ValidationError(f"bond pairs {pairs} must join two distinct spins of {n_sites}")
        states = np.arange(2**n_sites)
        op = cls.constant(_bond_sum(b, pairs, n_sites, states, states), horizon)
        b.setflags(write=False)
        object.__setattr__(op, "bond", b)
        object.__setattr__(op, "pairs", pairs)
        return op

    @classmethod
    def _scaled_sum(cls, terms) -> "TimeDependentOperator":
        """``sum c op`` over the ``(c, op)`` pairs ``terms``, operators on one horizon.

        The sum keeps ``terms`` and its breakpoints are theirs.  Its
        :meth:`sample` adds the terms' stacks, each checked for shape only,
        and checks the sum once.
        """
        terms = tuple(terms)
        first = terms[0][1]
        op = cls(
            evaluator=lambda t: op(t),
            horizon=first.horizon,
            dim=first.dim,
            breakpoints=tuple(sorted(set().union(*(term.breakpoints for _, term in terms)))),
        )
        object.__setattr__(op, "terms", terms)
        return op

    @property
    def slack(self) -> float:
        """How far past its horizon a time may lie and still be read at the horizon edge."""
        t0, t1 = self.horizon
        return 1e-12 * (1.0 + abs(t0) + abs(t1))

    def _times(self, times) -> np.ndarray:
        """``times`` clamped to the horizon; :class:`ValidationError` at the first
        time beyond the horizon and its :attr:`slack` (NaN too)."""
        t = np.asarray(times, dtype=float)
        t0, t1 = self.horizon
        bad = np.flatnonzero(~((t0 - self.slack <= t) & (t <= t1 + self.slack)))
        if bad.size:
            raise ValidationError(f"time {float(t[bad[0]])!r} outside horizon [{t0}, {t1}]")
        return np.clip(t, t0, t1)

    def _between(self, t):
        """The :meth:`linear` operator at ``t``, a time, or at ``K`` times as ``(d, d, K)`` entry planes:
        each product then runs along the times, not along a trailing axis of length ``d``."""
        s = (t - self.horizon[0]) / (self.horizon[1] - self.horizon[0])
        start, end = self.ends[..., None] if np.ndim(t) else self.ends
        # Exact double negation: ends -Z, -X give -((1-s) Z + s X) down to signed zeros, which eigh sees
        return -((1.0 - s) * -start + s * -end)

    def __call__(self, t: float) -> np.ndarray:
        return self.sample([float(t)])[0]

    def sample(self, times) -> np.ndarray:
        """``(len(times), dim, dim)`` stack of the operator over ``times``.

        Times and stack are each checked as one array, and the first bad one
        raises.  A constant operator returns a read-only view of its matrix,
        a :meth:`linear` one forms the stack in one broadcast expression on
        entry planes and packs it once, and a scaled sum adds its terms'
        stacks.  Other operators call the evaluator per time.
        """
        stack = self._stack(self._times(times))
        if self.value is None and not np.isfinite(stack).all():
            for m in stack:
                as_square_matrix(m)  # raises at the first non-finite sample
        return stack

    def _stack(self, t: np.ndarray) -> np.ndarray:
        """Samples at the checked times ``t``, checked for shape only."""
        if self.value is not None:
            return np.broadcast_to(self.value, (len(t), self.dim, self.dim))
        if self.ends is not None:
            return np.ascontiguousarray(self._between(t).transpose(2, 0, 1))
        if self.terms is not None:
            return _add_scaled(self.terms, [op._stack(t) for _, op in self.terms])
        samples = [np.asarray(self.evaluator(x), dtype=complex) for x in t.tolist()]
        shape = next((m.shape for m in samples if m.shape != (self.dim, self.dim)), None)
        if shape is not None:
            raise ValidationError(f"evaluator returned shape {shape}, declared dimension {self.dim}")
        return np.array(samples).reshape(len(t), self.dim, self.dim)

    def piece_bounds(self, t):
        """Bounds of the smooth piece owning ``t`` (a time or an array of times).

        A breakpoint belongs to the piece on its right, except at the horizon
        end where the last piece owns its right edge.
        """
        edges = np.array([self.horizon[0], *self.breakpoints, self.horizon[1]])
        idx = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, len(edges) - 2)
        return edges[idx], edges[idx + 1]

    def derivative(self, t: float, step: float) -> np.ndarray:
        """d(H)/dt at ``t`` by a symmetric difference clamped to the piece."""
        t = float(self._times([t])[0])
        if self.derivative_evaluator is not None:
            return as_square_matrix(self.derivative_evaluator(t))
        lo, hi = self.piece_bounds(t)
        a, b = max(t - step, lo), min(t + step, hi)
        if b <= a:
            return np.zeros((self.dim, self.dim), dtype=complex)
        h_a, h_b = self.sample([a, b])
        return (h_b - h_a) / (b - a)


def _add_scaled(terms, samples) -> np.ndarray:
    """``sum c m`` over the scales ``c`` of the ``(c, op)`` pairs ``terms`` and
    the paired ``samples``.

    A unit scale is not applied, so an unscaled term keeps the signs of its
    zeros (a complex product with ``1.0`` can flip them, and ``eigh`` sees
    those signs).
    """
    total = None
    for (c, _), m in zip(terms, samples):
        m = m if c == 1.0 else c * m
        total = m if total is None else total + m
    return total


#: matrix entries per sample block of a stacked pass (the eigendecompositions, the frame's
#: RK4 steps and residual, the jump kernel's node blocks); bounds a pass's temporaries
_BLOCK_ENTRIES = 2**11


def _block(dim: int) -> int:
    """Samples per block of a stacked pass over ``dim x dim`` matrices: ``_BLOCK_ENTRIES`` entries, at least one."""
    return max(1, _BLOCK_ENTRIES // dim**2)


def _check_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must be strictly increasing with >= 2 nodes")
    return grid


def _check_coupling(coupling) -> float:
    """``coupling`` as a float; :class:`ValidationError` unless positive and finite, its square too."""
    if not (0.0 < coupling < np.inf and coupling * coupling > 0.0):
        raise ValidationError(f"coupling must be positive and finite with a nonzero square, got {coupling!r}")
    return float(coupling)


def _resolve_degeneracy_tol(vals: np.ndarray, scale: float, pol: NumericPolicy) -> float:
    """The policy's clustering tolerance over the eigenvalue rows ``vals``, one per sample."""
    # halves cannot overflow, so a range beyond float range raises before it is formed
    if not np.max(vals[:, -1] / 2.0 - vals[:, 0] / 2.0) <= np.finfo(float).max / 2.0:
        raise NumericalError(f"spectral range from {np.min(vals):.6g} to {np.max(vals):.6g} is not finite")
    spectral_range = float(np.max(vals[:, -1] - vals[:, 0]))
    # Floor absorbs eigensolver rounding on exactly degenerate spectra.
    return max(pol.degeneracy_rel * spectral_range, 1e-14 * (1.0 + scale))


def _check_split(vals: np.ndarray, n_levels, tol: float) -> None:
    """:class:`NumericalError` when ``tol`` clusters into one level a row of the ascending
    eigenvalues ``vals`` split beyond rounding; ``n_levels`` counts each row's levels, or all rows'."""
    split = vals[:, -1] - vals[:, 0] > 1e-14 * (1.0 + np.max(np.abs(vals)))
    if np.any(split & (np.asarray(n_levels) == 1)):
        raise NumericalError(f"degeneracy tolerance {tol:.3e} merges every level of a split spectrum")


def _cluster(vals: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Split each row of ascending eigenvalues into levels at gaps > tol.

    Returns ``first`` (True where an eigenvalue opens a level) and the mean of
    each eigenvalue's level, both shaped like ``vals``.  A level whose sum
    leaves the float range takes its mean as ``v0 + mean(v - v0)``, ``v0``
    its first eigenvalue.
    """
    first = np.ones(vals.shape, dtype=bool)
    first[:, 1:] = np.diff(vals, axis=1) > tol
    flat, starts = vals.ravel(), np.flatnonzero(first)
    sizes = np.diff(np.append(starts, vals.size))
    # reduceat adds a level in the order ndarray.mean does for ranks below 8
    with np.errstate(over="ignore"):
        means = np.add.reduceat(flat, starts) / sizes
    huge = ~np.isfinite(means)
    if huge.any():
        shifted = np.add.reduceat(flat - np.repeat(flat[starts], sizes), starts) / sizes
        means[huge] = flat[starts[huge]] + shifted[huge]
    return first, means[np.cumsum(first) - 1].reshape(vals.shape)


def _spectral_samples(op: TimeDependentOperator, grid: np.ndarray, pol: NumericPolicy, midpoints: bool):
    """Sample ``op`` once on the half grid of ``grid`` and decompose it once.

    The half grid holds the nodes and the interval midpoints.  ``dH/dt`` at
    each of its points is the difference quotient of the two neighbouring
    samples (step ``h/2``), one-sided at the grid ends and where a neighbour
    lies in another smooth piece; an analytic derivative takes precedence.
    With ``midpoints`` every half-grid point is decomposed, otherwise only
    the nodes, in stacked :func:`eigh` calls of :func:`_block` samples.  A
    constant operator is decomposed once: one row, broadcast over the half
    grid with ``midpoints``.  A linear ``2 x 2`` ``op`` at its nodes alone
    lays every stack out as ``(K, 2, 2)`` views of ``(2, 2, K)`` entry planes,
    so a product over them runs along the samples, not along a trailing axis
    of length 2.  The policy's degeneracy tolerance is resolved over all
    samples.  Returns ``(vals, V, V^dagger (dH/dt) V, first, level_mean,
    tol)``, one row per decomposed sample, levels by :func:`_cluster`.
    """
    half = np.empty(2 * len(grid) - 1)
    half[::2] = grid
    half[1::2] = (grid[:-1] + grid[1:]) / 2.0
    at = np.arange(0, len(half), 1 if midpoints else 2)
    samples = op.sample(half)  # checks every time against the horizon
    planar = op.ends is not None and op.dim == 2 and not midpoints
    if planar:  # (2, 2, K) entry planes, taken as (K, 2, 2) views: a product over them runs along the samples
        planes = np.ascontiguousarray(samples.transpose(1, 2, 0))

    def take(idx):
        return np.take(planes, idx, axis=2).transpose(2, 0, 1) if planar else samples[idx]

    if op.value is not None:
        rows = len(at) if midpoints else 1
        vals, vecs = (np.broadcast_to(x, (rows, *x.shape)) for x in eigh(op.value, pol))
        hdot = np.broadcast_to(np.zeros((), dtype=complex), vecs.shape)
        tol = _resolve_degeneracy_tol(vals, max_norm(op.value), pol)
        return vals, vecs, hdot, *_cluster(vals, tol), tol

    lo, hi = op.piece_bounds(half[at])
    prev, nxt = np.maximum(at - 1, 0), np.minimum(at + 1, len(half) - 1)
    left = np.where(half[prev] >= lo, prev, at)
    right = np.where(half[nxt] <= hi, nxt, at)
    width = np.where(right > left, half[right] - half[left], 1.0)[:, None, None]
    vals = np.empty((len(at), op.dim))
    shape = (op.dim, op.dim, len(at)) if planar else (len(at), op.dim, op.dim)
    vecs = np.empty(shape, dtype=complex).transpose((2, 0, 1) if planar else (0, 1, 2))  # laid out as the samples
    hdot = np.empty_like(vecs)
    size = _block(op.dim)
    for start in range(0, len(at), size):
        blk = slice(start, start + size)
        vals[blk], vecs[blk] = eigh(take(at[blk]), pol)
        if op.derivative_evaluator is None:
            deriv = (take(right[blk]) - take(left[blk])) / width[blk]
        else:
            deriv = np.stack([op.derivative(t, 0.0) for t in half[at[blk]]])
        hdot[blk] = _stack_matmul(_stack_matmul(vecs[blk].conj().swapaxes(1, 2), deriv), vecs[blk])
    tol = _resolve_degeneracy_tol(vals, max_norm(samples), pol)
    return vals, vecs, hdot, *_cluster(vals, tol), tol


@dataclasses.dataclass(frozen=True)
class ZenoDecomposition:
    """Spectral resolution of a measurement Hamiltonian into Zeno levels.

    ``eigenvalues`` are the cluster means in ascending order and ``basis``
    the read-only unitary whose columns span the levels in turn, ``ranks``
    each (rank > 1 where eigenvalues are degenerate within the clustering
    tolerance).  Level ``l``'s projector is ``q q^dagger``, ``q`` its
    :meth:`level_basis`.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    ranks: tuple[int, ...]
    degeneracy_tol: float
    warnings: tuple[str, ...] = ()

    @property
    def n_levels(self) -> int:
        return len(self.ranks)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def level_basis(self, level: int) -> np.ndarray:
        """Orthonormal ``(d, r_l)`` basis of level ``level``: its column block of ``basis``."""
        start = sum(self.ranks[:level])
        return self.basis[:, start : start + self.ranks[level]]


def _check_level_basis(basis: np.ndarray, pol: NumericPolicy) -> None:
    """:class:`ValidationError` unless the level basis ``V`` has ``max|V^dagger V - I| <= projector_tol``."""
    defect = max_norm(basis.conj().T @ basis - np.eye(len(basis)))
    if not defect <= pol.projector_tol:
        raise ValidationError(f"level basis is not unitary: defect {defect:.3e}")


def _eigenlevels(h_meas, pol: NumericPolicy) -> tuple[np.ndarray, np.ndarray, tuple[int, ...], np.ndarray, float]:
    """One :func:`eigh` of the square matrix ``h_meas``, clustered into levels.

    Returns ``(vals, V, ranks, means, tol)``: the ascending eigenvalues, their
    eigenvectors (whose columns come grouped by level, ``ranks`` each), the
    level means and the policy's resolved degeneracy tolerance.  A tolerance
    that merges a spectrum split beyond rounding into one level raises
    :class:`NumericalError`, as every frame builder and report does.
    """
    mat = as_square_matrix(h_meas)
    vals, vecs = eigh(mat, pol)
    tol = _resolve_degeneracy_tol(vals[None], max_norm(mat), pol)
    first, level_mean = _cluster(vals[None], tol)
    starts = np.flatnonzero(first[0])
    ranks = tuple(int(r) for r in np.diff(np.append(starts, len(vals))))
    _check_split(vals[None], len(ranks), tol)
    return vals, vecs, ranks, level_mean[0, starts], tol


def decompose(h_meas, policy: NumericPolicy | None = None) -> ZenoDecomposition:
    """Split a Hermitian matrix into Zeno levels.

    Eigenvalues are clustered with the policy's tolerance,
    ``degeneracy_rel`` times the spectral range; gaps falling inside
    ``(tol/2, 2 tol)`` are flagged as ambiguous in ``warnings`` rather than
    raised, since either clustering is defensible there; a tolerance that
    merges a split spectrum into one level raises :class:`NumericalError`.  The eigenvectors,
    grouped by level, are the ``basis``; one that is not unitary to
    ``projector_tol`` raises :class:`ValidationError`.
    """
    pol = default_policy(policy)
    vals, vecs, ranks, means, tol = _eigenlevels(h_meas, pol)
    bounds = np.append(0, np.cumsum(ranks))
    warnings = [
        f"ambiguous gap {gap:.3e} near eigenvalue {val:.6g} (degeneracy tol {tol:.3e})"
        for gap, val in zip(np.diff(vals), vals[1:])
        if tol / 2.0 < gap < 2.0 * tol
    ]
    warnings += [
        f"cluster spread {spread:.3e} exceeds degeneracy tol {tol:.3e}"
        for spread in vals[bounds[1:] - 1] - vals[bounds[:-1]]
        if spread > tol
    ]
    _check_level_basis(vecs, pol)
    vecs.setflags(write=False)
    return ZenoDecomposition(
        eigenvalues=means,
        basis=vecs,
        ranks=ranks,
        degeneracy_tol=tol,
        warnings=tuple(warnings),
    )


def _tensor_power(m: np.ndarray, n: int) -> np.ndarray:
    """``m (x) m (x) ... (x) m`` with ``n`` factors, of a matrix or of each matrix of a stack."""
    out = m
    for _ in range(n - 1):
        # the new factor goes first: its entries then scale contiguous blocks
        out = m[..., :, None, :, None] * out[..., None, :, None, :]
        out = out.reshape(*m.shape[:-2], out.shape[-4] * out.shape[-3], -1)
    return out


def _level_columns(ranks, p: int, level: int) -> np.ndarray:
    """Columns of ``u^{(x)p}`` spanning level ``level`` of a ``p``-fold tensor power of a
    factor with level ``ranks`` (``u`` its level-grouped basis), ascending: a column's
    level is the sum of its factors' levels, the popcount for one spin, a range at ``p = 1``."""
    factor = np.repeat(np.arange(len(ranks)), ranks)
    return np.flatnonzero(sum(np.ix_(*[factor] * p)).ravel() == level)


@dataclasses.dataclass(frozen=True)
class AdiabaticFrame:
    """Intertwining frame sampled on a time grid.

    The frame ``A = a^{(x)power}`` is the ``power``-fold tensor power of a
    factor ``a``: ``intertwiners[k]`` is ``a(t_k)``, ``a(0) = I``, and the
    columns of the unitaries ``initial_basis`` and ``final_basis`` span the
    factor's levels in turn, ``factor_ranks`` columns each, at the first and
    the last node.  Level ``l`` of ``A`` holds the products of factor columns
    whose levels sum to ``l`` (:meth:`level_basis`); ``ranks`` and ``dim``
    are formed from these fields.  ``eigenvalues[l, k]`` is the ``l``-th
    lowest level of the measurement Hamiltonian at node ``k`` and
    ``eps_integrals[l, k]`` the integral of ``eps_l`` up to ``t_k``.
    No coupling enters: a reader forms the transition phase
    ``K (eps_integrals[m] - eps_integrals[n])`` at its own ``K``.  Frames are
    defined at their grid nodes only.  The builder sets ``residual``, a
    bound on the max-norm of ``A P_l(0) A^dagger - P_l(t)`` over nodes and
    levels, and checks it against ``frame_tol``; static frames keep 0.

    The builder keeps from its decomposition the coupling-free figures of
    :func:`adiabaticity_report`: ``alpha_unit``, its ``alpha_max`` at unit
    coupling, and ``eps_min``, the smallest gap between levels at a node.
    Static frames keep ``alpha_unit = 0``; levels that coincide at a node (a
    pulsed measurement switched off) give no gap there.
    """

    grid: np.ndarray
    intertwiners: np.ndarray
    eigenvalues: np.ndarray
    eps_integrals: np.ndarray
    initial_basis: np.ndarray
    final_basis: np.ndarray
    factor_ranks: tuple[int, ...]
    degeneracy_tol: float
    alpha_unit: float
    eps_min: float
    residual: float = 0.0
    power: int = 1

    @property
    def n_levels(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def n_nodes(self) -> int:
        return len(self.grid)

    @property
    def dim(self) -> int:
        return len(self.initial_basis) ** self.power

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(len(_level_columns(self.factor_ranks, self.power, l)) for l in range(self.n_levels))

    def level_basis(self, level: int, end: int = 0) -> np.ndarray:
        """Orthonormal ``(d, r_l)`` basis of level ``level`` at the first node
        (``end = 0``) or the last (``end = -1``): the level's columns of
        ``basis^{(x)power}``, formed column by column."""
        basis = (self.initial_basis, self.final_basis)[end]
        digits = np.unravel_index(_level_columns(self.factor_ranks, self.power, level), (len(basis),) * self.power)
        out = basis[:, digits[-1]]
        for d in digits[-2::-1]:  # the new factor goes first, as in _tensor_power
            out = (basis[:, None, d] * out[None]).reshape(-1, out.shape[-1])
        return out

    def __repr__(self) -> str:  # sizes, not the fields' arrays
        return f"AdiabaticFrame(levels={self.n_levels}, nodes={self.n_nodes}, dim={self.dim}, residual={self.residual!r})"

    @classmethod
    def _from_basis(cls, grid, eps, integrals, basis, ranks, degeneracy_tol, pol) -> "AdiabaticFrame":
        """Static frame on the checked ``grid`` whose unitary ``basis`` holds
        the levels' columns in turn, ``ranks`` each, at level eigenvalues
        ``eps`` whose integrals from the first node are ``integrals``; both,
        in closed form, and the resolved ``degeneracy_tol`` come from the
        caller, and one column of ``eps`` stands for levels constant in time.
        ``eigenvalues`` and ``intertwiners`` are read-only broadcast views, of
        ``eps`` and of one identity, and ``basis``, made read-only, is both
        end bases.
        """
        _check_level_basis(basis, pol)
        n = len(grid)
        gaps = np.diff(np.sort(eps, axis=0), axis=0)
        basis.setflags(write=False)
        return cls(
            grid=grid,
            intertwiners=np.broadcast_to(np.eye(len(basis), dtype=complex), (n, *basis.shape)),
            eigenvalues=np.broadcast_to(eps, (len(eps), n)),
            eps_integrals=integrals,
            initial_basis=basis,
            final_basis=basis,
            factor_ranks=ranks,
            degeneracy_tol=degeneracy_tol,
            alpha_unit=0.0,
            eps_min=float(np.min(gaps, where=gaps > 0.0, initial=np.inf)),
        )


def _rk4_steps(vecs, hdot, level_mean, grid: np.ndarray) -> np.ndarray:
    """Unitary RK4 steps of the frame ODE ``i dA/dt = M A``, one per interval.

    ``M = i sum_n (dP_n/dt) P_n`` at the half-grid rows ``2k, 2k+1, 2k+2``
    is ``M_ab = i <a|dH/dt|b> / (eps_b - eps_a)`` between distinct levels of
    the instantaneous eigenbasis and zero inside a level, whose members share
    their ``level_mean`` and no other level's (label-free, so midpoints need
    no level matching).  The ODE is linear, so a step is a matrix applied to
    ``A(t_k)``.  A step ``x`` with an entry of ``|x^dagger x - I|`` above ``4 d`` ulps, or
    not finite, is replaced by its polar factor (Higham, SIAM J. Sci. Stat. Comput. 7, 1160 (1986)).
    """
    eye = np.eye(vecs.shape[-1], dtype=complex)
    steps = np.empty((len(grid) - 1, *eye.shape), dtype=complex)
    size = _block(len(eye))
    for start in range(0, len(steps), size):
        ivl = slice(start, start + size)
        pts = slice(2 * start, 2 * ivl.stop + 1)
        v, eps = vecs[pts], level_mean[pts]
        same = _outer(np.equal, eps)
        gen = np.where(same, 0.0, 1j * hdot[pts] / np.where(same, 1.0, -_outer(np.subtract, eps)))
        m = _stack_matmul(_stack_matmul(v, gen), v.conj().swapaxes(1, 2))
        m = (m + m.conj().swapaxes(1, 2)) / 2.0
        h = np.diff(grid)[ivl, None, None]
        k1 = -1j * m[:-1:2]
        k2 = -1j * _stack_matmul(m[1::2], eye + (h / 2.0) * k1)
        k3 = -1j * _stack_matmul(m[1::2], eye + (h / 2.0) * k2)
        k4 = -1j * _stack_matmul(m[2::2], eye + h * k3)
        x = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        unitary = np.abs(_stack_matmul(x.conj().swapaxes(1, 2), x) - eye) <= 4 * len(eye) * np.finfo(float).eps
        bad = np.flatnonzero(~unitary.all(axis=(1, 2)))  # each entry against the bound: no float max per step
        u, _, vh = np.linalg.svd(x[bad])
        x[bad] = u @ vh
        steps[ivl] = x
    return steps


def _prefix_products(steps: np.ndarray) -> np.ndarray:
    """``A_0 = I``, ``A_{k+1} = steps[k] A_k`` over ``K`` steps, in ``2 sqrt(K)`` stacked products:
    the in-chunk prefixes of all ``sqrt(K)``-step chunks at once, then chunk by chunk the
    product with the last node of the chunk before, so no temporary exceeds a chunk."""
    count, dim = steps.shape[:2]
    size = int(np.ceil(np.sqrt(count)))
    out = np.empty((1 + -(-count // size) * size, dim, dim), dtype=complex)
    out[0] = out[1 + count :] = np.eye(dim)
    out[1 : 1 + count] = steps
    chunks = out[1:].reshape(-1, size, dim, dim)
    for i in range(1, size):
        chunks[:, i] = _stack_matmul(chunks[:, i], chunks[:, i - 1])
    for j in range(1, len(chunks)):
        chunks[j] = _stack_matmul(chunks[j], chunks[j - 1, -1])
    return out[: 1 + count]


def _plane_rotation(op: TimeDependentOperator, grid: np.ndarray) -> np.ndarray:
    """Frame ``cos(theta/2) I - i sin(theta/2) m.sigma`` of a ``2 x 2`` :meth:`~TimeDependentOperator.linear` ``op``.

    Its Bloch vector ``n = (Re H_10, Im H_10, (H_00 - H_11)/2)`` turns about ``m = n_A x n_B / |n_A x n_B|``
    by ``theta``, its signed angle from ``n_A``.  Parallel transport (Kato, J. Phys. Soc. Jpn. 5, 435 (1950))
    is that rotation, with no geometric phase (Berry, Proc. R. Soc. A 392, 45 (1984)).  Parallel ends give I.
    The frame is a ``(K, 2, 2)`` view of entry planes, as :func:`_spectral_samples` lays out a linear ``2 x 2`` pass."""
    e, s = op.ends, (grid - op.horizon[0]) / (op.horizon[1] - op.horizon[0])
    n = np.stack([e[:, 1, 0].real, e[:, 1, 0].imag, (e[:, 0, 0].real - e[:, 1, 1].real) / 2.0], axis=1)
    n /= max(np.max(np.abs(n)), np.finfo(float).tiny)  # the angle is scale-free; n_A x n_B stays in float range
    size = np.linalg.norm(normal := np.cross(n[0], n[1]))
    m = normal / size if size > 0.0 else normal  # parallel ends: theta = 0, as antiparallel ones cross and raised
    theta = np.arctan2(s * size, (1.0 - s) * (n[0] @ n[0]) + s * (n[0] @ n[1]))
    turn = np.array([[-1j * m[2], -m[1] - 1j * m[0]], [m[1] - 1j * m[0], 1j * m[2]]])  # -i m.sigma
    return np.moveaxis(np.cos(theta / 2.0) * np.eye(2)[..., None] + np.sin(theta / 2.0) * turn[..., None], 2, 0)


def _residual(a, vecs, ranks) -> float:
    """Worst max-norm of ``A P_l(0) A^dagger - P_l(t)`` over the nodes and levels of the frame
    ``a`` and the eigenvectors ``vecs``, a :func:`_block` of nodes at a time: the first node's
    columns ``v`` of level ``l``, transported to ``w = A v``, give ``A P_l(0) A^dagger = w w^dagger``,
    compared with ``P_l(t) = v v^dagger`` at each node."""
    residual, size = 0.0, _block(vecs.shape[-1])
    for start in range(0, len(vecs), size):
        blk = slice(start, start + size)
        for cols in (slice(first, first + rank) for first, rank in zip(np.cumsum(ranks) - ranks, ranks)):
            moved, block = _stack_matmul(a[blk], vecs[:1, :, cols]), vecs[blk, :, cols]
            p = _stack_matmul(moved, moved.conj().swapaxes(1, 2)) - _stack_matmul(block, block.conj().swapaxes(1, 2))
            # np.maximum keeps a NaN maximum, which the builtin max drops
            residual = np.maximum(residual, max_norm(p))
    return float(residual)


def track_frame(
    h_meas: TimeDependentOperator,
    grid,
    policy: NumericPolicy | None = None,
) -> AdiabaticFrame:
    """Integrate the intertwining frame of a rotating measurement.

    The level structure must stay intact along the grid: constant level count
    and ranks, and levels in ascending order that each overlap themselves at
    the next node, ``Tr(P_a(t_k) P_a(t_{k+1}))``, at least as much as any
    other level.  A change (a crossing on a node or between two, or a basis
    jump at a breakpoint) raises :class:`LevelCrossingError` naming the node,
    and a tolerance that merges a spectrum split beyond rounding into one
    level raises :class:`NumericalError`.  The frame ODE ``i dA/dt = M(t) A``
    is advanced with one classical 4th-order step per grid interval (generator
    sampled at the interval midpoint), a step not unitary to rounding replaced
    by its polar factor; the intertwiners are the steps' blocked prefix product.
    A :meth:`~TimeDependentOperator.linear` ``2 x 2`` measurement, whose Bloch
    vector turns in one plane, decomposes its nodes alone on entry planes
    (:func:`_spectral_samples`) and takes its frame in closed form from
    :func:`_plane_rotation` instead.  ``residual``, the worst max-norm of
    ``A P_l(0) A^dagger - P_l(t)`` over nodes and levels (:func:`_residual`),
    is checked against the policy's ``frame_tol``; pass
    ``policy.replace(frame_tol=...)`` for another bound.  ``eps_integrals``
    are cumulative trapezoids of the levels.  The report figures come from the
    pass's node rows.

    Breakpoints of ``h_meas`` must coincide with grid nodes so that no
    integration step straddles a discontinuity.
    """
    pol = default_policy(policy)
    grid = _check_grid(grid)
    t0, t1 = h_meas.horizon
    slack = h_meas.slack
    if abs(grid[0] - t0) > slack or grid[-1] > t1 + slack:
        raise ValidationError("grid must start at the horizon origin and stay inside it")
    for b in h_meas.breakpoints:
        if grid[-1] > b and not np.any(np.abs(grid - b) <= slack):
            raise ValidationError(f"breakpoint t={b} must be a grid node")

    planar = h_meas.ends is not None and h_meas.dim == 2
    vals, half_vecs, half_hdot, half_first, half_mean, tol = _spectral_samples(h_meas, grid, pol, midpoints=not planar)
    node = slice(None, None, 1 if planar else 2)
    vecs, hdot, first, level_mean = half_vecs[node], half_hdot[node], half_first[node], half_mean[node]
    alpha_unit, eps_min, _ = _level_figures(hdot, first, level_mean)
    n_levels = int(first[0].sum())
    changed = np.flatnonzero(first != first[0]) // first.shape[1]
    if changed.size:
        raise LevelCrossingError(
            f"level count or ranks changed (from {n_levels} to {first[changed[0]].sum()} levels) at node "
            f"t={grid[changed[0]]:.9g}; treat as a level crossing"
        )
    _check_split(vals, n_levels, tol)
    ranks = np.diff(np.flatnonzero(np.append(first[0], True)))

    # Levels that never cross keep their ascending order: level a must overlap
    # itself at the next node, Tr(P_a P_a'), at least as much as any other level.
    overlap = np.abs(_stack_matmul(vecs[:-1].conj().swapaxes(1, 2), vecs[1:])) ** 2
    if n_levels < len(first[0]):  # a degenerate level overlaps by the sum over its columns
        member = (np.cumsum(first[0])[:, None] == np.arange(1, n_levels + 1)).astype(float)
        overlap = _stack_matmul(_stack_matmul(member.T, overlap), member)
    crossed = np.flatnonzero(overlap > np.diagonal(overlap, axis1=1, axis2=2)[:, :, None]) // n_levels**2
    if crossed.size:
        raise LevelCrossingError(
            f"a level overlaps another level more than itself at node t={grid[crossed[0] + 1]:.9g}; "
            f"treat as a level crossing"
        )
    eps = level_mean[:, first[0]].T.copy()
    integrals = np.zeros_like(eps)
    integrals[:, 1:] = np.cumsum(np.diff(grid) * (eps[:, 1:] + eps[:, :-1]) / 2.0, axis=1)

    if planar:
        intertwiners = _plane_rotation(h_meas, grid)
    else:
        vecs = vecs.copy()
        intertwiners = _prefix_products(_rk4_steps(half_vecs, half_hdot, half_mean, grid))
        del half_vecs, half_hdot, hdot
    residual = _residual(intertwiners, vecs, ranks)

    frame = AdiabaticFrame(
        grid=grid,
        intertwiners=np.ascontiguousarray(intertwiners),
        eigenvalues=eps,
        eps_integrals=integrals,
        initial_basis=vecs[0].copy(),
        final_basis=vecs[-1].copy(),
        factor_ranks=tuple(int(r) for r in ranks),
        degeneracy_tol=tol,
        alpha_unit=alpha_unit,
        eps_min=eps_min,
        residual=residual,
    )
    return _checked_frame(frame, pol)


def _checked_frame(frame: AdiabaticFrame, pol: NumericPolicy) -> AdiabaticFrame:
    """``frame`` if its ``residual`` is within the policy's ``frame_tol``;
    otherwise :class:`FrameResidualError` carrying the frame."""
    if not (frame.residual <= pol.frame_tol):
        raise FrameResidualError(
            f"frame residual {frame.residual:.3e} exceeds tolerance {pol.frame_tol:.1e}; "
            f"refine the grid",
            last_result=frame,
        )
    return frame


@dataclasses.dataclass(frozen=True)
class AdiabaticityReport:
    """Summary of how well the measurement rotation stays adiabatic.

    ``alpha_max`` is the worst (over grid nodes and source levels) sum of
    squared transition coefficients
    ``alpha_mn = -<m|dH_meas/dt|n> / (coupling * (eps_m - eps_n))``, the
    denominator being the physical transition frequency of the scaled
    measurement Hamiltonian.  For a degenerate source level the squared sum is
    averaged over an orthonormal basis of the level (basis invariant).
    ``eps_min`` is the smallest inter-level gap of the unscaled spectrum over
    the grid.  The evolution is flagged adiabatic when
    ``ratio = alpha_max / eps_min <= margin * coupling**2``.
    """

    alpha_max: float
    eps_min: float
    ratio: float
    coupling: float
    margin: float
    adiabatic: bool

    @property
    def threshold(self) -> float:
        return self.margin * (self.coupling * self.coupling)


def adiabaticity_report(
    h_meas: TimeDependentOperator | AdiabaticFrame,
    coupling: float,
    grid=None,
    policy: NumericPolicy | None = None,
) -> AdiabaticityReport:
    """Evaluate the adiabaticity figures on a grid, or read them off a frame.

    An :class:`AdiabaticFrame` in place of the operator and ``grid`` gives
    its ``alpha_unit / coupling**2`` and ``eps_min`` with no spectral work,
    held to its ``degeneracy_tol``.  The operator form is the reference for
    those figures, and the only form for levels that merge (a pulsed
    measurement switched off, say), which no frame can track.

    Levels are clustered node-locally at the policy's tolerance over the
    grid, with :func:`track_frame`'s rule: a node split beyond rounding that
    it clusters into one level raises :class:`NumericalError`, and a node
    whose eigenvalues merge to rounding contributes no transition pairs.
    Distinct levels closer than the tolerance raise, as their coefficients
    are undefined.
    ``dH/dt`` at a node is the difference of its neighbouring interval
    midpoints, one-sided at piece boundaries.  The adiabatic flag reads the
    policy's ``adiabatic_margin``.
    """
    pol = default_policy(policy)
    coupling = _check_coupling(coupling)
    if isinstance(h_meas, AdiabaticFrame):
        if grid is not None:
            raise ValidationError("a frame's report takes the frame's own grid")
        alpha_unit, eps_min, limit, where = h_meas.alpha_unit, h_meas.eps_min, h_meas.degeneracy_tol, ""
    else:
        grid = _check_grid(grid)
        vals, _, hdot, first, eps, limit = _spectral_samples(h_meas, grid, pol, midpoints=False)
        _check_split(vals, first.sum(axis=1), limit)
        alpha_unit, eps_min, node = _level_figures(hdot, first, eps)
        where = f" at node t={grid[node]:.9g}"
    if eps_min < limit:
        raise NumericalError(
            f"levels closer than the degeneracy tolerance{where}; transition coefficients are undefined"
        )
    # No transition pairs leaves eps_min infinite and the ratio 0; a square past float range is inf, not a raise
    alpha_max = alpha_unit / (coupling * coupling)
    ratio = alpha_max / eps_min
    return AdiabaticityReport(
        alpha_max=alpha_max,
        eps_min=eps_min,
        ratio=ratio,
        coupling=coupling,
        margin=pol.adiabatic_margin,
        adiabatic=bool(ratio <= pol.adiabatic_margin * (coupling * coupling)),
    )


def _level_figures(hdot: np.ndarray, first: np.ndarray, eps: np.ndarray) -> tuple[float, float, int]:
    """``(alpha, eps_min, node)`` at unit coupling over node rows clustered by :func:`_cluster`.

    ``alpha`` is the worst sum of ``|<m|dH/dt|n>|^2 / (eps_m - eps_n)^2``
    over the targets ``m`` in other levels, averaged over the source level's
    basis; ``eps_min`` the smallest gap between neighbouring levels at a node
    (infinite where no node has two levels) and ``node`` the row holding it.
    """
    starts = np.flatnonzero(first)
    node = starts // first.shape[1]
    inner = node[1:] == node[:-1]
    gaps = np.diff(eps.ravel()[starts])[inner]
    eps_min = float(np.min(gaps, initial=np.inf))
    at = int(node[1:][inner][np.argmin(gaps)]) if gaps.size else 0
    other = _outer(np.not_equal, eps)  # other levels, which differ in their means
    diff = np.where(other, _outer(np.subtract, eps), 1.0)
    rows = _row_sums(np.where(other, np.abs(hdot) ** 2 / diff**2, 0.0))
    sizes = np.diff(np.append(starts, first.size))
    return float(np.max(np.add.reduceat(rows.ravel(), starts) / sizes)), eps_min, at


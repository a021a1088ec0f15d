"""Zeno subspace structure of a measurement Hamiltonian.

A finitely strong measurement is modelled by a Hermitian ``H_meas`` whose
eigenprojectors define the Zeno subspaces; degenerate eigenvalues are grouped
into a single subspace of rank > 1.  For time-dependent ``H_meas(t)`` the
subspaces rotate, and an intertwining frame ``A(t)`` with
``P_n(t) = A(t) P_n(0) A(t)^dagger`` is obtained by integrating
``i dA/dt = M(t) A(t)`` where ``M = i sum_n (dP_n/dt) P_n``.  The quality of
the adiabatic picture is summarised by an :class:`AdiabaticityReport`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

import numpy as np

from .errors import FrameResidualError, LevelCrossingError, NumericalError, ValidationError
from .operators import as_square_matrix, check_projector, eigh, max_norm
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
    precedence over finite differences.  :meth:`constant` keeps its matrix
    read-only in ``value`` (``None`` for a time-dependent operator): its
    samples are views of that one matrix, and frames and reports decompose it
    once, with ``dH/dt = 0`` exactly.  :meth:`site_sum` keeps in ``site`` the
    two-level operator that acts alike on each of ``n`` spins, the operator
    being their sum (``None`` otherwise): :func:`adiabaticity_report` works
    from the site alone.
    """

    evaluator: Callable[[float], np.ndarray]
    horizon: tuple[float, float]
    dim: int
    breakpoints: tuple[float, ...] = ()
    derivative_evaluator: Callable[[float], np.ndarray] | None = None
    value: np.ndarray | None = dataclasses.field(default=None, init=False, repr=False, compare=False)
    site: TimeDependentOperator | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
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
    def site_sum(
        cls, site: "TimeDependentOperator", n_sites: int, evaluator: Callable[[float], np.ndarray]
    ) -> "TimeDependentOperator":
        """``sum_j site_j`` over ``n_sites`` spins, ``site_j`` the two-level ``site`` at spin ``j``.

        ``evaluator`` returns the dense ``2**n_sites``-dimensional sum; the
        operator takes its horizon and breakpoints from ``site``, which it
        keeps in ``site``.
        """
        if site.dim != 2:
            raise ValidationError(f"a site sum needs a two-level site, got dimension {site.dim}")
        if not (isinstance(n_sites, (int, np.integer)) and n_sites >= 1):
            raise ValidationError(f"a site sum needs an integer n_sites >= 1, got {n_sites!r}")
        op = cls(
            evaluator=evaluator,
            horizon=site.horizon,
            dim=2 ** int(n_sites),
            breakpoints=site.breakpoints,
        )
        object.__setattr__(op, "site", site)
        return op

    def _check_time(self, t: float) -> float:
        t0, t1 = self.horizon
        slack = 1e-12 * (1.0 + abs(t0) + abs(t1))
        if t < t0 - slack or t > t1 + slack:
            raise ValidationError(f"time {t!r} outside horizon [{t0}, {t1}]")
        return min(max(t, t0), t1)

    def _checked(self, sample) -> np.ndarray:
        m = as_square_matrix(sample)
        if m.shape[0] != self.dim:
            raise ValidationError(
                f"evaluator returned dimension {m.shape[0]}, declared {self.dim}"
            )
        return m

    def __call__(self, t: float) -> np.ndarray:
        return self._checked(self.evaluator(self._check_time(float(t))))

    def unchecked(self, t: float) -> np.ndarray:
        """The evaluator's sample at ``t``, checked for shape only.

        For operators composed of this one, whose own call checks the time and
        the finiteness of the result: a non-finite entry here stays
        non-finite under scaling and addition.
        """
        m = np.asarray(self.evaluator(t), dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise ValidationError(
                f"evaluator returned shape {m.shape}, declared dimension {self.dim}"
            )
        return m

    def sample(self, times) -> np.ndarray:
        """``(len(times), dim, dim)`` stack of ``self(t)`` over ``times``.

        The stack is checked as one array; a bad sample raises the error the
        per-time call would raise for it.  A constant operator checks the
        earliest and latest time and returns a read-only view of its matrix.
        """
        if self.value is not None:
            self._check_time(float(np.min(times, initial=self.horizon[0])))
            self._check_time(float(np.max(times, initial=self.horizon[1])))
            return np.broadcast_to(self.value, (len(times), self.dim, self.dim))
        raw = [self.evaluator(self._check_time(float(t))) for t in times]
        try:
            stack = np.asarray(raw, dtype=complex)
        except ValueError:  # samples of different shapes
            stack = None
        if stack is None or stack.shape[1:] != (self.dim, self.dim) or not np.isfinite(stack).all():
            for m in raw:
                self._checked(m)
        return stack

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
        t = self._check_time(float(t))
        if self.derivative_evaluator is not None:
            return as_square_matrix(self.derivative_evaluator(t))
        lo, hi = self.piece_bounds(t)
        a = max(t - step, lo)
        b = min(t + step, hi)
        if b <= a:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return (self(b) - self(a)) / (b - a)


#: samples per stacked eigendecomposition; bounds the temporaries of a pass
_BLOCK = 256


def _check_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must be strictly increasing with >= 2 nodes")
    return grid


def _check_coupling(coupling) -> float:
    """``coupling`` as a float; :class:`ValidationError` unless positive and finite."""
    if not 0.0 < coupling < np.inf:
        raise ValidationError(f"coupling must be positive and finite, got {coupling!r}")
    return float(coupling)


def _resolve_degeneracy_tol(
    vals: np.ndarray, scale: float, degeneracy_tol: float | None, pol: NumericPolicy
) -> float:
    """Clustering tolerance over the eigenvalue rows ``vals``, one per sample."""
    if degeneracy_tol is not None:
        if not (0.0 <= degeneracy_tol < np.inf):
            raise ValidationError(f"degeneracy_tol must be finite and >= 0, got {degeneracy_tol!r}")
        return float(degeneracy_tol)
    spectral_range = float(np.max(vals[:, -1] - vals[:, 0]))
    # Floor absorbs eigensolver rounding on exactly degenerate spectra.
    return max(pol.degeneracy_rel * spectral_range, 1e-14 * (1.0 + scale))


def _cluster(vals: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Split each row of ascending eigenvalues into levels at gaps > tol.

    Returns ``first`` (True where an eigenvalue opens a level) and the mean of
    each eigenvalue's level, both shaped like ``vals``.
    """
    first = np.ones(vals.shape, dtype=bool)
    first[:, 1:] = np.diff(vals, axis=1) > tol
    starts = np.flatnonzero(first)
    sizes = np.diff(np.append(starts, vals.size))
    # reduceat adds a level in the order ndarray.mean does for ranks below 8
    means = np.add.reduceat(vals.ravel(), starts) / sizes
    return first, means[np.cumsum(first) - 1].reshape(vals.shape)


def _projectors(vecs: np.ndarray, starts: np.ndarray, ranks) -> np.ndarray:
    """Projectors ``(L, K, d, d)``: level ``l`` at sample ``k`` is spanned by
    the eigenvector columns ``starts[k, l]`` to ``starts[k, l] + ranks[l]``."""
    out = np.empty((len(ranks), *vecs.shape), dtype=complex)
    for l, rank in enumerate(ranks):
        block = np.take_along_axis(vecs, starts[:, l, None, None] + np.arange(rank), axis=2)
        p = block @ block.conj().swapaxes(1, 2)
        out[l] = (p + p.conj().swapaxes(1, 2)) / 2.0
    return out


def _spectral_samples(
    op: TimeDependentOperator,
    grid: np.ndarray,
    degeneracy_tol: float | None,
    pol: NumericPolicy,
    midpoints: bool,
):
    """Sample ``op`` once on the half grid of ``grid`` and decompose it once.

    The half grid holds the nodes and the interval midpoints.  ``dH/dt`` at
    each of its points is the difference quotient of the two neighbouring
    samples (step ``h/2``), one-sided at the grid ends and where a neighbour
    lies in another smooth piece; an analytic derivative takes precedence.
    With ``midpoints`` every half-grid point is decomposed, otherwise only
    the nodes, in stacked :func:`eigh` calls of ``_BLOCK`` samples.  A
    constant operator is decomposed once: one row, broadcast over the half
    grid with ``midpoints``.  The degeneracy tolerance is resolved over all
    samples.  Returns ``(vals, V, V^dagger (dH/dt) V, first, level_mean,
    tol)``, one row per decomposed sample, with the levels from
    :func:`_cluster`.
    """
    half = np.empty(2 * len(grid) - 1)
    half[::2] = grid
    half[1::2] = (grid[:-1] + grid[1:]) / 2.0
    at = np.arange(0, len(half), 1 if midpoints else 2)
    samples = op.sample(half)  # checks every time against the horizon
    if op.value is not None:
        rows = len(at) if midpoints else 1
        vals, vecs = (np.broadcast_to(x, (rows, *x.shape)) for x in eigh(op.value, pol))
        hdot = np.broadcast_to(np.zeros((), dtype=complex), vecs.shape)
        tol = _resolve_degeneracy_tol(vals, max_norm(op.value), degeneracy_tol, pol)
        return vals, vecs, hdot, *_cluster(vals, tol), tol

    lo, hi = op.piece_bounds(half[at])
    prev, nxt = np.maximum(at - 1, 0), np.minimum(at + 1, len(half) - 1)
    left = np.where(half[prev] >= lo, prev, at)
    right = np.where(half[nxt] <= hi, nxt, at)
    width = np.where(right > left, half[right] - half[left], 1.0)[:, None, None]
    vals = np.empty((len(at), op.dim))
    vecs = np.empty((len(at), op.dim, op.dim), dtype=complex)
    hdot = np.empty_like(vecs)
    for start in range(0, len(at), _BLOCK):
        blk = slice(start, start + _BLOCK)
        vals[blk], vecs[blk] = eigh(samples[at[blk]], pol)
        if op.derivative_evaluator is None:
            deriv = (samples[right[blk]] - samples[left[blk]]) / width[blk]
        else:
            deriv = np.stack([op.derivative(t, 0.0) for t in half[at[blk]]])
        hdot[blk] = vecs[blk].conj().swapaxes(1, 2) @ deriv @ vecs[blk]
    tol = _resolve_degeneracy_tol(vals, max_norm(samples), degeneracy_tol, pol)
    return vals, vecs, hdot, *_cluster(vals, tol), tol


@dataclasses.dataclass(frozen=True)
class ZenoDecomposition:
    """Spectral resolution of a measurement Hamiltonian into Zeno levels.

    ``eigenvalues`` are the cluster means in ascending order, ``projectors``
    the matching orthogonal projectors (rank > 1 where eigenvalues are
    degenerate within the clustering tolerance).
    """

    eigenvalues: np.ndarray
    projectors: np.ndarray
    ranks: tuple[int, ...]
    degeneracy_tol: float
    warnings: tuple[str, ...] = ()

    @property
    def n_levels(self) -> int:
        return len(self.ranks)

    @property
    def dim(self) -> int:
        return self.projectors.shape[-1]

    def verify(self, policy: NumericPolicy | None = None) -> None:
        """Check completeness, orthogonality and projector structure."""
        pol = default_policy(policy)
        total = self.projectors.sum(axis=0)
        defect = max_norm(total - np.eye(self.dim))
        if defect > pol.completeness_tol:
            raise ValidationError(f"projectors do not sum to identity: defect {defect:.3e}")
        for i in range(self.n_levels):
            check_projector(self.projectors[i], pol)
            for j in range(i + 1, self.n_levels):
                cross = max_norm(self.projectors[i] @ self.projectors[j])
                if cross > pol.orthogonality_tol:
                    raise ValidationError(
                        f"levels {i} and {j} are not orthogonal: defect {cross:.3e}"
                    )


def decompose(
    h_meas,
    degeneracy_tol: float | None = None,
    policy: NumericPolicy | None = None,
) -> ZenoDecomposition:
    """Split a Hermitian matrix into Zeno levels.

    Eigenvalues are clustered with an absolute tolerance (default:
    ``degeneracy_rel`` times the spectral range); gaps falling inside
    ``(tol/2, 2 tol)`` are flagged as ambiguous in ``warnings`` rather than
    raised, since either clustering is defensible there.
    """
    pol = default_policy(policy)
    mat = as_square_matrix(h_meas)
    vals, vecs = eigh(mat, pol)
    tol = _resolve_degeneracy_tol(vals[None], max_norm(mat), degeneracy_tol, pol)
    first, level_mean = _cluster(vals[None], tol)
    starts = np.flatnonzero(first[0])
    bounds = np.append(starts, len(vals))
    warnings = [
        f"ambiguous gap {gap:.3e} near eigenvalue {val:.6g} (degeneracy tol {tol:.3e})"
        for gap, val in zip(np.diff(vals), vals[1:])
        if tol / 2.0 < gap < 2.0 * tol
    ]
    warnings += [
        f"cluster spread {spread:.3e} exceeds degeneracy tol {tol:.3e}"
        for spread in vals[bounds[1:] - 1] - vals[starts]
        if spread > tol
    ]
    projectors = _projectors(vecs[None], starts[None], np.diff(bounds))[:, 0]
    total_defect = max_norm(projectors.sum(axis=0) - np.eye(mat.shape[0]))
    if total_defect > pol.completeness_tol:
        raise ValidationError(f"projectors do not sum to identity: defect {total_defect:.3e}")
    return ZenoDecomposition(
        eigenvalues=level_mean[0, starts],
        projectors=projectors,
        ranks=tuple(int(r) for r in np.diff(bounds)),
        degeneracy_tol=tol,
        warnings=tuple(warnings),
    )


@dataclasses.dataclass(frozen=True)
class AdiabaticFrame:
    """Intertwining frame sampled on a time grid.

    ``intertwiners[k]`` is ``A(t_k)`` with ``A(0) = I``; ``eigenvalues[l, k]``
    is level ``l`` of the measurement Hamiltonian at node ``k`` (a consistent
    identity along the grid), ``initial_projectors[l]`` and
    ``final_projectors[l]`` its projector at the first and the last node, and
    ``phases[l, k]`` the integral of ``coupling * eps_l`` up to ``t_k``.  Frames
    are defined at their grid nodes only.  The builder sets ``residual``, a
    bound on the max-norm of ``A P_l(0) A^dagger - P_l(t)`` over nodes and
    levels, and checks it against ``frame_tol``; static frames keep 0.
    """

    grid: np.ndarray
    intertwiners: np.ndarray
    eigenvalues: np.ndarray
    phases: np.ndarray
    initial_projectors: np.ndarray
    final_projectors: np.ndarray
    ranks: tuple[int, ...]
    coupling: float
    degeneracy_tol: float
    residual: float = 0.0

    @property
    def n_levels(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def n_nodes(self) -> int:
        return len(self.grid)

    @property
    def dim(self) -> int:
        return self.intertwiners.shape[-1]

    def node_index(self, t: float) -> int:
        """Index of the grid node equal to ``t``; error if ``t`` is off-grid."""
        grid = self.grid
        idx = int(np.searchsorted(grid, t))
        slack = 1e-12 * (1.0 + abs(float(grid[-1])))
        for cand in (idx - 1, idx, idx + 1):
            if 0 <= cand < len(grid) and abs(float(grid[cand]) - t) <= slack:
                return cand
        raise ValidationError(
            f"time {t!r} is not a frame grid node; frames are not interpolated"
        )

    @classmethod
    def static(
        cls,
        grid,
        levels: Sequence[tuple[float | Callable[[float], float], np.ndarray]],
        coupling: float,
        policy: NumericPolicy | None = None,
        degeneracy_tol: float = 0.0,
    ) -> "AdiabaticFrame":
        """Frame for measurements with constant projectors.

        ``levels`` holds ``(eps, P)`` pairs where ``eps`` is a number or a
        function of time (as for pulsed measurements whose eigenvalues switch
        while the projectors stay fixed).  The intertwiner is the identity at
        every node.  Phases accumulate by midpoint sampling per grid interval,
        which is exact for piecewise-constant eigenvalues whose switching
        times are grid nodes.  ``intertwiners`` is a read-only broadcast view
        of one identity; one read-only projector stack is both end-node fields.
        """
        pol = default_policy(policy)
        coupling = _check_coupling(coupling)
        grid = _check_grid(grid)
        projs = np.array([check_projector(p, pol) for _, p in levels])
        projs.setflags(write=False)
        dim = projs.shape[-1]
        total = projs.sum(axis=0)
        if max_norm(total - np.eye(dim)) > pol.completeness_tol:
            raise ValidationError("static frame levels must resolve the identity")
        n = len(grid)
        eps = np.empty((len(levels), n))
        mid_eps = np.empty((len(levels), n - 1))
        mids = (grid[:-1] + grid[1:]) / 2.0
        for l, (spec, _) in enumerate(levels):
            if callable(spec):
                eps[l], mid_eps[l] = [float(spec(t)) for t in grid], [float(spec(t)) for t in mids]
            else:
                eps[l] = mid_eps[l] = float(spec)
        phases = np.zeros((len(levels), n))
        phases[:, 1:] = np.cumsum(coupling * mid_eps * np.diff(grid), axis=1)
        return cls(
            grid=grid,
            intertwiners=np.broadcast_to(np.eye(dim, dtype=complex), (n, dim, dim)),
            eigenvalues=eps,
            phases=phases,
            initial_projectors=projs,
            final_projectors=projs,
            ranks=tuple(int(round(p.trace().real)) for p in projs),
            coupling=coupling,
            degeneracy_tol=float(degeneracy_tol),
        )


def _rk4_steps(vecs, hdot, first, level_mean, grid: np.ndarray) -> np.ndarray:
    """Unitary RK4 steps of the frame ODE ``i dA/dt = M A``, one per interval.

    ``M = i sum_n (dP_n/dt) P_n`` at the half-grid rows ``2k, 2k+1, 2k+2``
    is ``M_ab = i <a|dH/dt|b> / (eps_b - eps_a)`` between distinct levels of
    the instantaneous eigenbasis and zero inside a level (label-free, so
    midpoints need no level matching).  The ODE is linear, so a step is a
    matrix applied to ``A(t_k)``; its polar factor is the unitary step.
    """
    eye = np.eye(vecs.shape[-1], dtype=complex)
    steps = np.empty((len(grid) - 1, *eye.shape), dtype=complex)
    for start in range(0, len(steps), _BLOCK):
        ivl = slice(start, start + _BLOCK)
        pts = slice(2 * start, 2 * ivl.stop + 1)
        v, eps = vecs[pts], level_mean[pts]
        labels = np.cumsum(first[pts], axis=1)
        same = labels[:, None, :] == labels[:, :, None]
        denom = np.where(same, 1.0, eps[:, None, :] - eps[:, :, None])
        m = v @ np.where(same, 0.0, 1j * hdot[pts] / denom) @ v.conj().swapaxes(1, 2)
        m = (m + m.conj().swapaxes(1, 2)) / 2.0
        h = np.diff(grid)[ivl, None, None]
        k1 = -1j * m[:-1:2]
        k2 = -1j * (m[1::2] @ (eye + (h / 2.0) * k1))
        k3 = -1j * (m[1::2] @ (eye + (h / 2.0) * k2))
        k4 = -1j * (m[2::2] @ (eye + h * k3))
        u, _, vh = np.linalg.svd(eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        steps[ivl] = u @ vh
    return steps


def track_frame(
    h_meas: TimeDependentOperator,
    coupling: float,
    grid,
    policy: NumericPolicy | None = None,
    degeneracy_tol: float | None = None,
) -> AdiabaticFrame:
    """Integrate the intertwining frame of a rotating measurement.

    The level structure must stay intact along the grid: constant level count
    and ranks, pairwise gaps above the degeneracy tolerance, one distinct
    successor per level from node to node.  A change raises
    :class:`LevelCrossingError` naming the node.  The frame ODE
    ``i dA/dt = M(t) A`` is advanced with one classical 4th-order step per
    grid interval (generator sampled at the interval midpoint), each step
    matrix re-unitarised by its polar factor.  ``residual``, the worst
    max-norm of ``A P_l(0) A^dagger - P_l(t)`` over nodes (eigenprojectors
    formed a node block at a time) and levels, is checked against the
    policy's ``frame_tol``; pass ``policy.replace(frame_tol=...)`` for another
    bound.  Phases are cumulative trapezoids of ``coupling * eps_l``.

    Breakpoints of ``h_meas`` must coincide with grid nodes so that no
    integration step straddles a discontinuity.
    """
    pol = default_policy(policy)
    coupling = _check_coupling(coupling)
    grid = _check_grid(grid)
    t0, t1 = h_meas.horizon
    slack = 1e-12 * (1.0 + abs(t0) + abs(t1))
    if abs(grid[0] - t0) > slack or grid[-1] > t1 + slack:
        raise ValidationError("grid must start at the horizon origin and stay inside it")
    for b in h_meas.breakpoints:
        if grid[-1] > b and not np.any(np.abs(grid - b) <= slack):
            raise ValidationError(f"breakpoint t={b} must be a grid node")

    vals, half_vecs, hdot, half_first, level_mean, tol = _spectral_samples(
        h_meas, grid, degeneracy_tol, pol, midpoints=True
    )
    n, dim = len(grid), h_meas.dim
    first = half_first[::2]
    counts = first.sum(axis=1)
    n_levels = int(counts[0])
    changed = np.flatnonzero(counts != n_levels)
    if changed.size:
        raise LevelCrossingError(
            f"level count changed from {n_levels} to {counts[changed[0]]} at node "
            f"t={grid[changed[0]]:.9g}; treat as a level crossing"
        )

    # Follow each level to the next node's level of largest projector overlap
    # Tr(P_a P_b), ties broken by eigenvalue distance.  Where that is a
    # permutation it is the unique optimal assignment.
    vecs = half_vecs[::2].copy()
    means = level_mean[::2][first].reshape(n, n_levels)
    starts = np.flatnonzero(first)
    ranks = np.diff(np.append(starts, first.size)).reshape(n, n_levels)
    member = (np.cumsum(first, axis=1)[:, :, None] == np.arange(1, n_levels + 1)).astype(float)
    weights = np.abs(vecs[:-1].conj().swapaxes(1, 2) @ vecs[1:]) ** 2
    overlap = member[:-1].swapaxes(1, 2) @ weights @ member[1:]
    spectral_range = float(np.max(vals[:, -1] - vals[:, 0]))
    tie = np.abs(means[:-1, :, None] - means[1:, None, :])
    cost = -overlap + 1e-9 * tie / (1.0 + spectral_range)
    successor = np.argmin(cost, axis=2)
    clash = np.flatnonzero(np.any(np.sort(successor, axis=1) != np.arange(n_levels), axis=1))
    if clash.size:
        raise LevelCrossingError(
            f"two levels overlap most with one level at node t={grid[clash[0] + 1]:.9g}; "
            f"treat as a level crossing"
        )
    orders = np.empty((n, n_levels), dtype=int)
    orders[0] = np.arange(n_levels)
    for k in range(1, n):
        orders[k] = successor[k - 1, orders[k - 1]]
    ranks = np.take_along_axis(ranks, orders, axis=1)
    moved = np.flatnonzero(np.any(ranks != ranks[0], axis=1))
    if moved.size:
        raise LevelCrossingError(
            f"level ranks changed at node t={grid[moved[0]]:.9g}; treat as a level crossing"
        )
    eps = np.take_along_axis(means, orders, axis=1).T.copy()
    offsets = np.take_along_axis((starts % dim).reshape(n, n_levels), orders, axis=1)

    steps = _rk4_steps(half_vecs, hdot, half_first, level_mean, grid)
    del half_vecs, hdot
    intertwiners = np.empty((n, dim, dim), dtype=complex)
    intertwiners[0] = np.eye(dim)
    for k in range(n - 1):
        np.matmul(steps[k], intertwiners[k], out=intertwiners[k + 1])
    initial = _projectors(vecs[:1], offsets[:1], ranks[0])[:, 0]
    residual = 0.0
    for start in range(0, n, _BLOCK):
        blk = slice(start, start + _BLOCK)
        a, projectors = intertwiners[blk], _projectors(vecs[blk], offsets[blk], ranks[0])
        transported = a @ initial[:, None] @ a.conj().swapaxes(1, 2)
        residual = max(residual, max_norm(transported - projectors))

    y = coupling * eps
    phases = np.zeros_like(y)
    phases[:, 1:] = np.cumsum(np.diff(grid) * (y[:, 1:] + y[:, :-1]) / 2.0, axis=1)

    frame = AdiabaticFrame(
        grid=grid,
        intertwiners=intertwiners,
        eigenvalues=eps,
        phases=phases,
        initial_projectors=initial,
        final_projectors=projectors[:, -1].copy(),
        ranks=tuple(int(r) for r in ranks[0]),
        coupling=coupling,
        degeneracy_tol=tol,
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
        return self.margin * self.coupling**2


def adiabaticity_report(
    h_meas: TimeDependentOperator,
    coupling: float,
    grid,
    policy: NumericPolicy | None = None,
    degeneracy_tol: float | None = None,
) -> AdiabaticityReport:
    """Evaluate the adiabaticity figures on a grid.

    Levels are clustered node-locally with the operator's own tolerance
    (``degeneracy_rel`` times its spectral range), or with ``degeneracy_tol``
    where that is smaller.  Instants where eigenvalues merge (a pulsed
    measurement switched off, say) simply contribute no transition pairs.
    Distinct levels closer than ``degeneracy_tol`` (by default the operator's
    own tolerance) raise, since the coefficients are undefined there.
    ``dH/dt`` at a node is the difference of its neighbouring interval
    midpoints, one-sided at piece boundaries.  The adiabatic flag reads the
    policy's ``adiabatic_margin``.

    A site sum ``H = sum_j h_j`` over ``n`` spins (``h_meas.site`` set) is
    reported from its two-level site ``h`` alone, by a structural identity.
    The levels of ``H`` are the sectors with ``l`` spins in the upper level of
    ``h``; neighbouring sectors lie the site gap ``g`` apart, so ``eps_min``
    is the site's.  ``dH/dt = sum_j dh_j/dt`` flips one spin at a time: a
    product eigenvector couples to ``n`` states, each with
    ``|<1|dh/dt|0>|^2 / (coupling g)^2``, which is the site's ``alpha`` from
    either of its two levels.  So ``alpha_max`` is ``n`` times the site's.
    The identity needs a two-level site: with more site levels a spin's share
    depends on its level, and distinct configurations can share an
    eigenvalue.  The gaps are held to the chain's tolerance,
    ``degeneracy_tol`` or else ``n`` times the site's own, as
    :func:`zenojump.models.spin_chain_frame` resolves it.
    """
    pol = default_policy(policy)
    coupling = _check_coupling(coupling)
    grid = _check_grid(grid)
    if h_meas.site is None:
        return _report(h_meas, coupling, grid, pol, degeneracy_tol, 1)
    return _report(h_meas.site, coupling, grid, pol, degeneracy_tol, h_meas.dim.bit_length() - 1)


def _report(
    op: TimeDependentOperator,
    coupling: float,
    grid: np.ndarray,
    pol: NumericPolicy,
    degeneracy_tol: float | None,
    n_sites: int,
) -> AdiabaticityReport:
    """:func:`adiabaticity_report` of ``op``, or of the sum of ``op`` over ``n_sites`` spins."""
    vals, _, hdot, first, eps, tol = _spectral_samples(op, grid, None, pol, midpoints=False)
    if degeneracy_tol is None:
        limit = n_sites * tol
    else:
        limit = _resolve_degeneracy_tol(vals, 0.0, degeneracy_tol, pol)
        if limit < tol:
            first, eps = _cluster(vals, limit)
    starts = np.flatnonzero(first)
    node = starts // first.shape[1]
    gaps = np.diff(eps.ravel()[starts])
    inner = node[1:] == node[:-1]
    close = inner & (gaps < limit)
    if np.any(close):
        t = grid[node[1:][close][0]]
        raise NumericalError(
            f"levels closer than the degeneracy tolerance at node t={t:.9g}; "
            f"transition coefficients are undefined"
        )
    # No transition pairs anywhere leaves eps_min infinite and the ratio 0.
    eps_min = float(np.min(gaps[inner], initial=np.inf))

    # |alpha_mn|^2 for every pair of eigenvectors in distinct levels, summed
    # over the targets and averaged over the source level's basis.
    labels = np.cumsum(first, axis=1)
    other = labels[:, :, None] != labels[:, None, :]
    bohr = np.where(other, coupling * (eps[:, :, None] - eps[:, None, :]), 1.0)
    rows = np.where(other, np.abs(hdot) ** 2 / bohr**2, 0.0).sum(axis=2)
    sizes = np.diff(np.append(starts, first.size))
    alpha_max = n_sites * float(np.max(np.add.reduceat(rows.ravel(), starts) / sizes))
    ratio = alpha_max / eps_min
    return AdiabaticityReport(
        alpha_max=alpha_max,
        eps_min=eps_min,
        ratio=ratio,
        coupling=coupling,
        margin=pol.adiabatic_margin,
        adiabatic=bool(ratio <= pol.adiabatic_margin * coupling**2),
    )

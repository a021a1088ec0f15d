"""Dense operator primitives.

Operators are plain complex ``numpy`` arrays; the functions here validate the
structural invariants (hermiticity, projector idempotence, density
positivity) against a :class:`~zenojump.policy.NumericPolicy` and provide the
small set of exact-linear-algebra operations the rest of the package builds
on.  All eigenvector phases are fixed deterministically so repeated runs
produce bit-identical output.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .policy import NumericPolicy, default_policy

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "max_norm",
    "check_hermitian",
    "check_projector",
    "check_density",
    "eigh",
    "matrix_exp_unitary",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    return a


def as_square_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries or raise."""
    a = _square(m)
    if not np.isfinite(a).all():
        raise ValidationError("matrix has a non-finite entry")
    return a


def max_norm(m) -> float:
    """Entrywise max-abs norm."""
    a = np.asarray(m)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def _row_sums(stack: np.ndarray) -> np.ndarray:
    """``stack.sum(axis=2)`` of a ``(K, d, d)`` stack as a fold along the node axis, one add per
    column slice in turn from zero, where numpy sums each short row in its own inner loop (ten
    times the arithmetic at ``d = 2``).  Below 8 columns that is numpy's order, bit for bit;
    from 8 on numpy adds pairwise, and the two differ by rounding alone."""
    return sum(np.moveaxis(stack, 2, 0), 0.0)


def _outer(ufunc, rows: np.ndarray) -> np.ndarray:
    """``ufunc(rows[:, :, None], rows[:, None, :])`` of a ``(K, d)`` array as a contiguous stack formed
    node axis last: one pass of length ``K`` per entry, where the broadcast takes one of length ``d``."""
    t = np.ascontiguousarray(rows.T)
    return np.ascontiguousarray(ufunc(t[:, None], t[None, :]).transpose(2, 0, 1))


#: half the largest float: a matrix scaled below it has a finite hermiticity defect
_HALF_MAX = np.finfo(float).max / 2.0


def check_hermitian(m, policy: NumericPolicy | None = None) -> np.ndarray:
    """Validate hermiticity within ``hermitian_tol * (1 + |M|)``.

    A ``(K, d, d)`` stack is checked as one array, each matrix against its own
    bound, and the first one that fails is named.
    """
    pol = default_policy(policy)
    a = np.asarray(m, dtype=complex)
    if not a.size:
        raise ValidationError(f"expected a non-empty matrix, got shape {a.shape}")
    if a.ndim == 3 and a.shape[1] == a.shape[2]:
        with np.errstate(over="ignore"):  # a defect beyond float range is inf, and fails
            defect = np.abs(a - a.conj().swapaxes(1, 2))
        # an entry within tol (1 + |M_ij|) is within its matrix's bound: no per-matrix maxima unless one misses
        if (defect <= pol.hermitian_tol * (1.0 + np.abs(a))).all():
            return a
        defect = defect.max(axis=(1, 2))
        bad = np.flatnonzero(~(defect <= pol.hermitian_tol * (1.0 + np.abs(a).max(axis=(1, 2)))))
        if bad.size:
            k = int(bad[0])
            raise ValidationError(
                f"matrix {k} of the stack is not Hermitian: defect {defect[k]:.3e} "
                f"exceeds {pol.hermitian_tol:.1e} * (1 + max|M|)"
            )
        return a
    a = _square(a)
    # Python floats: a numpy scalar would warn where the bound overflows to inf
    scale = float(np.abs(a).max())
    if scale <= _HALF_MAX:
        defect = float(np.abs(a - a.conj().T).max())
    else:  # a defect beyond float range is inf, and fails
        with np.errstate(over="ignore", invalid="ignore"):
            defect = float(np.abs(a - a.conj().T).max())
    # NaN compares false, so a non-finite entry fails the check (and is
    # reported as a hermiticity defect rather than by as_square_matrix)
    if not (defect <= pol.hermitian_tol * (1.0 + scale)):
        raise ValidationError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds "
            f"{pol.hermitian_tol:.1e} * (1 + max|M|)"
        )
    return a


def check_projector(m, policy: NumericPolicy | None = None) -> np.ndarray:
    """Validate an orthogonal projector: Hermitian, idempotent, integer trace."""
    pol = default_policy(policy)
    a = as_square_matrix(m)
    herm = max_norm(a - a.conj().T)
    if herm > pol.projector_tol:
        raise ValidationError(f"projector is not Hermitian: defect {herm:.3e}")
    idem = max_norm(a @ a - a)
    if idem > pol.projector_tol:
        raise ValidationError(f"projector is not idempotent: defect {idem:.3e}")
    tr = a.trace().real
    if abs(tr - round(tr)) > pol.rank_tol:
        raise ValidationError(f"projector trace {tr!r} is not within {pol.rank_tol:.1e} of an integer")
    return a


def check_density(m, policy: NumericPolicy | None = None) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, positive semidefinite."""
    pol = default_policy(policy)
    a = check_hermitian(_square(m), policy)  # one matrix, though a stack passes check_hermitian
    with np.errstate(over="ignore"):  # a trace beyond float range is inf, and fails
        tr = a.trace()
    if abs(tr - 1.0) > pol.trace_tol:
        raise ValidationError(f"density matrix trace {tr} differs from 1 by more than {pol.trace_tol:.1e}")
    lowest = float(np.linalg.eigvalsh(a)[0])
    if lowest < -pol.psd_tol:
        raise ValidationError(f"density matrix has eigenvalue {lowest:.3e} below -{pol.psd_tol:.1e}")
    return a


def _eigh2(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenpairs of a ``(..., 2, 2)`` Hermitian stack ``[[p, l*], [l, q]]``,
    read from the diagonal's real part and the lower triangle, as LAPACK reads it.

    The eigenvalues are ``mean -+ r``, ``mean = (p + q)/2``,
    ``r = (half^2 + |l|^2)^(1/2)``, ``half = (p - q)/2``.  For ``half > 0``
    the lower eigenvector is ``(-l*, half + r)``, the longer of the two null
    vectors of ``H - lam_-`` and free of cancellation, and the upper one its
    orthogonal partner ``(half + r, l)``; otherwise these are the vectors of
    the reflected matrix ``[[q, l], [l*, p]]`` with their rows swapped.  The
    work runs on ``H`` scaled by a power of two to read values below 1, so the
    scaling is exact and no intermediate leaves float range; an eigenvalue
    beyond float range comes out as ``inf``.  Exact degeneracy gives the
    identity columns.  The columns are phase-fixed as :func:`eigh` states, on
    arrays that run along the stack, then packed once.  Only exact or
    correctly rounded operations enter, so a stack's slice equals the
    single-matrix call bit for bit.
    """
    p, q, lr, li = a[..., 0, 0].real, a[..., 1, 1].real, a[..., 1, 0].real, a[..., 1, 0].imag
    exp = np.frexp(np.maximum(np.maximum(np.abs(p), np.abs(q)), np.maximum(np.abs(lr), np.abs(li))))[1]
    p, q, lr, li = (np.ldexp(x, -exp) for x in (p, q, lr, li))
    half, mean, off = (p - q) / 2.0, (p + q) / 2.0, lr * lr + li * li
    r = np.sqrt(half * half + off)
    with np.errstate(over="ignore"):  # an eigenvalue beyond float range is inf
        vals = np.ldexp(mean[..., None] + np.multiply.outer(r, [-1.0, 1.0]), exp[..., None])
    up = half > 0.0
    big = np.abs(half) + r
    big = np.where(big > 0.0, big, 1.0)  # half = r = 0: the identity columns
    norm = np.sqrt(big * big + off)
    b, c = big / norm, lr / norm + 1j * (np.where(up, li, -li) / norm)  # c = l / norm, or l* / norm on the reflection
    # Each column holds b > 0, its own modulus, and one entry of modulus |c| = |-c*|: (-c*, b) and (b, c),
    # rows swapped where not up.  The arrays run (column, ...), so the pivot rule runs along the stack.
    size, other, b_first = np.abs(c), np.array([-c.conj(), c]), np.array([~up, up])
    pivot = np.where((b > size) | ((b == size) & b_first), b, other)  # b, on a tie if it comes first
    phase = pivot / np.abs(pivot)
    b, other = b / phase, other / phase
    vecs = np.empty_like(a)  # laid out as the input: a stack of entry planes stays one
    vecs[..., 0, :], vecs[..., 1, :] = np.where(b_first, b, other).T, np.where(b_first, other, b).T
    return vals, vecs


def eigh(m, policy: NumericPolicy | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix or a ``(K, d, d)`` stack.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    each eigenvector column divided by its pivot's phase ``p / |p|``, the
    pivot its largest-magnitude entry (the first on a tie), so the output is
    deterministic across runs and platforms; both are stacked along the
    leading axis for a stack input.  Every matrix passes the hermiticity check of
    :func:`check_hermitian`; the first one that fails raises
    :class:`ValidationError`.  The solver follows the shape: a ``2 x 2``
    matrix or stack takes the closed form of :func:`_eigh2`, any other size
    one LAPACK sweep over the stack.  Either way each slice of a stack's
    result equals that of the single-matrix call.
    """
    a = check_hermitian(m, policy)
    if a.shape[-1] == 2:
        return _eigh2(a)
    vals, vecs = np.linalg.eigh(a)
    idx = np.abs(vecs).argmax(axis=-2)  # one matrix: the diagonal of its pivot rows, cheaper than take_along_axis
    pivots = vecs[idx].diagonal() if vecs.ndim == 2 else np.take_along_axis(vecs, idx[:, None, :], axis=1)
    return vals, vecs / (pivots / np.abs(pivots))


def matrix_exp_unitary(h, dt: float, policy: NumericPolicy | None = None) -> np.ndarray:
    """``exp(-i * H * dt)`` for Hermitian ``H`` via eigendecomposition; a ``dt``
    that is not finite raises :class:`ValidationError`."""
    dt = float(dt)
    if not math.isfinite(dt):
        raise ValidationError(f"dt must be finite, got {dt!r}")
    vals, vecs = eigh(h, policy)
    phases = np.exp(-1j * vals * dt)
    return (vecs * phases) @ vecs.conj().T


def _stack_matmul(a, b) -> np.ndarray:
    """``a @ b`` over broadcast stacks; a contraction of length 1 or 2 is summed index by
    index from broadcast products, since a stacked ``@`` costs about 0.3 us per matrix.
    Those products run in memory order: along a trailing axis on a node-first stack, along the nodes on entry planes."""
    if a.shape[-1] > 2:
        return a @ b
    out = a[..., :, :1] * b[..., :1, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j : j + 1] * b[..., j : j + 1, :]
    return out


def _bond_sum(terms, sites, n_sites: int, rows, cols) -> np.ndarray:
    """``sum_{t in sites}`` of the ``(..., 2^k, 2^k)`` ``k``-spin ``terms`` on the
    spins of each tuple ``t`` (pairs for a bond, 1-tuples for a site field),
    between the computational states ``rows`` and ``cols``.

    A state is an integer whose bit ``n_sites - 1 - j`` is spin ``j`` (spin 0
    leads, as in a Kronecker product); a term on spins ``t = (i, j, ...)`` has
    entry ``term[x_i x_j..., y_i y_j...]`` (binary, spin ``i`` leading) between
    states ``x`` and ``y`` that agree on every other spin.  Each tuple is
    scattered by bit operations into the ``(..., len(rows), len(cols))``
    result in one indexed add: its entries land on distinct cells.
    """
    terms, rows, cols = np.asarray(terms), np.asarray(rows), np.asarray(cols)
    out = np.zeros((*terms.shape[:-2], len(rows), len(cols)), dtype=terms.dtype)
    row_of = np.full(2**n_sites, -1)
    row_of[rows] = np.arange(len(rows))
    for t in sites:
        bits, weights = 1 << (n_sites - 1 - np.array(t)), 1 << np.arange(len(t))[::-1]
        beta = ((cols[:, None] & bits) != 0) @ weights  # each column's state on the tuple's spins
        spread = ((np.arange(2 ** len(t))[:, None] & weights) != 0) @ bits  # each term row's bits in place
        row = row_of[(cols & ~bits.sum()) | spread[:, None]]
        alpha, hit = np.nonzero(row >= 0)
        out[..., row[alpha, hit], hit] += terms[..., alpha, beta[hit]]
    return out

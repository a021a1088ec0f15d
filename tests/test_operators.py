"""Unit tests for operator primitives and the tolerance policy."""

import decimal
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import zenojump as zj
from zenojump.policy import ENV_VAR

from properties import random_hermitian


def test_pauli_matrices_square_to_identity():
    for sigma in (zj.SIGMA_X, zj.SIGMA_Y, zj.SIGMA_Z):
        assert np.allclose(sigma @ sigma, np.eye(2))


def test_as_square_matrix_rejects_non_square():
    with pytest.raises(zj.ValidationError):
        zj.operators.as_square_matrix(np.zeros((2, 3)))
    with pytest.raises(zj.ValidationError):
        zj.operators.as_square_matrix(np.zeros(4))


def test_check_hermitian_accepts_and_rejects():
    rng = np.random.default_rng(11)
    h = random_hermitian(rng, 5)
    assert np.array_equal(zj.check_hermitian(h), h)
    h_bad = h.copy()
    h_bad[0, 1] += 1e-6
    with pytest.raises(zj.ValidationError, match="not Hermitian"):
        zj.check_hermitian(h_bad)
    # Loosening the policy admits the same matrix.
    loose = zj.NumericPolicy(hermitian_tol=1e-3)
    zj.check_hermitian(h_bad, loose)


def test_check_unitary():
    # a level basis is checked for unitarity against projector_tol
    from zenojump.decomposition import _check_level_basis

    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    _check_level_basis(q, zj.NumericPolicy())
    with pytest.raises(zj.ValidationError, match="not unitary"):
        _check_level_basis(1.001 * q, zj.NumericPolicy())


def test_check_projector_and_rank():
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    assert zj.check_projector(p).trace().real == 2.0
    with pytest.raises(zj.ValidationError, match="idempotent"):
        zj.check_projector(0.5 * p)
    skew = p.copy()
    skew[0, 1] = 1e-6
    with pytest.raises(zj.ValidationError, match="Hermitian"):
        zj.check_projector(skew)


def test_check_density():
    rho = np.diag([0.7, 0.3, 0.0]).astype(complex)
    assert zj.check_density(rho) is not None
    with pytest.raises(zj.ValidationError, match="trace"):
        zj.check_density(2.0 * rho)
    neg = np.diag([1.1, -0.1, 0.0]).astype(complex)
    with pytest.raises(zj.ValidationError, match="eigenvalue"):
        zj.check_density(neg)


def test_eigh_reconstructs_and_orders():
    rng = np.random.default_rng(13)
    for _ in range(20):
        h = random_hermitian(rng, 6)
        vals, vecs = zj.operators.eigh(h)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.max(np.abs((vecs * vals) @ vecs.conj().T - h)) < 1e-10


def test_eigh_phase_convention_is_deterministic():
    rng = np.random.default_rng(14)
    h = random_hermitian(rng, 5)
    _, vecs_a = zj.operators.eigh(h)
    _, vecs_b = zj.operators.eigh(h.copy())
    assert np.array_equal(vecs_a, vecs_b)
    # Largest-magnitude entry of each column is real positive.
    idx = np.argmax(np.abs(vecs_a), axis=0)
    pivots = vecs_a[idx, np.arange(vecs_a.shape[1])]
    assert np.all(pivots.real > 0)
    assert np.max(np.abs(pivots.imag)) < 1e-12


@pytest.mark.parametrize("dim", range(1, 9))
def test_eigh_of_one_matrix_equals_its_slice_of_a_stack_bit_for_bit(dim):
    rng = np.random.default_rng(16 + dim)
    basis = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    degenerate = (basis * np.repeat([-1.0, 2.0], [dim // 2, dim - dim // 2])) @ basis.conj().T
    for m in (random_hermitian(rng, dim), degenerate, np.eye(dim)):
        vals, vecs = zj.operators.eigh(m)
        stack_vals, stack_vecs = zj.operators.eigh(m[None])
        assert np.array_equal(vals, stack_vals[0]) and np.array_equal(vecs, stack_vecs[0])


def test_the_hermitian_bound_may_overflow_without_a_warning():
    # the bound tol * (1 + max|M|) exceeds the float range here
    m = [[0.0, 0.0], [0.0, 4.592412528299992e117]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zj.check_hermitian(m, zj.NumericPolicy(hermitian_tol=3.91448530327867e190))


def test_eigh_rejects_a_non_finite_or_empty_matrix():
    with pytest.raises(zj.ValidationError, match="not Hermitian"):
        zj.operators.eigh(np.array([[1.0, 0.0], [0.0, np.nan]]))
    with pytest.raises(zj.ValidationError, match="non-empty"):
        zj.operators.eigh(np.zeros((0, 0)))


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
def test_matrix_exp_unitary_rejects_a_step_that_is_not_finite(dt):
    with pytest.raises(zj.ValidationError, match="dt must be finite"):
        zj.operators.matrix_exp_unitary(zj.SIGMA_X, dt)


def test_matrix_exp_unitary_matches_scipy():
    rng = np.random.default_rng(15)
    for _ in range(10):
        h = random_hermitian(rng, 5)
        dt = float(rng.uniform(0.1, 2.0))
        u = zj.operators.matrix_exp_unitary(h, dt)
        ref = scipy.linalg.expm(-1j * h * dt)
        assert np.max(np.abs(u - ref)) < 1e-10


def test_policy_from_string():
    base = zj.NumericPolicy()
    same = zj.NumericPolicy.from_string("", base)
    assert same == base
    tweaked = zj.NumericPolicy.from_string("frame_tol=1e-4, projector_tol=1e-6", base)
    assert tweaked.frame_tol == 1e-4
    assert tweaked.projector_tol == 1e-6
    assert tweaked.hermitian_tol == base.hermitian_tol
    with pytest.raises(ValueError, match="unknown policy key"):
        zj.NumericPolicy.from_string("no_such_key=1")
    with pytest.raises(ValueError, match="key=value"):
        zj.NumericPolicy.from_string("frame_tol")


@pytest.mark.parametrize("text", ["frame_tol=abc", "frame_tol=nan", "psd_tol=inf", "degeneracy_rel=nan"])
def test_policy_from_string_rejects_bad_values(text):
    with pytest.raises(zj.ConfigError, match="expected a finite number"):
        zj.NumericPolicy.from_string(text)


def test_stacks_pass_the_hermitian_check_but_not_the_density_check():
    stack = np.stack([np.eye(2) / 2.0, zj.SIGMA_X, np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(zj.ValidationError, match="^matrix 2 of the stack is not Hermitian"):
        zj.check_hermitian(stack)
    assert np.array_equal(zj.check_hermitian(stack[:2]), stack[:2])
    with pytest.raises(zj.ValidationError, match="square matrix"):
        zj.check_density(stack[:1])


def test_hermitian_checks_reject_non_finite_entries():
    bad = np.array([[0.0, np.nan], [np.nan, 0.0]])
    with pytest.raises(zj.ValidationError, match="not Hermitian"):
        zj.check_hermitian(bad)
    with pytest.raises(zj.ValidationError, match="matrix 1 of the stack"):
        zj.eigh(np.stack([np.eye(2), bad]))
    with pytest.raises(zj.ValidationError):
        zj.decompose(bad)


def test_policy_from_env(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "psd_tol=1e-7")
    assert zj.NumericPolicy.from_env().psd_tol == 1e-7
    monkeypatch.delenv(ENV_VAR)
    assert zj.NumericPolicy.from_env() == zj.NumericPolicy()


@pytest.mark.parametrize("text", ["frame_tol=-1", "hermitian_tol=0", "qze_margin=-0.0"])
def test_policy_from_string_rejects_non_positive_values(text):
    key = text.partition("=")[0]
    with pytest.raises(zj.ConfigError, match=f"'{key}': must be positive"):
        zj.NumericPolicy.from_string(text)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("field", zj.NumericPolicy.field_names())
def test_numeric_policy_rejects_a_bad_field_on_construction(field, bad):
    # A NaN projector_tol once let check_projector pass diag(2, 0), and a NaN
    # degeneracy_rel merged distinct levels: no such policy can be built now.
    with pytest.raises(zj.ValidationError, match=f"^{field}: must be positive and finite"):
        zj.NumericPolicy(**{field: bad})
    with pytest.raises(zj.ValidationError, match=f"^{field}: must be positive and finite"):
        zj.NumericPolicy().replace(**{field: bad})


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_square_matrix_rejects_non_finite_entries(bad):
    with pytest.raises(zj.ValidationError, match="non-finite"):
        zj.operators.as_square_matrix([[bad, 0.0], [0.0, 1.0]])
    op = zj.TimeDependentOperator(
        evaluator=lambda t: np.array([[bad, 0.0], [0.0, 1.0]]), horizon=(0.0, 1.0), dim=2
    )
    with pytest.raises(zj.ValidationError, match="non-finite"):
        op(0.5)
    with pytest.raises(zj.ValidationError, match="non-finite"):
        op.sample([0.0, 0.5])
    with pytest.raises(zj.ValidationError, match="non-finite"):
        zj.check_projector([[bad, 0.0], [0.0, 1.0]])


def _embedded_bond(term, *sites, n_sites):
    """``term`` on ``sites`` of ``n_sites`` (spin 0 leading) as a sum of Kronecker products."""
    out = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
    unit, k = np.eye(2), len(sites)
    for a in range(2**k):
        for b in range(2**k):
            factors = [np.eye(2)] * n_sites
            for q, site in enumerate(sites):
                factors[site] = np.outer(unit[(a >> (k - 1 - q)) & 1], unit[(b >> (k - 1 - q)) & 1])
            kron = np.eye(1)
            for f in factors:
                kron = np.kron(kron, f)
            out += term[a, b] * kron
    return out


@pytest.mark.parametrize("n_sites", [2, 3, 4, 5])
def test_bond_sum_equals_the_kronecker_embedding(n_sites):
    from itertools import permutations

    from zenojump.operators import _bond_sum

    rng = np.random.default_rng(70 + n_sites)
    states = np.arange(2**n_sites)
    # pairs, as a bond sums, then 1-tuples, as the chain field sums its sites, and on 3 spins triples
    for k in (2, 1) + ((3,) if n_sites == 3 else ()):
        terms = rng.normal(size=(3, 2**k, 2**k)) + 1j * rng.normal(size=(3, 2**k, 2**k))
        sites = list(permutations(range(n_sites), k))
        dense = _bond_sum(terms, sites, n_sites, states, states)
        for term, got in zip(terms, dense):
            ref = sum(_embedded_bond(term, *t, n_sites=n_sites) for t in sites)
            assert np.max(np.abs(got - ref)) <= 1e-13
        rows, cols = rng.permutation(states)[: 2**n_sites // 2], rng.permutation(states)[:3]
        assert np.array_equal(_bond_sum(terms, sites, n_sites, rows, cols), dense[:, rows][:, :, cols])


@pytest.mark.parametrize("inner", [1, 2, 3, 4, 5])
def test_stack_matmul_equals_matmul(inner):
    from zenojump.operators import _stack_matmul

    rng = np.random.default_rng(90 + inner)

    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    cases = [
        (draw(7, inner, inner), draw(inner, inner)),
        (draw(3, 7, inner, inner), draw(3, 1, inner, inner)),
        (draw(7, inner, inner).swapaxes(1, 2), draw(7, inner, inner).conj().swapaxes(1, 2)),
    ]
    for a, b in cases:
        ref = a @ b
        got = _stack_matmul(a, b)
        assert got.shape == ref.shape
        # rounding of a length-d dot product, relative to the sum of its term sizes
        assert np.all(np.abs(got - ref) <= 1e-15 * inner * (np.abs(a) @ np.abs(b)))


EPS = np.finfo(float).eps
#: absolute rounding of arithmetic on subnormal entries
TINY = 4 * np.finfo(float).smallest_subnormal
#: finite entries over the whole float range, subnormals and signed zeros included
ENTRY = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)


@st.composite
def hermitian_2x2(draw):
    p, q, re, im = (draw(ENTRY) for _ in range(4))
    return np.array([[p, complex(re, -im)], [complex(re, im), q]])


def _exact_eigenvalues(h) -> list[float]:
    """``mean -+ (half^2 + |l|^2)^(1/2)`` of ``[[p, l*], [l, q]]`` in 80-digit decimals, rounded once."""
    with decimal.localcontext(decimal.Context(prec=80)):
        p, q, re, im = (decimal.Decimal(float(x)) for x in (h[0, 0].real, h[1, 1].real, h[1, 0].real, h[1, 0].imag))
        half, mean = (p - q) / 2, (p + q) / 2
        r = (half * half + re * re + im * im).sqrt()
        return [float(mean - r), float(mean + r)]


def _assert_matches_lapack(h):
    """The closed-form 2 x 2 eigenpairs against ``np.linalg.eigh``, to a few ``eps ||H||``.

    Eigenvalues are held to the exact ones within ``4 eps ||H||`` and to
    LAPACK's within ``8 eps``: LAPACK's own miss reaches ``4.2 eps ||H||`` (at
    ``[[0, 1 - i], [1 + i, 6.93e16]]``).  Columns are compared as projectors
    ``v v^dagger``: where two entries of a column tie in magnitude, rounding
    picks the pivot, and so the phase.
    """
    vals, vecs = zj.eigh(h)
    ref_vals, ref_vecs = np.linalg.eigh(h)
    norm = zj.max_norm(h)
    assert np.max(np.abs(vals - _exact_eigenvalues(h))) <= 4 * EPS * norm + TINY
    assert np.max(np.abs(vals - ref_vals)) <= 8 * EPS * norm + TINY
    assert zj.max_norm(vecs.conj().T @ vecs - np.eye(2)) <= 8 * EPS
    assert zj.max_norm(h @ vecs - vecs * vals) <= 8 * EPS * norm + TINY
    if vals[1] / 2.0 - vals[0] / 2.0 > 0.5e-6 * norm:  # halves: the gap may leave float range
        for v, ref in zip(vecs.T, ref_vecs.T):
            assert zj.max_norm(np.outer(v, v.conj()) - np.outer(ref, ref.conj())) <= 1e-13
    assert vals[0] <= vals[1]
    for v in vecs.T:  # a largest entry, up to rounding, is real and positive
        top = v[np.abs(v) >= np.abs(v).max() * (1.0 - 4 * EPS)]
        assert np.any((top.real > 0.0) & (np.abs(top.imag) <= 4 * EPS))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(hermitian_2x2())
def test_two_level_eigh_matches_lapack(h):
    _assert_matches_lapack(h)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(hermitian_2x2(), min_size=1, max_size=19))
def test_two_level_eigh_of_a_stack_equals_its_single_matrix_calls_bit_for_bit(matrices):
    vals, vecs = zj.eigh(np.array(matrices))
    for m, v, u in zip(matrices, vals, vecs):
        single_vals, single_vecs = zj.eigh(m)
        assert np.array_equal(single_vals, v) and np.array_equal(single_vecs, u)


@pytest.mark.parametrize(
    "h",
    [
        [[1, 0], [0, -1]],
        [[-1, 0], [0, 1]],
        [[3, 0], [0, 3]],
        [[0, -2j], [2j, 0]],
        [[-0.0, complex(-0.0, -0.0)], [complex(-0.0, 0.0), 0.0]],
        [[1e308, 0], [0, -1e308]],
        [[5e-324, 5e-324], [5e-324, 0]],
        [[0, 5e-324], [5e-324, 5e-324]],
    ],
    ids=["ascending", "descending", "scalar", "imaginary", "signed-zeros", "huge", "subnormal", "subnormal-low"],
)
def test_two_level_eigh_edge_cases(h):
    h = np.array(h, dtype=complex)
    _assert_matches_lapack(h)
    if h[1, 0] == 0.0 and h[0, 0] == h[1, 1]:  # exact degeneracy: the identity columns
        assert np.array_equal(zj.eigh(h)[1], np.eye(2))


def test_a_two_level_eigenvalue_beyond_float_range_is_inf_without_a_warning():
    h = np.full((2, 2), 1e308, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, vecs = zj.eigh(h)
    assert vals.tolist() == np.linalg.eigh(h)[0].tolist() == [0.0, np.inf]
    assert zj.max_norm(vecs - np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)) <= EPS


@settings(derandomize=True, max_examples=100, deadline=None)
@given(hermitian_2x2(), st.floats(min_value=-10.0, max_value=10.0))
def test_two_level_matrix_exp_stays_unitary(h, dt):
    u = zj.operators.matrix_exp_unitary(h / max(zj.max_norm(h), 1.0), dt)
    assert zj.max_norm(u.conj().T @ u - np.eye(2)) <= 8 * EPS


@pytest.mark.parametrize("dim", [2, 3])
def test_a_defect_beyond_float_range_fails_the_hermitian_check_without_a_warning(dim):
    # the one-matrix check printed "overflow encountered in subtract" before its error
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 1], m[1, 0] = 1e308, -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in (zj.check_hermitian, zj.eigh):
            with pytest.raises(zj.ValidationError, match="not Hermitian: defect inf"):
                check(m)


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 7, 8, 17, 130])
def test_row_sums_equal_numpy_sums_bit_for_bit_below_eight_columns(dim):
    # numpy adds fewer than 8 terms in turn from zero; from 8 on it adds pairwise
    from zenojump.operators import _row_sums

    rng = np.random.default_rng(dim)
    count = 3 if dim > 100 else 300
    stack = rng.normal(size=(count, dim, dim)) * 10.0 ** rng.integers(-8, 9, size=(count, dim, dim))
    stack[: count // 3] = rng.integers(-2, 3, size=(count // 3, dim, dim))  # zeros that sum to zero
    stack[rng.random(stack.shape) < 0.15] = -0.0
    if dim < 8:
        stack[rng.random(stack.shape) < 0.02] = np.nan
        assert np.array_equal(_bits(_row_sums(stack)), _bits(stack.sum(axis=2)))
    else:
        stack = np.abs(stack)
        assert np.allclose(_row_sums(stack), stack.sum(axis=2), rtol=dim * 1e-16, atol=0.0)


@pytest.mark.parametrize("dim", [1, 2, 3, 16])
def test_an_outer_stack_equals_the_broadcast(dim):
    from zenojump.operators import _outer

    rng = np.random.default_rng(dim)
    rows = rng.normal(size=(50, dim))
    rows[::3, -1] = rows[::3, 0]  # equal entries
    rows[1::7] = -0.0
    rows[2::11, 0] = np.nan
    for ufunc in (np.equal, np.not_equal, np.subtract):
        out = _outer(ufunc, rows)
        assert out.flags.c_contiguous and np.array_equal(out, ufunc(rows[:, :, None], rows[:, None, :]), equal_nan=True)


def test_a_stack_passes_the_hermitian_check_entry_by_entry_or_matrix_by_matrix():
    # an entry off by more than tol (1 + |M_ij|) but within tol (1 + max|M|) still passes
    big = np.array([[1e6, 1e-7], [1e-7 + 1e-6j, 0.0]], dtype=complex)
    stack = np.stack([zj.SIGMA_X, big, zj.SIGMA_Z])
    assert zj.check_hermitian(stack) is not None
    stack[2, 0, 1] += 1e-9
    with pytest.raises(zj.ValidationError, match="matrix 2 of the stack is not Hermitian: defect 1.000e-09"):
        zj.check_hermitian(stack)

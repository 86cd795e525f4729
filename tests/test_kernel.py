import re
import warnings

import numpy as np
import pytest

from feastlib import (
    HermitianRci,
    RciTask,
    SymmetricRci,
    build_contour,
    feast_sy,
    feastinit,
    gauss_legendre,
)
from feastlib.kernel import (
    accumulate_subspace,
    filter_sort_flag,
    random_uniform,
    residual,
    trace_error,
)

from conftest import ScriptedCaller, gap_interval, random_symmetric

HELLO = np.array([[2.0, -1.0], [-1.0, 2.0]])


# --- pure helpers -----------------------------------------------------------


def test_trace_error_values():
    one_ulp = np.nextafter(4.0, 5.0)
    assert trace_error(4.0, one_ulp, -5.0, 5.0) == pytest.approx(1.776356839400251e-16, rel=1e-12)
    assert trace_error(4.0, 4.0, -5.0, 5.0) == 0.0
    assert trace_error(2.0, 1.0, -4.0, 2.0) == pytest.approx(0.25)


def test_residual_exact_pair():
    a = np.diag([1.0, 2.0, 5.0])
    x = np.array([0.0, 1.0, 0.0])
    col = x[:, np.newaxis]
    r = residual(a @ col, col, np.array([2.0]), 3.0)
    assert r.shape == (1,)
    assert r[0] <= 1e-14


def test_residual_zero_denominator_is_inf():
    a = np.eye(2)
    col = np.array([[1.0], [0.0]])
    r = residual(a @ col, 0.0 * col, np.array([1.0]), 1.0)
    assert np.isinf(r[0])


def test_residual_linear_in_perturbation(rng):
    a = np.diag([1.0, 2.0, 5.0])
    x = np.array([0.0, 1.0, 0.0])
    d = rng.normal(size=3)
    d -= d[1] * x  # keep the eigen-component fixed
    cols = np.stack([x + 1e-6 * d, x + 2e-6 * d], axis=1)
    r1, r2 = residual(a @ cols, cols, np.array([2.0, 2.0]), 3.0)
    assert r2 / r1 == pytest.approx(2.0, rel=1e-4)


def test_accumulate_zero_increment():
    q = np.ones((3, 2))
    accumulate_subspace(q, np.zeros((3, 2), dtype=complex), 0.5, 1.0, 0.3)
    assert np.array_equal(q, np.ones((3, 2)))


def test_accumulate_unit_coefficient():
    # w=2, r=1, theta=0 makes the symmetric update q -= work2
    q = np.zeros((2, 2))
    work2 = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    accumulate_subspace(q, work2, 2.0, 1.0, 0.0)
    assert np.array_equal(q, -work2.real)


def test_accumulate_shape_mismatch():
    with pytest.raises(ValueError):
        accumulate_subspace(np.zeros((3, 2)), np.zeros((2, 2), dtype=complex),
                            1.0, 1.0, 0.0)


def _rational_filter(lam, contour):
    coeff = contour.radius * np.exp(1j * contour.theta)
    return float(np.sum(-(contour.weights / 2.0) * (coeff / (contour.z - lam)).real))


def test_accumulation_matches_rational_filter(rng):
    # Diagonal standard problem: the accumulated subspace must equal the
    # pointwise rational filter applied to Y.
    lams = np.array([0.0, 10.0])
    contour = build_contour(gauss_legendre(8), -1.0, 1.0)
    y = rng.normal(size=(2, 2))
    q = np.zeros((2, 2))
    for e in range(len(contour)):
        work2 = y / (contour.z[e] - lams)[:, np.newaxis]
        accumulate_subspace(q, work2, contour.weights[e], contour.radius,
                            contour.theta[e])
    rho_in = _rational_filter(0.0, contour)
    rho_out = _rational_filter(10.0, contour)
    assert np.abs(q[0] - rho_in * y[0]).max() <= 1e-12
    assert np.abs(q[1] - rho_out * y[1]).max() <= 1e-12
    # filter magnitude ~1 inside (sign from the accumulation convention),
    # tiny well outside
    assert abs(rho_in) >= 1.0 - 1e-6
    assert abs(rho_out) <= 1e-3


def test_hermitian_two_solve_filter_matches_symmetric(rng):
    # For a real eigenvalue the two-solve accumulation reduces to the same
    # rational filter as the single-solve symmetric formula.
    lam = 0.3
    contour = build_contour(gauss_legendre(8), -1.0, 1.0)
    y = (rng.normal(size=(1, 1)) + 1j * rng.normal(size=(1, 1)))
    q = np.zeros((1, 1), dtype=complex)
    for e in range(len(contour)):
        direct = y / (contour.z[e] - lam)
        adjoint = y / (np.conj(contour.z[e]) - lam)
        accumulate_subspace(q, direct, contour.weights[e], contour.radius,
                            contour.theta[e], hermitian=True)
        accumulate_subspace(q, adjoint, contour.weights[e], contour.radius,
                            -contour.theta[e], hermitian=True)
    rho = _rational_filter(lam, contour)
    assert np.abs(q - rho * y).max() <= 1e-12


def test_filter_sort_flag_orders_ascending():
    e = np.array([3.0, 1.0])
    x = np.array([[30.0, 10.0], [31.0, 11.0]])
    res = np.array([0.3, 0.1])
    m = filter_sort_flag(e, x, res, -5.0, 5.0, 1e-12)
    assert m == 2
    assert np.array_equal(e, [1.0, 3.0])
    assert np.array_equal(x[0], [10.0, 30.0])
    assert np.array_equal(res, [0.1, 0.3])


def test_filter_sort_flag_outside():
    e = np.array([7.0])
    x = np.zeros((1, 1))
    res = np.array([0.0])
    assert filter_sort_flag(e, x, res, -5.0, 5.0, 1e-12) == 0
    assert e[0] == 7.0


def test_filter_sort_flag_spurious_last():
    e = np.array([1.0, 2.0, 9.0])
    x = np.array([[10.0, 20.0, 90.0]])
    res = np.array([1e-12, -1.0, 1e-11])
    m = filter_sort_flag(e, x, res, 0.0, 5.0, 1e-12)
    assert m == 1
    assert np.array_equal(e, [1.0, 9.0, 2.0])
    assert np.array_equal(x[0], [10.0, 90.0, 20.0])
    assert res[2] == -1.0


def test_filter_sort_flag_inf_residual_is_spurious():
    e = np.array([1.0, 2.0])
    x = np.zeros((1, 2))
    res = np.array([np.inf, 1e-12])
    m = filter_sort_flag(e, x, res, 0.0, 5.0, 1e-12)
    assert m == 1
    assert e[0] == 2.0
    assert res[1] == -1.0


def test_random_stream_is_counter_based():
    a = random_uniform(7, 0, 10)
    b = random_uniform(7, 4, 6)
    assert np.array_equal(a[4:], b)
    assert np.all((a >= -1.0) & (a < 1.0))
    assert not np.array_equal(random_uniform(8, 0, 10), a)


# --- protocol conformance ----------------------------------------------------


def _expected_trace(ne, loops, hermitian=False, adjoint_capable=True, warm=False,
                    blocks=1):
    """Expected task-code sequence for a full solve."""
    point = [10, 11]
    if hermitian:
        point = [10, 11, 21] if adjoint_capable else [10, 20, 11, 21]
    per_loop = point * ne + [30] * blocks + [40] * blocks
    out = [40] * blocks if warm else []
    for k in range(loops + 1):
        out += per_loop
        if k < loops:
            out += [40] * blocks
    return out


def test_srci_task_grammar_helloworld():
    kernel = SymmetricRci(2, 2, -5.0, 5.0)
    caller = ScriptedCaller(kernel, HELLO)
    result = caller.run()
    assert result.info == 0
    assert result.loop == 1
    assert caller.trace == _expected_trace(8, loops=1)
    for first, count, m0 in caller.fpm_ranges:
        assert 1 <= first and first + count - 1 <= m0


def test_srci_matches_dense_driver_bitwise():
    # A hand-written caller using the dense module's own factor/solve must
    # reproduce the driver's output bit for bit (same seed).
    from feastlib import feast_sy
    from feastlib.dense import _DenseFactor

    kernel = SymmetricRci(2, 2, -5.0, 5.0)
    factor = None
    task = kernel.step()
    while task != RciTask.DONE:
        if task == RciTask.FACTORIZE:
            factor = _DenseFactor((kernel.ze * np.eye(2, dtype=complex) - HELLO)[np.newaxis])
        elif task == RciTask.SOLVE:
            kernel.work2[:, :kernel.m0] = factor.solve(kernel.work2[:, :kernel.m0])
        elif task == RciTask.MULTIPLY_A:
            s = kernel.multiply_columns
            kernel.work1[:, s] = HELLO @ kernel.x[:, s]
        elif task == RciTask.MULTIPLY_B:
            s = kernel.multiply_columns
            kernel.work1[:, s] = kernel.x[:, s].copy()
        task = kernel.step()
    res_rci = kernel.result
    res_drv = feast_sy(HELLO, -5.0, 5.0, 2)
    assert res_rci.e.tobytes() == res_drv.e.tobytes()
    assert res_rci.x.tobytes() == res_drv.x.tobytes()
    assert res_rci.res.tobytes() == res_drv.res.tobytes()


def test_srci_deterministic_trace_and_results(rng):
    a = random_symmetric(12, rng)
    ev = np.linalg.eigvalsh(a)
    emin, emax = gap_interval(ev, 3, 7)
    runs = []
    for _ in range(2):
        kernel = SymmetricRci(12, 8, emin, emax, seed=99)
        caller = ScriptedCaller(kernel, a)
        res = caller.run()
        runs.append((caller.trace, res))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1].e.tobytes() == runs[1][1].e.tobytes()
    assert runs[0][1].x.tobytes() == runs[1][1].x.tobytes()


def test_blocked_multiplies_cover_subspace(rng):
    a = random_symmetric(10, rng)
    ev = np.linalg.eigvalsh(a)
    emin, emax = gap_interval(ev, 2, 5)
    kernel = SymmetricRci(10, 8, emin, emax, block_size=3)
    caller = ScriptedCaller(kernel, a)
    result = caller.run()
    assert result.info in (0, 3)
    # each multiply pass requests columns 1-3, 4-6, 7-8
    per_pass = [(1, 3), (4, 3), (7, 2)]
    seen = [(f, c) for f, c, _ in caller.fpm_ranges]
    assert seen[:3] == per_pass
    count30 = caller.trace.count(30)
    count40 = caller.trace.count(40)
    assert count30 % 3 == 0 and count40 % 3 == 0


def test_hrci_adjoint_capable_never_gets_task_20(rng):
    a = np.diag([1.0, 3.0]).astype(complex)
    kernel = HermitianRci(2, 2, -5.0, 5.0, adjoint_capable=True)
    caller = ScriptedCaller(kernel, a)
    result = caller.run()
    assert result.info == 0
    assert result.m == 2
    assert np.allclose(np.sort(result.e[:2]), [1.0, 3.0], atol=1e-10)
    assert 20 not in caller.trace
    assert 21 in caller.trace


def test_hrci_without_adjoint_capability_gets_task_20():
    a = np.diag([1.0, 3.0]).astype(complex)
    kernel = HermitianRci(2, 2, -5.0, 5.0, adjoint_capable=False)
    caller = ScriptedCaller(kernel, a)
    result = caller.run()
    assert result.info == 0
    # every adjoint solve is preceded by an adjoint factorization
    assert caller.trace.count(20) == caller.trace.count(21) > 0
    assert caller.trace == _expected_trace(8, result.loop, hermitian=True,
                                           adjoint_capable=False)


def test_hrci_unitary_embedding_preserves_spectrum(rng):
    # Unitary similarity of diag(1, 3): same spectrum, dense Hermitian matrix.
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(g)
    a = u @ np.diag([1.0, 3.0]).astype(complex) @ u.conj().T
    kernel = HermitianRci(2, 2, -5.0, 5.0)
    result = ScriptedCaller(kernel, a).run()
    assert result.info == 0
    assert result.m == 2
    assert np.abs(result.e[:2] - [1.0, 3.0]).max() <= 1e-12
    assert max(result.res[:2]) <= 1e-12


class _RankDeficientBCaller(ScriptedCaller):
    """Zeroes the last working column of the first B-projection, so the
    projected B loses rank exactly once and the subspace must shrink."""

    def run(self):
        k = self.kernel
        n = self.a.shape[0]
        sabotaged = False
        shifted = None
        task = k.step()
        while task != RciTask.DONE:
            if task == RciTask.FACTORIZE:
                shifted = k.ze * np.eye(n) - self.a
            elif task == RciTask.SOLVE:
                k.work2[:, :k.m0] = np.linalg.solve(shifted, k.work2[:, :k.m0])
            elif task == RciTask.MULTIPLY_A:
                s = k.multiply_columns
                k.work1[:, s] = self.a @ k.x[:, s]
            elif task == RciTask.MULTIPLY_B:
                s = k.multiply_columns
                k.work1[:, s] = k.x[:, s]
                if not sabotaged and s.stop >= k.m0:
                    k.work1[:, k.m0 - 1] = 0.0
                    sabotaged = True
            task = k.step()
        return k.result


def test_subspace_shrinks_on_rank_deficient_projection():
    a = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    kernel = SymmetricRci(6, 5, 0.5, 3.5, seed=3)
    result = _RankDeficientBCaller(kernel, a).run()
    # the projected B loses its last pivot once: m0 shrinks by one and the
    # solve continues on the leading block
    assert result.m0 == 4
    assert result.info == 0
    assert result.m == 3
    assert np.abs(np.sort(result.e[:3]) - [1.0, 2.0, 3.0]).max() <= 1e-8
    # columns beyond the shrunk subspace are zeroed
    assert np.all(result.x[:, 4:] == 0.0)
    assert np.all(result.e[4:] == 0.0)


def test_hrci_scalar_problem():
    kernel = HermitianRci(1, 1, 0.0, 5.0)
    result = ScriptedCaller(kernel, np.array([[2.0 + 0j]])).run()
    assert result.info == 0
    assert result.m == 1
    assert result.e[0] == pytest.approx(2.0, abs=1e-12)
    assert result.res[0] <= 1e-12


def test_no_eigenvalue_in_interval_exits_after_first_projection():
    kernel = SymmetricRci(2, 2, 10.0, 20.0)
    caller = ScriptedCaller(kernel, HELLO)
    result = caller.run()
    assert result.info == 1
    assert result.m == 0
    assert result.loop == 0
    assert caller.trace == _expected_trace(8, loops=0)


def test_subspace_only_return():
    fpm = feastinit()
    fpm.set_slot(14, 1)
    kernel = SymmetricRci(2, 2, -5.0, 5.0, fpm=fpm, seed=11)
    caller = ScriptedCaller(kernel, HELLO)
    result = caller.run()
    assert result.info == 4
    assert result.loop == 0
    # one contour pass, no projections or multiplies
    assert caller.trace == [10, 11] * 8
    # X holds the accumulated subspace: recompute it directly
    y = random_uniform(11, 0, 4).reshape((2, 2), order="F")
    contour = build_contour(gauss_legendre(8), -5.0, 5.0)
    q = np.zeros((2, 2))
    for e in range(len(contour)):
        work2 = np.linalg.solve(contour.z[e] * np.eye(2) - HELLO, y.astype(complex))
        accumulate_subspace(q, work2, contour.weights[e], contour.radius,
                            contour.theta[e])
    assert np.abs(result.x - q).max() <= 1e-14


def test_reduced_failure_maps_to_minus3():
    # A caller that answers B-multiplies with zeros collapses the projected
    # B to zero: Cholesky fails at the first pivot and the subspace shrinks
    # to nothing.
    kernel = SymmetricRci(2, 2, -5.0, 5.0)
    caller = ScriptedCaller(kernel, HELLO, multiply_b_zero=True)
    result = caller.run()
    assert result.info == -3


def test_warm_start_converges_in_at_most_one_loop(rng):
    a = random_symmetric(16, rng)
    ev = np.linalg.eigvalsh(a)
    emin, emax = gap_interval(ev, 4, 9)
    cold = ScriptedCaller(SymmetricRci(16, 9, emin, emax), a).run()
    assert cold.info == 0
    fpm = feastinit()
    fpm.set_slot(5, 1)
    kernel = SymmetricRci(16, 9, emin, emax, fpm=fpm)
    kernel.x[:, :] = cold.x
    caller = ScriptedCaller(kernel, a)
    warm = caller.run()
    assert warm.info == 0
    assert warm.loop <= 1
    # warm start begins with the B-multiply prefix instead of random fill
    assert caller.trace[0] == 40
    assert np.abs(np.sort(warm.e[:warm.m]) - np.sort(cold.e[:cold.m])).max() <= 1e-10


def test_kernel_owns_multiply_range_slots(rng):
    a = random_symmetric(6, rng)
    ev = np.linalg.eigvalsh(a)
    emin, emax = gap_interval(ev, 1, 3)
    fpm = feastinit()
    fpm.set_slot(24, 999)
    fpm.set_slot(25, -5)
    kernel = SymmetricRci(6, 5, emin, emax, fpm=fpm)
    caller = ScriptedCaller(kernel, a)
    caller.run()
    for first, count, m0 in caller.fpm_ranges:
        assert 1 <= first and count >= 1 and first + count - 1 <= m0


def test_b_orthonormal_eigenvectors_generalized(rng):
    a = random_symmetric(14, rng)
    g = rng.normal(size=(14, 14))
    b = g @ g.T + 14 * np.eye(14)
    import scipy.linalg as sla

    ev = sla.eigh(a, b, eigvals_only=True)
    emin, emax = gap_interval(ev, 3, 8)
    kernel = SymmetricRci(14, 9, emin, emax)
    result = ScriptedCaller(kernel, a, b=b).run()
    assert result.info == 0
    xm = result.x[:, :result.m]
    gram = xm.T @ b @ xm
    assert np.abs(gram - np.eye(result.m)).max() <= 1e-8


@pytest.mark.parametrize("power", [480, 520, 600, 700, 1000, -480, -520, -600, -700, -1000])
def test_pencil_scaled_near_the_ends_of_the_range(power):
    """B scaled by s = 2^power scales the eigenvalues by 1/s.  The filtered
    subspace then holds entries near 1/s, whose projections would overflow
    or underflow without the power-of-two scaling of the subspace."""
    import scipy.linalg as sla

    n = 12
    a = np.diag(np.arange(1.0, n + 1)) + np.diag(np.full(n - 1, -0.1), 1) \
        + np.diag(np.full(n - 1, -0.1), -1)
    b = np.eye(n) + np.diag(np.full(n - 1, 0.05), 1) + np.diag(np.full(n - 1, 0.05), -1)
    ev = sla.eigh(a, b, eigvals_only=True)
    want = ev[(ev >= 0.5) & (ev <= 5.5)]
    assert len(want) == 5
    s = 2.0 ** power
    result = feast_sy(a, 0.5 / s, 5.5 / s, 8, b=s * b)
    assert result.info == 0 and result.m == 5
    assert np.abs(result.e[:5] * s - want).max() <= 1e-14 * np.abs(want).max()


def test_validation_errors_on_init():
    assert SymmetricRci(0, 1, 0.0, 1.0).step() == RciTask.DONE
    assert SymmetricRci(0, 1, 0.0, 1.0).info == 202
    assert SymmetricRci(4, 9, 0.0, 1.0).info == 201
    assert SymmetricRci(4, 2, 1.0, -1.0).info == 200
    fpm = feastinit()
    fpm.set_slot(2, 9)
    assert SymmetricRci(4, 2, -1.0, 1.0, fpm=fpm).info == 102


@pytest.mark.parametrize("make,info", [
    (lambda: feast_sy(np.eye(2), 0.0, 2.0, 10**16), 201),
    (lambda: SymmetricRci(0, 10**16, 0.0, 1.0).result, 202),
    (lambda: HermitianRci(0, 10**16, 0.0, 1.0).result, 202),
    # N x M0 beyond the address space: numpy refuses before allocating.
    (lambda: SymmetricRci(2**40, 2**20, 0.0, 1.0).result, -1),
    # N beyond numpy's largest dimension: not even N x 0 arrays can be made.
    (lambda: SymmetricRci(10**30, 5, 0.0, 1.0).result, -1),
    (lambda: HermitianRci(10**30, 5, 0.0, 1.0).result, -1),
], ids=["feast_sy-m0", "symmetric-n", "hermitian-n", "unaddressable",
        "symmetric-huge-n", "hermitian-huge-n"])
def test_rejected_sizes_return_zero_column_arrays(make, info):
    """A rejected size was once allocated anyway, and raised MemoryError."""
    result = make()
    assert result.info == info
    assert result.x.shape[1] == 0 and result.e.shape == (0,)


def test_failed_allocation_returns_minus_one(monkeypatch):
    """A MemoryError from the allocation gives info -1 and zero-column
    arrays; the same sizes are not asked for again."""
    import feastlib.kernel

    zeros = np.zeros

    def refuse_large(shape, *args, **kwargs):
        if np.prod(shape) > 1000:
            raise MemoryError
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(feastlib.kernel.np, "zeros", refuse_large)
    for kernel in (SymmetricRci(1000, 10, 0.0, 1.0), HermitianRci(1000, 10, 0.0, 1.0)):
        assert (kernel.info, kernel.done, kernel.step()) == (-1, True, RciTask.DONE)
        result = kernel.result
        assert result.info == -1
        assert result.x.shape == (1000, 0) and result.e.shape == (0,)


def test_loop_budget_exhaustion():
    fpm = feastinit()
    fpm.set_slot(4, 0)  # trace criterion cannot pass on the first projection
    kernel = SymmetricRci(2, 2, -5.0, 5.0, fpm=fpm)
    result = ScriptedCaller(kernel, HELLO).run()
    assert result.info == 2
    assert result.loop == 0


def test_persistent_leaked_ritz_pair_is_flagged_spurious():
    # Weak 3-point filter, tight subspace, crowded interval edges: one leaked
    # Ritz value stays inside the interval without converging and must end
    # up flagged and ordered last.
    from feastlib import feast_sy

    a = np.diag([1.0, 2.0, 3.0, -0.05, -0.1, 4.05, 4.1, 4.15])
    fpm = feastinit()
    fpm.set_slot(2, 3)
    fpm.set_slot(3, 6)
    fpm.set_slot(4, 30)
    r = feast_sy(a, 0.0, 4.0, 6, fpm=fpm)
    assert r.m == 3
    assert np.allclose(r.e[:3], [1.0, 2.0, 3.0], atol=1e-8)
    assert max(r.res[:3]) <= 1e-10
    flagged = np.flatnonzero(r.res == -1)
    assert flagged.size >= 1
    # spurious pairs occupy the trailing positions and lie inside the interval
    assert np.all(flagged >= r.m0 - flagged.size)
    assert np.all((r.e[flagged] >= 0.0) & (r.e[flagged] <= 4.0))


def test_residual_criterion_can_converge_without_refinement():
    fpm = feastinit()
    fpm.set_slot(6, 1)
    kernel = SymmetricRci(2, 2, -5.0, 5.0, fpm=fpm)
    result = ScriptedCaller(kernel, HELLO).run()
    assert result.info == 0
    assert result.loop == 0
    assert max(result.res[: result.m]) < 1e-12


# --- the fpm(1)=1 report's closing lines ------------------------------------

_TRAILER = [
    "***********************************************",
    "*********** FEAST- END*************************",
    "***********************************************",
]
_SINGULAR_AT_FIRST_SHIFT = build_contour(gauss_legendre(8), -5.0, 5.0).z[0]


def _verbose(**slots):
    fpm = feastinit()
    fpm.set_slot(1, 1)
    for i, v in slots.items():
        fpm.set_slot(int(i[1:]), v)
    return fpm


@pytest.mark.parametrize("solve,info,closing", [
    (lambda: feast_sy(HELLO, -5.0, 5.0, 2, fpm=_verbose()), 0,
     ["==>FEAST has successfully converged (to desired tolerance)"] + _TRAILER),
    (lambda: feast_sy(HELLO, 10.0, 20.0, 2, fpm=_verbose()), 1,
     ["==>WARNING: no eigenvalue has been found in the search interval"] + _TRAILER),
    (lambda: feast_sy(HELLO, -5.0, 5.0, 2, fpm=_verbose(s4=0)), 2,
     ["==>WARNING: no convergence within the refinement loop budget"] + _TRAILER),
    (lambda: feast_sy(np.diag([1.0, 2.0, 3.0, 4.0]), 0.5, 2.5, 2, fpm=_verbose()), 3,
     ["==>WARNING: subspace size M0 is too small (M0<=M)"] + _TRAILER),
    (lambda: feast_sy(HELLO, -5.0, 5.0, 2, fpm=_verbose(s14=1)), 4,
     ["==>Subspace returned after one contour (fpm(14)=1)"] + _TRAILER),
    (lambda: feast_sy(HELLO, -5.0, 5.0, 2, b=-np.eye(2), fpm=_verbose()), -3, _TRAILER),
    # A shift on which z*B - A is exactly singular (see test_dense.py's
    # test_singular_shift_reports_solver_error): the caller aborts, and the
    # report stops without a trailer.
    (lambda: feast_sy(np.array([[_SINGULAR_AT_FIRST_SHIFT.real, _SINGULAR_AT_FIRST_SHIFT.imag],
                                [_SINGULAR_AT_FIRST_SHIFT.imag, -_SINGULAR_AT_FIRST_SHIFT.real]]),
                      -5.0, 5.0, 2, b=np.diag([1.0, -1.0]), fpm=_verbose()), -2, []),
], ids=["info0", "info1", "info2", "info3", "info4", "info-3", "info-2"])
def test_report_closing_lines(capsys, solve, info, closing):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve().info == info
    lines = capsys.readouterr().out.splitlines()
    assert sum("FEAST- END" in line for line in lines) <= 1
    # The closing lines follow the column header and the per-loop rows.
    start = next(i for i, line in enumerate(lines) if line.startswith("#Loop |")) + 1
    row = re.compile(r"\d+ +\d+ +-?\d\.\d{15}e[+-]\d+  ")
    while start < len(lines) and row.match(lines[start]):
        start += 1
    assert lines[start:] == closing


def test_reused_fpm_prints_no_multiply_range_slots(capsys):
    """The first solve sets fpm(24) and fpm(25); a second solve with the same
    fpm object prints the same report, without those slots."""
    fpm = _verbose()
    first = feast_sy(HELLO, -5.0, 5.0, 2, fpm=fpm)
    out_first = capsys.readouterr().out
    assert fpm.slot(24) == 1 and fpm.slot(25) == 2
    second = feast_sy(HELLO, -5.0, 5.0, 2, fpm=fpm)
    out_second = capsys.readouterr().out
    assert (first.info, second.info) == (0, 0)
    assert "fpm(24)" not in out_second and "fpm(25)" not in out_second
    assert out_second == out_first

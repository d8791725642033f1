import os
import subprocess
import sys

import numpy as np
import pytest

import choimetric
from choimetric import sdp
from choimetric.sdp import _factor, _smallest_eigenvalues, _Stack, solve_sdp


def _random_pd(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m @ m.conj().T + 0.1 * np.eye(n)


def _close(a, b, rel):
    return np.linalg.norm(a - b) <= rel * np.linalg.norm(b)


def test_scalar_lp():
    # maximize y subject to y <= 3, encoded as a 1x1 block
    b = np.array([1.0])
    blocks = [(np.array([[3.0]], dtype=complex), np.array([[[1.0]]], dtype=complex))]
    res = solve_sdp(b, blocks, tol=1e-10)
    assert (res.status, res.reason) == ("optimal", "converged")
    assert abs(res.value - 3.0) < 1e-8


def test_early_stop_reports_stalled():
    # with a zero gap tolerance the LP stops making progress before the cap
    b = np.array([1.0])
    blocks = [(np.array([[3.0]], dtype=complex), np.array([[[1.0]]], dtype=complex))]
    res = solve_sdp(b, blocks, tol=0.0, max_iter=200)
    assert (res.status, res.reason) == ("stalled", "numerical_floor")
    assert res.iterations < 200
    assert abs(res.value - 3.0) < 1e-8


def test_non_finite_start_reports_stalled():
    # b'y overflows at the first iterate, before any iterate is recorded
    blocks = [(np.array([[3.0]], dtype=complex), np.array([[[1.0]]], dtype=complex))]
    with np.errstate(over="ignore", invalid="ignore"):
        res = solve_sdp(np.array([1e308]), blocks)
    assert (res.status, res.reason, res.iterations) == ("stalled", "non_finite", 1)


def test_largest_eigenvalue():
    # max y s.t. y I <= A  gives the smallest eigenvalue of A
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = m @ m.conj().T
    blocks = [(a, np.eye(5, dtype=complex)[None])]
    res = solve_sdp(np.array([1.0]), blocks, tol=1e-10)
    assert abs(res.value - np.linalg.eigvalsh(a)[0]) < 1e-7


def test_operator_norm_via_lmi():
    # max <g, t> over || sum t_i K_i || <= 1 computes a dual norm; for a
    # single K it is ||K|| * ... : with one variable, t <= 1/||K||
    rng = np.random.default_rng(4)
    k = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    block = np.zeros((1, 6, 6), dtype=complex)
    block[0, :3, 3:] = k
    block[0, 3:, :3] = k.conj().T
    res = solve_sdp(np.array([1.0]), [(np.eye(6, dtype=complex), -block)],
                    tol=1e-10)
    assert abs(res.value - 1.0 / np.linalg.norm(k, 2)) < 1e-7


def test_multi_block():
    # max y s.t. y <= 2 and y <= 1 over two blocks
    blocks = [(np.array([[2.0]], dtype=complex), np.array([[[1.0]]], dtype=complex)),
              (np.array([[1.0]], dtype=complex), np.array([[[1.0]]], dtype=complex))]
    res = solve_sdp(np.array([1.0]), blocks, tol=1e-10)
    assert abs(res.value - 1.0) < 1e-8


def test_gap_certificate_and_feasibility():
    rng = np.random.default_rng(5)
    n, m = 6, 4
    mats = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    mats = 0.5 * (mats + mats.conj().transpose(0, 2, 1))
    c = np.eye(n, dtype=complex)
    b = rng.standard_normal(m)
    res = solve_sdp(b, [(c, mats)], tol=1e-9)
    assert res.status == "optimal"
    assert res.gap <= 1e-6
    # the returned y is dual feasible: C - A*(y) >= 0 up to roundoff
    slack = c - np.tensordot(res.y, mats, axes=1)
    assert np.linalg.eigvalsh(slack)[0] > -1e-9


def test_determinism():
    rng = np.random.default_rng(6)
    mats = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    mats = 0.5 * (mats + mats.conj().transpose(0, 2, 1))
    b = rng.standard_normal(3)
    blocks = [(np.eye(4, dtype=complex), mats)]
    r1 = solve_sdp(b, blocks, tol=1e-9)
    r2 = solve_sdp(b, blocks, tol=1e-9)
    assert r1.value == r2.value
    assert r1.iterations == r2.iterations


def test_iteration_cap_reports_max_iter():
    rng = np.random.default_rng(9)
    mats = rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6))
    mats = 0.5 * (mats + mats.conj().transpose(0, 2, 1))
    b = rng.standard_normal(4)
    res = solve_sdp(b, [(np.eye(6, dtype=complex), mats)], tol=1e-12,
                    max_iter=2)
    assert (res.status, res.reason) == ("max_iter", "max_iter")
    # the reported iterate is still dual feasible, so the value is usable
    slack = np.eye(6) - np.tensordot(res.y, mats, axes=1)
    assert np.linalg.eigvalsh(slack)[0] > -1e-9


def _random_hermitian_stack(rng, m, n):
    mats = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    return 0.5 * (mats + mats.conj().transpose(0, 2, 1))


@pytest.mark.parametrize("n", [1, 4, 9])
def test_factor_gives_cholesky_factors(n):
    rng = np.random.default_rng(100 + n)
    s = np.stack([_random_pd(rng, n) for _ in range(3)])
    lower, rinv = _factor(s)
    for sk, lk, rk in zip(s, lower, rinv):
        assert np.allclose(np.triu(lk, 1), 0) and np.allclose(np.triu(rk, 1), 0)
        assert _close(lk @ lk.conj().T, sk, 1e-10)
        assert _close(rk @ sk @ rk.conj().T, np.eye(n), 1e-10)
        assert _close(rk.conj().T @ rk @ sk, np.eye(n), 1e-10)
        # the solver's floor: 1 / ||S^{-1}||_F bounds lam_min(S) from below
        floor = 1.0 / np.linalg.norm(rk.conj().T @ rk)
        assert 0 < floor <= (1 + 1e-12) * np.linalg.eigvalsh(sk)[0]


def test_factor_raises_on_an_indefinite_block():
    s = np.stack([np.eye(2), np.diag([1.0, -1e-3])]).astype(complex)
    with pytest.raises(np.linalg.LinAlgError):
        _factor(s)


def _packed(stack, mats):
    """The matrices on the rows of their blocks in the stack's slots, I on
    the rest of the diagonal and 0 between the blocks."""
    out = stack.pad.astype(complex)
    for mat, slot, span in zip(mats, stack.slot, stack.span):
        rows = np.flatnonzero(span)
        out[slot][np.ix_(rows, rows)] = mat
    return out


@pytest.mark.parametrize("sizes, slots", [
    ((12, 6, 6, 6, 6), (0, 1, 1, 2, 2)),
    ((4,) + (1,) * 8, (0, 1, 1, 1, 1, 2, 2, 2, 2)),
    ((2, 3, 1, 2), (1, 0, 1, 2)),
])
def test_blocks_are_packed_largest_first_into_the_first_slot_with_room(sizes, slots):
    # S3's pieces, Z4's and a mixed set each fill 3 slots of the largest
    # size; every block's entries lie in one slot, on rows of its own, and C
    # is I and A is 0 off the blocks
    rng = np.random.default_rng(15)
    blocks = [(_random_pd(rng, n), _random_hermitian_stack(rng, 2, n)) for n in sizes]
    stack = _Stack(blocks)
    n = max(sizes)
    assert stack.c.shape == (3, n, n) and stack.a.shape == (2, 3, n, n)
    assert tuple(stack.slot) == slots
    taken = np.zeros(stack.c.shape)
    for (cmat, astack), slot, span in zip(blocks, stack.slot, stack.span):
        rows = np.flatnonzero(span)
        assert len(rows) == len(cmat) and np.all(np.diff(rows) == 1)
        assert np.array_equal(stack.c[slot][np.ix_(rows, rows)], cmat)
        assert np.array_equal(stack.a[:, slot][:, rows][:, :, rows], astack)
        taken[slot][np.ix_(rows, rows)] += 1
    assert taken.max() == 1
    assert np.array_equal(stack.inner, taken)
    assert np.array_equal(stack.member.sum(axis=0), taken.reshape(-1))
    off = taken == 0
    assert np.array_equal(stack.c[off], np.broadcast_to(np.eye(n), taken.shape)[off])
    assert not stack.a[:, off].any()


def test_hkm_schur_matches_the_dense_formula():
    # blocks of three sizes sharing slots, X and Z holding I on the pad:
    # M_ij = sum_k Re tr(A_ik X_k A_jk Z_k^{-1}) over the blocks alone
    rng = np.random.default_rng(12)
    for m, sizes in ((2, (1, 3, 2, 1)), (3, (5, 2, 8)), (6, (8, 1, 4, 8))):
        blocks = [(np.eye(n, dtype=complex), _random_hermitian_stack(rng, m, n))
                  for n in sizes]
        stack = _Stack(blocks)
        assert len(stack.c) < len(sizes)
        xs = [_random_pd(rng, n) for n in sizes]
        zs = [_random_pd(rng, n) for n in sizes]
        lower, rinv = _factor(np.concatenate([_packed(stack, xs), _packed(stack, zs)]))
        schur = stack.schur(lower[:len(stack.c)], rinv[len(stack.c):])
        dense = sum(np.array([[np.trace(ai @ x @ aj @ np.linalg.inv(z)).real for aj in mats]
                              for ai in mats])
                    for (_, mats), x, z in zip(blocks, xs, zs))
        assert np.abs(schur - dense).max() <= 1e-10 * max(1.0, np.abs(dense).max())


def test_the_stack_applies_the_constraint_map():
    # blocks of three sizes packed into 3 slots of the largest: A(X)_i =
    # sum_k Re tr(A_ik X_k), A*(y)_k = sum_i y_i A_ik and 0 off the blocks,
    # and the inner product, the norms, the largest entries and the size
    # count read each block alone
    rng = np.random.default_rng(13)
    m, sizes = 3, (2, 3, 1, 2)
    blocks = [(_random_pd(rng, n), _random_hermitian_stack(rng, m, n)) for n in sizes]
    stack = _Stack(blocks)
    assert stack.c.shape == (3, 3, 3) and stack.a.shape == (3, 3, 3, 3)
    assert stack.ntot == 8
    assert np.array_equal(stack.c, _packed(stack, [c for c, _ in blocks]))
    assert np.allclose(stack.cnorm, 1.0 + np.array([np.linalg.norm(c) for c, _ in blocks]),
                       rtol=1e-15, atol=0)
    xs = [_random_pd(rng, n) for n in sizes]
    x = _packed(stack, xs)
    y = rng.standard_normal(m)
    applied = stack.apply(x)
    dense = sum(np.array([np.trace(a @ x).real for a in mats]) for (_, mats), x in zip(blocks, xs))
    assert _close(applied, dense, 1e-12)
    adjoint = stack.adjoint(y)
    assert not adjoint[stack.inner == 0].any()
    for (_, mats), slot, span in zip(blocks, stack.slot, stack.span):
        rows = np.flatnonzero(span)
        assert _close(adjoint[slot][np.ix_(rows, rows)], np.tensordot(y, mats, axes=1), 1e-12)
    inner = sum(np.vdot(x, x).real for x in xs)
    assert abs(stack.dot(x, x) - inner) <= 1e-12 * inner
    assert np.allclose(stack.norms(x), [np.linalg.norm(x) for x in xs], rtol=1e-14, atol=0)
    assert np.array_equal(stack.maxabs(x), [np.abs(x).max() for x in xs])


def test_the_start_leaves_the_pad_out_of_the_shift():
    # C = 20 I of 2 rows beside C = I of 3 rows: both are already deep in
    # the cone, so the start is Z = C on each block and I on the 2 x 2
    # block's pad; a pad eigenvalue of 1 seen by the shift would move
    # 0.1 * 20 - 1 = 1 onto the first block.  X starts at I on the blocks
    # (|b| <= 1) and its pad is not counted in <C, X> = 2 * 20 + 3
    rng = np.random.default_rng(14)
    blocks = [(20 * np.eye(2, dtype=complex), _random_hermitian_stack(rng, 2, 2)),
              (np.eye(3, dtype=complex), _random_hermitian_stack(rng, 2, 3))]
    start = solve_sdp(np.array([0.5, -1.0]), blocks, max_iter=0)
    assert (start.status, start.iterations) == ("max_iter", 0)
    assert start.dual_infeas == 0.0
    assert start.primal_value == 43.0
    assert solve_sdp(np.array([0.5, -1.0]), blocks).status == "optimal"


def test_the_start_shifts_each_block_of_a_shared_slot_by_its_own():
    # C = 20 I of 2 rows and C = -I of 1 row share a slot beside C = I of 3
    # rows.  The -I block alone is shifted, by 0.1 * 1 + 1 = 1.1, so its
    # residual -I - Z is -1.1, over 1 + ||C||_F = 2; a shift read from the
    # whole slot, 0.1 * 20 + 1 = 3, would give 1.5.  <C, X> = 3 + 40 - 1
    rng = np.random.default_rng(16)
    blocks = [(np.eye(3, dtype=complex), _random_hermitian_stack(rng, 2, 3)),
              (20 * np.eye(2, dtype=complex), _random_hermitian_stack(rng, 2, 2)),
              (-np.eye(1, dtype=complex), _random_hermitian_stack(rng, 2, 1))]
    stack = _Stack(blocks)
    assert len(stack.c) == 2 and stack.slot[1] == stack.slot[2] != stack.slot[0]
    start = solve_sdp(np.array([0.5, -1.0]), blocks, max_iter=0)
    assert (start.status, start.iterations) == ("max_iter", 0)
    assert start.dual_infeas == 0.55
    assert start.primal_value == 42.0


def test_smallest_eigenvalues_reach_the_cone_boundary():
    rng = np.random.default_rng(11)
    for n in (1, 4, 9):
        s = np.stack([_random_pd(rng, n) for _ in range(2)])
        ds = _random_hermitian_stack(rng, 2, n)
        # lam_min(ds) = -1
        ds -= (np.linalg.eigvalsh(ds)[:, :1, None] + 1.0) * np.eye(n)
        rinv = _factor(s)[1]
        lam = _smallest_eigenvalues(rinv, ds)
        assert np.all(lam < 0)
        for sk, dk, a in zip(s, ds, -1.0 / lam):
            assert abs(np.linalg.eigvalsh(sk + a * dk)[0]) <= 1e-9 * np.linalg.norm(sk, 2)
            assert np.linalg.eigvalsh(sk + 0.99 * a * dk)[0] > 0
        # a positive semidefinite direction never leaves the cone
        psd = np.stack([_random_pd(rng, n) for _ in range(2)])
        assert np.all(_smallest_eigenvalues(rinv, psd) > 0)


def test_smallest_eigenvalues_raise_on_a_non_finite_direction():
    ds = np.eye(3, dtype=complex)[None].repeat(2, axis=0)
    ds[1, 0, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        _smallest_eigenvalues(np.eye(3, dtype=complex)[None].repeat(2, axis=0), ds)


def _mixed_program(seed):
    """A bounded program of blocks of three sizes, two of them twice.  They
    pack into the slots [5], [5], [3, 1] and [3], so a 1-row block shares a
    slot with the first 3-row block: reordering the blocks changes which
    3-row block that is, and the stalling 1-row block below joins that
    slot."""
    rng = np.random.default_rng(seed)
    m = 4
    blocks = [(_random_pd(rng, n), _random_hermitian_stack(rng, m, n)) for n in (3, 5, 3, 1, 5)]
    return rng.standard_normal(m), blocks


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_block_order_does_not_change_the_solve(seed):
    # the blocks share one packed stack, so any order is the same program up
    # to the order of floating-point sums; the Schur matrix of the last iteration
    # has a condition number of 1e6 to 1e8, which turns those into a few
    # 1e-12 of value
    b, blocks = _mixed_program(seed)
    ref = solve_sdp(b, blocks)
    assert ref.status == "optimal"
    for order in ([4, 3, 2, 1, 0], [1, 0, 3, 4, 2], [3, 1, 2, 0, 4]):
        res = solve_sdp(b, [blocks[k] for k in order])
        assert (res.status, res.reason, res.iterations) == (ref.status, ref.reason, ref.iterations)
        assert abs(res.value - ref.value) <= 1e-11 * abs(ref.value)


def _block_diagonal(blocks):
    """The blocks as one block-diagonal (C, A) block."""
    sizes = [len(c) for c, _ in blocks]
    n, m = sum(sizes), blocks[0][1].shape[0]
    cmat = np.zeros((n, n), dtype=complex)
    astack = np.zeros((m, n, n), dtype=complex)
    start = 0
    for (c, a), size in zip(blocks, sizes):
        cmat[start:start + size, start:start + size] = c
        astack[:, start:start + size, start:start + size] = a
        start += size
    return cmat, astack


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_block_diagonal_merge_gives_the_same_value(seed):
    # one dense block holding every block on its diagonal: a stack of one
    # block with no pad
    b, blocks = _mixed_program(seed)
    stacked = solve_sdp(b, blocks, tol=1e-10)
    merged = solve_sdp(b, [_block_diagonal(blocks)], tol=1e-10)
    assert stacked.status == merged.status == "optimal"
    assert abs(stacked.value - merged.value) <= 1e-9 * max(1.0, abs(merged.value))


def test_a_stalling_block_stalls_the_solve_among_converging_ones():
    # C = -1 with A = 0 can never be made PSD: the dual is infeasible, so
    # the steps shrink and the solve stops early, wherever the 1-row block
    # sits among 1-row and larger blocks that converge without it
    b, blocks = _mixed_program(21)
    assert solve_sdp(b, blocks).status == "optimal"
    bad = (-np.eye(1, dtype=complex), np.zeros((len(b), 1, 1), dtype=complex))
    runs = [solve_sdp(b, order) for order in
            (blocks + [bad], [bad] + blocks, blocks[:3] + [bad] + blocks[3:])]
    for res in runs:
        assert (res.status, res.reason) == ("stalled", "small_steps")
        assert res.iterations == runs[0].iterations < sdp.MAX_ITER
        # the residual of -1 - Z <= -1 in that block, over 1 + ||C|| = 2
        assert res.dual_infeas >= 0.5 - 1e-6


def _random_program(seed, n=6, m=4):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(m), [(np.eye(n, dtype=complex), _random_hermitian_stack(rng, m, n))]


def _fail_call(monkeypatch, name, count):
    """Make call number `count` of sdp.<name> raise LinAlgError."""
    calls = []
    true_function = getattr(sdp, name)

    def failing(*args):
        calls.append(1)
        if len(calls) == count:
            raise np.linalg.LinAlgError("factorization failed")
        return true_function(*args)

    monkeypatch.setattr(sdp, name, failing)


def _check_stalled_iterate(res, blocks):
    assert (res.status, res.reason) == ("stalled", "factorization_failed")
    mats = blocks[0][1]
    slack = np.eye(mats.shape[1]) - np.tensordot(res.y, mats, axes=1)
    assert np.linalg.eigvalsh(slack)[0] > -1e-9


def test_failed_factorization_reports_stalled(monkeypatch):
    # one factorization of the X and Z stack per iteration
    b, blocks = _random_program(5)
    _fail_call(monkeypatch, "_factor", 4)
    res = solve_sdp(b, blocks, tol=1e-12)
    assert res.iterations == 4 < sdp.MAX_ITER
    _check_stalled_iterate(res, blocks)


def test_failed_step_length_reports_stalled(monkeypatch):
    # two step-length calls per iteration, for the predictor and the
    # corrector: the 2nd is iteration 1's last
    b, blocks = _random_program(5)
    _fail_call(monkeypatch, "_smallest_eigenvalues", 2)
    res = solve_sdp(b, blocks, tol=1e-12)
    assert res.iterations == 1
    _check_stalled_iterate(res, blocks)


def test_failed_schur_factorization_reports_stalled(monkeypatch):
    # numpy's eigh of the Schur matrix (its one 2-D input) either fails or
    # returns a smallest eigenvalue that no rung of the jitter ladder lifts
    # above 0; both stop the first iteration
    eigh = np.linalg.eigh
    calls = []

    def failing(a):
        calls.append(1)
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def indefinite(a):
        calls.append(1)
        lam, vec = eigh(a)
        return np.concatenate([[-1e3 * max(1.0, np.abs(lam).max())], lam[1:]]), vec

    for broken in (failing, indefinite):
        calls.clear()
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a, broken=broken: broken(a) if a.ndim == 2 else eigh(a))
        res = solve_sdp(*_random_program(5), tol=1e-12)
        assert (res.status, res.reason, res.iterations) == ("stalled", "schur_failed", 1)
        assert len(calls) == 1


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import choimetric.cli
from choimetric.experiments import run_chaining, run_duality, run_mk_correctness
records = run_mk_correctness(0) + run_duality(0, trials=5) + run_chaining(0, quadruples=1)
failed = [r for r in records if not r.ok]
print(len(records), "records,", len(failed), "failed:", failed)
sys.exit(1 if failed or not records else 0)
"""


def test_the_solver_runs_without_scipy():
    # numpy is the one runtime dependency: a child interpreter in which
    # every scipy import fails still solves MK, the trace-norm dual and Delta
    src = os.path.dirname(os.path.dirname(choimetric.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr

import os
import subprocess
import sys

import numpy as np
import pytest

import choimetric
from choimetric import sdp
from choimetric.sdp import _factor, _smallest_eigenvalues, _Stack, solve_sdp
from conftest import with_zero_variable


def _random_pd(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m @ m.conj().T + 0.1 * np.eye(n)


def _close(a, b, rel):
    return np.linalg.norm(a - b) <= rel * np.linalg.norm(b)


# maximize y subject to y <= 3, encoded as a 1x1 block
_SCALAR_LP = (np.array([1.0]), [(np.array([[3.0]], dtype=complex),
                                 np.array([[[1.0]]], dtype=complex))])


def test_scalar_lp():
    # in closed form with one variable, and iterated with a second one
    res = solve_sdp(*_SCALAR_LP, tol=1e-10)
    assert (res.status, res.reason, res.iterations) == ("optimal", "closed_form", 0)
    assert abs(res.value - 3.0) <= 1e-15 * 3 and res.y[0] == res.value
    res = solve_sdp(*with_zero_variable(*_SCALAR_LP), tol=1e-10)
    assert (res.status, res.reason) == ("optimal", "converged")
    assert abs(res.value - 3.0) < 1e-8


def test_early_stop_reports_stalled():
    # with a zero gap tolerance the LP stops making progress before the cap
    res = solve_sdp(*with_zero_variable(*_SCALAR_LP), tol=0.0, max_iter=200)
    assert (res.status, res.reason) == ("stalled", "numerical_floor")
    assert res.iterations < 200
    assert abs(res.value - 3.0) < 1e-8


@pytest.mark.parametrize("pose", [lambda b, blocks: (b, blocks), with_zero_variable],
                         ids=["one variable", "two variables"])
def test_non_finite_start_reports_stalled(pose):
    # b'y overflows at the first iterate, before any iterate is recorded; with
    # one variable the closed form's value 3e308 overflows, so it iterates too
    b, blocks = pose(np.array([1e308]), _SCALAR_LP[1])
    with np.errstate(over="ignore", invalid="ignore"):
        res = solve_sdp(b, blocks)
    assert (res.status, res.reason, res.iterations) == ("stalled", "non_finite", 1)


def test_largest_eigenvalue():
    # max y s.t. I - y A >= 0 gives 1 / lam_max(A) for A positive definite,
    # in closed form and iterated
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = m @ m.conj().T
    want = 1.0 / np.linalg.eigvalsh(a)[-1]
    program = (np.array([1.0]), [(np.eye(5, dtype=complex), a[None])])
    closed = solve_sdp(*program, tol=1e-10)
    assert closed.reason == "closed_form" and abs(closed.value - want) <= 1e-12 * want
    iterated = solve_sdp(*with_zero_variable(*program), tol=1e-10)
    assert iterated.reason == "converged" and abs(iterated.value - want) < 1e-7


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


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_one_variable_programs_are_solved_in_closed_form(sign):
    # blocks of three sizes, each with its own c, one of them not bounding y
    # along s = sign(b): y = s min_k c_k / lam_max(s A_k) over the others,
    # X = (|b| / lam) v v* on the binding block, and the report reads its gap
    # and residuals from that pair: the slack is PSD and singular there
    rng = np.random.default_rng(18)
    blocks = [(c * np.eye(n, dtype=complex), _random_hermitian_stack(rng, 1, n))
              for c, n in ((1.0, 3), (0.5, 1), (2.0, 2))]
    blocks.append((np.eye(2, dtype=complex), -sign * np.eye(2, dtype=complex)[None]))
    ratios = [c[0, 0].real / np.linalg.eigvalsh(sign * a[0])[-1] for c, a in blocks[:3]]
    want = min(r for r in ratios if r > 0)
    res = solve_sdp(np.array([2.0 * sign]), blocks)
    assert (res.status, res.reason, res.iterations) == ("optimal", "closed_form", 0)
    assert abs(res.value - 2.0 * want) <= 1e-14 * want
    assert abs(res.y[0] - sign * want) <= 1e-14 * want
    assert abs(res.primal_value - res.value) <= 1e-14 * want
    assert 0 <= res.gap <= 1e-14 * want
    assert max(res.rel_gap, res.primal_infeas, res.dual_infeas) <= 1e-14
    lam = [np.linalg.eigvalsh(c - res.y[0] * a[0])[0] for c, a in blocks]
    assert min(lam) >= -1e-14 and abs(lam[ratios.index(want)]) <= 1e-14
    iterated = solve_sdp(*with_zero_variable(np.array([2.0 * sign]), blocks), tol=1e-10)
    assert iterated.reason == "converged"
    assert abs(iterated.value - res.value) <= 1e-8 * res.value


@pytest.mark.parametrize("b, a, status, reason", [
    (1.0, -np.eye(2), "stalled", "numerical_floor"),          # no block bounds y
    (0.0, np.diag([1.0, -2.0]), "optimal", "converged"),
    (np.nan, np.diag([1.0, -2.0]), "stalled", "non_finite"),
], ids=["unbounded", "zero", "nan"])
def test_one_variable_programs_without_a_closed_form_iterate(b, a, status, reason):
    res = solve_sdp(np.array([b]), [(np.eye(2, dtype=complex), a[None].astype(complex))])
    assert (res.status, res.reason) == (status, reason) and res.iterations > 0


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("cmat", [
    np.diag([1.0, 2.0]),
    np.array([[1.0, 1e-9], [1e-9, 1.0]]),
    np.zeros((2, 2)),
    -np.eye(2),
    np.full((2, 2), np.nan),
], ids=["not scalar", "off-diagonal", "zero", "negative", "nan"])
def test_c_must_be_a_positive_multiple_of_the_identity(cmat, m):
    # the third block's C is rejected by name, with one variable (before the
    # closed form) and with two; a C within 1e-12 of 2 I is accepted
    rng = np.random.default_rng(17)
    blocks = [(np.eye(2, dtype=complex), _random_hermitian_stack(rng, m, 2)),
              (0.5 * np.eye(3, dtype=complex), _random_hermitian_stack(rng, m, 3)),
              (cmat.astype(complex), _random_hermitian_stack(rng, m, 2))]
    b = rng.standard_normal(m)
    with pytest.raises(ValueError, match="^block 2: C is not a positive multiple of the identity$"):
        solve_sdp(b, blocks)
    blocks[2] = (2.0 * np.eye(2, dtype=complex) + 1e-14, blocks[2][1])
    assert solve_sdp(b, blocks).status == "optimal"


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


def _placement(stack, j):
    """The slot and the rows of block j in the stack, read from its row of
    `member`, which must be one square of consecutive rows in one slot."""
    cells = stack.member[j].reshape(stack.c.shape)
    (slot,) = np.flatnonzero(cells.any(axis=(1, 2)))
    rows = np.flatnonzero(cells[slot].any(axis=1))
    assert np.all(np.diff(rows) == 1)
    assert np.array_equal(cells[slot], np.isin(np.arange(len(cells[slot])), rows)[:, None]
                          & np.isin(np.arange(len(cells[slot])), rows)[None, :])
    return slot, rows


def _packed(stack, mats):
    """The matrices on the rows of their blocks in the stack's slots, I on
    the rest of the diagonal and 0 between the blocks."""
    out = stack.pad.astype(complex)
    for j, mat in enumerate(mats):
        slot, rows = _placement(stack, j)
        out[slot][np.ix_(rows, rows)] = mat
    return out


def _scaled_eye(rng, n):
    """c I for a random c in [0.5, 2]."""
    return rng.uniform(0.5, 2.0) * np.eye(n, dtype=complex)


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
    blocks = [(_scaled_eye(rng, n), _random_hermitian_stack(rng, 2, n)) for n in sizes]
    stack = _Stack(blocks)
    n = max(sizes)
    assert stack.c.shape == (3, n, n) and stack.a.shape == (2, 3, n, n)
    placed = [_placement(stack, j) for j in range(len(blocks))]
    assert tuple(slot for slot, _ in placed) == slots
    taken = np.zeros(stack.c.shape)
    for (cmat, astack), (slot, rows) in zip(blocks, placed):
        assert len(rows) == len(cmat)
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
    blocks = [(_scaled_eye(rng, n), _random_hermitian_stack(rng, m, n)) for n in sizes]
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
    for j, (_, mats) in enumerate(blocks):
        slot, rows = _placement(stack, j)
        assert _close(adjoint[slot][np.ix_(rows, rows)], np.tensordot(y, mats, axes=1), 1e-12)
    inner = sum(np.vdot(x, x).real for x in xs)
    assert abs(stack.dot(x, x) - inner) <= 1e-12 * inner
    assert np.allclose(stack.norms(x), [np.linalg.norm(x) for x in xs], rtol=1e-14, atol=0)
    assert np.array_equal(stack.maxabs(x), [np.abs(x).max() for x in xs])


def test_the_start_is_exactly_dual_feasible():
    # C = 20 I of 2 rows and C = 0.5 I of 1 row share a slot beside C = I of
    # 3 rows: y = 0 and Z = C leave no residual on any block.  X starts at I
    # on the blocks (|b| <= 1) and its pad is not counted in
    # <C, X> = 3 + 2 * 20 + 0.5
    rng = np.random.default_rng(16)
    blocks = [(np.eye(3, dtype=complex), _random_hermitian_stack(rng, 2, 3)),
              (20 * np.eye(2, dtype=complex), _random_hermitian_stack(rng, 2, 2)),
              (0.5 * np.eye(1, dtype=complex), _random_hermitian_stack(rng, 2, 1))]
    stack = _Stack(blocks)
    slots = [_placement(stack, j)[0] for j in range(3)]
    assert len(stack.c) == 2 and slots[1] == slots[2] != slots[0]
    # the dual infeasibility's norms 1 + ||C_j||_F = 1 + c_j sqrt(n_j)
    assert np.array_equal(stack.cnorm, 1.0 + np.array([1.0, 20.0, 0.5]) * np.sqrt([3, 2, 1]))
    start = solve_sdp(np.array([0.5, -1.0]), blocks, max_iter=0)
    assert (start.status, start.reason, start.iterations) == ("max_iter", "max_iter", 0)
    assert (start.value, start.dual_infeas, start.primal_value) == (0.0, 0.0, 43.5)
    assert solve_sdp(np.array([0.5, -1.0]), blocks).status == "optimal"


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
    """A bounded program of blocks of three sizes, two of them twice, each
    with its own C = c I.  They pack into the slots [5], [5], [3, 1] and
    [3], so a 1-row block shares a slot with the first 3-row block:
    reordering the blocks changes which 3-row block that is, and the
    stalling 1-row block below joins that slot."""
    rng = np.random.default_rng(seed)
    m = 4
    blocks = [(_scaled_eye(rng, n), _random_hermitian_stack(rng, m, n)) for n in (3, 5, 3, 1, 5)]
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
    # block with no pad, each block scaled by 1 / c to C = I, which keeps
    # its constraint c I - A*(y) >= 0
    b, blocks = _mixed_program(seed)
    stacked = solve_sdp(b, blocks, tol=1e-10)
    scaled = [(np.eye(len(c), dtype=complex), a / c[0, 0].real) for c, a in blocks]
    merged = solve_sdp(b, [_block_diagonal(scaled)], tol=1e-10)
    assert stacked.status == merged.status == "optimal"
    assert abs(stacked.value - merged.value) <= 1e-9 * max(1.0, abs(merged.value))


@pytest.mark.parametrize("scale, reason", [(1.0, "numerical_floor"), (1e8, "small_steps")])
def test_a_stalling_block_stalls_the_solve_among_converging_ones(scale, reason):
    # a fifth variable, in the objective with weight 1, that only a 1-row
    # block reads, with A = -scale: y_5 grows without bound, so the primal
    # is infeasible (its X >= 0 on that block needs -scale X = 1), and the
    # solve stops early, wherever the 1-row block sits among 1-row and
    # larger blocks that converge without it.  At scale 1 the iterates run
    # into the numerical floor; at scale 1e8 the Schur matrix's condition
    # number climbs to about 1e13, its directions turn to noise, and both
    # step lengths stay below 1e-5
    b, blocks = _mixed_program(21)
    assert solve_sdp(b, blocks).status == "optimal"
    b = np.append(b, 1.0)
    blocks = [(c, np.concatenate([a, np.zeros_like(a[:1])])) for c, a in blocks]
    bad = (np.eye(1, dtype=complex), -scale * np.eye(len(b))[:, -1:, None].astype(complex))
    runs = [solve_sdp(b, order) for order in
            (blocks + [bad], [bad] + blocks, blocks[:3] + [bad] + blocks[3:])]
    for res in runs:
        assert (res.status, res.reason) == ("stalled", reason)
        assert res.iterations == runs[0].iterations < sdp.MAX_ITER
        # b_5 - A(X)_5 = 1 + scale X >= 1 on that block
        assert res.primal_infeas >= (1 - 1e-9) / (1.0 + np.linalg.norm(b))


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

import numpy as np

from choimetric.sdp import solve_sdp


def test_scalar_lp():
    # maximize y subject to y <= 3, encoded as a 1x1 block
    b = np.array([1.0])
    blocks = [(np.array([[3.0]], dtype=complex), np.array([[[1.0]]], dtype=complex))]
    res = solve_sdp(b, blocks, tol=1e-10)
    assert res.status == "optimal"
    assert abs(res.value - 3.0) < 1e-8


def test_early_stop_reports_stalled():
    # with zero tolerances the LP stops making progress before the cap
    b = np.array([1.0])
    blocks = [(np.array([[3.0]], dtype=complex), np.array([[[1.0]]], dtype=complex))]
    res = solve_sdp(b, blocks, tol=0.0, feas_tol=0.0, max_iter=200)
    assert res.status == "stalled"
    assert res.iterations < 200
    assert abs(res.value - 3.0) < 1e-8


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
    assert res.status == "max_iter"
    # the reported iterate is still dual feasible, so the value is usable
    slack = np.eye(6) - np.tensordot(res.y, mats, axes=1)
    assert np.linalg.eigvalsh(slack)[0] > -1e-9

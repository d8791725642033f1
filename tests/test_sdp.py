import numpy as np
import pytest

from choimetric import sdp
from choimetric.sdp import _factor_iterate, _max_step, solve_sdp


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
    # with zero tolerances the LP stops making progress before the cap
    b = np.array([1.0])
    blocks = [(np.array([[3.0]], dtype=complex), np.array([[[1.0]]], dtype=complex))]
    res = solve_sdp(b, blocks, tol=0.0, feas_tol=0.0, max_iter=200)
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


@pytest.mark.parametrize("n", [1, 4, 9])
def test_factor_iterate_gives_cholesky_factors(n):
    rng = np.random.default_rng(100 + n)
    x, z = _random_pd(rng, n), _random_pd(rng, n)
    floor, lx, rz, zinv, rx = _factor_iterate(x, z)
    assert np.allclose(np.triu(lx, 1), 0) and np.allclose(np.triu(rz, 1), 0)
    assert _close(lx @ lx.conj().T, x, 1e-10)
    assert _close(rz @ z @ rz.conj().T, np.eye(n), 1e-10)
    assert _close(zinv @ z, np.eye(n), 1e-10)
    assert _close(rz.conj().T @ rz, zinv, 1e-12)
    assert _close(rx.conj().T @ rx @ x, np.eye(n), 1e-10)
    lam = np.linalg.eigvalsh(z)
    assert 0 < floor <= (1 + 1e-12) * lam[0] / max(1.0, np.abs(z).max())


def test_factor_iterate_raises_on_an_indefinite_block():
    z = np.diag([1.0, -1e-3]).astype(complex)
    with pytest.raises(np.linalg.LinAlgError):
        _factor_iterate(np.eye(2, dtype=complex), z)


def test_hkm_schur_matches_the_dense_formula():
    rng = np.random.default_rng(12)
    for n, m in ((1, 2), (5, 3), (8, 6)):
        x, z = _random_pd(rng, n), _random_pd(rng, n)
        mats = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
        mats = 0.5 * (mats + mats.conj().transpose(0, 2, 1))
        _, lx, rz, zinv, _ = _factor_iterate(x, z)
        p = (rz[None] @ mats @ lx[None]).reshape(m, -1)
        schur = (p @ p.conj().T).real
        dense = np.array([[np.trace(ai @ x @ aj @ zinv).real for aj in mats]
                          for ai in mats])
        assert np.abs(schur - dense).max() <= 1e-10 * max(1.0, np.abs(dense).max())


def test_max_step_reaches_the_cone_boundary():
    rng = np.random.default_rng(11)
    for n in (1, 4, 9):
        s = _random_pd(rng, n)
        ds = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ds = 0.5 * (ds + ds.conj().T)
        ds -= (np.linalg.eigvalsh(ds)[0] + 1.0) * np.eye(n)   # lam_min(ds) = -1
        rs = _factor_iterate(np.eye(n), s)[2]
        a = _max_step(rs, ds)
        assert np.isfinite(a)
        lam = np.linalg.eigvalsh(s + a * ds)
        assert abs(lam[0]) <= 1e-9 * np.linalg.norm(s, 2)
        assert np.linalg.eigvalsh(s + 0.99 * a * ds)[0] > 0
        # a positive semidefinite direction never leaves the cone
        psd = _random_pd(rng, n)
        assert _max_step(rs, psd) == np.inf


def test_max_step_raises_on_a_non_finite_direction():
    ds = np.eye(3, dtype=complex)
    ds[0, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        _max_step(np.eye(3, dtype=complex), ds)


def _random_program(seed, n=6, m=4):
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    mats = 0.5 * (mats + mats.conj().transpose(0, 2, 1))
    return rng.standard_normal(m), [(np.eye(n, dtype=complex), mats)]


def _fail_fourth_call(monkeypatch, name):
    """Make the 4th call of sdp.<name> raise LinAlgError."""
    calls = []
    true_function = getattr(sdp, name)

    def failing(*args):
        calls.append(1)
        if len(calls) == 4:
            raise np.linalg.LinAlgError("factorization failed")
        return true_function(*args)

    monkeypatch.setattr(sdp, name, failing)


def _check_stalled_iterate(res, blocks):
    assert (res.status, res.reason) == ("stalled", "factorization_failed")
    mats = blocks[0][1]
    slack = np.eye(mats.shape[1]) - np.tensordot(res.y, mats, axes=1)
    assert np.linalg.eigvalsh(slack)[0] > -1e-9


def test_failed_factorization_reports_stalled(monkeypatch):
    b, blocks = _random_program(5)
    _fail_fourth_call(monkeypatch, "_factor_iterate")
    res = solve_sdp(b, blocks, tol=1e-12)
    assert res.iterations == 4 < sdp.MAX_ITER
    _check_stalled_iterate(res, blocks)


def test_failed_step_length_reports_stalled(monkeypatch):
    # four step lengths per block and iteration: the 4th is iteration 1's last
    b, blocks = _random_program(5)
    _fail_fourth_call(monkeypatch, "_max_step")
    res = solve_sdp(b, blocks, tol=1e-12)
    assert res.iterations == 1
    _check_stalled_iterate(res, blocks)


def test_failed_schur_factorization_reports_stalled(monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(sdp.scipy.linalg, "cho_factor", failing)
    res = solve_sdp(*_random_program(5), tol=1e-12)
    assert (res.status, res.reason, res.iterations) == ("stalled", "schur_failed", 1)

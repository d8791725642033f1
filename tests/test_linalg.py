"""The PSD decision `linalg.is_psd`: its shifted Cholesky certificate must
give the verdict of the eigenvalue rule psd_margin(m) >= -EPS_PSD, where
psd_margin is lambda_min / max(1, max |lambda|), away from the rounding band
at the floor, and must read no eigenvalue on a positive Gram.  The operator
norm `linalg.operator_norm`, taken over the support blocks of its stack,
must be the norm of the whole matrix."""

import numpy as np
import pytest

from choimetric import linalg
from choimetric.channels import amplify, omega_tau
from choimetric.experiments import stability_context
from choimetric.generate import random_pdf
from choimetric.groups import multiplier_channel
from choimetric.linalg import EPS_PSD, is_psd, operator_norm, psd_margin, support_blocks

SIZES = [1, 2, 3, 5, 8, 16, 36, 64, 100, 144, 150]


def _hermitian(rng, lam):
    """U diag(lam) U^* for a random unitary U."""
    n = len(lam)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (q * lam) @ q.conj().T


def _spectra(rng, n):
    """Spectra of size n, largest magnitude below and above 1: flat ones,
    where ||m||_F is about sqrt(n) max |lambda|, spread ones, and ones of
    rank 1 and of rank n / 2."""
    for top in (0.3, 50.0):
        yield top * rng.uniform(0.5, 1.0, n)
        yield top * np.geomspace(1e-3, 1.0, n)
        yield top * (np.arange(n) == n - 1)
        yield top * (np.arange(n) >= n // 2) * rng.uniform(0.5, 1.0, n)


@pytest.mark.parametrize("n", SIZES)
def test_is_psd_is_the_eigenvalue_rule(n):
    # lambda_min moved to 0 and to -c times the floor EPS_PSD max(1,
    # max |lambda|) of the rule: c in {0.01, 0.4} passes and {2, 10} fails,
    # whether the certificate decides (its shift EPS_PSD max(1, max |h_ij|)
    # / 2 is near half the floor on a flat spectrum) or the eigenvalues do
    # (the shift is far below it on a rank-1 one)
    rng = np.random.default_rng(n)
    for lam in _spectra(rng, n):
        low = int(np.argmin(lam))
        floor = EPS_PSD * max(1.0, float(np.abs(np.delete(lam, low)).max(initial=0.0)))
        for c, expected in ((0.0, True), (0.01, True), (0.4, True), (2.0, False),
                            (10.0, False)):
            moved = lam.copy()
            moved[low] = -c * floor
            m = _hermitian(rng, moved)
            assert is_psd(m) is expected, (n, c, lam.max())
            assert (psd_margin(m) >= -EPS_PSD) is expected


@pytest.mark.parametrize("n", SIZES)
def test_is_psd_rejects_a_matrix_that_is_not_hermitian(n):
    # a positive definite matrix with one entry moved by 1e-3 i off its
    # Hermitian place: the skew part is far above 10 EPS_PSD s min(n, 100)
    rng = np.random.default_rng(n)
    m = _hermitian(rng, rng.uniform(0.5, 1.0, n))
    m[0, n - 1] += 1e-3j * max(1.0, float(np.abs(m).max()))
    assert not is_psd(m)
    assert psd_margin(m) == -np.inf


def test_a_positive_gram_is_decided_without_an_eigenvalue(monkeypatch):
    # the GNS Gram of omega(id_2 (x) F) for a multiplier F on Z3, 144 x 144
    # and positive semidefinite of rank below 144: its Cholesky certificate
    # passes, so no eigenvalue is read
    ctx = stability_context("Z3")
    f = multiplier_channel(random_pdf(np.random.default_rng(0), ctx.base.group), ctx.base.ga)
    om = omega_tau(amplify(ctx.n, f), ctx.amp_trace)
    gram = om.gns_gram()
    assert gram.shape == (144, 144)

    def no_eigenvalues(*args, **kwargs):
        raise AssertionError("an eigenvalue was computed")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigenvalues)
    monkeypatch.setattr(np.linalg, "eigh", no_eigenvalues)
    assert is_psd(gram)
    assert om.is_positive()
    monkeypatch.undo()
    assert psd_margin(gram) >= -EPS_PSD
    assert np.linalg.matrix_rank(gram) < 144


def test_an_indefinite_matrix_reads_the_eigenvalue_rule(monkeypatch):
    # the certificate fails on an indefinite matrix, and the verdict is the
    # margin's
    margin = linalg.psd_margin
    calls = []
    monkeypatch.setattr(linalg, "psd_margin", lambda m: calls.append(1) or margin(m))
    assert not is_psd(np.diag([1.0, -0.5, 2.0]))
    assert calls == [1]


def _direct_sum(rng, k, shapes, pad=(0, 0)):
    """A (k, p, q) complex stack, the direct sum of blocks of `shapes` and
    `pad` zero rows and columns under random row and column permutations.
    Every block has norm 1 in each matrix but one: block t has norm 2 in
    the matrices i with i = t mod len(shapes)."""
    p, q = (sum(dims) + extra for dims, extra in zip(zip(*shapes), pad))
    m = np.zeros((k, p, q), dtype=complex)
    i = j = 0
    for t, (r, c) in enumerate(shapes):
        block = rng.standard_normal((k, r, c)) + 1j * rng.standard_normal((k, r, c))
        block /= np.linalg.norm(block, 2, axis=(-2, -1))[:, None, None]
        block[np.arange(k) % len(shapes) == t] *= 2
        m[:, i:i + r, j:j + c] = block
        i, j = i + r, j + c
    return m[:, rng.permutation(p)][:, :, rng.permutation(q)]


@pytest.mark.parametrize("shapes, pad", [
    ([(9, 4), (1, 12), (6, 6), (9, 5), (3, 3), (5, 2)], (2, 1)),
    ([(72, 72), (72, 72)], (0, 0)),
    ([(9, 9)] * 16, (0, 3)),
    ([(1, 1)] * 30 + [(4, 1), (1, 3)], (3, 0)),
    ([(40, 35)], (0, 0)),
])
def test_operator_norm_of_a_direct_sum_is_its_largest_block(shapes, pad, rng):
    # each block is the largest of some matrix, so dropping any block, the
    # last one found among them, moves that matrix's norm from 2 to 1
    k = 2 * len(shapes)
    m = _direct_sum(rng, k, shapes, pad)
    assert min(m.shape[1:]) >= linalg.SPLIT_MIN
    assert len(support_blocks((m != 0).any(axis=0))) == len(shapes)
    reference = np.linalg.norm(m, 2, axis=(-2, -1))
    assert np.allclose(reference, 2.0, rtol=1e-13, atol=0.0)
    norms = operator_norm(m)
    assert norms.shape == (k,) and np.all(np.abs(norms - reference) <= 1e-13 * reference)
    single = operator_norm(m[1])
    assert isinstance(single, float) and abs(single - reference[1]) <= 1e-13 * reference[1]


def test_one_block_and_small_stacks_are_the_plain_svd(rng):
    # one support block however large, and any stack below SPLIT_MIN rows or
    # columns, split or not, is taken whole: the plain SVD's values exactly
    m = rng.standard_normal((6, 40, 33)) + 1j * rng.standard_normal((6, 40, 33))
    m[:, 3] = 0
    m[:, :, 1] = 0
    assert len(support_blocks((m != 0).any(axis=0))) == 1
    small = _direct_sum(rng, 4, [(3, 2), (2, 5)], (1, 1))
    tall = _direct_sum(rng, 4, [(3, 2), (2, 5)], (linalg.SPLIT_MIN, 0))
    assert len(support_blocks((small != 0).any(axis=0))) == 2
    for stack in (m, small, tall):
        assert np.array_equal(operator_norm(stack), np.linalg.norm(stack, 2, axis=(-2, -1)))
        assert operator_norm(stack[2]) == np.linalg.norm(stack[2], 2)


def test_operator_norm_of_empty_and_zero_stacks():
    for shape in ((0, 4, 3), (3, 0, 2), (3, 2, 0), (2, 3, 3)):
        assert np.array_equal(operator_norm(np.zeros(shape, dtype=complex)), np.zeros(shape[0]))
    for shape in ((0, 3), (4, 4)):
        norm = operator_norm(np.zeros(shape))
        assert isinstance(norm, float) and norm == 0.0


def test_support_blocks_follow_chains_of_any_length(rng):
    # a staircase joins row i to columns i and i + 1: one block however long,
    # found under any permutation; two staircases are two blocks, in the
    # order of their first rows, with an empty row and column in neither
    stair = np.eye(40, dtype=bool) | np.eye(40, k=1, dtype=bool)
    rows, cols = rng.permutation(40), rng.permutation(40)
    [(r, c)] = support_blocks(stair[rows][:, cols])
    assert np.array_equal(r, np.arange(40)) and np.array_equal(c, np.arange(40))
    two = np.zeros((81, 81), dtype=bool)
    two[1:41, :40] = stair
    two[41:, 41:] = stair
    rows, cols = rng.permutation(81), rng.permutation(81)
    blocks = support_blocks(two[rows][:, cols])
    assert len(blocks) == 2 and blocks[0][0][0] < blocks[1][0][0]
    found = sorted((sorted(rows[r]), sorted(cols[c])) for r, c in blocks)
    assert found == [(list(range(1, 41)), list(range(40))),
                     (list(range(41, 81)), list(range(41, 81)))]
    for shape in ((3, 2), (0, 2), (2, 0)):
        assert support_blocks(np.zeros(shape, dtype=bool)) == []

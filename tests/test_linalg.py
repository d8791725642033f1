"""The PSD decision `linalg.is_psd`: its shifted Cholesky certificate must
give the verdict of the eigenvalue rule psd_margin(m) >= -EPS_PSD, where
psd_margin is lambda_min / max(1, max |lambda|), away from the rounding band
at the floor, and must read no eigenvalue on a positive Gram."""

import numpy as np
import pytest

from choimetric import linalg
from choimetric.channels import amplify, omega_tau
from choimetric.experiments import stability_context
from choimetric.generate import random_pdf
from choimetric.groups import multiplier_channel
from choimetric.linalg import EPS_PSD, is_psd, psd_margin

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

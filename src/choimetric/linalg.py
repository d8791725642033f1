"""Dense complex linear-algebra helpers shared across the package."""

from __future__ import annotations

import numpy as np

# Structural tolerance: closure residuals, Hermiticity, unit reconstruction.
EPS_STRUCT = 1e-9
# Eigenvalue floor for PSD tests, relative to the largest magnitude eigenvalue.
EPS_PSD = 1e-9


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def is_hermitian(m: np.ndarray) -> bool:
    """||m - m^*||_F at most EPS_STRUCT max(1, max |m_ij|) n."""
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    return frobenius(m - dagger(m)) <= EPS_STRUCT * scale * m.shape[0]


def operator_norm(m: np.ndarray):
    """Largest singular value of a matrix, as a float, or of each matrix of
    a (k, p, q) stack, as an array of k, from one batched SVD."""
    norms = np.linalg.norm(m, 2, axis=(-2, -1)) if m.size else np.zeros(m.shape[:-2])
    return float(norms) if m.ndim == 2 else norms


def complex_samples(rng: np.random.Generator, k: int, d: int) -> np.ndarray:
    """A (k, d) stack whose row r is rng.standard_normal(d) + 1j *
    rng.standard_normal(d), drawn row after row: the points of k draws in
    turn, from one call."""
    z = rng.standard_normal((k, 2, d))
    return z[:, 0] + 1j * z[:, 1]


def contract_stack(mat: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The stack sum_i mat[r, i] stack[i] over r, as one matrix product."""
    return (mat @ stack.reshape(len(stack), -1)).reshape((len(mat),) + stack.shape[1:])


def kron_stack(stack_a: np.ndarray, stack_b: np.ndarray) -> np.ndarray:
    """The Kronecker products stack_a[i] (x) stack_b[j], over (i, j) in
    row-major order, as one (len(a) len(b), p r, q s) stack."""
    (da, p, q), (db, r, s) = stack_a.shape, stack_b.shape
    return np.einsum("aij,bkl->abikjl", stack_a, stack_b).reshape(da * db, p * r, q * s)


def components(adjacency: np.ndarray) -> list[np.ndarray]:
    """Connected components of a symmetric boolean adjacency matrix, in the
    order of their first nodes; a node without a self-loop is in none."""
    # closed under chains by squaring until stable
    while not np.array_equal(adjacency, wider := adjacency @ adjacency):
        adjacency = wider
    comps = []
    seen = np.zeros(len(adjacency), dtype=bool)
    for i in np.flatnonzero(adjacency.diagonal()):
        if not seen[i]:
            comps.append(np.flatnonzero(adjacency[i]))
            seen[comps[-1]] = True
    return comps


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + dagger(m))


def _checked_hermitian_part(m: np.ndarray) -> np.ndarray | None:
    """The Hermitian part of m, or None when m is not Hermitian:
    ||m - m^*||_F above 10 EPS_PSD max(1, max |m_ij|) min(n, 100)."""
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    skew = m - dagger(m)
    if frobenius(skew) > 10 * EPS_PSD * scale * min(m.shape[0], 100):
        return None
    return m - 0.5 * skew


def psd_margin(m: np.ndarray) -> float:
    """Smallest eigenvalue over max(1, largest eigenvalue magnitude), or -inf
    when m is not Hermitian (see `_checked_hermitian_part`)."""
    herm = _checked_hermitian_part(m)
    if herm is None:
        return -np.inf
    lam = np.linalg.eigvalsh(herm)
    return float(lam[0]) / max(float(np.abs(lam).max(initial=0.0)), 1.0)


def is_psd(m: np.ndarray) -> bool:
    """Hermitian, with no eigenvalue below -EPS_PSD relative to the largest
    magnitude one (or to 1): psd_margin(m) >= -EPS_PSD.

    Decided first by one Cholesky factorization of H + delta I, with H the
    Hermitian part and delta = EPS_PSD s / 2, s = max(1, max |h_ij|).  A
    factorization that completes in floating point proves H + delta I + E
    positive definite for some ||E|| <= (n + 1)^2 u s, u the unit roundoff
    (Demmel, 1989; Rump, BIT 46, 2006).  It is tried only when (n + 1)^2
    times machine epsilon, 2u, is at most EPS_PSD / 2 (n up to about 1500),
    so the spare half of the floor covers E.  Then lambda_min(H) >
    -EPS_PSD s, and since |h_ij| <= max |lambda|, s <= max(1, max |lambda|)
    and the margin is above -EPS_PSD: no eigenvalue is computed.  A failed
    factorization falls back to the margin itself, so the verdict is the
    margin's except for a smallest eigenvalue within rounding of the
    floor."""
    shifted = _checked_hermitian_part(m)
    if shifted is None:
        return False
    n = len(shifted)
    if (n + 1) ** 2 * np.finfo(float).eps <= 0.5 * EPS_PSD:
        shifted.flat[::n + 1] += 0.5 * EPS_PSD * max(
            1.0, float(np.abs(shifted).max(initial=0.0)))
        try:
            np.linalg.cholesky(shifted)
            return True
        except np.linalg.LinAlgError:
            pass
    return psd_margin(m) >= -EPS_PSD


def row_and_null_space_real(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the row space and of the null space of a real
    matrix, as columns, from one SVD; singular values at most 1e-12 * s_max
    * max(shape) count as zero.

    A tall matrix is first reduced to the R factor of its QR decomposition,
    which has the same singular values and right factor (Chan, ACM TOMS 8,
    1982), so the unused tall left factor is never formed."""
    if mat.size == 0:
        return np.zeros((mat.shape[1], 0)), np.eye(mat.shape[1])
    shape = mat.shape
    if shape[0] > shape[1]:
        mat = np.linalg.qr(mat, mode="r")
    # the economy SVD of a square matrix carries the complete right factor
    _, s, vh = np.linalg.svd(mat, full_matrices=shape[0] < shape[1])
    rank = int(np.sum(s > s[0] * 1e-12 * max(shape)))
    return vh[:rank].conj().T, vh[rank:].conj().T

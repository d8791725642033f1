"""Dense primal-dual interior-point solver for small Hermitian SDPs.

Solves the pair

    (D)  maximize   b' y
         subject to Z_k = C_k - sum_i y_i A_ik >= 0     for every block k

    (P)  minimize   sum_k <C_k, X_k>
         subject to sum_k Re<A_ik, X_k> = b_i,  X_k >= 0

over complex Hermitian blocks, with the HKM search direction (Helmberg,
Rendl, Vanderbei and Wolkowicz 1996) and Mehrotra's predictor-corrector, as
in SDPT3: one Schur build and two solves per iteration, the second with the
predictor's second-order term dX dZ.  Intended problem sizes: a few hundred
scalar variables and blocks up to a few hundred rows.

Blocks of one size are held as one stack: C, X and Z of shape (k, n, n) and
A of shape (m, k, n, n).  So each iteration does its work once per block
size, not once per block.  It takes the Cholesky factors of the X and Z of
a size group and their triangular inverses in one stacked call each, which
give the Schur matrix M_ij = Re tr(A_i X A_j Z^{-1}), Z^{-1} and the step
factors, with no eigendecomposition.  The Schur matrix and A(X) are real:
M is one real SYRK on the float64 view of the G_i = R_Z A_i L_X, and A(X)
one real matvec.  The step lengths of a size group come from one `eigvalsh`
of its scaled X and Z directions stacked together, and LAPACK's `dpotrf`
and `dpotrs` factor the Schur matrix and solve with it.

The reported `value` is the dual objective b'y of the returned iterate,
whose slack Z is kept positive definite throughout, so for the metric
programs in this package it is always the value of a feasible point.
`metrics.wasserstein_dual` poses its program on the primal side and reads
`primal_value` <C, X> instead, whose X meets A(X) = b only to the residual
tolerance.
`status` is "optimal" when the returned iterate meets the relative-gap and
both residual tolerances, "max_iter" when the iteration reached the cap, and
"stalled" when it stopped earlier; the better of the final and the best
iterate is returned.  `reason` says why the iteration ended:

- "converged": the returned iterate meets the tolerances (status "optimal");
- "max_iter": the iteration cap;
- "no_progress": 8 iterations without a better merit max(rel_gap, pinf, dinf);
- "small_steps": 3 iterations in a row with both step lengths below 1e-5;
- "numerical_floor": the gap or the smallest eigenvalue of a slack reached
  rounding level, where further steps only inject noise;
- "factorization_failed": a Cholesky factor of X or Z, or a smallest
  eigenvalue of a step, failed;
- "schur_failed": the Schur matrix stayed indefinite under jitter;
- "non_finite": the gap, the dual objective or the Schur matrix is not finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


@dataclass(eq=False)
class SDPResult:
    y: np.ndarray
    value: float
    primal_value: float
    gap: float
    rel_gap: float
    primal_infeas: float
    dual_infeas: float
    iterations: int
    status: str                      # "optimal" | "max_iter" | "stalled"
    reason: str                      # why the iteration ended; see the module docstring


# the fraction of the distance to the cone boundary taken per step
_STEP_FRAC = 0.98
# the iteration cap every solve in the package uses
MAX_ITER = 200


def _real(a: np.ndarray) -> np.ndarray:
    """The float64 view of a complex array, its last axis twice as long."""
    return a.view(np.float64)


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """Re <u, v> of two complex stacks of one shape."""
    return float(_real(u.reshape(-1)) @ _real(v.reshape(-1)))


def _norms(s: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of a complex stack."""
    v = _real(s.reshape(len(s), -1))
    return np.sqrt((v * v).sum(axis=1))


def _herm(s: np.ndarray) -> np.ndarray:
    return 0.5 * (s + s.conj().swapaxes(-1, -2))


class _SizeGroup:
    """The k blocks of one size n as stacks: C of shape (k, n, n) and A of
    shape (m, k, n, n), with A's float64 view flattened per A_i for A(X)
    and A*(y), and the two work arrays of the Schur build."""

    def __init__(self, blocks):
        self.c = np.asarray([cmat for cmat, _ in blocks], dtype=complex)
        self.a = np.asarray(np.stack([astack for _, astack in blocks], axis=1), dtype=complex)
        self.rows = _real(self.a.reshape(len(self.a), -1))
        self.cnorm = 1.0 + _norms(self.c)
        # reused: a fresh array per iteration costs page faults once A passes
        # about a megabyte
        self._left, self._g = np.empty_like(self.a), np.empty_like(self.a)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A(X)_i = sum_k Re tr(A_ik X_k*), which is Re tr(A_ik X_k) for
        Hermitian X_k."""
        return self.rows @ _real(x.reshape(-1))

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A*(y)_k = sum_i y_i A_ik."""
        return (y @ self.rows).view(complex).reshape(self.c.shape)

    def schur(self, lx: np.ndarray, rz: np.ndarray) -> np.ndarray:
        """The group's term of the Schur matrix, M_ij = Re tr(A_i X A_j
        Z^{-1}) = Re <G_i, G_j> summed over its blocks, for G_i = R_Z A_i L_X:
        one SYRK on the float64 view of the G_i."""
        np.matmul(rz, self.a, out=self._left)
        np.matmul(self._left, lx, out=self._g)
        g = _real(self._g.reshape(len(self.a), -1))
        return g @ g.T


def _group_by_size(blocks) -> list:
    """The (C, A) blocks as one `_SizeGroup` per block size, in the order of
    their first blocks."""
    by_size: dict[int, list] = {}
    for block in blocks:
        by_size.setdefault(len(block[0]), []).append(block)
    return [_SizeGroup(group) for group in by_size.values()]


def _factor(s: np.ndarray):
    """The lower Cholesky factors L of a stack s = L L* and their inverses;
    raises LinAlgError when a matrix of the stack has no factor."""
    lower = np.linalg.cholesky(s)
    return lower, np.linalg.inv(lower)


def _schur_factor(schur: np.ndarray):
    """The lower Cholesky factor of the Schur matrix plus the smallest of 8
    growing jitters that makes it positive definite, or None."""
    jitter = 1e-13 * max(schur.diagonal().max(initial=0.0), 1.0)
    eye = np.eye(len(schur))
    for _ in range(8):
        factor, info = scipy.linalg.lapack.dpotrf(schur + jitter * eye, lower=1)
        if info == 0:
            return factor
        jitter *= 100
    return None


def _smallest_eigenvalues(rinv: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """lam_min(R dS R*) for each matrix of the stacks; s + a ds stays PSD for
    every a <= -1 / lam_min when R* R = s^{-1} and lam_min < 0."""
    inner = rinv @ ds @ rinv.conj().swapaxes(-1, -2)
    # eigvalsh reads the lower triangle alone, so inner needs no Hermitian
    # part.  numpy's eigvalsh, not scipy's one-eigenvalue heevr: with more
    # than one BLAS thread, the spinning threads of scipy's separate OpenBLAS
    # pool made every solve several times slower
    lam = np.linalg.eigvalsh(inner)[:, 0]
    if not np.all(np.isfinite(lam)):
        raise np.linalg.LinAlgError("the step direction is not finite")
    return lam


def _step(lam_min: float) -> float:
    """The step length for the smallest scaled eigenvalue of a direction."""
    return 1.0 if lam_min >= -1e-14 else min(1.0, _STEP_FRAC * (-1.0 / lam_min))


def feasibility_tolerance(tol: float) -> float:
    """The residual tolerance `solve_sdp` uses at gap tolerance `tol`."""
    return max(10 * tol, 1e-8)


def solve_sdp(b, blocks, tol=1e-7, max_iter=MAX_ITER) -> SDPResult:
    """Solve the block SDP; `blocks` is a list of (C, Astack) pairs with C of
    shape (n, n) and Astack of shape (m, n, n), all Hermitian."""
    b = np.asarray(b, dtype=float)
    m = b.shape[0]
    feas_tol = feasibility_tolerance(tol)
    groups = _group_by_size(blocks)
    cs = [group.c for group in groups]
    ntot = sum(c.shape[0] * c.shape[1] for c in cs)

    def a_apply(mats):
        return sum(group.apply(x) for group, x in zip(groups, mats))

    def a_adjoint(y):
        return [group.adjoint(y) for group in groups]

    # feasible-on-the-dual-side start: shift C into the cone if needed
    zs = []
    for c in cs:
        h = _herm(c)
        lam_min = np.linalg.eigvalsh(h)[:, 0]
        scale = np.maximum(1.0, np.abs(c).max(axis=(1, 2)))
        shift = np.maximum(0.0, 0.1 * scale - lam_min)
        zs.append(h + shift[:, None, None] * np.eye(c.shape[1]))
    scale_x = max(1.0, float(np.abs(b).max(initial=0.0)))
    xs = [np.broadcast_to(scale_x * np.eye(c.shape[1], dtype=complex), c.shape).copy()
          for c in cs]
    bnorm = 1.0 + float(np.sqrt(b @ b))
    y = np.zeros(m)

    def diagnostics():
        rp = b - a_apply(xs)
        rds = [c - ay - z for c, ay, z in zip(cs, a_adjoint(y), zs)]
        gap = sum(_dot(x, z) for x, z in zip(xs, zs))
        obj_d = float(b @ y)
        obj_p = sum(_dot(c, x) for c, x in zip(cs, xs))
        rel_gap = abs(gap) / (1.0 + abs(obj_d) + abs(obj_p))
        pinf = float(np.sqrt(rp @ rp)) / bnorm
        dinf = max((float((_norms(rd) / group.cnorm).max())
                    for rd, group in zip(rds, groups)), default=0.0)
        return rp, rds, gap, obj_d, obj_p, rel_gap, pinf, dinf

    best = None
    reason = "max_iter"
    it = 0
    small_steps = 0
    stall = 0
    for it in range(1, max_iter + 1):
        rp, rds, gap, obj_d, obj_p, rel_gap, pinf, dinf = diagnostics()
        if not np.isfinite(gap) or not np.isfinite(obj_d):
            reason = "non_finite"
            break
        merit = max(rel_gap, pinf, dinf)
        if best is None or merit < best[0]:
            best = (merit, y.copy(), obj_d, obj_p, rel_gap, pinf, dinf)
            stall = 0
        else:
            stall += 1
        if rel_gap <= tol and pinf <= feas_tol and dinf <= feas_tol:
            reason = "converged"
            break
        if stall >= 8:
            reason = "no_progress"
            break
        # X = L_X L_X*, Z = L_Z L_Z*, and R = L^{-1}: one stack per group
        try:
            factors = [_factor(np.concatenate([x, z])) for x, z in zip(xs, zs)]
        except np.linalg.LinAlgError:
            reason = "factorization_failed"
            break
        lxs = [lower[:len(x)] for (lower, _), x in zip(factors, xs)]
        rzs = [rinv[len(x):] for (_, rinv), x in zip(factors, xs)]
        zinvs = [rz.conj().swapaxes(1, 2) @ rz for rz in rzs]
        # 1 / ||Z^{-1}||_F, a lower bound on lam_min(Z), relative to max |Z_ij|
        floor = min(float((1.0 / _norms(zinv)
                           / np.maximum(1.0, np.abs(z).max(axis=(1, 2)))).min())
                    for zinv, z in zip(zinvs, zs))
        # iterates at the numerical floor: further steps only inject noise
        if gap <= 1e-13 * (1.0 + abs(obj_d)) or floor < 1e-14:
            reason = "numerical_floor"
            break

        # Schur complement of the HKM system: M_ij = Re tr(A_i X A_j Z^{-1})
        schur = sum(group.schur(lx, rz) for group, lx, rz in zip(groups, lxs, rzs))
        if not np.all(np.isfinite(schur)):
            reason = "non_finite"
            break
        schur_f = _schur_factor(schur)
        if schur_f is None:
            reason = "schur_failed"
            break

        def schur_solve(rhs):
            return scipy.linalg.lapack.dpotrs(schur_f, rhs, lower=1)[0]

        # dX = herm(sigma_mu Z^{-1} - X - left Z^{-1} + X A*(dy) Z^{-1}), where
        # left is X R_d plus the corrector's second-order term
        def solve_direction(sigma_mu, lefts):
            raux = [sigma_mu * zinv - x - left @ zinv
                    for x, left, zinv in zip(xs, lefts, zinvs)]
            rhs = rp - a_apply(raux)
            # Schur solve with one step of iterative refinement
            dy = schur_solve(rhs)
            dy += schur_solve(rhs - schur @ dy)
            adys = a_adjoint(dy)
            dxs = [_herm(ra + x @ ady @ zinv) for ra, x, ady, zinv in zip(raux, xs, adys, zinvs)]
            dzs = [_herm(rd - ady) for rd, ady in zip(rds, adys)]
            return dy, dxs, dzs

        def steps(dxs, dzs):
            """Primal and dual step lengths: one eigvalsh per size group."""
            lam_x = lam_z = np.inf
            for (_, rinv), dx, dz in zip(factors, dxs, dzs):
                lam = _smallest_eigenvalues(rinv, np.concatenate([dx, dz]))
                lam_x = min(lam_x, float(lam[:len(dx)].min()))
                lam_z = min(lam_z, float(lam[len(dx):].min()))
            return _step(lam_x), _step(lam_z)

        mu = gap / ntot
        xrds = [x @ rd for x, rd in zip(xs, rds)]
        try:
            # predictor: pure affine step fixes the centering weight
            _, dxs_a, dzs_a = solve_direction(0.0, xrds)
            ap, ad = steps(dxs_a, dzs_a)
            gap_aff = sum(_dot(x + ap * dx, z + ad * dz)
                          for x, dx, z, dz in zip(xs, dxs_a, zs, dzs_a))
            ratio = max(gap_aff, 0.0) / max(gap, 1e-300)
            sigma = float(np.clip(min(ratio, 1.0) ** 3, 1e-8, 0.9))

            # corrector: Mehrotra's second-order term dX_a dZ_a
            dy, dxs, dzs = solve_direction(
                sigma * mu, [xr + dx @ dz for xr, dx, dz in zip(xrds, dxs_a, dzs_a)])
            ap, ad = steps(dxs, dzs)
        except np.linalg.LinAlgError:
            reason = "factorization_failed"
            break
        xs = [_herm(x + ap * dx) for x, dx in zip(xs, dxs)]
        zs = [_herm(z + ad * dz) for z, dz in zip(zs, dzs)]
        y = y + ad * dy

        if max(ap, ad) < 1e-5:
            small_steps += 1
            if small_steps >= 3:
                reason = "small_steps"
                break
        else:
            small_steps = 0

    # the final iterate; after an early stop, the best one if that is better
    _, _, gap, obj_d, obj_p, rel_gap, pinf, dinf = diagnostics()
    status = {"converged": "optimal", "max_iter": "max_iter"}.get(reason, "stalled")
    if status != "optimal":
        final = (max(rel_gap, pinf, dinf), y, obj_d, obj_p, rel_gap, pinf, dinf)
        if best is None or (np.isfinite(gap) and final[0] < best[0]):
            best = final
        _, y, obj_d, obj_p, rel_gap, pinf, dinf = best
        if rel_gap <= tol and pinf <= feas_tol and dinf <= feas_tol:
            status, reason = "optimal", "converged"
    return SDPResult(y=y, value=obj_d, primal_value=obj_p,
                     gap=abs(obj_p - obj_d), rel_gap=rel_gap,
                     primal_infeas=pinf, dual_infeas=dinf,
                     iterations=it, status=status, reason=reason)

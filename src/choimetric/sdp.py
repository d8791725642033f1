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
scalar variables and blocks up to a few hundred rows.  Each iteration takes
the Cholesky factors of every block's X and Z and their triangular inverses,
which give the Schur matrix M_ij = Re tr(A_i X A_j Z^{-1}), Z^{-1} and the
step factors, with no eigendecomposition; a step length is the smallest
eigenvalue of one scaled direction; one Cholesky factors the Schur matrix.

The reported `value` is the dual objective b'y of the returned iterate,
whose slack Z is kept positive definite throughout, so for the metric
programs in this package it is always the value of a feasible point.
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


@dataclass
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


def _cholesky(s):
    """The lower Cholesky factor L of s = L L* and its inverse."""
    lower, info = scipy.linalg.lapack.zpotrf(s, lower=1)
    if info == 0:
        inv, info = scipy.linalg.lapack.ztrtri(lower, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"Cholesky factor of a block failed (info {info})")
    return lower, inv


def _factor_iterate(x, z):
    """Every factorization one iteration needs of a block's iterate (X, Z).

    From the Cholesky factors X = L_X L_X* and Z = L_Z L_Z* it returns the
    floor ratio (1 / ||Z^{-1}||_F) / max(1, max |Z_ij|), a lower bound on
    lam_min(Z) / max(1, max |Z_ij|); L_X; R_Z = L_Z^{-1}, so that
    Z^{-1} = R_Z* R_Z; Z^{-1}; and R_X = L_X^{-1}, so that X^{-1} = R_X* R_X.
    R_X and R_Z are the step factors of `_max_step`."""
    lx, rx = _cholesky(x)
    _, rz = _cholesky(z)
    zinv = rz.conj().T @ rz
    floor = 1.0 / float(np.linalg.norm(zinv)) / max(1.0, float(np.abs(z).max()))
    return floor, lx, rz, zinv, rx


def _max_step(rinv, ds):
    """sup { a : s + a ds >= 0 } for Hermitian s > 0 with rinv* rinv = s^{-1}."""
    inner = rinv @ ds @ rinv.conj().T
    # numpy's eigvalsh, not scipy's one-eigenvalue heevr: with more than one
    # BLAS thread, the spinning threads of scipy's separate OpenBLAS pool made
    # every solve several times slower
    lam_min = float(np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))[0])
    if not np.isfinite(lam_min):
        raise np.linalg.LinAlgError("the step direction is not finite")
    if lam_min >= -1e-14:
        return np.inf
    return -1.0 / lam_min


def feasibility_tolerance(tol: float) -> float:
    """The residual tolerance `solve_sdp` uses when it is given none."""
    return max(10 * tol, 1e-8)


def solve_sdp(b, blocks, tol=1e-7, feas_tol=None,
              max_iter=MAX_ITER) -> SDPResult:
    """Solve the block SDP; `blocks` is a list of (C, Astack) pairs with C of
    shape (n, n) and Astack of shape (m, n, n), all Hermitian."""
    b = np.asarray(b, dtype=float)
    m = b.shape[0]
    if feas_tol is None:
        feas_tol = feasibility_tolerance(tol)
    cs = [np.asarray(c, dtype=complex) for c, _ in blocks]
    stacks = [np.asarray(a, dtype=complex) for _, a in blocks]
    sizes = [c.shape[0] for c in cs]
    ntot = sum(sizes)

    def a_apply(mats):
        """A(X)_i = sum_k Re tr(A_ik X_k)."""
        out = np.zeros(m)
        for stack, xk in zip(stacks, mats):
            out += (stack.reshape(m, -1) @ np.conj(xk).ravel()).real
        return out

    def a_adjoint(y):
        return [(y @ stack.reshape(m, -1)).reshape(n, n) for stack, n in zip(stacks, sizes)]

    # feasible-on-the-dual-side start: shift C into the cone if needed
    zs = []
    for c in cs:
        lam_min = float(np.linalg.eigvalsh(0.5 * (c + c.conj().T))[0])
        scale = max(1.0, float(np.abs(c).max(initial=0.0)))
        shift = max(0.0, 0.1 * scale - lam_min)
        zs.append(0.5 * (c + c.conj().T) + shift * np.eye(c.shape[0]))
    scale_x = max(1.0, float(np.abs(b).max(initial=0.0)))
    xs = [scale_x * np.eye(n, dtype=complex) for n in sizes]
    y = np.zeros(m)

    def diagnostics():
        rp = b - a_apply(xs)
        rds = [c - ay - z for c, ay, z in zip(cs, a_adjoint(y), zs)]
        gap = sum((np.vdot(x, z)).real for x, z in zip(xs, zs))
        obj_d = float(b @ y)
        obj_p = sum((np.vdot(c, x)).real for c, x in zip(cs, xs))
        rel_gap = abs(gap) / (1.0 + abs(obj_d) + abs(obj_p))
        pinf = float(np.linalg.norm(rp)) / (1.0 + float(np.linalg.norm(b)))
        dinf = max((np.linalg.norm(rd) / (1.0 + np.linalg.norm(c))
                    for rd, c in zip(rds, cs)), default=0.0)
        return rp, rds, gap, obj_d, obj_p, rel_gap, pinf, dinf

    def step(rinvs, dmats):
        return min(1.0, _STEP_FRAC * min((_max_step(r, d) for r, d in zip(rinvs, dmats)),
                                         default=np.inf))

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
        try:
            floors, lxs, rzs, zinvs, rxs = zip(*map(_factor_iterate, xs, zs))
        except np.linalg.LinAlgError:
            reason = "factorization_failed"
            break
        # iterates at the numerical floor: further steps only inject noise
        if gap <= 1e-13 * (1.0 + abs(obj_d)) or min(floors) < 1e-14:
            reason = "numerical_floor"
            break

        # Schur complement of the HKM system: M_ij = Re tr(A_i X A_j Z^{-1})
        schur = np.zeros((m, m))
        for lx, rz, stack in zip(lxs, rzs, stacks):
            g = np.matmul(rz[None], np.matmul(stack, lx[None]))
            gmat = g.reshape(m, -1)
            schur += (gmat @ gmat.conj().T).real
        if not np.all(np.isfinite(schur)):
            reason = "non_finite"
            break
        schur = 0.5 * (schur + schur.T)
        jitter = 1e-13 * max(schur.diagonal().max(initial=0.0), 1.0)
        schur_f = None
        for _ in range(8):
            try:
                schur_f = scipy.linalg.cho_factor(
                    schur + jitter * np.eye(m), lower=True)
                break
            except np.linalg.LinAlgError:
                jitter *= 100
        if schur_f is None:
            reason = "schur_failed"
            break

        # dX = herm(sigma_mu Z^{-1} - X - left Z^{-1} + X A*(dy) Z^{-1}), where
        # left is X R_d plus the corrector's second-order term
        def solve_direction(sigma_mu, lefts):
            raux = [sigma_mu * zinv - x - left @ zinv
                    for x, left, zinv in zip(xs, lefts, zinvs)]
            rhs = rp - a_apply(raux)
            # Schur solve with one step of iterative refinement
            dy = scipy.linalg.cho_solve(schur_f, rhs)
            dy += scipy.linalg.cho_solve(schur_f, rhs - schur @ dy)
            adys = a_adjoint(dy)
            dzs = [rd - ady for rd, ady in zip(rds, adys)]
            dxs = [ra + x @ ady @ zinv for ra, x, ady, zinv in zip(raux, xs, adys, zinvs)]
            dxs = [0.5 * (d + d.conj().T) for d in dxs]
            dzs = [0.5 * (d + d.conj().T) for d in dzs]
            return dy, dxs, dzs

        mu = gap / ntot
        xrds = [x @ rd for x, rd in zip(xs, rds)]
        try:
            # predictor: pure affine step fixes the centering weight
            _, dxs_a, dzs_a = solve_direction(0.0, xrds)
            ap, ad = step(rxs, dxs_a), step(rzs, dzs_a)
            gap_aff = sum((np.vdot(x + ap * dx, z + ad * dz)).real
                          for x, dx, z, dz in zip(xs, dxs_a, zs, dzs_a))
            ratio = max(gap_aff, 0.0) / max(gap, 1e-300)
            sigma = float(np.clip(min(ratio, 1.0) ** 3, 1e-8, 0.9))

            # corrector: Mehrotra's second-order term dX_a dZ_a
            dy, dxs, dzs = solve_direction(
                sigma * mu, [xr + dx @ dz for xr, dx, dz in zip(xrds, dxs_a, dzs_a)])
            ap, ad = step(rxs, dxs), step(rzs, dzs)
        except np.linalg.LinAlgError:
            reason = "factorization_failed"
            break
        xs = [0.5 * ((x + ap * dx) + (x + ap * dx).conj().T) for x, dx in zip(xs, dxs)]
        zs = [0.5 * ((z + ad * dz) + (z + ad * dz).conj().T) for z, dz in zip(zs, dzs)]
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

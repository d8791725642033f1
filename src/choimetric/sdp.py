"""Dense primal-dual interior-point solver for small Hermitian SDPs.

Solves the pair

    (D)  maximize   b' y
         subject to Z_k = C_k - sum_i y_i A_ik >= 0     for every block k

    (P)  minimize   sum_k <C_k, X_k>
         subject to sum_k Re<A_ik, X_k> = b_i,  X_k >= 0

over complex Hermitian blocks, with Nesterov-Todd scaled directions and
Mehrotra-style adaptive centering (one Schur build, two solves per
iteration).  Intended problem sizes: a few hundred scalar variables and
blocks up to a few hundred rows.  Each iteration factors every block's
iterate (X, Z) once, by three dense eigendecompositions that give the NT
scaling, Z^{-1} and both step lengths; one Cholesky factors the Schur matrix.

The reported `value` is the dual objective b'y of the returned iterate,
whose slack Z is kept positive definite throughout, so for the metric
programs in this package it is always the value of a feasible point.
`status` is "optimal" when the returned iterate meets the relative-gap and both residual
tolerances.  Otherwise it says why the iteration ended: "max_iter" when it
reached the iteration cap, "stalled" when it stopped earlier (no progress
for several iterations, tiny steps, the numerical floor, or a failed
factorization); the better of the final and the best iterate is returned.
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


# the fraction of the distance to the cone boundary taken per step
_STEP_FRAC = 0.98
# the iteration cap every solve in the package uses
MAX_ITER = 200


def _factor_iterate(x, z):
    """Every factorization one iteration needs of a block's iterate (X, Z).

    From eigh(Z) = U diag(lam) U*, eigh(Z^{1/2} X Z^{1/2}) = V diag(mu) V*
    and eigh(X) it returns the floor ratio lam_min / max(1, max |Z_ij|), the
    Nesterov-Todd factor L = Z^{-1/2} V mu^{1/4} and scaling W = L L* (so
    W Z W = X), Z^{-1}, and step factors R with R* R = X^{-1} and Z^{-1}."""
    lam, u = np.linalg.eigh(z)
    floor = float(lam[0]) / max(1.0, float(np.abs(z).max()))
    root = np.sqrt(np.maximum(lam, 1e-300))
    z_half = (u * root) @ u.conj().T
    mu, v = np.linalg.eigh(z_half @ x @ z_half)
    lw = ((u / root) @ (u.conj().T @ v)) * np.maximum(mu, 1e-300) ** 0.25
    lx, ux = np.linalg.eigh(x)
    lx = np.maximum(lx, 1e-14 * max(lx[-1], 1.0))
    return (floor, lw, lw @ lw.conj().T, (u / root ** 2) @ u.conj().T,
            (ux / np.sqrt(lx)).conj().T, (u / root).conj().T)


def _max_step(rinv, ds):
    """sup { a : s + a ds >= 0 } for Hermitian s > 0 with rinv* rinv = s^{-1}."""
    inner = rinv @ ds @ rinv.conj().T
    lam_min = float(np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))[0])
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
        return [np.tensordot(y, stack, axes=1) for stack in stacks]

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
    status = "stalled"
    it = 0
    small_steps = 0
    stall = 0
    for it in range(1, max_iter + 1):
        rp, rds, gap, obj_d, obj_p, rel_gap, pinf, dinf = diagnostics()
        if not np.isfinite(gap) or not np.isfinite(obj_d):
            break
        merit = max(rel_gap, pinf, dinf)
        if best is None or merit < best[0]:
            best = (merit, y.copy(), obj_d, obj_p, rel_gap, pinf, dinf)
            stall = 0
        else:
            stall += 1
        if rel_gap <= tol and pinf <= feas_tol and dinf <= feas_tol:
            status = "optimal"
            break
        if stall >= 8:
            break
        try:
            floors, lws, ws, zinvs, rxs, rzs = zip(*map(_factor_iterate, xs, zs))
        except np.linalg.LinAlgError:
            break
        # iterates at the numerical floor: further steps only inject noise
        if gap <= 1e-13 * (1.0 + abs(obj_d)) or min(floors) < 1e-14:
            break

        # Schur complement of the NT-scaled system
        schur = np.zeros((m, m))
        for lw, stack in zip(lws, stacks):
            g = np.matmul(lw.conj().T[None], np.matmul(stack, lw[None]))
            gmat = g.reshape(m, -1)
            schur += (gmat @ gmat.conj().T).real
        if not np.all(np.isfinite(schur)):
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
            break

        def solve_direction(sigma_mu):
            raux = [sigma_mu * zinv - x - w @ rd @ w
                    for x, w, rd, zinv in zip(xs, ws, rds, zinvs)]
            rhs = rp - a_apply(raux)
            # Schur solve with one step of iterative refinement
            dy = scipy.linalg.cho_solve(schur_f, rhs)
            dy += scipy.linalg.cho_solve(schur_f, rhs - schur @ dy)
            adys = a_adjoint(dy)
            dzs = [rd - ady for rd, ady in zip(rds, adys)]
            dxs = [ra + w @ ady @ w for ra, w, ady in zip(raux, ws, adys)]
            dxs = [0.5 * (d + d.conj().T) for d in dxs]
            dzs = [0.5 * (d + d.conj().T) for d in dzs]
            return dy, dxs, dzs

        mu = gap / ntot
        # predictor: pure affine step fixes the centering weight
        _, dxs_a, dzs_a = solve_direction(0.0)
        ap, ad = step(rxs, dxs_a), step(rzs, dzs_a)
        gap_aff = sum((np.vdot(x + ap * dx, z + ad * dz)).real
                      for x, dx, z, dz in zip(xs, dxs_a, zs, dzs_a))
        ratio = max(gap_aff, 0.0) / max(gap, 1e-300)
        sigma = float(np.clip(min(ratio, 1.0) ** 3, 1e-8, 0.9))

        dy, dxs, dzs = solve_direction(sigma * mu)
        ap, ad = step(rxs, dxs), step(rzs, dzs)
        xs = [0.5 * ((x + ap * dx) + (x + ap * dx).conj().T) for x, dx in zip(xs, dxs)]
        zs = [0.5 * ((z + ad * dz) + (z + ad * dz).conj().T) for z, dz in zip(zs, dzs)]
        y = y + ad * dy

        if max(ap, ad) < 1e-5:
            small_steps += 1
            if small_steps >= 3:
                break
        else:
            small_steps = 0
    else:
        status = "max_iter"

    # the final iterate; after an early stop, the best one if that is better
    _, _, gap, obj_d, obj_p, rel_gap, pinf, dinf = diagnostics()
    if status != "optimal":
        final = (max(rel_gap, pinf, dinf), y, obj_d, obj_p, rel_gap, pinf, dinf)
        if np.isfinite(gap) and (best is None or final[0] < best[0]):
            best = final
        _, y, obj_d, obj_p, rel_gap, pinf, dinf = best
        if rel_gap <= tol and pinf <= feas_tol and dinf <= feas_tol:
            status = "optimal"
    return SDPResult(y=y, value=obj_d, primal_value=obj_p,
                     gap=abs(obj_p - obj_d), rel_gap=rel_gap,
                     primal_infeas=pinf, dual_infeas=dinf,
                     iterations=it, status=status)

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

Every block has C_k = c_k I with c_k > 0, as the package's unit balls
[[I, K(a)], [K(a)*, I]] >= 0 do (ValueError names a block that has not), so
y = 0, Z = C and X = max(1, |b|) I start exactly dual feasible.  A program
with one variable and a finite b != 0 that some block bounds is solved in
closed form (`_closed_form`) without iterating.

The blocks are packed onto the diagonals of the slots of one stack of the
largest block size N: C, X and Z of shape (k, N, N), A of shape
(m, k, N, N).  Largest first, each block takes the first slot with room,
after the blocks already there (S3's pieces [6, 6, 6, 12, 6] fill three
slots, [12], [6, 6] and [6, 6]).  A block-diagonal slot is PSD exactly when
each of its blocks is, so the program is the one posed.  The rest of a
slot's diagonal is its pad: C = I and A = 0 there, and X and Z hold I
there for the whole solve (dZ is exactly 0 on it and dX is zeroed); every
entry between two blocks is 0 in C, A, X and Z.  The gap, <C, X>, A(X),
A*(y), the Schur build and the step lengths need no block map; the dual
infeasibility ||rd_j||_F / (1 + ||C_j||_F), with ||C_j||_F = c_j sqrt(n_j),
and the floor's ||Z_j^{-1}||_F and max |Z_j| are read per block, through
one matrix of block memberships.  So an iteration makes a fixed number of
numpy calls, however many blocks of whatever sizes.  The pad multiplies the
flops by sum N^3 / sum n^3 over the slots and the blocks (about 2.0 on
the chaining programs at seed 2026 and 1.5 on the stability ones), but
blocks of a few dozen rows cost per call, not per flop.

Each iteration takes the Cholesky factors of X and Z and their triangular
inverses in one call each, which give Z^{-1}, the step factors and the
Schur matrix M_ij = Re tr(A_i X A_j Z^{-1}): one real SYRK on the float64
view of the G_i = R_Z A_i L_X.  A(X) is one real matvec, and the step
lengths come from one `eigvalsh` of the scaled X and Z directions.  One
`eigh`, M = V diag(lam) V', gives each Schur solve as
V ((r' V) / (lam + jitter)): backward stable like a Cholesky solve, in one
LAPACK call where a Cholesky factor needs eight triangular solves besides.

The reported `value` is the dual objective b'y of the returned iterate,
whose slack Z is kept positive definite throughout (the closed form's is
singular), so for the metric programs in this package it is always the
value of a feasible point.
`metrics.wasserstein_dual` poses its program on the primal side and reads
`primal_value` <C, X> instead, whose X meets A(X) = b only to the residual
tolerance.
`status` is "optimal" when the returned iterate meets the relative-gap and
both residual tolerances, "max_iter" when the iteration reached the cap, and
"stalled" when it stopped earlier; the better of the final and the best
iterate is returned.  `reason` says why the iteration ended:

- "closed_form": the one-variable closed form, status "optimal";
- "converged": the returned iterate meets the tolerances (status "optimal");
- "max_iter": the iteration cap;
- "no_progress": 8 iterations without a better merit max(rel_gap, pinf, dinf);
- "small_steps": 3 iterations in a row with both step lengths below 1e-5;
- "numerical_floor": the gap or the smallest eigenvalue of a slack reached
  rounding level, where further steps only inject noise;
- "factorization_failed": a Cholesky factor of X or Z, or a smallest
  eigenvalue of a step, failed;
- "schur_failed": the Schur matrix stayed indefinite under jitter, or its
  eigendecomposition failed;
- "non_finite": the gap, the dual objective or the Schur matrix is not finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


class _Stack:
    """The blocks packed onto the diagonals of slots of the largest size N,
    as the module docstring says, ties in input order: C (I on the pad) and
    A (0 off the blocks), A's float64 view flattened per A_i for A(X) and
    A*(y), and the two work arrays of the Schur build.  Row j of `member` is
    1 on the entries of block j, the slots flattened, and reads every
    per-block quantity.  `inner` is 1 on the block entries, `eye` the
    identity on the blocks and `pad` the identity on the rest of the
    diagonal.  Raises ValueError naming the first block whose C is not c I
    with c > 0, to 1e-12 relative."""

    def __init__(self, blocks):
        for j, (cmat, _) in enumerate(blocks):
            cj = cmat[0, 0].real
            if not (cj > 0 and np.abs(cmat - cj * np.eye(len(cmat))).max() <= 1e-12 * cj):
                raise ValueError(f"block {j}: C is not a positive multiple of the identity")
        sizes = [len(cmat) for cmat, _ in blocks]
        n = max(sizes)
        filled, place = [], []          # rows taken per slot; (block, slot, first row)
        for j in sorted(range(len(blocks)), key=sizes.__getitem__, reverse=True):
            for slot, rows in enumerate(filled):
                if rows + sizes[j] <= n:
                    break
            else:
                slot = len(filled)
                filled.append(0)
            place.append((j, slot, filled[slot]))
            filled[slot] += sizes[j]
        self.a = np.zeros((len(blocks[0][1]), len(filled), n, n), dtype=complex)
        c = np.zeros_like(self.a[0])
        self.inner = np.zeros(c.shape)
        member = np.zeros((len(blocks),) + c.shape)
        for j, slot, first in place:
            rows = slice(first, first + sizes[j])
            c[slot, rows, rows] = blocks[j][0]
            self.a[:, slot, rows, rows] = blocks[j][1]
            self.inner[slot, rows, rows] = member[j, slot, rows, rows] = 1.0
        self.member = member.reshape(len(blocks), -1)
        self.ntot = sum(sizes)
        unit = np.eye(n)
        self.eye = self.inner * unit
        self.pad = unit - self.eye
        self.cnorm = 1.0 + np.array([cmat[0, 0].real for cmat, _ in blocks]) * np.sqrt(sizes)
        c += self.pad
        self.c = c
        self.rows = _real(self.a.reshape(len(self.a), -1))
        # reused: a fresh array per iteration costs page faults once A passes
        # about a megabyte
        self._left, self._g = np.empty_like(self.a), np.empty_like(self.a)

    def norms(self, s: np.ndarray) -> np.ndarray:
        """The Frobenius norm of each block of a stack."""
        v = np.abs(s).reshape(-1)
        return np.sqrt(self.member @ (v * v))

    def maxabs(self, s: np.ndarray) -> np.ndarray:
        """The largest |s_pq| of each block of a stack."""
        return (self.member * np.abs(s).reshape(-1)).max(axis=1)

    def dot(self, u: np.ndarray, v: np.ndarray) -> float:
        """Re <u, v> over the block entries alone."""
        return float(_real((u * self.inner).reshape(-1)) @ _real(v.reshape(-1)))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A(X)_i = sum_k Re tr(A_ik X_k*), which is Re tr(A_ik X_k) for
        Hermitian X_k."""
        return self.rows @ _real(x.reshape(-1))

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A*(y)_k = sum_i y_i A_ik."""
        return (y @ self.rows).view(complex).reshape(self.c.shape)

    def schur(self, lx: np.ndarray, rz: np.ndarray) -> np.ndarray:
        """The Schur matrix M_ij = Re tr(A_i X A_j Z^{-1}) = Re <G_i, G_j>
        summed over the blocks, for G_i = R_Z A_i L_X: one SYRK on the
        float64 view of the G_i."""
        np.matmul(rz, self.a, out=self._left)
        np.matmul(self._left, lx, out=self._g)
        g = _real(self._g.reshape(len(self.a), -1))
        return g @ g.T


def _factor(s: np.ndarray):
    """The lower Cholesky factors L of a stack s = L L* and their inverses;
    raises LinAlgError when a matrix of the stack has no factor."""
    lower = np.linalg.cholesky(s)
    return lower, np.linalg.inv(lower)


def _schur_eigh(schur: np.ndarray):
    """The eigenvalues of the Schur matrix plus the smallest of 8 growing
    jitters that makes them all positive, and its eigenvectors; None when
    no jitter does or `eigh` fails."""
    try:
        lam, vec = np.linalg.eigh(schur)
    except np.linalg.LinAlgError:
        return None
    jitter = 1e-13 * max(schur.diagonal().max(initial=0.0), 1.0)
    for _ in range(8):
        if lam.min(initial=np.inf) + jitter > 0:
            return lam + jitter, vec
        jitter *= 100
    return None


def _smallest_eigenvalues(rinv: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """lam_min(R dS R*) for each matrix of the stacks; s + a ds stays PSD for
    every a <= -1 / lam_min when R* R = s^{-1} and lam_min < 0."""
    inner = rinv @ ds @ rinv.conj().swapaxes(-1, -2)
    # eigvalsh reads the lower triangle alone, so inner needs no Hermitian part
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


def _closed_form(stack: _Stack, b: float):
    """(y, X, Z) solving max b y s.t. C - y A >= 0: with s the sign of b,
    D = C^{-1/2} and w the eigenvector of the largest eigenvalue mu > 0 of
    D (s A) D (mu = max_k lam_max(s A_k) / c_k), y = s / mu and
    X = (|b| / mu) D w w* D, and Z = C - y A, the slack.  None when b = 0, b
    or A is not finite, there is no such mu or the value overflows."""
    if not (np.isfinite(b) and b != 0.0 and np.isfinite(stack.a).all()):
        return None
    s = 1.0 if b > 0 else -1.0
    d = 1.0 / np.sqrt(stack.c.diagonal(axis1=1, axis2=2).real)
    lam, vec = np.linalg.eigh(d[:, :, None] * (s * stack.a[0]) * d[:, None, :])
    q = int(np.argmax(lam[:, -1]))
    t = 1.0 / float(lam[q, -1]) if lam[q, -1] > 0 else np.inf
    if not np.isfinite(abs(b) * t):
        return None
    u = d[q] * vec[q, :, -1]
    x = np.zeros_like(stack.c)
    x[q] = abs(b) * t * np.outer(u, u.conj())
    y = np.array([s * t])
    return y, x, stack.c - stack.adjoint(y)


def solve_sdp(b, blocks, tol=1e-7, max_iter=MAX_ITER) -> SDPResult:
    """Solve the block SDP; `blocks` is a list of (C, Astack) pairs with C = c I
    of shape (n, n), c > 0, and Astack of shape (m, n, n), all Hermitian."""
    b = np.asarray(b, dtype=float)
    m = b.shape[0]
    feas_tol = feasibility_tolerance(tol)
    stack = _Stack(blocks)
    c, k = stack.c, len(stack.c)

    # y = 0 and Z = C are exactly dual feasible; X and Z hold I on the pad
    # throughout
    z = c.copy()
    scale_x = max(1.0, float(np.abs(b).max(initial=0.0)))
    x = (scale_x * stack.eye + stack.pad).astype(complex)
    bnorm = 1.0 + float(np.sqrt(b @ b))
    y = np.zeros(m)
    reason = "max_iter"
    closed = _closed_form(stack, float(b[0])) if m == 1 else None
    if closed is not None:              # reported as it is, with no iteration
        (y, x, z), reason, max_iter = closed, "closed_form", 0

    def diagnostics():
        rp = b - stack.apply(x)
        rd = c - stack.adjoint(y) - z
        gap = stack.dot(x, z)
        obj_d = float(b @ y)
        obj_p = stack.dot(c, x)
        rel_gap = abs(gap) / (1.0 + abs(obj_d) + abs(obj_p))
        pinf = float(np.sqrt(rp @ rp)) / bnorm
        dinf = float((stack.norms(rd) / stack.cnorm).max())
        return rp, rd, gap, obj_d, obj_p, rel_gap, pinf, dinf

    best = None
    it = 0
    small_steps = 0
    stall = 0
    for it in range(1, max_iter + 1):
        rp, rd, gap, obj_d, obj_p, rel_gap, pinf, dinf = diagnostics()
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
        # X = L_X L_X*, Z = L_Z L_Z*, and R = L^{-1}: one stack
        try:
            lower, rinv = _factor(np.concatenate([x, z]))
        except np.linalg.LinAlgError:
            reason = "factorization_failed"
            break
        lx, rz = lower[:k], rinv[k:]
        zinv = rz.conj().swapaxes(1, 2) @ rz
        # 1 / ||Z^{-1}||_F, a lower bound on lam_min(Z), relative to max |Z_ij|
        floor = float((1.0 / stack.norms(zinv)
                       / np.maximum(1.0, stack.maxabs(z))).min())
        # iterates at the numerical floor: further steps only inject noise
        if gap <= 1e-13 * (1.0 + abs(obj_d)) or floor < 1e-14:
            reason = "numerical_floor"
            break

        # Schur complement of the HKM system: M_ij = Re tr(A_i X A_j Z^{-1})
        schur = stack.schur(lx, rz)
        if not np.all(np.isfinite(schur)):
            reason = "non_finite"
            break
        eig = _schur_eigh(schur)
        if eig is None:
            reason = "schur_failed"
            break
        lam, vec = eig

        def schur_solve(rhs):
            return vec @ ((rhs @ vec) / lam)

        # dX = herm(sigma_mu Z^{-1} - X - left Z^{-1} + X A*(dy) Z^{-1}), where
        # left is X R_d plus the corrector's second-order term; its pad,
        # (sigma_mu - 1) I, is zeroed, and dZ's is exactly 0
        def solve_direction(sigma_mu, left):
            raux = sigma_mu * zinv - x - left @ zinv
            rhs = rp - stack.apply(raux)
            # Schur solve with one step of iterative refinement
            dy = schur_solve(rhs)
            dy += schur_solve(rhs - schur @ dy)
            ady = stack.adjoint(dy)
            dx = raux + x @ ady @ zinv
            return dy, 0.5 * (dx + dx.conj().swapaxes(1, 2)) * stack.inner, rd - ady

        def steps(dx, dz):
            """Primal and dual step lengths from one eigvalsh."""
            lam = _smallest_eigenvalues(rinv, np.concatenate([dx, dz]))
            return _step(float(lam[:k].min())), _step(float(lam[k:].min()))

        mu = gap / stack.ntot
        xrd = x @ rd
        try:
            # predictor: pure affine step fixes the centering weight
            _, dx_a, dz_a = solve_direction(0.0, xrd)
            ap, ad = steps(dx_a, dz_a)
            gap_aff = stack.dot(x + ap * dx_a, z + ad * dz_a)
            ratio = max(gap_aff, 0.0) / max(gap, 1e-300)
            sigma = float(np.clip(min(ratio, 1.0) ** 3, 1e-8, 0.9))

            # corrector: Mehrotra's second-order term dX_a dZ_a
            dy, dx, dz = solve_direction(sigma * mu, xrd + dx_a @ dz_a)
            ap, ad = steps(dx, dz)
        except np.linalg.LinAlgError:
            reason = "factorization_failed"
            break
        # dX and dZ are exactly Hermitian, so the new X and Z are too
        x = x + ap * dx
        z = z + ad * dz
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
    status = {"converged": "optimal", "closed_form": "optimal",
              "max_iter": "max_iter"}.get(reason, "stalled")
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

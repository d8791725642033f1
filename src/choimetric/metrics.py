"""Monge-Kantorovich distances as semidefinite programs.

The distance mk_L(phi, psi) = sup { |phi(a) - psi(a)| : a self-adjoint,
L(a) <= 1 } is solved with the operator-norm constraint written as the
linear matrix inequality [[I, C(a)], [C(a)*, I]] >= 0, after a kernel
pre-pass that either certifies the value is infinite or eliminates the
kernel directions.  The constraint matrices are split into independent
blocks along the connected components of their joint support.

The symmetry of the group and of the Kasparov product makes most of those
blocks copies of one another: the same pencil C - sum y_i A_i up to a
unitary change of basis.  `prepare_ball` assembles the blocks once, sorts
them into classes by the spectra of their pencils at a few fixed random y,
and keeps one block per class.  Every kept block is then replaced by its
irreducible pieces: the *-algebra that its C and A_i generate is, up to a
unitary, a direct sum of full matrix algebras, each repeated some number of
times, and the block becomes the compressions (W*CW, W*A_iW) onto one copy
of each summand.  Equal pieces are again kept once.  Small blocks split
too: the solver packs the pieces onto the diagonals of slots of the
largest piece's size, so smaller pieces save flops and cost no calls.

Every solve goes through `_solve_certified`: the interior-point solver sees
the kept blocks and pieces only, and the exact slack of every assembled
block is checked at the returned y, read from the stacks of blocks of one
size that the ball was assembled in, with one Cholesky factorization per
stack.  A compression W*ZW of a PSD Z is PSD, so the reduced program is a
relaxation; its primal lifts to the sum of W X W* over the pieces of a
split block and to 0 on a dropped copy, a primal of the full program with
the same objective.  So a y that passes is a primal-dual pair of the full
program with the reduced gap, whatever W the split found; a y that fails
is discarded and the full program solved.  A wrong grouping or split costs
time, never a wrong value.

Restricting the optimization to self-adjoint elements loses nothing: the
seminorms are *-invariant and the functional differences Hermitian, so the
Hermitian part of any feasible point is feasible with the same objective.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import sdp
from .algebra import LinearFunctional, TraceFunctional, selfadjoint_basis
from .channels import (
    ChannelMap,
    amplify,
    check_trace_channel,
    cp_oracle_npositivity,
    is_unital,
)
from .errors import AlgebraMismatch, ChoimetricError, Infeasible
from .geometry import Seminorm
from .linalg import (
    components,
    contract_stack,
    hermitian_part,
    row_and_null_space_real,
)


@dataclass(eq=False)
class MKResult:
    """`optimizer` holds coordinates on the seminorm's algebra: those of the
    maximizer, or, when the distance is infinite, of a kernel element k
    (L(k) = 0) on which the objective is nonzero, so that it is unbounded
    along the multiples of k."""
    value: float                             # math.inf when the metric is infinite
    optimizer: np.ndarray
    dual_gap: float
    status: str                  # "optimal" | "infinite" | "max_iter" | "stalled"


# ---------------------------------------------------------------------------
# seminorm encodings
# ---------------------------------------------------------------------------

def _split_components(kstack: np.ndarray):
    """Connected components of the joint row/column support of a stack of
    matrices, in the order of their first rows; each component yields an
    independent operator-norm block."""
    scale = float(np.abs(kstack).max(initial=0.0))
    if scale == 0.0:
        return []
    support = (np.abs(kstack) > 1e-12 * scale).any(axis=0)
    # rows that share a column
    return [(rows, np.flatnonzero(support[rows].any(axis=0)))
            for rows in components(support @ support.T)]


def _assemble_blocks(kstack: np.ndarray) -> tuple[list, list]:
    """Blocks (I, -[[0, K], [K*, 0]]) for { ||sum_i y_i K_i|| <= 1 }, one per
    support component of the stack, with K the slices of that component.
    Returns the blocks in component order and the stacks (C (k, n, n),
    A (k, m, n, n)), one per size n, whose rows they are, in order."""
    comps = _split_components(kstack)
    sizes = [len(rows) + len(cols) for rows, cols in comps]
    stacks = {n: (np.repeat(np.eye(n, dtype=complex)[None], sizes.count(n), axis=0),
                  np.zeros((sizes.count(n), len(kstack), n, n), dtype=complex))
              for n in set(sizes)}
    blocks = []
    for i, (rows, cols) in enumerate(comps):
        eyes, norms = stacks[sizes[i]]
        j = sizes[:i].count(sizes[i])
        kslice = kstack[:, rows][:, :, cols]
        norms[j][:, :len(rows), len(rows):] = kslice
        norms[j][:, len(rows):, :len(rows)] = kslice.conj().transpose(0, 2, 1)
        blocks.append((eyes[j], norms[j]))
    for _, norms in stacks.values():
        np.negative(norms, out=norms)
    return blocks, list(stacks.values())


def _split_copies(blocks):
    """Sort blocks into classes of copies and keep one block per class.

    Two blocks are taken as copies when their pencils C - sum y_i A_i have
    the same spectrum, to relative 1e-9, at 3 fixed random y: a unitary
    change of basis turns one into the other, so both impose the same
    constraint on y.
    Returns the kept blocks.  A wrong match costs a second solve, never a
    wrong value: `_solve_certified` checks every block of the assembled
    program at the solution, the dropped ones among them.
    """
    if len(blocks) < 2:
        return list(blocks)
    ys = np.random.default_rng(0).standard_normal((3, blocks[0][1].shape[0]))
    spectra = [np.linalg.eigvalsh(cmat[None] - contract_stack(ys, astack))
               for cmat, astack in blocks]
    kept = []
    for k, spec in enumerate(spectra):
        scale = 1e-9 * (1.0 + float(np.abs(spec).max(initial=0.0)))
        if not any(spectra[j].shape == spec.shape
                   and float(np.abs(spectra[j] - spec).max(initial=0.0)) <= scale
                   for j in kept):
            kept.append(k)
    return [blocks[k] for k in kept]


def _generic_element(gens: np.ndarray, rng) -> np.ndarray:
    """A random Hermitian element A(r) + A(s)^2 + i[A(r), A(s)] + t C of the
    complex *-algebra that gens = (C, A_1, ..., A_m) generates.  The
    commutator term matters: real combinations of the A_i and their Jordan
    products have doubled spectra on summands of quaternionic type."""
    r, s = rng.standard_normal((2, len(gens) - 1))
    a_r, a_s = contract_stack(np.stack([r, s]), gens[1:])
    return a_r + a_s @ a_s + 1j * (a_r @ a_s - a_s @ a_r) + rng.standard_normal() * gens[0]


def _irreducible_pieces(block) -> list:
    """One block (C, Astack) split into compressions (W*CW, W*A_iW), one
    per irreducible summand of the *-algebra that C and the A_i generate, by
    the randomized method of Murota, Kanno, Kojima and Kojima (Japan J. Ind.
    Appl. Math. 27, 2010).

    The eigenspaces of a generic element H cluster by eigenvalue; the
    support of the generators between clusters joins them into isotypic
    components.  A component whose clusters all have r > 1 vectors is r
    copies of one summand and keeps one: the vectors P_c B u0 over its
    clusters c, for u0 in one cluster and a second generic element B.  Any
    other component is kept whole.  Returns [block] when nothing splits.
    """
    cmat, astack = block
    n = cmat.shape[0]
    gens = np.concatenate([cmat[None], astack])
    rng = np.random.default_rng(0)
    lam, vecs = np.linalg.eigh(_generic_element(gens, rng))
    gaps = np.diff(lam) > 1e-8 * max(1.0, float(np.abs(lam).max()))
    label = np.concatenate([[0], np.cumsum(gaps)])
    nclusters = int(label[-1]) + 1
    # clusters joined by some generator
    coupling = np.abs(vecs.conj().T @ gens @ vecs).max(axis=0)
    onehot = np.eye(nclusters, dtype=bool)[label]
    joined = onehot.T @ (coupling > 1e-9 * float(coupling.max())) @ onehot
    b_gen = _generic_element(gens, rng)
    bases = []
    for comp in components(joined | np.eye(nclusters, dtype=bool)):
        cols = [vecs[:, label == c] for c in comp]
        if len({v.shape[1] for v in cols}) == 1 and cols[0].shape[1] > 1:
            u0 = cols[0][:, 0]
            bu = b_gen @ u0
            basis = np.stack([u0] + [v @ (v.conj().T @ bu) for v in cols[1:]], axis=1)
            norms = np.linalg.norm(basis, axis=0)
            if norms.min() > 1e-8 * float(np.linalg.norm(bu)):
                bases.append(basis / norms)
                continue
        bases.append(np.hstack(cols))
    if len(bases) == 1 and bases[0].shape[1] == n:
        return [block]
    pieces = []
    for w in bases:
        p = w.conj().T @ gens @ w
        p = 0.5 * (p + p.conj().transpose(0, 2, 1))
        pieces.append((p[0], p[1:]))
    return pieces


# ---------------------------------------------------------------------------
# the ball maximization core
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class _BallSetup:
    """The unit ball of a seminorm on some coordinates, reduced once for
    every solve on it: the kernel split and the SDP blocks of the ball on
    the range.  The solver sees `kept`: one block per class of copies, each
    replaced by one piece per class of irreducible summands."""
    seminorm: Seminorm
    keep: np.ndarray | None          # coordinate indices of the ball; None: all
    rows: np.ndarray                 # (r, d) self-adjoint coordinate basis
    null_basis: np.ndarray           # (r, n0)
    range_basis: np.ndarray          # (r, q)
    kept: list                       # (C, Astack) blocks passed to the solver
    # every assembled block, as stacks (C (k, n, n), A (k, m, n, n)) of one
    # size each: the program of the check and of the fallback
    stacks: list


def _pinching_closure(matrices: np.ndarray, support) -> np.ndarray:
    """The smallest sorted set K of coordinates that holds `support` and
    whose other coordinates a pinching drops, from the zero pattern of the
    stack alone: K grows by every matrix with an entry inside a class, a
    connected component of the joint support of K's matrices, until none
    is left.  Then, with P the projection onto K, [D, pi(Px)] is the
    pinching of [D, pi(x)] over the classes, so L(Px) <= L(x), and a sup
    over functionals supported on K loses nothing by the restriction.  Any
    such K' that holds the support has classes that hold K's, so it holds
    every matrix the growth adds (cf. Permenter and Parrilo, Math. Program.
    181, 2020: the smallest reduction that holds the objective).

    `matrices` is the stack or a Boolean superset of its nonzero pattern
    (`Seminorm.pattern`).  A superset only coarsens the classes and widens
    the dropped matrices, so its K holds the exact one and is as sound."""
    pattern = matrices != 0
    eye = np.eye(pattern.shape[1], dtype=bool)
    kept = np.zeros(len(pattern), dtype=bool)
    kept[support] = True
    while True:
        joint = pattern[kept].any(axis=0)
        label = np.empty(len(joint), dtype=int)
        for c, comp in enumerate(components(joint | joint.T | eye)):
            label[comp] = c
        grown = kept | (pattern & (label[:, None] == label[None, :])).any(axis=(1, 2))
        if np.array_equal(grown, kept):
            return np.flatnonzero(kept)
        kept = grown


def prepare_ball(seminorm: Seminorm, support: np.ndarray | None = None) -> _BallSetup:
    """The unit ball of `seminorm` on the self-adjoint elements supported on
    the pinching closure of the coordinates `support` (on all of them when
    None), exact for objectives on `support`.  Every MK solve takes it in
    place of the seminorm, so a caller prepares it once per seminorm."""
    keep = None if support is None else _pinching_closure(seminorm.pattern(), support)
    rows = selfadjoint_basis(seminorm.algebra, keep)
    # the norm stack on the self-adjoint directions, from the kept rows alone
    stack = contract_stack(rows if keep is None else rows[:, keep], seminorm.rows(keep))
    flat = stack.reshape(len(stack), -1)
    rng_basis, null = row_and_null_space_real(np.hstack([flat.real, flat.imag]).T)
    blocks, stacks = _assemble_blocks(contract_stack(rng_basis.T, stack))
    kept = _split_copies([piece for block in _split_copies(blocks)
                          for piece in _irreducible_pieces(block)])
    return _BallSetup(seminorm, keep, rows, null, rng_basis, kept, stacks)


def _stack_violations(cstack: np.ndarray, astack: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The distance of each slack C - sum y_i A_i of a stack from the PSD
    cone, normalised as `sdp.solve_sdp` normalises its dual infeasibility:
    all 0 when one Cholesky factors every slack, else read from one
    batched `eigvalsh`."""
    slacks = cstack - (y @ astack.reshape(len(astack), len(y), -1)).reshape(cstack.shape)
    try:
        np.linalg.cholesky(slacks)
    except np.linalg.LinAlgError:
        negative = np.linalg.norm(np.minimum(np.linalg.eigvalsh(slacks), 0.0), axis=1)
        return negative / (1.0 + np.linalg.norm(cstack, axis=(1, 2)))
    return np.zeros(len(cstack))


def _solve_certified(b: np.ndarray, kept: list, stacks: list, tol: float,
                     max_iter: int) -> sdp.SDPResult:
    """The one SDP solve path of this module: solve on the kept blocks,
    then check at the returned y every assembled block, the rows of
    `stacks`.

    Each kept block is an assembled block or a compression W*ZW of one, so
    the kept program is a relaxation, and its primal X lifts to W X W*, a
    primal of the full program with the same objective.  A y whose slacks
    all pass is therefore a primal-dual pair of the full program with the
    same gap.  Their violation is folded into the dual infeasibility; past
    the feasibility tolerance the full program is solved instead.  A kept
    block that is an assembled block verbatim has the slack Z + R_d of the
    solve, Z positive definite, so its violation is at most the reported
    dual infeasibility: checking it changes nothing.  A closed-form y leaves
    its binding slacks singular, for the eigenvalues to decide.
    """
    feas_tol = sdp.feasibility_tolerance(tol)
    res = sdp.solve_sdp(b, kept, tol=tol, max_iter=max_iter)
    violation = max(float(_stack_violations(cstack, astack, res.y).max())
                    for cstack, astack in stacks)
    if violation > feas_tol:
        full = [block for cstack, astack in stacks for block in zip(cstack, astack)]
        return sdp.solve_sdp(b, full, tol=tol, max_iter=max_iter)
    res.dual_infeas = max(res.dual_infeas, violation)
    return res


def _maximize_linear(ball: _BallSetup, values: np.ndarray, tol: float,
                     max_iter: int) -> MKResult:
    """sup { Re f(a) : a self-adjoint, L(a) <= 1 } for f given by `values`."""
    if ball.keep is not None:
        resid = float(np.abs(np.delete(values, ball.keep)).max(initial=0.0))
        if resid > 1e-8 * (1.0 + float(np.abs(values).max(initial=0.0))):
            raise AlgebraMismatch(
                "objective not supported on the kept coordinates "
                f"(residual {resid:.2e})")
    g = (ball.rows @ values).real
    # kernel pre-pass
    if ball.null_basis.shape[1]:
        along = ball.null_basis.T @ g
        if float(np.abs(along).max(initial=0.0)) > 1e-9 * max(1.0, float(np.abs(g).max())):
            pick = int(np.argmax(np.abs(along)))
            return MKResult(math.inf, ball.rows.T @ ball.null_basis[:, pick],
                            0.0, "infinite")
    gred = ball.range_basis.T @ g
    scale = float(np.linalg.norm(gred))
    if scale <= 1e-14 * max(1.0, float(np.abs(values).max(initial=0.0))):
        return MKResult(0.0, np.zeros(len(values), dtype=complex), 0.0, "optimal")
    # canonical sign so that mk(phi, psi) and mk(psi, phi) solve one program
    flip = -1.0 if gred[int(np.argmax(np.abs(gred)))] < 0 else 1.0
    res = _solve_certified(flip * gred / scale, ball.kept, ball.stacks, tol, max_iter)
    coords = ball.rows.T @ (ball.range_basis @ (flip * res.y))
    return MKResult(res.value * scale, coords, res.gap * scale, res.status)


def mk_between(phi: LinearFunctional, psi: LinearFunctional, ball: _BallSetup,
               tolerance: float = 1e-7, max_iter: int = sdp.MAX_ITER) -> MKResult:
    """The Monge-Kantorovich extended metric between two functionals on the
    algebra of the ball's seminorm, the sup over the prepared `ball`."""
    algebra = ball.seminorm.algebra
    if not (phi.algebra.same_as(algebra) and psi.algebra.same_as(algebra)):
        raise AlgebraMismatch("seminorm not defined over the functionals' algebra")
    if not (phi.is_state() and psi.is_state()):
        warnings.warn("mk_between applied to non-state functionals; "
                      "proceeding on the difference", stacklevel=2)
    diff = np.asarray(phi.values - psi.values, dtype=complex)
    return _maximize_linear(ball, diff, tolerance, max_iter)


# ---------------------------------------------------------------------------
# the Delta metric on trace channels
# ---------------------------------------------------------------------------

def delta_distance(f: ChannelMap, g: ChannelMap, tau: TraceFunctional,
                   ball: _BallSetup, tolerance: float = 1e-7) -> MKResult:
    """Delta(F, G) = mk_L(omega(F), omega(G)) on trace channels.

    Both arguments are checked for complete positivity on their omega-carrier
    A (x) B^op, which must be the algebra of the ball's seminorm, and solved
    on `ball` with the functionals the checks return.  Not through
    `mk_between`, which would count each solve twice in a timing of both."""
    om_f = check_trace_channel(f, tau, label="first argument")
    om_g = check_trace_channel(g, tau, label="second argument")
    algebra = ball.seminorm.algebra
    if not (om_f.algebra.same_as(algebra) and om_g.algebra.same_as(algebra)):
        raise AlgebraMismatch("seminorm not defined over source (x) target^op")
    diff = np.asarray(om_f.values - om_g.values, dtype=complex)
    return _maximize_linear(ball, diff, tolerance, sdp.MAX_ITER)


# ---------------------------------------------------------------------------
# trace-norm dual (matricial Wasserstein-1)
# ---------------------------------------------------------------------------

@dataclass
class WassersteinResult:
    value: float
    gap: float
    status: str


def _vec_herm(mats: np.ndarray) -> np.ndarray:
    """Real coordinates of the Hermitian parts of a stack of square
    matrices: the diagonal, then Re and Im of each entry above it."""
    h = 0.5 * (mats + mats.conj().swapaxes(-1, -2))
    rows, cols = np.triu_indices(h.shape[-1], 1)
    upper = h[..., rows, cols]
    pairs = np.stack([upper.real, upper.imag], axis=-1)
    return np.concatenate([h.diagonal(axis1=-2, axis2=-1).real,
                           pairs.reshape(pairs.shape[:-2] + (-1,))], axis=-1)


def wasserstein_dual(rho1: np.ndarray, rho2: np.ndarray, l_mats,
                     tol: float = 1e-7) -> WassersteinResult:
    """Trace-norm minimization dual to the Monge-Kantorovich program over
    self-adjoint elements with the stacked-commutator constraint norm:

        min { Tr sqrt(U^* U) : herm( sum_i [L_i, u_i] ) = rho1 - rho2 }

    with U the column stack of the u_i^*.  Constraining the Hermitian part
    is what the Lagrangian of the self-adjoint primal produces; restricting
    to anti-Hermitian u_i recovers the exact commutator equation.  Raises
    Infeasible when the difference is outside the range of the constraint
    map, which is exactly when the primal distance is infinite.

    The trace norm is the nuclear-norm SDP (Fazel, Hindi and Boyd 2001),
    min (tr P + tr Q) / 2 over [[P, U], [U^*, Q]] >= 0, posed as the
    solver's primal with C = I / 2 and one equality per row-space direction
    S_k of the constraint map: Re <S_k, U> = Re <S_k, U_0> for a particular
    solution U_0.  There are at most n^2 - 1 of them, since a commutator has
    trace 0.  The reported value is the primal objective, which meets the
    equalities to the solver's residual tolerance, not exactly.  When every
    L_i is scalar the map is 0, so past the Infeasible check rho1 = rho2,
    and the value is 0 with no solve.
    """
    ls = np.asarray(l_mats, dtype=complex)
    nn, n, _ = ls.shape
    target = np.asarray(rho1, dtype=complex) - np.asarray(rho2, dtype=complex)

    # real-linear constraint map u -> herm(sum [L_i, u_i]) on the real and
    # imaginary parts of the entries u_i[a, c]: comm[i, a, c] = [L_i, E_ac]
    eye = np.eye(n)
    comm = np.einsum("ixa,cy->iacxy", ls, eye) - np.einsum("xa,icy->iacxy", eye, ls)
    tmat = _vec_herm(np.stack([comm, 1j * comm], axis=3)).reshape(2 * nn * n * n, -1).T
    rhs = _vec_herm(target)
    sol, *_ = np.linalg.lstsq(tmat, rhs, rcond=None)
    resid = float(np.linalg.norm(tmat @ sol - rhs))
    if resid > 1e-8 * (1.0 + float(np.linalg.norm(rhs))):
        raise Infeasible(
            f"rho1 - rho2 outside the commutator range (residual {resid:.2e})")
    rows = row_and_null_space_real(tmat)[0]
    if not rows.shape[1]:
        return WassersteinResult(0.0, 0.0, "optimal")

    def unpack(realvecs):
        """Real coordinate vectors (last axis) as (nn, n, n) stacks of u_i."""
        parts = realvecs.reshape(realvecs.shape[:-1] + (nn, n, n, 2))
        return parts[..., 0] + 1j * parts[..., 1]

    def stack(mats):
        # the pairing tr(U^dagger stack([L_i, a])) = sum_i tr(u_i [L_i, a])
        # aligns the operator-norm constraint with || stack(u_i^dagger) ||_1;
        # a real isometry, so Re <stack(unpack(r)), stack(unpack(v))> = r . v
        return mats.conj().swapaxes(-1, -2).reshape(mats.shape[:-3] + (nn * n, n))

    row_stacks = 0.5 * stack(unpack(rows.T))
    top = nn * n
    astack = np.zeros((len(row_stacks), top + n, top + n), dtype=complex)
    astack[:, :top, top:] = row_stacks
    astack[:, top:, :top] = row_stacks.conj().swapaxes(1, 2)
    cmat = 0.5 * np.eye(top + n, dtype=complex)
    res = _solve_certified(rows.T @ sol, [(cmat, astack)], [(cmat[None], astack[None])],
                           tol, sdp.MAX_ITER)
    return WassersteinResult(res.primal_value, res.gap, res.status)


# ---------------------------------------------------------------------------
# the D_L metric on unital CP maps
# ---------------------------------------------------------------------------

@dataclass
class DLResult:
    value: float
    converged: bool
    status: str


def dl_distance(f: ChannelMap, g: ChannelMap, ball: _BallSetup,
                starts: int = 8, seed: int = 0, tolerance: float = 1e-7) -> DLResult:
    """D_L(F, G) = sup_psi mk_L(F* psi, G* psi), reduced to the norm ascent
    sup { ||(F - G)(a)|| : L(a) <= 1 } and solved by alternating two steps.
    The inner step fixes a unit vector xi and solves the MK program between
    the pullbacks F* psi and G* psi of its vector state psi over `ball`, the
    prepared unit ball of L on the source; the outer step
    re-extremizes xi on (F - G)(a) at the optimizer a.

    The result is a certified lower bound; `converged` reports whether every
    start stalled before the cap of 40 rounds with every inner solve optimal.
    """
    if starts < 1:
        raise ChoimetricError(f"starts {starts}: give at least one start")
    for name, ch in (("first", f), ("second", g)):
        if not is_unital(ch):
            raise AlgebraMismatch(f"{name} argument is not unital")
        if not cp_oracle_npositivity(ch):
            raise AlgebraMismatch(f"{name} argument is not completely positive")
    if not (g.source.same_as(f.source) and g.target.same_as(f.target)):
        raise AlgebraMismatch("the two channels have different sources or targets")
    if not f.source.same_as(ball.seminorm.algebra):
        raise AlgebraMismatch("seminorm not over the channels' source")
    diffmat = f.matrix - g.matrix
    target = f.target
    nb = target.ambient_dim

    rng = np.random.default_rng(seed)
    best = 0.0
    all_converged = True
    for _ in range(starts):
        xi = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
        xi /= np.linalg.norm(xi)
        val = 0.0
        converged = False
        for _ in range(40):
            psi = np.einsum("x,mxy,y->m", xi.conj(), target.basis, xi)
            res = _maximize_linear(ball, diffmat.T @ psi, tolerance, sdp.MAX_ITER)
            if res.status == "infinite":
                return DLResult(math.inf, True, "infinite")
            lam, vecs = np.linalg.eigh(hermitian_part(
                target.realize(diffmat @ res.optimizer)))
            idx = int(np.argmax(np.abs(lam)))
            new_val = float(np.abs(lam[idx]))
            xi = vecs[:, idx]
            # a non-optimal inner solve still gives a point of the ball, so
            # new_val stays a lower bound, but its start has not converged
            inexact = res.status != "optimal"
            stop = inexact or new_val <= val * (1 + 1e-9) + tolerance
            val = max(val, new_val)
            if stop:
                converged = not inexact
                break
        all_converged = all_converged and converged
        best = max(best, val)
    if not all_converged:
        warnings.warn("D_L ascent hit the round cap or a non-optimal inner "
                      "solve; value is a lower bound", stacklevel=2)
    return DLResult(best, all_converged,
                    "optimal" if all_converged else "heuristic_nonconvergence")


def dl_stabilized(f: ChannelMap, g: ChannelMap, m_max: int, **kw):
    """Truncated stabilization: max over m = 1..m_max of D on the m-fold
    amplifications, with the ambient operator norm as the seminorm on each
    level (not Lipschitz: the unit is not in its kernel)."""
    if m_max < 1:
        raise ChoimetricError(f"m_max {m_max}: give at least one level")
    values = []
    for m in range(1, m_max + 1):
        fm, gm = amplify(m, f), amplify(m, g)
        ball = prepare_ball(Seminorm(fm.source, fm.source.basis))
        values.append(dl_distance(fm, gm, ball, **kw).value)
    return max(values), values

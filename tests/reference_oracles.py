"""Reference oracles that only tests call, each an independent way to the
value the solver path computes.

The cutting planes and the state-supremum sampling only evaluate norms and
never reach the semidefinite program.  The D_L enumeration solves the inner
MK distances with `mk_between` but takes the outer supremum exactly, over
the characters of a commutative target, where `dl_distance` ascends
heuristically.  The cutting planes need scipy's `linprog`, which the `test`
extra installs; the package itself imports no scipy.  Test modules import
the functions with `from reference_oracles import ...`."""

from __future__ import annotations

import math

import numpy as np

from choimetric import (
    ChannelMap,
    ConcreteAlgebra,
    LinearFunctional,
    MKResult,
    Seminorm,
    mk_between,
    selfadjoint_basis,
)
from choimetric.errors import AlgebraMismatch
from choimetric.linalg import contract_stack, hermitian_part, row_and_null_space_real
from conftest import is_commutative, pullback_state


def cutting_plane_maximize(objective: np.ndarray, stack: np.ndarray) -> tuple[float, float]:
    """Kelley's cutting planes for sup { g . t : || sum_i t_i M[i] || <= 1 }
    over real t, with g = `objective` and M the complex stack `stack`.

    Returns a bracket (lower, upper) of the supremum, valid to the LP
    solver's feasibility tolerance and narrower than 1e-7 relative unless
    200 cuts were not enough, or (inf, inf) when the ball is unbounded
    along g.  Each cut s . t <= 1 takes s from the top singular pair (u, v)
    of sum_i t_i M[i], s_i = Re u* M[i] v: an exact subgradient, and a
    valid cut because N(x) >= s . x for every x when N is a seminorm.  The
    linear programs run on the range of the stack, inside a box that
    contains the ball: there ||t|| <= sqrt(p) N(t) / sigma, for sigma the
    smallest nonzero singular value of the stacked map and p the largest
    rank that sum_i t_i M[i] can have.
    """
    from scipy.optimize import linprog
    g = np.asarray(objective, dtype=float)
    flat = stack.reshape(len(stack), -1)
    flat = np.hstack([flat.real, flat.imag])
    rng_basis, null = row_and_null_space_real(flat.T)
    if float(np.abs(null.T @ g).max(initial=0.0)) > 1e-9 * max(1.0, float(np.abs(g).max())):
        return math.inf, math.inf
    gr = rng_basis.T @ g
    if not gr.any():
        return 0.0, 0.0
    reduced = contract_stack(rng_basis.T, stack)
    sigma = float(np.linalg.svd(rng_basis.T @ flat, compute_uv=False).min())
    box = math.sqrt(min(stack.shape[1:])) / sigma
    cuts, lower, upper = [], 0.0, math.inf
    for _ in range(200):
        res = linprog(-gr, A_ub=np.array(cuts) if cuts else None,
                      b_ub=np.ones(len(cuts)) if cuts else None,
                      bounds=[(-box, box)] * len(gr), method="highs")
        t, upper = res.x, -res.fun
        u, sv, vh = np.linalg.svd(np.tensordot(t, reduced, axes=1))
        lower = max(lower, float(gr @ t) / sv[0])
        if upper - lower <= 1e-7 * max(1.0, upper):
            break
        cuts.append(np.einsum("x,ixy,y->i", u[:, 0].conj(), reduced, vh[0].conj()).real)
    return lower, upper


def state_sup_lower_bound(tensor_coords: np.ndarray, side: str,
                          lip: Seminorm, other: ConcreteAlgebra,
                          samples: int = 200,
                          rng: np.random.Generator | None = None) -> float:
    """Sampling lower bound for the state-supremum form of a tensor seminorm.

    For side='left' this estimates (L_A (x) 1)(z) = sup_psi L_A((id (x) psi) z)
    by sampling states psi on the other factor; always a lower bound of the
    commutator-form value.
    """
    rng = rng or np.random.default_rng(0)
    da = lip.algebra.dim
    db = other.dim
    z = np.asarray(tensor_coords, complex)
    if side == "left":
        block = z.reshape(da, db)
    else:
        block = z.reshape(db, da).T
    best = 0.0
    n = other.ambient_dim
    unit = other.realize(other.unit_coords)
    for _ in range(samples):
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = c @ c.conj().T
        vals = np.einsum("xy,byx->b", rho, other.basis)
        mass = complex(np.trace(rho @ unit))
        if abs(mass) < 1e-12:
            continue
        sliced = block @ (vals / mass)
        best = max(best, lip.eval_coords(sliced))
    return best


def commutative_pure_states(alg: ConcreteAlgebra) -> list[LinearFunctional]:
    """Characters of a commutative concrete algebra, as state functionals."""
    if not is_commutative(alg):
        raise AlgebraMismatch("pure-state enumeration needs a commutative algebra")
    rng = np.random.default_rng(7)
    rows = selfadjoint_basis(alg)
    for _ in range(5):
        generic = alg.realize(rows.T @ rng.standard_normal(rows.shape[0]))
        lam, u = np.linalg.eigh(hermitian_part(generic))
        splits = [0]
        for i in range(1, len(lam)):
            if lam[i] - lam[i - 1] > 1e-6 * max(1.0, float(np.abs(lam).max())):
                splits.append(i)
        splits.append(len(lam))
        chars = []
        ok = True
        for s, e in zip(splits, splits[1:]):
            block = u[:, s:e]
            vals = np.einsum("xk,bxy,yk->b", block.conj(), alg.basis, block) / (e - s)
            phi = LinearFunctional(alg, vals)
            if abs(phi.unit_value()) < 1e-8:
                continue          # eigenspace outside the algebra's support
            # multiplicativity check
            if float(np.abs(alg.pairing(vals) - np.outer(vals, vals)).max()) > 1e-7:
                ok = False
                break
            chars.append(phi)
        if ok and chars:
            unique = []
            for phi in chars:
                if not any(np.abs(phi.values - o.values).max() < 1e-8 for o in unique):
                    unique.append(phi)
            return unique
    raise AlgebraMismatch("failed to separate the characters numerically")


def dl_distance_pure_states(f: ChannelMap, g: ChannelMap, ball) -> MKResult:
    """Exact D_L for commutative targets: the outer supremum is attained at
    an extreme point of the state space, so it is the largest MK distance
    over the prepared `ball` between the pullbacks of a character."""
    return max((mk_between(pullback_state(f, chi), pullback_state(g, chi), ball)
                for chi in commutative_pure_states(f.target)),
               key=lambda res: res.value)

"""Seeded random instance generation for tests and experiment suites.

Everything is driven by an explicit numpy Generator so that experiment
records are reproducible from (config, seed) alone.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    ConcreteAlgebra,
    LinearFunctional,
    TraceFunctional,
    opposite_algebra,
    tensor_algebra,
)
from .channels import ChannelMap, channel_from_omega, trace_of_unit_image
from .groups import FiniteGroup, PositiveDefiniteFunction


def child_rngs(seed: int, count: int) -> list[np.random.Generator]:
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in seq.spawn(count)]


def random_complex(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, n: int) -> np.ndarray:
    m = random_complex(rng, n, n)
    return 0.5 * (m + m.conj().T)


def random_psd(rng, n: int) -> np.ndarray:
    c = random_complex(rng, n, n)
    return c @ c.conj().T


def random_density(rng, n: int) -> np.ndarray:
    p = random_psd(rng, n)
    return p / np.trace(p).real


def random_positive_functional(rng, alg: ConcreteAlgebra) -> LinearFunctional:
    """phi(x) = tr(R x) with a random ambient PSD weight R; always positive."""
    r = random_psd(rng, alg.ambient_dim)
    vals = np.einsum("xy,byx->b", r, alg.basis)
    return LinearFunctional(alg, vals)


def random_state(rng, alg: ConcreteAlgebra) -> LinearFunctional:
    phi = random_positive_functional(rng, alg)
    mass = phi.unit_value()
    return LinearFunctional(alg, phi.values / mass)


def random_linear_map(rng, src: ConcreteAlgebra, tgt: ConcreteAlgebra) -> ChannelMap:
    return ChannelMap(src, tgt, random_complex(rng, tgt.dim, src.dim))


def random_cp_channel(rng, src: ConcreteAlgebra, tgt: ConcreteAlgebra,
                      tau: TraceFunctional) -> ChannelMap:
    """Random completely positive map obtained by inverting the functional
    embedding on a random positive functional of A (x) B^op."""
    phi = random_positive_functional(rng, tensor_algebra(src, opposite_algebra(tgt)))
    return channel_from_omega(phi.values, src, tgt, tau)


def random_trace_channel(rng, src, tgt, tau) -> ChannelMap:
    """random_cp_channel scaled to tau(F(1)) = 1."""
    f = random_cp_channel(rng, src, tgt, tau)
    return ChannelMap(src, tgt, f.matrix / trace_of_unit_image(f, tau))


def random_kraus_channel(rng, src: ConcreteAlgebra, tgt: ConcreteAlgebra,
                         kraus_rank: int = 2) -> ChannelMap:
    """F(a) = sum_i V_i a V_i^* between concretely realized algebras (the
    images must land back in the target span, so this targets full matrix
    algebras)."""
    n, m = src.ambient_dim, tgt.ambient_dim
    vs = [random_complex(rng, m, n) for _ in range(kraus_rank)]
    cols = []
    for b in range(src.dim):
        amb = src.basis[b]
        img = sum(v @ amb @ v.conj().T for v in vs)
        cols.append(tgt.coords_of(img))
    return ChannelMap(src, tgt, np.array(cols).T)


def random_pdf(rng, group: FiniteGroup) -> PositiveDefiniteFunction:
    """phi(g) = sum_j w_j <xi_j, lambda_g xi_j> over three terms of the
    untwisted regular representation, with sum_j w_j = 1 and phi(e) = 1;
    positive definite by construction."""
    n = group.order
    vals = np.zeros(n, dtype=complex)
    weights = rng.random(3) + 0.1
    weights = weights / weights.sum()
    for w in weights:
        xi = random_complex(rng, n)
        xi = xi / np.linalg.norm(xi)
        for g in range(n):
            shifted = np.zeros(n, dtype=complex)
            shifted[group.mult[g]] = xi          # (lambda_g xi)(gx) = xi(x)
            vals[g] += w * np.vdot(xi, shifted)
    vals[group.identity] = 1.0
    return PositiveDefiniteFunction(group, vals)


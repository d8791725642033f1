"""Fixtures, and the constructs of the paper that only tests use: the
multiplication functional mu_tau, the pairing functional of an element, the
flip Sigma^op that trades a plain and an opposite tensor factor, the
amplified Kasparov triple relabelled onto the omega-carrier, the pullback
F* psi of a functional, the commutativity test of an algebra and an SDP
posed with one more, unused variable.  Test modules import the functions
with `from conftest import ...`."""

from functools import reduce

import numpy as np
import pytest

from choimetric import (
    LinearFunctional,
    TraceFunctional,
    SpectralTriple,
    canonical_trace,
    cyclic_group,
    kasparov_product,
    diagonal_algebra,
    matrix_algebra,
    opposite_algebra,
    standard_matrix_trace,
    tensor_algebra,
    twisted_group_algebra,
    word_length,
)
from choimetric.algebra import _swap_coords, _swap_factors
from choimetric.errors import AlgebraMismatch, FactorMismatch, NotATrace
from choimetric.experiments import amplifier_triple
from choimetric.linalg import EPS_STRUCT


def evaluate_mu_tau(b, tau: TraceFunctional) -> LinearFunctional:
    """The multiplication functional mu_tau(b1 (x) b2^op) = tau(b1 b2) on
    B (x) B^op; positive for every trace tau."""
    if not isinstance(tau, TraceFunctional):
        raise NotATrace("mu_tau requires a validated trace")
    if not tau.algebra.same_as(b):
        raise AlgebraMismatch("trace lives on a different algebra")
    values = tau.bilinear_gram().reshape(-1)
    return LinearFunctional(tensor_algebra(b, opposite_algebra(b)), values)


def omega_triple(ctx) -> SpectralTriple:
    """The Kasparov product (d_n x d_n) x (d_A x d_B) of a stability context,
    with its representation read on the omega-carrier through the factor
    flip Sigma_[23] (not validated)."""
    product = kasparov_product(amplifier_triple(ctx.n), ctx.base.ball.seminorm.triple)
    to_omega = _swap_coords(product.algebra, np.arange(product.algebra.dim), 1, 2)
    return SpectralTriple(ctx.ball_n.seminorm.algebra, product.rep[to_omega],
                          product.dirac, product.grading)


def functional_from_element(x: np.ndarray, tau: TraceFunctional) -> LinearFunctional:
    """The pairing functional y -> tau(x y) of the element with coordinates
    x on the trace's algebra."""
    return LinearFunctional(tau.algebra, x @ tau.bilinear_gram())


def swap_op_algebra(a, i: int, j: int):
    """Target of Sigma^op_[ij]: factor i must be plain and factor j an
    opposite algebra; they trade places and op-ness."""
    factors = _swap_factors(a, i, j)
    fi, fj = factors[i], factors[j]
    if fi.op_of is not None or fj.op_of is None:
        raise FactorMismatch(
            "Sigma^op needs a plain algebra in position i and an opposite algebra in position j")
    factors[i] = fj.op_of
    factors[j] = opposite_algebra(fi)
    return reduce(tensor_algebra, factors)


def swap_op_functional(phi: LinearFunctional, i: int, j: int) -> LinearFunctional:
    """Sigma^op_[ij](... a ... b^op ...) = ... b ... a^op ... on the values."""
    return LinearFunctional(swap_op_algebra(phi.algebra, i, j),
                            _swap_coords(phi.algebra, phi.values, i, j))


def pullback_state(f, psi: LinearFunctional) -> LinearFunctional:
    """F^* psi = psi o F on the source algebra."""
    if not psi.algebra.same_as(f.target):
        raise AlgebraMismatch("functional not on the channel target")
    return LinearFunctional(f.source, f.matrix.T @ psi.values)


def is_commutative(alg) -> bool:
    """Whether the structure constants are symmetric in their two factors."""
    s = alg.structure
    return float(np.abs(s - s.transpose(1, 0, 2)).max()) <= EPS_STRUCT


@pytest.fixture(scope="session")
def m2():
    return matrix_algebra(2)


@pytest.fixture(scope="session")
def m3():
    return matrix_algebra(3)


@pytest.fixture(scope="session")
def d2():
    return diagonal_algebra(2)


@pytest.fixture(scope="session")
def tr2(m2):
    return standard_matrix_trace(m2)


@pytest.fixture(scope="session")
def tr3(m3):
    return standard_matrix_trace(m3)


@pytest.fixture(scope="session")
def z2_algebra():
    return twisted_group_algebra(cyclic_group(2))


@pytest.fixture(scope="session")
def z2_trace(z2_algebra):
    return canonical_trace(z2_algebra)


@pytest.fixture(scope="session")
def z2_length():
    return word_length(cyclic_group(2))


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def with_zero_variable(b, blocks):
    """The SDP (b, blocks) with one more variable that no block reads and the
    objective ignores: the same program, which a one-variable `solve_sdp`
    solves in closed form and this one by iterating."""
    return np.append(b, 0.0), [(c, np.concatenate([a, np.zeros_like(a[:1])])) for c, a in blocks]

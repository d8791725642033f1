import gc
import weakref

import numpy as np
import pytest

from choimetric import (
    ChannelMap,
    LinearFunctional,
    as_trace,
    build_algebra,
    cyclic_group,
    density_from_functional,
    diagonal_algebra,
    direct_product,
    klein_twist_cocycle,
    matrix_algebra,
    opposite_algebra,
    swap_functional,
    tensor_algebra,
    tensor_trace,
    twisted_group_algebra,
)
from choimetric import linalg
from choimetric.algebra import _swap_coords, require_faithful, selfadjoint_basis
from choimetric.errors import (
    AlgebraMismatch,
    LinearlyDependentBasis,
    NoUnit,
    NotATrace,
    NotClosedUnderAdjoint,
    NotClosedUnderProduct,
    NotFaithful,
)
from choimetric.experiments import group_context, stability_context
from choimetric.linalg import is_psd
from conftest import (
    evaluate_mu_tau,
    functional_from_element,
    is_commutative,
    pullback_state,
    swap_op_functional,
)


def unit_matrix(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def test_matrix_algebra_units(m2):
    assert m2.dim == 4 and m2.ambient_dim == 2
    assert np.allclose(m2.unit_coords, [1, 0, 0, 1])


def test_diagonal_algebra(d2):
    assert d2.dim == 2
    assert np.allclose(d2.unit_coords, [1, 1])
    assert is_commutative(d2)


def test_rejects_non_closed_adjoint():
    basis = np.array([unit_matrix(2, 0, 0), unit_matrix(2, 0, 1)])
    with pytest.raises(NotClosedUnderAdjoint):
        build_algebra(basis)


def test_rejects_non_closed_product():
    # span{1, e12 + e21} in M_2: closed under adjoint but (e12+e21)^2 = 1...
    # use span{e11, e12+e21} instead, whose square leaves the span
    basis = np.array([unit_matrix(2, 0, 0),
                      unit_matrix(2, 0, 1) + unit_matrix(2, 1, 0)])
    with pytest.raises(NotClosedUnderProduct):
        build_algebra(basis)


def test_rejects_dependent_basis():
    basis = np.array([unit_matrix(2, 0, 0), 2 * unit_matrix(2, 0, 0)])
    with pytest.raises(LinearlyDependentBasis):
        build_algebra(basis)


def test_rejects_span_without_unit():
    basis = np.array([unit_matrix(2, 0, 1) * 0 + unit_matrix(2, 0, 0) * 0
                      + np.diag([0.0, 0.0])])
    basis[0][0, 0] = 0.0
    # the span {e12 ... } nilpotent: use strictly upper triangular 1-dim span
    nil = np.zeros((1, 2, 2), dtype=complex)
    nil[0, 0, 1] = 1.0
    with pytest.raises((NoUnit, NotClosedUnderAdjoint)):
        build_algebra(nil)


def test_structure_constants_reconstruct_products(m3, rng):
    x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    y = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    lhs = m3.realize(m3.multiply_coords(x, y))
    rhs = m3.realize(x) @ m3.realize(y)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_gns_gram_matches_ambient_products(m2, rng):
    # [phi(B_i^* B_j)] from the realized products, on the Choi carrier
    carrier = tensor_algebra(m2, opposite_algebra(m2))
    phi = LinearFunctional(carrier, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    ref = np.array([[phi.values @ carrier.coords_of(bi.conj().T @ bj)
                     for bj in carrier.basis] for bi in carrier.basis])
    assert np.abs(phi.gns_gram() - ref).max() < 1e-12


@pytest.mark.parametrize("key", ["Z2", "Z3", None], ids=["amplified Z2", "amplified Z3",
                                                        "M2 (x) M2^op"])
def test_gns_gram_applies_the_adjoint_one_factor_at_a_time(key, m2, rng):
    # on a tensor carrier the Gram applies the operands' adjoint coordinates
    # in turn, and equals the product with their Kronecker product
    carrier = (tensor_algebra(m2, opposite_algebra(m2)) if key is None
               else stability_context(key).ball_n.seminorm.algebra)
    assert carrier._operands is not None
    values = rng.standard_normal(carrier.dim) + 1j * rng.standard_normal(carrier.dim)
    ref = carrier.adjoint_coords @ carrier.pairing(values)
    assert np.abs(LinearFunctional(carrier, values).gns_gram() - ref).max() <= 1e-12


def test_tensor_algebra_kron_order(m2, d2):
    t = tensor_algebra(m2, d2)
    assert t.dim == 8
    assert np.allclose(t.basis[0 * 2 + 1], np.kron(m2.basis[0], d2.basis[1]))
    unit = t.realize(t.unit_coords)
    assert np.abs(unit - np.eye(4)).max() < 1e-12


def test_tensor_associativity_reindex(m2, d2):
    left = tensor_algebra(tensor_algebra(m2, d2), d2)
    right = tensor_algebra(m2, tensor_algebra(d2, d2))
    # same flattened factor order -> identical structure data
    assert np.abs(left.basis - right.basis).max() < 1e-12
    assert np.abs(left.structure - right.structure).max() < 1e-12


@pytest.mark.parametrize("carrier", [
    lambda: tensor_algebra(matrix_algebra(2), opposite_algebra(matrix_algebra(3))),
    lambda: tensor_algebra(twisted_group_algebra(cyclic_group(3)).algebra, matrix_algebra(2)),
    lambda: stability_context("Z2").ball_n.seminorm.algebra,
], ids=["M2 x M3^op", "C*(Z3) x M2", "omega-carrier of amplified Z2"])
def test_pairing_contracts_the_structure_tensor(carrier, rng):
    alg = carrier()
    values = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    assert np.abs(alg.pairing(values) - alg.structure @ values).max() <= 1e-12


def test_tensor_and_opposite_are_one_object_per_operand(m2, d2):
    assert tensor_algebra(m2, d2) is tensor_algebra(m2, d2)
    assert opposite_algebra(m2) is opposite_algebra(m2)
    assert opposite_algebra(opposite_algebra(m2)) is m2


def test_an_unheld_tensor_product_is_freed_at_once():
    # nothing but its holders keeps a product alive, not even a cycle: a
    # deferred function that held its own product would keep an unread
    # product and one whose structure and adjoint coordinates are unread
    a, b = matrix_algebra(2), diagonal_algebra(2)

    def read_basis(alg):
        alg.basis
        return alg

    gc.disable()
    try:
        product = weakref.ref(tensor_algebra(a, b))
        assert product() is None
        product = weakref.ref(read_basis(tensor_algebra(a, b)))
        assert product() is None
        opposite = weakref.ref(opposite_algebra(tensor_algebra(a, b)))
        assert opposite() is None
        held = tensor_algebra(a, b)
        opposite = weakref.ref(opposite_algebra(held))
        assert opposite() is None
    finally:
        gc.enable()


def test_a_product_and_its_opposite_form_their_basis_on_first_read(monkeypatch):
    a, b = matrix_algebra(2), diagonal_algebra(2)
    with monkeypatch.context() as patch:
        def refuse(*args):
            raise AssertionError("a Kronecker basis was formed")

        patch.setattr(linalg, "kron_stack", refuse)
        product = tensor_algebra(a, b)
        op = opposite_algebra(product)
        for alg, name, factors in (
                (product, "(M2)@(diag2)", (a, b)),
                (op, "(M2)@(diag2)^op", (opposite_algebra(a), opposite_algebra(b)))):
            assert (alg.dim, alg.ambient_dim) == (8, 4)
            assert alg.factors == factors
            assert (alg.unit_coords == np.outer(a.unit_coords, b.unit_coords).ravel()).all()
            assert repr(alg) == f"<{name}: dim 8 in M_4>"
    assert (product.basis == linalg.kron_stack(a.basis, b.basis)).all()
    assert (product.adjoint_coords == np.einsum(
        "ac,bd->abcd", a.adjoint_coords, b.adjoint_coords).reshape(8, 8)).all()
    assert (op.basis == product.basis.transpose(0, 2, 1)).all()
    assert (op.adjoint_coords == product.adjoint_coords).all()
    assert (op.structure == product.structure.transpose(1, 0, 2)).all()
    # two distinct products of equal operands are the same algebra
    twin = tensor_algebra(a, diagonal_algebra(2))
    assert twin is not product and twin.same_as(product)
    assert not tensor_algebra(diagonal_algebra(2), a).same_as(product)
    assert not product.same_as(a)


def test_opposite_realizes_transpose(m2):
    op = opposite_algebra(m2)
    assert np.allclose(op.basis[1], m2.basis[1].T)      # e12 -> e21
    assert opposite_algebra(op) is m2


def test_opposite_product_law(m3, rng):
    op = opposite_algebra(m3)
    b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    lhs = op.multiply_coords(b, c)            # b^op c^op
    rhs = m3.multiply_coords(c, b)            # (cb) -> identical coordinates
    assert np.abs(lhs - rhs).max() < 1e-12


def test_scalar_algebra_is_tensor_unit(m2):
    c = build_algebra(np.ones((1, 1, 1), dtype=complex), name="C")
    t = tensor_algebra(c, m2)
    assert t.dim == m2.dim
    assert np.allclose(t.basis, m2.basis)


def test_opposite_of_commutative_is_identical(d2):
    op = opposite_algebra(d2)
    assert np.abs(op.structure - d2.structure).max() == 0.0


def test_swap_involution(m2, d2, rng):
    t = tensor_algebra(m2, d2)
    x = LinearFunctional(t, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    y = swap_functional(swap_functional(x, 0, 1), 0, 1)
    assert np.abs(y.values - x.values).max() == 0.0


def test_swap_three_factors_index_permutation(m2, d2):
    t = tensor_algebra(tensor_algebra(m2, m2), d2)
    x = np.zeros(t.dim, dtype=complex)
    # basis index (i, j, k) = (1, 2, 0) moves to (1, 0, 2) under Sigma_[23]
    idx = (1 * 4 + 2) * 2 + 0
    x[idx] = 1.0
    swapped = swap_functional(LinearFunctional(t, x), 1, 2)
    tgt_idx = (1 * 2 + 0) * 4 + 2
    assert swapped.values[tgt_idx] == 1.0
    assert np.count_nonzero(swapped.values) == 1
    # a (k, d) stack is swapped row by row
    stack = np.arange(3 * t.dim).reshape(3, t.dim)
    assert np.array_equal(_swap_coords(t, stack, 1, 2),
                          [_swap_coords(t, row, 1, 2) for row in stack])


def test_swap_preserves_positivity(m2, rng):
    t = tensor_algebra(m2, m2)
    r = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    vals = np.einsum("xy,byx->b", r @ r.conj().T, t.basis)
    phi = LinearFunctional(t, vals)
    assert phi.is_positive()
    assert swap_functional(phi, 0, 1).is_positive()


def test_swap_op_pairing(m2, rng):
    # phi(Sigma^op(x)) equals the hand-expanded pairing on rank-one coords
    op = opposite_algebra(m2)
    t = tensor_algebra(m2, op)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x = LinearFunctional(t, np.outer(a, b).reshape(-1))     # a (x) b^op
    sw = swap_op_functional(x, 0, 1)                        # b (x) a^op
    expected = np.outer(b, a).reshape(-1)
    assert np.abs(sw.values - expected).max() < 1e-12


def test_mu_tau_matrix_units(m2, tr2):
    mu = evaluate_mu_tau(m2, tr2)
    vals = mu.values.reshape(4, 4)
    assert abs(vals[0, 0] - 1) < 1e-12                 # e11 e11
    assert abs(vals[0, 3]) < 1e-12                     # e11 e22
    assert mu.is_positive()


def test_mu_tau_diagonal_algebra(d2):
    tau = as_trace(LinearFunctional(d2, np.array([1.0, 1.0], dtype=complex)))
    mu = evaluate_mu_tau(d2, tau)
    assert np.allclose(mu.values.reshape(2, 2), np.eye(2))


def test_mu_tau_requires_trace(m2):
    phi = LinearFunctional(m2, np.array([1, 2, 3, 4], dtype=complex))
    with pytest.raises(NotATrace):
        as_trace(phi)


def test_trace_predicates(m2, tr2):
    assert tr2.faithful
    assert tr2.is_positive()
    # rank-one "trace" on diag2 is a trace but not faithful
    d2 = diagonal_algebra(2)
    tau = as_trace(LinearFunctional(d2, np.array([1.0, 0.0], dtype=complex)))
    assert not tau.faithful
    with pytest.raises(NotFaithful):
        density_from_functional(tau, tau)


def test_faithfulness_is_decided_once(m2, monkeypatch):
    # a trace keeps its faithfulness like its Grams: a second
    # require_faithful reads no eigenvalue, and an unfaithful trace raises
    # NotFaithful on every call
    margin = linalg.psd_margin
    calls = []
    monkeypatch.setattr(linalg, "psd_margin", lambda m: calls.append(1) or margin(m))
    faithful = as_trace(LinearFunctional(m2, np.array([0.5, 0, 0, 0.5], dtype=complex)))
    unfaithful = as_trace(LinearFunctional(diagonal_algebra(2),
                                           np.array([1.0, 0.0], dtype=complex)))
    calls.clear()
    require_faithful(faithful)
    assert len(calls) == 1
    require_faithful(faithful)
    assert len(calls) == 1
    for _ in range(2):
        with pytest.raises(NotFaithful):
            require_faithful(unfaithful)
    assert len(calls) == 2


def test_density_rank_one(m2, tr2):
    phi = LinearFunctional(m2, np.array([1.0, 0, 0, 0], dtype=complex))
    b, member = density_from_functional(phi, tr2)
    assert np.abs(m2.realize(b) - np.diag([1.0, 0.0])).max() < 1e-12
    assert member


def test_density_of_trace_itself_not_normalized(m2, tr2):
    b, member = density_from_functional(tr2, tr2)
    assert np.abs(m2.realize(b) - np.eye(2)).max() < 1e-12
    assert not member


def test_density_round_trip(m3, tr3, rng):
    phi = LinearFunctional(m3, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    b, _ = density_from_functional(phi, tr3)
    back = functional_from_element(b, tr3)
    assert np.abs(back.values - phi.values).max() < 1e-10


def test_positivity_predicate_matches_density_psd(m3, tr3, rng):
    for _ in range(20):
        vals = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        if rng.random() < 0.5:
            r = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            vals = np.einsum("xy,byx->b", r @ r.conj().T, m3.basis)
        phi = LinearFunctional(m3, vals)
        b, _ = density_from_functional(phi, tr3)
        assert phi.is_positive() == is_psd(m3.realize(b))


def test_tensor_trace_factorizes(m2, tr2, d2):
    tau_d = as_trace(LinearFunctional(d2, np.array([1.0, 1.0], dtype=complex)))
    prod = tensor_trace(tr2, tau_d)
    vals = prod.values.reshape(4, 2)
    for i in range(4):
        for j in range(2):
            assert abs(vals[i, j] - tr2.values[i] * tau_d.values[j]) < 1e-12


def _klein_twisted():
    k4 = direct_product(cyclic_group(2), cyclic_group(2))
    return twisted_group_algebra(k4, klein_twist_cocycle(k4)).algebra, None


def _ball_frame(ball):
    return ball.seminorm.algebra, ball.keep


@pytest.mark.parametrize("case", [
    lambda: (matrix_algebra(3), None),
    lambda: _ball_frame(group_context("S3").ball),
    lambda: _ball_frame(stability_context("Z2").ball_n),
    _klein_twisted,
], ids=["M3", "S3 coset keep", "amplified Z2 coset keep", "Z2xZ2 twisted"])
def test_selfadjoint_basis_contract(case, rng):
    alg, keep = case()
    keep = np.arange(alg.dim) if keep is None else keep
    rows = selfadjoint_basis(alg, keep)
    assert rows.shape == (len(keep), alg.dim)
    assert np.abs(np.delete(rows, keep, axis=1)).max(initial=0.0) == 0.0
    # self-adjoint and orthonormal in Re <r_i, r_j>
    assert np.abs(np.array([alg.adjoint_of_coords(r) for r in rows]) - rows).max() < 1e-12
    assert np.abs((rows.conj() @ rows.T).real - np.eye(len(rows))).max() < 1e-12
    # random self-adjoint elements supported on keep lie in the real span
    for _ in range(3):
        x = np.zeros(alg.dim, dtype=complex)
        x[keep] = rng.standard_normal(len(keep)) + 1j * rng.standard_normal(len(keep))
        x = 0.5 * (x + alg.adjoint_of_coords(x))
        along = (rows.conj() @ x).real
        assert np.abs(rows.T @ along - x).max() < 1e-10 * max(1.0, np.abs(x).max())


def test_selfadjoint_basis_rejects_a_keep_that_is_not_star_closed():
    # lambda_1^* = lambda_2 in C*(Z3): coordinate 2 is not kept
    z3 = twisted_group_algebra(cyclic_group(3)).algebra
    with pytest.raises(AlgebraMismatch):
        selfadjoint_basis(z3, [1])


def test_pullback_functional(m2, rng):
    phi = LinearFunctional(m2, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    cmap = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    pulled = pullback_state(ChannelMap(m2, m2, cmap), phi)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert abs(pulled.values @ x - phi.values @ (cmap @ x)) < 1e-12


def test_mu_tau_positive_across_corpus():
    # every algebra/trace pair in the default corpus yields a positive mu
    from choimetric import canonical_trace, cyclic_group, twisted_group_algebra
    from choimetric import direct_product, klein_twist_cocycle
    from choimetric import standard_matrix_trace
    m2 = matrix_algebra(2)
    d3 = diagonal_algebra(3)
    k4 = direct_product(cyclic_group(2), cyclic_group(2))
    twisted = twisted_group_algebra(k4, klein_twist_cocycle(k4))
    corpus = [
        (m2, standard_matrix_trace(m2)),
        (d3, standard_matrix_trace(d3)),
        (twisted.algebra, canonical_trace(twisted)),
    ]
    for alg, tau in corpus:
        assert evaluate_mu_tau(alg, tau).is_positive()


def test_swap_requires_tensor_structure(m2, rng):
    from choimetric.errors import FactorMismatch, NotATensorAlgebra
    x = LinearFunctional(m2, rng.standard_normal(4).astype(complex))
    with pytest.raises(NotATensorAlgebra):
        swap_functional(x, 0, 1)
    t = tensor_algebra(m2, m2)    # both factors plain: no op position
    y = LinearFunctional(t, np.zeros(16, dtype=complex))
    with pytest.raises(FactorMismatch):
        swap_op_functional(y, 0, 1)
    with pytest.raises(FactorMismatch):
        swap_functional(y, 0, 5)
    mixed = tensor_algebra(m2, opposite_algebra(m2))
    z = LinearFunctional(mixed, np.zeros(16, dtype=complex))
    with pytest.raises(FactorMismatch):
        swap_op_functional(z, 0, 5)

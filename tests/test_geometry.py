import numpy as np
import pytest

from choimetric import (
    AmbientNormSeminorm,
    CommutatorSeminorm,
    SpectralTriple,
    diagonal_algebra,
    kasparov_product,
    left_tensor_seminorm,
    opposite_algebra,
    right_tensor_seminorm,
    seminorm_domination_check,
    tensor_algebra,
)
from choimetric.errors import InvalidSpectralTriple
from choimetric.experiments import _toy_triples
from choimetric.geometry import gradient_dirac_triple
from choimetric.oracles import state_sup_lower_bound

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def two_point_triple(scale=1.0):
    d2 = diagonal_algebra(2)
    return SpectralTriple(d2, d2.basis, X / scale).validate()


def test_triple_validation_catches_bad_dirac(d2):
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(InvalidSpectralTriple):
        SpectralTriple(d2, d2.basis, bad).validate()


def test_triple_validation_catches_bad_grading(d2):
    # X does not commute with the diagonal representation
    with pytest.raises(InvalidSpectralTriple):
        SpectralTriple(d2, d2.basis, Z, X).validate()
    # Z does not anticommute with a diagonal Dirac
    with pytest.raises(InvalidSpectralTriple):
        SpectralTriple(d2, d2.basis, Z, Z).validate()


def test_triple_validation_catches_the_adjoint_law(m2):
    # conjugation by a non-unitary S is unital and multiplicative but not *-preserving
    s = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    rep = s @ m2.basis @ np.linalg.inv(s)
    with pytest.raises(InvalidSpectralTriple, match="adjoint law"):
        SpectralTriple(m2, rep, Z).validate()


def test_triple_validation_catches_an_unfaithful_rep(d2):
    # e_1 -> [[1]], e_2 -> [[0]] is a unital *-homomorphism with a kernel
    rep = np.array([[[1.0]], [[0.0]]], dtype=complex)
    with pytest.raises(InvalidSpectralTriple, match="not faithful"):
        SpectralTriple(d2, rep, np.zeros((1, 1))).validate()


def test_faithfulness_rank_matches_matrix_rank():
    from choimetric.experiments import stability_context
    from choimetric.geometry import _rank
    rep = stability_context("Z2").seminorm_n.triple.rep
    d, h, _ = rep.shape
    flat = rep.reshape(d, h * h)
    tol = 1e-10 * max(1.0, float(np.abs(rep).max()) ** 2)
    assert _rank(flat, tol) == np.linalg.matrix_rank(flat, tol=tol) == d
    # and on a rank-deficient stack: the last row a combination of two others
    flat[-1] = flat[0] - 2.0 * flat[1]
    assert _rank(flat, tol) == np.linalg.matrix_rank(flat, tol=tol) == d - 1


def test_two_point_seminorm(d2):
    lip = CommutatorSeminorm(two_point_triple())
    assert abs(lip.eval_coords(np.array([3.0, 1.0])) - 2.0) < 1e-12
    assert lip.eval_coords(d2.unit_coords) < 1e-14


def test_seminorm_axioms_random(rng, d2, m2):
    for lip in (CommutatorSeminorm(two_point_triple()),
                AmbientNormSeminorm(m2)):
        alg = lip.algebra
        for _ in range(25):
            x = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
            y = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
            a = rng.standard_normal() + 1j * rng.standard_normal()
            assert lip.eval_coords(x + y) <= lip.eval_coords(x) + lip.eval_coords(y) + 1e-10
            assert abs(lip.eval_coords(a * x) - abs(a) * lip.eval_coords(x)) < 1e-9
            star = alg.adjoint_of_coords(x)
            assert abs(lip.eval_coords(star) - lip.eval_coords(x)) < 1e-9


def test_unit_in_kernel_of_lipschitz_seminorms(m2, z2_algebra, z2_length):
    from choimetric.experiments import length_dirac
    lip = CommutatorSeminorm(length_dirac(z2_algebra, z2_length))
    assert lip.eval_coords(z2_algebra.algebra.unit_coords) < 1e-14
    assert abs(lip.eval_coords(np.array([0.0, 1.0])) - 1.0) < 1e-12


def test_zero_length_degenerates(z2_algebra):
    from choimetric.experiments import length_dirac
    from choimetric.groups import LengthFunction
    zero = LengthFunction(z2_algebra.group, np.zeros(2))
    lip = CommutatorSeminorm(length_dirac(z2_algebra, zero))
    assert lip.eval_coords(np.array([0.0, 1.0])) == 0.0


def test_kasparov_even_even_toy():
    toys = _toy_triples()
    product = kasparov_product(toys["even"], toys["even"])
    lam = np.linalg.eigvalsh(product.dirac)
    assert np.abs(np.abs(lam) - np.sqrt(2.0)).max() < 1e-12
    # grading anticommutation is part of validate(); assert numerically anyway
    g, d = product.grading, product.dirac
    assert np.abs(g @ d + d @ g).max() < 1e-12


def test_kasparov_all_parities_validate():
    toys = _toy_triples()
    for pa in ("odd", "even"):
        for pb in ("odd", "even"):
            product = kasparov_product(toys[pa], toys[pb])
            product.validate()
            assert product.even == (pa == pb)


def test_odd_odd_group_value(z2_algebra, z2_length):
    from choimetric.experiments import length_dirac, length_dirac_op
    t = length_dirac(z2_algebra, z2_length)
    top = length_dirac_op(z2_algebra, z2_length)
    product = kasparov_product(t, top)
    lip = CommutatorSeminorm(product)
    coords = np.zeros(4, dtype=complex)
    coords[3] = 1.0                        # lambda_1 (x) lambda_1^op
    assert abs(lip.eval_coords(coords) - np.sqrt(2.0)) < 1e-12


def test_domination(rng):
    toys = _toy_triples()
    from choimetric.experiments import length_dirac
    from choimetric import twisted_group_algebra, cyclic_group, word_length
    ga = twisted_group_algebra(cyclic_group(2))
    t_g = length_dirac(ga, word_length(cyclic_group(2)))
    report = seminorm_domination_check(toys["odd_m2"], t_g, samples=100, rng=rng)
    assert report.violations == 0
    # on x = 1 (x) b the left factor seminorm equals L_B(b)
    right = right_tensor_seminorm(toys["odd_m2"].algebra, t_g, rep_a=toys["odd_m2"].rep)
    assert right.algebra is tensor_algebra(toys["odd_m2"].algebra, ga.algebra)
    lip_b = CommutatorSeminorm(t_g)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    embedded = np.outer(toys["odd_m2"].algebra.unit_coords, b).reshape(-1)
    assert abs(right.eval_coords(embedded) - lip_b.eval_coords(b)) < 1e-10


def _as_opposite_triple(t: SpectralTriple) -> SpectralTriple:
    """View a triple as a triple for the opposite algebra through the
    transpose identification: pi^op(b^op) = pi(b)^t, with the transposed
    Dirac and grading."""
    op = opposite_algebra(t.algebra)
    rep = t.rep.transpose(0, 2, 1).copy()
    grading = t.grading.T.copy() if t.grading is not None else None
    return SpectralTriple(op, rep, t.dirac.T.copy(), grading).validate()


def _kernel_identity_cases(seed: int = 0):
    """L_{(d_n x d_n) x (d_A x d_B)}(1 (x) 1 (x) x) = L_{d_A x d_B}(x) over
    all eight parity combinations of the three input triples."""
    toys = _toy_triples()
    rng = np.random.default_rng(seed)
    results = []
    for pn in ("odd_m2", "even_m2"):
        t_n = toys[pn]
        nn = kasparov_product(t_n, _as_opposite_triple(t_n))
        for pa in ("odd", "even"):
            for pb in ("odd", "even"):
                inner = kasparov_product(toys[pa], toys[pb])
                lip_total = CommutatorSeminorm(kasparov_product(nn, inner))
                lip_inner = CommutatorSeminorm(inner)
                worst = 0.0
                for _ in range(5):
                    d = inner.algebra.dim
                    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                    embedded = np.outer(nn.algebra.unit_coords, x).reshape(-1)
                    worst = max(worst, abs(lip_total.eval_coords(embedded)
                                           - lip_inner.eval_coords(x)))
                results.append(((pn, pa, pb), worst))
    return results


def test_stability_kernel_identity_all_parities():
    for parities, worst in _kernel_identity_cases(0):
        assert worst < 1e-9, parities


def test_state_sup_is_lower_bound(rng):
    toys = _toy_triples()
    from choimetric import twisted_group_algebra, cyclic_group
    ga = twisted_group_algebra(cyclic_group(2))
    lt = left_tensor_seminorm(toys["odd_m2"], ga.algebra)
    lip_a = CommutatorSeminorm(toys["odd_m2"])
    for _ in range(30):
        z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        lb = state_sup_lower_bound(z, "left", lip_a, ga.algebra,
                                   samples=60, rng=rng)
        assert lb <= lt.eval_coords(z) + 1e-9


def test_gradient_dirac_triple_seminorm(rng, m2):
    ls = [np.diag([1.0, -1.0]).astype(complex), X]
    lip = CommutatorSeminorm(gradient_dirac_triple(ls, algebra=m2))
    for _ in range(10):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = 0.5 * (a + a.conj().T)
        stacked = np.vstack([l @ a - a @ l for l in ls])
        expect = np.linalg.norm(stacked, 2)
        got = lip.eval_coords(m2.coords_of(a))
        assert abs(got - expect) < 1e-10

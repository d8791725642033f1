import copy
import tracemalloc

import numpy as np
import pytest

from choimetric import (
    CommutatorSeminorm,
    KasparovSeminorm,
    Seminorm,
    SpectralTriple,
    diagonal_algebra,
    kasparov_product,
    left_tensor_seminorm,
    matrix_algebra,
    opposite_algebra,
    right_tensor_seminorm,
    seminorm_domination_check,
    tensor_algebra,
    twisted_group_algebra,
    word_length,
)
from choimetric import experiments as E
from choimetric import metrics
from choimetric.errors import AlgebraMismatch, InvalidSpectralTriple
from choimetric.experiments import _toy_triples
from choimetric.geometry import (
    _FAITHFUL_TOL,
    _checked_product,
    _rank,
    _tensor_rank,
    gradient_dirac_triple,
)
from choimetric.linalg import kron_stack
from conftest import omega_triple
from reference_oracles import state_sup_lower_bound

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
    # a grading whose shape is not the Dirac's, whether or not it broadcasts
    for shape in (3, 1):
        with pytest.raises(InvalidSpectralTriple, match=f"grading of shape \\({shape}, {shape}\\)"):
            SpectralTriple(d2, d2.basis, X, np.eye(shape)).validate()


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
    ctx = stability_context("Z2")
    relabelled = omega_triple(ctx)
    # the amplified seminorm is the relabelled triple's commutator seminorm
    assert np.array_equal(relabelled.commutator_matrices(), ctx.ball_n.seminorm.rows())
    rep = relabelled.rep
    d, h, _ = rep.shape
    flat = rep.reshape(d, h * h)
    tol = 1e-10 * max(1.0, float(np.abs(rep).max()) ** 2)
    assert _rank(flat, tol) == np.linalg.matrix_rank(flat, tol=tol) == d
    # and on a rank-deficient stack: the last row a combination of two others
    flat[-1] = flat[0] - 2.0 * flat[1]
    assert _rank(flat, tol) == np.linalg.matrix_rank(flat, tol=tol) == d - 1


def kasparov_commutators(ta: SpectralTriple, tb: SpectralTriple) -> np.ndarray:
    """The commutator stack of `kasparov_product(ta, tb)` over its carrier's
    coordinates, as `KasparovSeminorm.rows` forms it."""
    return KasparovSeminorm(tensor_algebra(ta.algebra, tb.algebra), ta, tb).rows()


def _corrupt_factor(law: str, parity: str) -> SpectralTriple:
    """A triple that breaks one law and keeps the others, built without the
    check; the even ones carry a grading that commutes with the
    representation and anticommutes with the Dirac unless `law` names it."""
    d2 = diagonal_algebra(2)
    if law == "Dirac matrix is not Hermitian":
        return SpectralTriple(d2, d2.basis, np.array([[0.0, 1.0], [0.0, 0.0]]),
                              Z if parity == "even" else None)
    if law == "product law":
        # unital and *-preserving, but e_1 does not go to a projection
        rep = np.array([np.diag([1.0, 0.5]), np.diag([0.0, 0.5])])
        return SpectralTriple(d2, rep, X, Z if parity == "even" else None)
    if law == "adjoint law":
        # conjugation by a non-unitary S on M_2
        m2 = matrix_algebra(2)
        s = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        rep = s @ m2.basis @ np.linalg.inv(s)
        if parity == "odd":
            return SpectralTriple(m2, rep, Z)
        return SpectralTriple(m2, np.array([np.kron(np.eye(2), r) for r in rep]),
                              np.kron(X, np.eye(2)), np.kron(Z, np.eye(2)))
    if law == "not faithful":
        if parity == "odd":
            return SpectralTriple(d2, np.array([[[1.0]], [[0.0]]]), np.zeros((1, 1)))
        return SpectralTriple(d2, np.array([np.eye(2), np.zeros((2, 2))]), X, Z)
    if law == "does not commute":
        return SpectralTriple(d2, d2.basis, Z, X)
    assert law == "does not anticommute"
    return SpectralTriple(d2, d2.basis, Z, Z)


CORRUPTIONS = [(law, parity)
               for law in ("Dirac matrix is not Hermitian", "product law",
                           "adjoint law", "not faithful")
               for parity in ("odd", "even")] + [
    ("does not commute", "even"), ("does not anticommute", "even")]


@pytest.mark.parametrize("build", [kasparov_product, kasparov_commutators],
                         ids=["product", "commutators"])
@pytest.mark.parametrize("partner", ["odd", "even"])
@pytest.mark.parametrize("position", ["first", "second"])
@pytest.mark.parametrize("law, parity", CORRUPTIONS)
def test_kasparov_product_rejects_a_corrupted_factor(law, parity, position, partner, build):
    bad = _corrupt_factor(law, parity)
    with pytest.raises(InvalidSpectralTriple, match=law):
        bad.validate()
    good = _toy_triples()[partner]
    factors = (bad, good) if position == "first" else (good, bad)
    with pytest.raises(InvalidSpectralTriple, match=law):
        build(*factors)


def _suite_factors(case):
    """The factors of a Kasparov product that the suites build: the length
    Dirac triples of the S3 group context, or d_2 x d_2 and a group
    context's product for the amplified contexts (restricted or not, the
    amplified contexts share their factors)."""
    if case == "S3":
        group, cocycle = E.builtin_group("S3")
        ga = twisted_group_algebra(group, cocycle)
        length = word_length(group)
        return E.length_dirac(ga, length), E.length_dirac_op(ga, length)
    return E.amplifier_triple(2), E.group_context(case).ball.seminorm.triple


SUITE_CASES = ["S3", "Z2", "Z3"]
SUITE_IDS = ["S3", "amplified Z2", "amplified Z3"]


@pytest.mark.parametrize("case", SUITE_CASES, ids=SUITE_IDS)
def test_suite_products_pass_the_full_check(case):
    ta, tb = _suite_factors(case)
    product = kasparov_product(ta, tb)
    product.validate()
    # the faithfulness decision read from the factors is the full check's,
    # with the doubled first factor on the odd x odd S3 product
    d, h, _ = product.rep.shape
    tol = _FAITHFUL_TOL * max(1.0, float(np.abs(product.rep).max()) ** 2)
    first, *_ = _checked_product(ta, tb)
    assert _tensor_rank(first, tb) == _rank(product.rep.reshape(d, h * h), tol) == d


def _rotated(t: SpectralTriple, rng) -> SpectralTriple:
    """`t` conjugated by a random unitary: a unitarily equivalent triple
    whose entries floating point no longer multiplies exactly."""
    h = t.hilbert_dim
    u, _ = np.linalg.qr(rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h)))

    def conj(m):
        return u @ m @ u.conj().T

    return SpectralTriple(t.algebra, conj(t.rep), conj(t.dirac),
                          None if t.grading is None else conj(t.grading))


TOYS = ("odd", "even", "odd_m2", "even_m2")


@pytest.mark.parametrize("rotate", [False, True], ids=["exact", "rotated"])
@pytest.mark.parametrize("pb", TOYS)
@pytest.mark.parametrize("pa", TOYS)
def test_kasparov_commutators_are_the_products_commutators(pa, pb, rotate):
    # every parity; on integer toys the arithmetic is exact and so is the
    # agreement, on rotated ones it agrees to rounding
    toys = _toy_triples()
    ta, tb = toys[pa], toys[pb]
    if rotate:
        rng = np.random.default_rng(TOYS.index(pa) * 4 + TOYS.index(pb))
        ta, tb = _rotated(ta, rng), _rotated(tb, rng)
    stack = kasparov_commutators(ta, tb)
    reference = kasparov_product(ta, tb).commutator_matrices()
    assert stack.shape == reference.shape
    if rotate:
        # even_m2's Dirac commutes with its representation: a zero stack
        assert np.abs(stack - reference).max() <= 1e-13 * max(1.0, np.abs(reference).max())
    else:
        assert np.array_equal(stack, reference)


@pytest.mark.parametrize("case", SUITE_CASES, ids=SUITE_IDS)
def test_kasparov_commutators_of_the_suite_factors_are_exact(case):
    ta, tb = _suite_factors(case)
    assert np.array_equal(kasparov_commutators(ta, tb),
                          kasparov_product(ta, tb).commutator_matrices())


def _dense_omega_stack(ctx) -> np.ndarray:
    """The amplified seminorm's whole stack, as the Kronecker stacks of its
    two terms, with its rows read on the omega-carrier."""
    first, left, right, _, _ = _checked_product(*_suite_factors(ctx.base.group.name))
    tb = ctx.base.ball.seminorm.triple
    dense = kron_stack(first.commutator_matrices(), right @ tb.rep)
    dense += kron_stack(left @ first.rep, tb.commutator_matrices())
    return dense[ctx.ball_n.seminorm.order]


AMPLIFIED = [("Z2", 8, 16), ("Z3", 12, 36)]


@pytest.mark.parametrize("key, restricted, generic", AMPLIFIED)
def test_factored_seminorm_rows_are_the_dense_rows(key, restricted, generic):
    ctx = E.stability_context(key)
    seminorm, dense = ctx.ball_n.seminorm, _dense_omega_stack(ctx)
    assert isinstance(seminorm, KasparovSeminorm) and not hasattr(seminorm, "matrices")
    keep = ctx.ball_n.keep
    assert len(keep) == restricted
    # unrestricted (every row) and restricted (the ball's rows), bit for bit
    assert np.array_equal(seminorm.rows(), dense)
    assert np.array_equal(seminorm.rows(np.arange(len(dense))), dense)
    assert np.array_equal(seminorm.rows(keep), dense[keep])


@pytest.mark.parametrize("key, restricted, generic", AMPLIFIED)
def test_factored_pattern_holds_the_dense_pattern_and_its_closures(key, restricted, generic):
    ctx = E.stability_context(key)
    seminorm, dense = ctx.ball_n.seminorm, _dense_omega_stack(ctx)
    pattern = seminorm.pattern()
    assert pattern.dtype == bool and pattern.shape == dense.shape
    assert np.all(pattern >= (dense != 0))
    g = ctx.base.group.order
    pairs = np.flatnonzero(ctx.base.group.mult == ctx.base.group.identity)
    for support, size in ((E._omega_support(pairs, g, ctx.n), restricted),
                          (E._omega_support(np.arange(g * g), g, ctx.n), generic)):
        keep = metrics._pinching_closure(pattern, support)
        assert np.array_equal(keep, metrics._pinching_closure(dense, support))
        assert len(keep) == size


@pytest.mark.parametrize("key, restricted, generic", AMPLIFIED)
def test_factored_pattern_without_a_term_misses_the_dense_pattern(key, restricted, generic):
    ctx = E.stability_context(key)
    seminorm, nonzero = ctx.ball_n.seminorm, _dense_omega_stack(ctx) != 0
    for dropped in range(2):
        # the dropped term's factor stacks zeroed: its pattern is empty
        mutant = copy.copy(seminorm)
        mutant.terms = tuple((0 * fa, 0 * fb) if t == dropped else (fa, fb)
                             for t, (fa, fb) in enumerate(seminorm.terms))
        assert not np.all(mutant.pattern() >= nonzero)


@pytest.mark.parametrize("key, restricted, generic", AMPLIFIED)
def test_factored_eval_matches_the_dense_eval(key, restricted, generic, rng):
    ctx = E.stability_context(key)
    seminorm = ctx.ball_n.seminorm
    dense = Seminorm(seminorm.algebra, _dense_omega_stack(ctx))
    x = rng.standard_normal((25, dense.algebra.dim)) + 1j * rng.standard_normal(
        (25, dense.algebra.dim))
    reference = dense.eval_coords(x)
    assert np.all(reference > 0)
    assert np.abs(seminorm.eval_coords(x) - reference).max() <= 1e-12 * reference.max()
    single = seminorm.eval_coords(x[0])
    assert isinstance(single, float) and abs(single - reference[0]) <= 1e-12 * reference[0]
    assert seminorm.eval_coords(np.zeros((0, dense.algebra.dim))).shape == (0,)


def test_factored_seminorm_rejects_an_order_that_is_no_permutation():
    ta, tb = _toy_triples()["odd_m2"], _toy_triples()["even"]
    carrier = tensor_algebra(ta.algebra, tb.algebra)
    order = np.arange(carrier.dim)
    assert np.array_equal(KasparovSeminorm(carrier, ta, tb, order[::-1]).rows(),
                          kasparov_commutators(ta, tb)[::-1])
    order[0] = order[1]
    with pytest.raises(AlgebraMismatch, match="permutation"):
        KasparovSeminorm(carrier, ta, tb, order)
    with pytest.raises(AlgebraMismatch, match="permutation"):
        KasparovSeminorm(ta.algebra, ta, tb)


def test_tensor_rank_matches_rank_on_an_unfaithful_factor():
    bad = _corrupt_factor("not faithful", "odd")
    good = _toy_triples()["odd_m2"]
    rep = kron_stack(bad.rep, good.rep)
    tol = _FAITHFUL_TOL * max(1.0, float(np.abs(rep).max()) ** 2)
    assert _tensor_rank(bad, good) == _rank(rep.reshape(len(rep), -1), tol) == 4


_PLUS, _MINUS = (np.kron(X, np.eye(2)) + s * 1j * np.kron(np.eye(2), X) for s in (1, -1))
# (Dirac, grading) of the product of the d2 toys, from kasparov_product's
# table: odd is (d2, X), even is (d2, X, Z)
PARITY_TABLE = {
    ("odd", "odd"): (np.block([[np.zeros((4, 4)), _PLUS], [_MINUS, np.zeros((4, 4))]]),
                     np.kron(Z, np.eye(4))),
    ("odd", "even"): (np.kron(X, Z) + np.kron(np.eye(2), X), None),
    ("even", "odd"): (np.kron(X, np.eye(2)) + np.kron(Z, X), None),
    ("even", "even"): (np.kron(X, np.eye(2)) + np.kron(Z, X), np.kron(Z, Z)),
}


@pytest.mark.parametrize("pa, pb", list(PARITY_TABLE))
def test_kasparov_product_follows_the_parity_table(pa, pb):
    dirac, grading = PARITY_TABLE[pa, pb]
    basis = diagonal_algebra(2).basis
    rep = np.array([np.kron(a, b) for a in basis for b in basis])
    if pa == pb == "odd":
        rep = np.array([np.kron(np.eye(2), r) for r in rep])
    toys = _toy_triples()
    product = kasparov_product(toys[pa], toys[pb])
    assert np.array_equal(product.dirac, dirac)
    assert np.array_equal(product.rep, rep)
    assert (product.grading is None if grading is None
            else np.array_equal(product.grading, grading))


def test_kasparov_product_allocates_about_its_representation():
    # checked through its factors, the amplified Z3 product needs no
    # transient of its own size beyond the representation it returns
    t_nn = E.amplifier_triple(2)
    t_z3 = E.group_context("Z3").ball.seminorm.triple
    tracemalloc.start()
    try:
        product = kasparov_product(t_nn, t_z3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert product.rep.shape == (144, 144, 144)
    assert peak <= 1.5 * product.rep.nbytes


def test_two_point_seminorm(d2):
    lip = CommutatorSeminorm(two_point_triple())
    assert abs(lip.eval_coords(np.array([3.0, 1.0])) - 2.0) < 1e-12
    assert lip.eval_coords(d2.unit_coords) < 1e-14


def test_seminorm_axioms_random(rng, d2, m2):
    for lip in (CommutatorSeminorm(two_point_triple()),
                Seminorm(m2, m2.basis)):
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
    violations, _ = seminorm_domination_check(toys["odd_m2"], t_g, samples=100, rng=rng)
    assert violations == 0
    # on x = 1 (x) b the left factor seminorm equals L_B(b)
    right = right_tensor_seminorm(toys["odd_m2"].algebra, t_g, rep_a=toys["odd_m2"].rep)
    assert right.algebra is tensor_algebra(toys["odd_m2"].algebra, ga.algebra)
    lip_b = CommutatorSeminorm(t_g)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    embedded = np.outer(toys["odd_m2"].algebra.unit_coords, b).reshape(-1)
    assert abs(right.eval_coords(embedded) - lip_b.eval_coords(b)) < 1e-10


def test_complex_samples_are_successive_draws():
    from choimetric.generate import random_complex
    from choimetric.linalg import complex_samples
    for d in (4, 36):
        rows = complex_samples(np.random.default_rng(7), 5, d)
        rng = np.random.default_rng(7)
        draws = np.array([rng.standard_normal(d) + 1j * rng.standard_normal(d)
                          for _ in range(5)])
        assert np.array_equal(rows, draws)
        # random_complex draws every real part first: other points
        assert not np.allclose(rows, random_complex(np.random.default_rng(7), 5, d))


def test_eval_coords_on_a_stack_matches_single_calls(rng):
    toys = _toy_triples()
    lip = CommutatorSeminorm(kasparov_product(toys["even_m2"], toys["odd"]))
    d = lip.algebra.dim
    xs = rng.standard_normal((6, d)) + 1j * rng.standard_normal((6, d))
    stacked = lip.eval_coords(xs)
    singles = [lip.eval_coords(x) for x in xs]
    assert all(isinstance(v, float) for v in singles)
    assert np.allclose(stacked, singles, rtol=1e-12, atol=0.0)
    assert lip.eval_coords(np.zeros((0, d))).shape == (0,)


@pytest.mark.parametrize("pa, pb", [("odd_m2", "odd"), ("odd_m2", "even"),
                                    ("even_m2", "odd"), ("even_m2", "even")])
def test_tensor_seminorms_are_the_tensor_dirac_commutators(pa, pb):
    toys = _toy_triples()
    ta, tb = toys[pa], toys[pb]
    carrier = tensor_algebra(ta.algebra, tb.algebra)
    rep = kron_stack(ta.rep, tb.rep)
    ha, hb = ta.hilbert_dim, tb.hilbert_dim
    for tensor, dirac in (
            (left_tensor_seminorm(ta, tb.algebra, rep_b=tb.rep),
             np.kron(ta.dirac, np.eye(hb))),
            (right_tensor_seminorm(ta.algebra, tb, rep_a=ta.rep),
             np.kron(np.eye(ha), tb.dirac))):
        reference = CommutatorSeminorm(SpectralTriple(carrier, rep, dirac))
        assert tensor.algebra is carrier
        assert np.abs(tensor.rows() - reference.matrices).max() < 1e-12


@pytest.mark.parametrize("pa, pb", [("odd_m2", "odd"), ("odd_m2", "even"),
                                    ("even_m2", "odd"), ("even_m2", "even")])
def test_tensor_seminorms_stay_factored_and_read_their_kron_stacks(pa, pb, rng):
    toys = _toy_triples()
    ta, tb = toys[pa], toys[pb]
    for tensor, stack in (
            (left_tensor_seminorm(ta, tb.algebra, rep_b=tb.rep),
             kron_stack(ta.commutator_matrices(), tb.rep)),
            (right_tensor_seminorm(ta.algebra, tb, rep_a=ta.rep),
             kron_stack(ta.rep, tb.commutator_matrices()))):
        assert not hasattr(tensor, "matrices") and len(tensor.terms) == 1
        dense = Seminorm(tensor.algebra, stack)
        idx = rng.permutation(len(stack))[:5]
        assert np.abs(tensor.rows() - stack).max() <= 1e-12
        assert np.abs(tensor.rows(idx) - stack[idx]).max() <= 1e-12
        assert np.array_equal(tensor.pattern(), dense.pattern())
        x = rng.standard_normal((7, len(stack))) + 1j * rng.standard_normal((7, len(stack)))
        reference = dense.eval_coords(x)
        scale = 1e-12 * max(1.0, reference.max())
        assert np.abs(tensor.eval_coords(x) - reference).max() <= scale
        single = tensor.eval_coords(x[0])
        assert isinstance(single, float) and abs(single - reference[0]) <= scale


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
    lt = left_tensor_seminorm(toys["odd_m2"], ga.algebra, ga.algebra.basis)
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

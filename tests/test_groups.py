import numpy as np
import pytest

from choimetric import (
    Cocycle,
    FiniteGroup,
    LengthFunction,
    PositiveDefiniteFunction,
    canonical_trace,
    compose,
    cyclic_group,
    dihedral_group,
    direct_product,
    is_completely_positive,
    is_unital,
    klein_twist_cocycle,
    multiplier_channel,
    multiplier_contraction_check,
    symmetric_group_3,
    trace_adjoint,
    twisted_group_algebra,
    word_length,
)
from choimetric.errors import (
    InvalidCocycle,
    InvalidGroup,
    InvalidLength,
    NotPositiveDefinite,
)
from choimetric.experiments import length_dirac, length_dirac_op
from choimetric.generate import random_pdf


def test_group_laws_validated():
    with pytest.raises(InvalidGroup):
        FiniteGroup([[0, 1], [1, 1]], 0)
    with pytest.raises(InvalidGroup):
        FiniteGroup([[1, 0], [0, 1]], 0)
    # the empty table: no identity, and no entry to range-check
    with pytest.raises(InvalidGroup):
        FiniteGroup(np.zeros((0, 0), dtype=int), 0)
    # a generator is an element index: no float, string, bool or index
    # outside [0, order), which word_length would read or wrap around
    z3 = cyclic_group(3).mult
    for gens in ([5], ["a"], [1.5], [-1], [True], [1, 3]):
        with pytest.raises(InvalidGroup):
            FiniteGroup(z3, 0, generators=tuple(gens))
    assert FiniteGroup(z3, 0, generators=(np.int64(2),)).generators == (2,)


def test_group_data_built_in_code_raises_invalid_group():
    # an identity that is no element index, a ragged table, and a
    # fractional entry that an integer cast would truncate to Z2
    for table, identity in (([[0, 1], [1, 0]], 0.5), ([[0, 1], [1]], 0),
                            ([[0, 1], [1, 0.7]], 0)):
        with pytest.raises(InvalidGroup):
            FiniteGroup(table, identity)


def test_order_is_read_from_the_table():
    assert FiniteGroup(cyclic_group(4).mult, 0).order == 4
    # a table that is not square, or not a matrix, is no group
    for table in ([[0, 1]], [0, 1], np.zeros((2, 2, 2), dtype=int)):
        with pytest.raises(InvalidGroup):
            FiniteGroup(table, 0)


def test_group_data_built_in_code_must_be_finite():
    # NaN fails every comparison, so a bound checked as `deviation > tol`
    # would let it through
    z3 = cyclic_group(3)
    table = np.ones((3, 3), dtype=complex)
    table[1, 2] = np.nan
    with pytest.raises(InvalidCocycle):
        Cocycle(z3, table)
    for bad in ([0.0, np.nan, np.nan], [0.0, np.inf, np.inf]):
        with pytest.raises(InvalidLength):
            LengthFunction(z3, bad)
    for bad in ([1.0, np.nan, np.nan], [1.0, np.inf, np.inf]):
        with pytest.raises(NotPositiveDefinite):
            PositiveDefiniteFunction(z3, bad)


def test_equality_is_identity():
    # the objects hold arrays: `==` is identity and never raises, and they
    # hash; equal groups are told apart from the same group by `same_as`
    def family():
        group = cyclic_group(3)
        ga = twisted_group_algebra(group)
        length = word_length(group)
        phi = PositiveDefiniteFunction(group, [1.0, 0.5, 0.5])
        return (group, length, Cocycle(group, np.ones((3, 3))), phi, ga,
                canonical_trace(ga), multiplier_channel(phi, ga), length_dirac(ga, length))

    ones, twos = family(), family()
    assert ones[0].same_as(twos[0])
    for a, b in zip(ones, twos):
        assert a == a and a != b
        assert len({a, b}) == 2


def is_abelian(g) -> bool:
    return bool(np.array_equal(g.mult, g.mult.T))


def test_builtin_groups():
    assert is_abelian(cyclic_group(4))
    assert not is_abelian(symmetric_group_3())
    assert dihedral_group(4).order == 8
    k4 = direct_product(cyclic_group(2), cyclic_group(2))
    assert is_abelian(k4) and k4.order == 4


def test_tables_match_their_elementwise_definitions(rng):
    # the product table and the positive-definiteness test matrix are built
    # by indexing whole tables; each entry must be the one the group law gives
    s3, z4 = symmetric_group_3(), cyclic_group(4)
    prod = direct_product(s3, z4)
    for a1 in range(6):
        for a2 in range(4):
            for b1 in range(6):
                for b2 in range(4):
                    assert prod.mult[a1 * 4 + a2, b1 * 4 + b2] == \
                        s3.mult[a1, b1] * 4 + z4.mult[a2, b2]
    phi = random_pdf(rng, s3)
    mat = phi.test_matrix()
    for i in range(6):
        for j in range(6):
            assert mat[i, j] == phi.values[s3.mult[s3.inverse[j], i]]


def test_word_length():
    wl = word_length(cyclic_group(4))
    assert np.allclose(wl.values, [0, 1, 2, 1])
    with pytest.raises(InvalidLength):
        LengthFunction(cyclic_group(4), [0, 1, 3, 1])
    with pytest.raises(InvalidLength):
        LengthFunction(cyclic_group(4), [0, 1, 2, 2])   # symmetry fails


def test_cocycle_validation():
    g = direct_product(cyclic_group(2), cyclic_group(2))
    klein_twist_cocycle(g)          # valid
    bad = np.ones((4, 4), dtype=complex)
    bad[0, 1] = -1.0                # breaks normalization
    with pytest.raises(InvalidCocycle):
        Cocycle(g, bad)
    bad2 = np.ones((4, 4), dtype=complex)
    bad2[1, 1] = 2.0                # not unit modulus
    with pytest.raises(InvalidCocycle):
        Cocycle(g, bad2)


def test_regular_representation_law():
    s3 = symmetric_group_3()
    ga = twisted_group_algebra(s3)
    lam = ga.algebra.basis
    for a in range(s3.order):
        for b in range(s3.order):
            assert np.abs(lam[a] @ lam[b] - lam[s3.mult[a, b]]).max() < 1e-12


def test_twisted_product_law():
    g = direct_product(cyclic_group(2), cyclic_group(2))
    sigma = klein_twist_cocycle(g)
    ga = twisted_group_algebra(g, sigma)
    lam = ga.algebra.basis
    for a in range(g.order):
        for b in range(g.order):
            expect = sigma.table[a, b] * lam[g.mult[a, b]]
            assert np.abs(lam[a] @ lam[b] - expect).max() < 1e-12
    # the two generators anticommute: the twisted algebra is M_2 in disguise
    x, y = lam[2], lam[1]
    assert np.abs(x @ y + y @ x).max() < 1e-12


def test_left_right_representations_commute():
    s3 = symmetric_group_3()
    ga = twisted_group_algebra(s3)
    left = ga.algebra.basis
    for a in range(s3.order):
        for b in range(s3.order):
            comm = left[a] @ ga.right_rep[b] - ga.right_rep[b] @ left[a]
            assert np.abs(comm).max() < 1e-12


def test_right_representation_antihomomorphism():
    g = direct_product(cyclic_group(2), cyclic_group(2))
    sigma = klein_twist_cocycle(g)
    ga = twisted_group_algebra(g, sigma)
    rho = ga.right_rep
    for a in range(g.order):
        for b in range(g.order):
            expect = sigma.table[b, a] * rho[g.mult[b, a]]
            assert np.abs(rho[a] @ rho[b] - expect).max() < 1e-12


def test_canonical_trace(z2_algebra, rng):
    tau = canonical_trace(z2_algebra)
    assert abs(tau.values[0] - 1) < 1e-14 and abs(tau.values[1]) < 1e-14
    assert tau.faithful
    assert np.abs(tau.gns_gram() - np.eye(2)).max() < 1e-12
    # agreement with the normalized ambient trace on random elements
    for _ in range(20):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        amb = z2_algebra.algebra.realize(c)
        assert abs(complex(tau.values @ c)
                   - np.trace(amb) / 2) < 1e-12


def test_canonical_trace_twisted():
    g = direct_product(cyclic_group(2), cyclic_group(2))
    ga = twisted_group_algebra(g, klein_twist_cocycle(g))
    tau = canonical_trace(ga)
    assert tau.faithful
    assert np.abs(tau.gns_gram() - np.eye(4)).max() < 1e-10


def test_length_dirac_triples(z2_algebra, z2_length):
    t = length_dirac(z2_algebra, z2_length)
    top = length_dirac_op(z2_algebra, z2_length)
    t.validate()
    top.validate()
    assert top.algebra.op_of is z2_algebra.algebra


def test_multiplier_channel(z2_algebra, z2_trace):
    phi = PositiveDefiniteFunction(cyclic_group(2), [1.0, 0.4])
    m = multiplier_channel(phi, z2_algebra)
    assert is_unital(m)
    assert is_completely_positive(m, z2_trace).is_cp
    # phi == 1 gives the identity channel
    one = PositiveDefiniteFunction(cyclic_group(2), [1.0, 1.0])
    assert np.abs(multiplier_channel(one, z2_algebra).matrix - np.eye(2)).max() == 0


def test_pdf_rejection_carries_witness():
    with pytest.raises(NotPositiveDefinite) as info:
        PositiveDefiniteFunction(cyclic_group(2), [1.0, 1.5])
    assert abs(info.value.witness_eigenvalue + 0.5) < 1e-10


def test_pdf_circ_and_adjoint(z2_algebra, z2_trace):
    g = cyclic_group(2)
    for t in (-0.8, 0.3, 1.0):
        phi = PositiveDefiniteFunction(g, [1.0, t])
        assert np.allclose(phi.circ().values, phi.values)   # 1^-1 = 1
        m = multiplier_channel(phi, z2_algebra)
        sharp = trace_adjoint(m, z2_trace, z2_trace)
        assert np.abs(sharp.matrix - m.matrix).max() < 1e-12


def test_multiplier_adjoint_nonabelian():
    s3 = symmetric_group_3()
    ga = twisted_group_algebra(s3)
    tau = canonical_trace(ga)
    rng = np.random.default_rng(5)
    phi = random_pdf(rng, s3)
    sharp = trace_adjoint(multiplier_channel(phi, ga), tau, tau)
    expect = multiplier_channel(phi.circ(), ga)
    assert np.abs(sharp.matrix - expect.matrix).max() < 1e-12


def test_pdf_convexity_and_circ_membership(rng):
    s3 = symmetric_group_3()
    a, b = random_pdf(rng, s3), random_pdf(rng, s3)
    mid = PositiveDefiniteFunction(s3, 0.5 * (a.values + b.values))
    assert mid.is_normalized()
    assert a.circ().is_normalized()


def test_multiplier_composition_is_pointwise_product(z2_algebra):
    g = cyclic_group(2)
    phi = PositiveDefiniteFunction(g, [1.0, 0.5])
    psi = PositiveDefiniteFunction(g, [1.0, -0.25])
    mm = compose(multiplier_channel(phi, z2_algebra),
                 multiplier_channel(psi, z2_algebra))
    assert np.abs(np.diag(mm.matrix) - phi.values * psi.values).max() == 0


def test_contraction_z2(z2_algebra, z2_length):
    triple = length_dirac(z2_algebra, z2_length)
    for t in (-1.0, -0.3, 0.7):
        phi = PositiveDefiniteFunction(cyclic_group(2), [1.0, t])
        violations, max_ratio = multiplier_contraction_check(
            phi, triple, samples=50, rng=np.random.default_rng(0))
        assert violations == 0
        assert max_ratio <= abs(t) + 1e-9


def test_contraction_s3(rng):
    s3 = symmetric_group_3()
    ga = twisted_group_algebra(s3)
    triple = length_dirac(ga, word_length(s3))
    phi = random_pdf(rng, s3)
    violations, _ = multiplier_contraction_check(phi, triple, samples=200, rng=rng)
    assert violations == 0

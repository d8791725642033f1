import numpy as np
import pytest

from choimetric import (
    ChannelMap,
    LinearFunctional,
    TraceFunctional,
    amplify,
    as_trace,
    channel_from_omega,
    choi_matrix,
    compose,
    cp_oracle_npositivity,
    identity_channel,
    is_completely_positive,
    is_trace_channel,
    is_trace_preserving,
    is_unital,
    omega_tau,
    opposite_algebra,
    standard_matrix_trace,
    swap_functional,
    tensor_algebra,
    tensor_channel,
    tensor_functional,
    tensor_trace,
    trace_adjoint,
)
from choimetric.algebra import require_faithful
from choimetric.channels import check_trace_channel, trace_of_unit_image
from choimetric.errors import (
    AlgebraMismatch,
    NotMatrixUnitsBasis,
    NotTraceChannel,
    TraceMismatch,
)
from choimetric.generate import (
    random_complex,
    random_cp_channel,
    random_kraus_channel,
    random_linear_map,
    random_trace_channel,
)
from choimetric.linalg import hermitian_part, is_psd
from conftest import evaluate_mu_tau, functional_from_element, swap_op_functional


def zero_channel(src, tgt) -> ChannelMap:
    return ChannelMap(src, tgt, np.zeros((tgt.dim, src.dim), dtype=complex))


def random_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def is_k_positive_sampled(f: ChannelMap, k: int, trials: int = 20,
                          rng: np.random.Generator | None = None) -> bool:
    """Necessary condition for k-positivity on random k-tuples."""
    rng = rng or np.random.default_rng(0)
    src, tgt = f.source, f.target
    n = tgt.ambient_dim
    for _ in range(trials):
        tuples = rng.standard_normal((k, src.dim)) + 1j * rng.standard_normal((k, src.dim))
        block = np.empty((k * n, k * n), dtype=complex)
        for i in range(k):
            ai_star = src.adjoint_of_coords(tuples[i])
            for j in range(k):
                prod = src.multiply_coords(ai_star, tuples[j])
                block[i * n:(i + 1) * n, j * n:(j + 1) * n] = tgt.realize(f.matrix @ prod)
        if not is_psd(block):
            return False
    return True


def omega_of_adjoint(f: ChannelMap, tau_src: TraceFunctional,
                     tau_tgt: TraceFunctional) -> LinearFunctional:
    """omega_{tau_A}(F#) computed as omega_{tau_B}(F) o Sigma^op, without
    constructing F# (a cross-check of trace_adjoint)."""
    return swap_op_functional(omega_tau(f, tau_tgt), 0, 1)


def kms_orthonormal_basis(alg, tau: TraceFunctional) -> np.ndarray:
    """Rows are coordinates of a basis orthonormal for <x, y> = tau(x^* y)."""
    require_faithful(tau)
    chol = np.linalg.cholesky(hermitian_part(tau.gns_gram()))
    return np.conj(np.linalg.inv(chol))


def kms_choi_element(f: ChannelMap, tau: TraceFunctional) -> np.ndarray:
    """The coordinates of the element sum_i F(b_i) (x) (b_i^*)^op of
    A (x) A^op for a KMS-orthonormal basis {b_i}; positive exactly when F
    is CP."""
    if not f.source.same_as(f.target):
        raise AlgebraMismatch("the KMS Choi element needs an endomorphism")
    alg = f.source
    w = kms_orthonormal_basis(alg, tau)
    coords = np.zeros((alg.dim, alg.dim), dtype=complex)
    for r in range(alg.dim):
        coords += np.outer(f.matrix @ w[r], alg.adjoint_of_coords(w[r]))
    return coords.reshape(-1)


def transpose_channel(m2):
    mat = np.zeros((4, 4))
    mat[0, 0] = mat[3, 3] = 1.0
    mat[1, 2] = mat[2, 1] = 1.0
    return ChannelMap(m2, m2, mat)


def conjugation_channel(alg, u):
    cols = [alg.coords_of(u @ b @ u.conj().T) for b in alg.basis]
    return ChannelMap(alg, alg, np.array(cols).T)


def test_omega_identity_channel(m2, tr2):
    om = omega_tau(identity_channel(m2), tr2)
    vals = om.values.reshape(4, 4)
    assert abs(vals[0, 0] - 1) < 1e-12     # e11 (x) e11^op
    assert abs(vals[0, 3]) < 1e-12         # e11 (x) e22^op
    assert abs(vals[1, 2] - 1) < 1e-12     # e12 (x) e21^op


def test_omega_zero_channel(m2, tr2):
    om = omega_tau(zero_channel(m2, m2), tr2)
    assert np.abs(om.values).max() == 0.0


def test_omega_factors_through_mu(m2, tr2, rng):
    # two-path evaluation: omega(F) = mu_tau o (F (x) id)
    f = random_cp_channel(rng, m2, m2, tr2)
    op = opposite_algebra(m2)
    carrier = tensor_algebra(m2, op)
    mu = evaluate_mu_tau(m2, tr2)
    fid = tensor_channel(f, identity_channel(op))
    assert fid.source is fid.target is mu.algebra is carrier
    two_path = LinearFunctional(carrier, fid.matrix.T @ mu.values)
    om = omega_tau(f, tr2)
    assert om.algebra is carrier
    assert np.abs(two_path.values - om.values).max() < 1e-12


def test_omega_requires_target_trace(m2, m3, tr2):
    f = ChannelMap(m2, m3, np.zeros((9, 4)))
    with pytest.raises(TraceMismatch):
        omega_tau(f, tr2)


def test_omega_linear_in_channel(m2, tr2, rng):
    f = random_linear_map(rng, m2, m2)
    g = random_linear_map(rng, m2, m2)
    lhs = omega_tau(ChannelMap(m2, m2, f.matrix + g.matrix), tr2).values
    rhs = omega_tau(f, tr2).values + omega_tau(g, tr2).values
    assert np.abs(lhs - rhs).max() < 1e-12


def test_omega_injective_for_faithful_trace(m2, tr2, rng):
    f = random_linear_map(rng, m2, m2)
    g = random_linear_map(rng, m2, m2)
    assert np.abs(omega_tau(f, tr2).values - omega_tau(g, tr2).values).max() > 1e-6
    back = channel_from_omega(omega_tau(f, tr2).values, m2, m2, tr2)
    assert np.abs(back.matrix - f.matrix).max() < 1e-10


def test_cp_identity_and_conjugation(m2, tr2, rng):
    assert is_completely_positive(identity_channel(m2), tr2).is_cp
    u = random_unitary(rng, 2)
    assert is_completely_positive(conjugation_channel(m2, u), tr2).is_cp


def test_cp_rejects_transpose_with_witness(m2, tr2):
    verdict = is_completely_positive(transpose_channel(m2), tr2)
    assert not verdict.is_cp
    assert abs(verdict.min_eigenvalue + 1.0) < 1e-10
    om = verdict.functional
    x = verdict.witness
    alg = om.algebra
    xsx = alg.multiply_coords(alg.adjoint_of_coords(x), x)
    assert complex(om.values @ xsx).real < -0.5


def test_cp_oracle_agrees(m2, m3, tr2, tr3, rng):
    corpus = [identity_channel(m2), transpose_channel(m2),
              random_cp_channel(rng, m2, m3, tr3),
              random_linear_map(rng, m3, m2),
              random_kraus_channel(rng, m2, m2)]
    traces = [tr2, tr2, tr3, tr2, tr2]
    for f, tau in zip(corpus, traces):
        assert is_completely_positive(f, tau).is_cp == cp_oracle_npositivity(f)


def test_transpose_is_positive_but_not_2_positive(m2, rng):
    t = transpose_channel(m2)
    assert is_k_positive_sampled(t, 1, trials=40, rng=rng)
    assert not is_k_positive_sampled(t, 2, trials=40, rng=rng)


def test_trace_channel_predicates(m2, tr2, rng):
    rho = np.diag([0.25, 0.75]).astype(complex)
    # F(a) = (1/2) Tr(a) rho
    mat = 0.5 * np.outer(m2.coords_of(rho), np.trace(m2.basis, axis1=1, axis2=2))
    f = ChannelMap(m2, m2, mat)
    assert is_trace_channel(f, tr2)
    assert not is_trace_channel(identity_channel(m2), tr2)
    half = as_trace(LinearFunctional(m2, tr2.values / 2))
    assert is_trace_channel(identity_channel(m2), half)


def test_unital_and_trace_preserving(m2, tr2):
    # F(a) = (1/2) Tr(a) 1_2 is unital and trace preserving
    mat = 0.5 * np.outer(m2.unit_coords, np.trace(m2.basis, axis1=1, axis2=2))
    f = ChannelMap(m2, m2, mat)
    assert is_unital(f)
    assert is_trace_preserving(f, tr2, tr2)
    # F(a) = Tr(a) e11 preserves the trace but is not unital
    mat2 = np.outer(m2.coords_of(np.diag([1.0, 0.0])),
                    np.trace(m2.basis, axis1=1, axis2=2))
    g = ChannelMap(m2, m2, mat2)
    assert is_trace_preserving(g, tr2, tr2)
    assert not is_unital(g)


def test_check_trace_channel_message(m2, tr2):
    with pytest.raises(NotTraceChannel, match="tau"):
        check_trace_channel(identity_channel(m2), tr2)
    with pytest.raises(NotTraceChannel, match="not completely positive"):
        t = transpose_channel(m2)
        check_trace_channel(ChannelMap(m2, m2, 0.5 * t.matrix), tr2)


def test_compose_preserves_classes(m2, tr2, rng):
    # (UCP, TC) composes to TC
    tc = random_trace_channel(rng, m2, m2, tr2)
    u = random_unitary(rng, 2)
    ucp = conjugation_channel(m2, u)
    assert is_unital(ucp)
    assert is_trace_channel(compose(tc, ucp), tr2)
    # trace-channel convexity: midpoints stay trace channels
    tc2 = random_trace_channel(rng, m2, m2, tr2)
    mid = ChannelMap(m2, m2, 0.5 * tc.matrix + 0.5 * tc2.matrix)
    assert is_trace_channel(mid, tr2)


def test_omega_affine(m2, tr2, rng):
    f = random_trace_channel(rng, m2, m2, tr2)
    g = random_trace_channel(rng, m2, m2, tr2)
    t = 0.3
    lhs = omega_tau(ChannelMap(m2, m2, t * f.matrix + (1 - t) * g.matrix), tr2).values
    rhs = t * omega_tau(f, tr2).values + (1 - t) * omega_tau(g, tr2).values
    assert np.abs(lhs - rhs).max() < 1e-13


def test_omega_state_iff_trace_channel(m2, tr2, rng):
    for _ in range(10):
        f = random_linear_map(rng, m2, m2)
        if rng.random() < 0.6:
            make = random_trace_channel if rng.random() < 0.5 else random_cp_channel
            f = make(rng, m2, m2, tr2)
        assert omega_tau(f, tr2).is_state() == is_trace_channel(f, tr2)


def test_composition_functional_identity(m2, m3, tr3, tr2, rng):
    # omega(G o F) = omega(G) o (F (x) id) on all basis pairs
    f = random_cp_channel(rng, m2, m3, tr3)
    g = random_cp_channel(rng, m3, m3, tr3)
    lhs = omega_tau(compose(g, f), tr3).values.reshape(4, 9)
    om_g = omega_tau(g, tr3).values.reshape(9, 9)
    rhs = f.matrix.T @ om_g
    assert np.abs(lhs - rhs).max() < 1e-12


def test_tensor_channel_flip_identity(m2, tr2, rng):
    f = random_cp_channel(rng, m2, m2, tr2)
    g = random_cp_channel(rng, m2, m2, tr2)
    prod_trace = tensor_trace(tr2, tr2)
    fg = tensor_channel(f, g)
    lhs = omega_tau(fg, as_trace(prod_trace))
    small = tensor_functional(omega_tau(f, tr2), omega_tau(g, tr2))
    rhs = swap_functional(small, 1, 2)
    assert np.abs(lhs.values - rhs.values).max() < 1e-11


def test_trace_channels_tensor(m2, tr2, rng):
    f = random_trace_channel(rng, m2, m2, tr2)
    g = random_trace_channel(rng, m2, m2, tr2)
    prod = tensor_channel(f, g)
    prod_trace = as_trace(tensor_trace(tr2, tr2))
    assert is_trace_channel(prod, prod_trace)


def test_amplify(m2, tr2, rng):
    f = random_trace_channel(rng, m2, m2, tr2)
    assert amplify(1, f) is f
    amp = amplify(2, f)
    # one M_2 object, so both amplifications share one tensor product
    assert amp.source is amplify(2, f).source
    assert amp.matrix.shape == (16, 16)
    assert np.abs(amp.matrix - np.kron(np.eye(4), f.matrix)).max() < 1e-14


def test_trace_adjoint_conjugation(m2, tr2, rng):
    u = random_unitary(rng, 2)
    f = conjugation_channel(m2, u)
    sharp = trace_adjoint(f, tr2, tr2)
    expect = conjugation_channel(m2, u.conj().T)
    assert np.abs(sharp.matrix - expect.matrix).max() < 1e-12


def test_trace_adjoint_identities(m2, m3, tr2, tr3, rng):
    f = random_trace_channel(rng, m2, m3, tr3)
    sharp = trace_adjoint(f, tr2, tr3)
    # defining identity on all basis pairs
    lhs = f.matrix.T @ tr3.bilinear_gram()
    rhs = tr2.bilinear_gram() @ sharp.matrix
    assert np.abs(lhs - rhs).max() < 1e-10
    # F# is a trace channel for the source trace
    assert is_trace_channel(sharp, tr2)
    # omega identity through Sigma^op
    direct = omega_tau(sharp, tr2)
    via = omega_of_adjoint(f, tr2, tr3)
    assert np.abs(direct.values - via.values).max() < 1e-12
    # double adjoint returns the original map
    assert np.abs(trace_adjoint(sharp, tr3, tr2).matrix - f.matrix).max() < 1e-10


def test_choi_matrix_values(m2, tr2):
    c_id = choi_matrix(identity_channel(m2))
    expect = sum(np.kron(m2.basis[i], m2.basis[i]) for i in range(4))
    assert np.abs(c_id - expect).max() < 1e-14
    assert sorted(np.linalg.eigvalsh(c_id).round(10)) == [0, 0, 0, 2]
    c_t = choi_matrix(transpose_channel(m2))
    assert sorted(np.linalg.eigvalsh(c_t).round(10)) == [-1, 1, 1, 1]


def test_choi_requires_matrix_units(d2, m2):
    f = ChannelMap(d2, m2, np.zeros((4, 2)))
    with pytest.raises(NotMatrixUnitsBasis):
        choi_matrix(f)


def test_choi_psd_iff_cp(m2, tr2, rng):
    for _ in range(10):
        f = random_linear_map(rng, m2, m2)
        if rng.random() < 0.5:
            f = random_kraus_channel(rng, m2, m2)
        lam = np.linalg.eigvalsh(0.5 * (choi_matrix(f) + choi_matrix(f).conj().T))
        herm = np.abs(choi_matrix(f) - choi_matrix(f).conj().T).max() < 1e-9
        psd = herm and lam[0] >= -1e-9 * max(1.0, abs(lam).max())
        assert psd == is_completely_positive(f, tr2).is_cp


def test_kms_choi_element(m2, tr2, d2, rng):
    # identity on diag2 with counting trace: e11 (x) e11^op + e22 (x) e22^op
    tau = as_trace(LinearFunctional(d2, np.array([1.0, 1.0], dtype=complex)))
    el = kms_choi_element(identity_channel(d2), tau)
    assert np.abs(el.reshape(2, 2) - np.eye(2)).max() < 1e-12
    # zero map gives the zero element
    el0 = kms_choi_element(zero_channel(m2, m2), tr2)
    assert np.abs(el0).max() == 0.0
    # displayed identity: omega(F) = pairing(tau_kms(F)) o Sigma^op
    f = random_cp_channel(rng, m2, m2, tr2)
    el_f = kms_choi_element(f, tr2)
    tau_op = TraceFunctional(opposite_algebra(m2), tr2.values)
    carrier_trace = tensor_trace(tr2, tau_op)
    carrier = tensor_algebra(m2, opposite_algebra(m2))
    assert carrier_trace.algebra is carrier
    pairing = functional_from_element(el_f, carrier_trace)
    om = swap_op_functional(pairing, 0, 1)
    assert np.abs(om.values - omega_tau(f, tr2).values).max() < 1e-10
    # positivity tracks complete positivity
    assert is_psd(carrier.realize(el_f))
    bad = random_linear_map(rng, m2, m2)
    assert is_psd(carrier.realize(kms_choi_element(bad, tr2))) == \
        is_completely_positive(bad, tr2).is_cp


def test_embedding_density_equals_transposed_choi(m2, m3, tr3, rng):
    from choimetric.algebra import density_from_functional, standard_matrix_trace
    f = random_kraus_channel(rng, m2, m3)
    om = omega_tau(f, tr3)
    assert om.algebra is tensor_algebra(m2, opposite_algebra(m3))
    carrier_trace = standard_matrix_trace(om.algebra)
    density, _ = density_from_functional(om, carrier_trace)
    assert np.abs(om.algebra.realize(density) - choi_matrix(f).T).max() < 1e-10

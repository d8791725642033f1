import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choimetric import (
    ChannelMap,
    CommutatorSeminorm,
    LinearFunctional,
    Seminorm,
    SpectralTriple,
    amplify,
    delta_distance,
    diagonal_algebra,
    dl_distance,
    dl_stabilized,
    identity_channel,
    is_trace_channel,
    matrix_algebra,
    mk_between,
    multiplier_channel,
    omega_tau,
    opposite_algebra,
    prepare_ball,
    selfadjoint_basis,
    wasserstein_dual,
)
from choimetric import metrics, sdp
from choimetric.errors import AlgebraMismatch, ChoimetricError, Infeasible, NotTraceChannel
from choimetric.experiments import (
    build_group_context,
    group_context,
    length_dirac,
    length_dirac_op,
    run_chaining,
    run_duality,
    run_mk_correctness,
    run_stability,
    stability_context,
)
from choimetric.generate import (
    random_complex,
    random_density,
    random_hermitian,
    random_pdf,
    random_state,
)
from choimetric.geometry import gradient_dirac_triple, kasparov_product
from choimetric.groups import (
    FiniteGroup,
    LengthFunction,
    PositiveDefiniteFunction,
    cyclic_group,
    twisted_group_algebra,
    word_length,
)
from choimetric.linalg import contract_stack, row_and_null_space_real
from choimetric.metrics import (
    _irreducible_pieces,
    _maximize_linear,
    _solve_certified,
    _split_components,
    _split_copies,
)
from choimetric.oracles import classical_path_metric, grid_ball_maximize
from conftest import with_zero_variable
from reference_oracles import (
    commutative_pure_states,
    cutting_plane_maximize,
    dl_distance_pure_states,
    state_sup_lower_bound,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def point_states(alg):
    return [LinearFunctional(alg, row.astype(complex))
            for row in np.eye(alg.dim)]


@pytest.mark.parametrize("dist", [0.5, 1.0, 2.0])
def test_two_point_distance(dist, d2):
    lip = CommutatorSeminorm(SpectralTriple(d2, d2.basis, X / dist))
    dp, dq = point_states(d2)
    res = mk_between(dp, dq, prepare_ball(lip), tolerance=1e-9)
    assert res.status == "optimal"
    assert abs(res.value - dist) < 1e-7
    # primal witness is feasible and achieves the value
    assert lip.eval_coords(res.optimizer) <= 1 + 1e-6
    attained = (dp.values - dq.values) @ res.optimizer
    assert attained.real >= res.value - 1e-6


def test_identical_states(d2):
    lip = CommutatorSeminorm(SpectralTriple(d2, d2.basis, X))
    dp, _ = point_states(d2)
    res = mk_between(dp, dp, prepare_ball(lip))
    assert res.value == 0.0 and res.status == "optimal"
    assert np.abs(res.optimizer).max() == 0.0


def path_seminorm(w01, w12):
    """The commutator seminorm of the three-point path with edge weights
    w01 and w12: point 1 sits on two Hilbert-space lines, one per edge."""
    d3 = diagonal_algebra(3)
    dirac = np.zeros((4, 4), dtype=complex)
    dirac[0, 1] = dirac[1, 0] = 1.0 / w01
    dirac[2, 3] = dirac[3, 2] = 1.0 / w12
    rep = np.zeros((3, 4, 4), dtype=complex)
    rep[0, 0, 0] = rep[1, 1, 1] = rep[1, 2, 2] = rep[2, 3, 3] = 1.0
    return CommutatorSeminorm(SpectralTriple(d3, rep, dirac))


def cutting_plane_bracket(phi, psi, lip):
    """The cutting-plane oracle on the self-adjoint coordinates of mk_L."""
    rows = selfadjoint_basis(lip.algebra)
    return cutting_plane_maximize((rows @ (phi.values - psi.values)).real,
                                  contract_stack(rows, lip.matrices))


def test_three_point_path_metric_and_grid_oracle():
    lip = path_seminorm(1.0, 1.0)
    ball = prepare_ball(lip)
    states = point_states(lip.algebra)
    expected = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 2.0}
    for (i, j), truth in expected.items():
        res = mk_between(states[i], states[j], ball, tolerance=1e-9)
        assert abs(res.value - truth) < 1e-7
        diff = states[i].values - states[j].values

        def norm(t):
            return lip.eval_coords(np.pad(t, ((0, 0), (0, 1))).astype(complex))

        oracle = grid_ball_maximize(np.array([diff[0].real, diff[1].real]),
                                    norm, radius=4.0, rounds=6, pts=17)
        assert abs(res.value - oracle) < 1e-5


def _grid_loop(objective, ball_eval, radius, rounds, pts):
    """The grid of `grid_ball_maximize` one point and one norm call at a
    time, in `itertools.product` order: the reference for its batched
    rounds."""
    g = np.asarray(objective, dtype=float)
    center, best, span = np.zeros(len(g)), 0.0, float(radius)
    for _ in range(rounds):
        best_here = center
        for point in itertools.product(*(np.linspace(c - span, c + span, pts)
                                         for c in center)):
            t = np.asarray(point)
            norm = ball_eval(t[None])[0]
            if norm > 1.0 + 1e-12:
                t = t / norm
            elif not norm <= 1.0 + 1e-12:       # a NaN norm
                continue
            if float(g @ t) > best:
                best, best_here = float(g @ t), t
        center = best_here
        span = span * 3.0 / (pts - 1)
    return best


def _path_norm_nan_left(t):
    # the path seminorm on (t_1, t_2, 0), NaN where t_1 < -3
    norms = path_seminorm(1.0, 1.0).eval_coords(np.pad(t, ((0, 0), (0, 1))).astype(complex))
    return np.where(t[:, 0] < -3.0, np.nan, norms)


@pytest.mark.parametrize("objective, ball_eval, exact", [
    ([1.0, -1.0], _path_norm_nan_left, True),
    ([-1.0, 1.0], _path_norm_nan_left, True),
    ([0.0, 1.0], _path_norm_nan_left, True),
    # zero norm off the origin: kept as they are
    ([1.0, 0.5], lambda t: np.abs(t[:, 0]), True),
    ([0.3, 0.7], _path_norm_nan_left, False),
], ids=["path-1", "path-2", "path-3", "kernel", "path-rounded"])
def test_grid_oracle_matches_the_per_point_loop(objective, ball_eval, exact):
    # with entries 0, +-1 and 1/2 every g . t rounds once, so the batched
    # products agree exactly; otherwise to a few ulps
    args = (np.array(objective), ball_eval, 4.0, 6, 17)
    ref, got = _grid_loop(*args), grid_ball_maximize(*args)
    if exact:
        assert got == ref
    else:
        assert abs(got - ref) <= 8 * np.finfo(float).eps * max(1.0, abs(ref))


def test_infinite_distance_kernel_witness(m2, rng):
    # a Dirac whose commutator kernel contains the diagonal subalgebra
    lip = CommutatorSeminorm(SpectralTriple(m2, m2.basis,
                                            np.diag([1.0, -1.0]).astype(complex)))
    phi = LinearFunctional(m2, np.einsum(
        "xy,byx->b", np.diag([1.0, 0.0]).astype(complex), m2.basis))
    psi = LinearFunctional(m2, np.einsum(
        "xy,byx->b", np.diag([0.0, 1.0]).astype(complex), m2.basis))
    res = mk_between(phi, psi, prepare_ball(lip))
    assert res.status == "infinite"
    assert math.isinf(res.value)
    k = res.optimizer
    assert lip.eval_coords(k) < 1e-9
    assert abs((phi.values - psi.values) @ k) > 1e-9


def test_nonstate_warning(d2):
    lip = CommutatorSeminorm(SpectralTriple(d2, d2.basis, X))
    phi = LinearFunctional(d2, np.array([2.0, 0.0], dtype=complex))
    psi = LinearFunctional(d2, np.array([0.0, 1.0], dtype=complex))
    with pytest.warns(UserWarning):
        mk_between(phi, psi, prepare_ball(lip))


def test_mk_rejects_a_psi_on_another_algebra(m2, m3, rng):
    ball = prepare_ball(CommutatorSeminorm(gradient_dirac_triple([X], algebra=m2)))
    phi = random_state(rng, m2)
    # C*(Z4) has M_2's dimension; M_3 has another
    z4 = twisted_group_algebra(cyclic_group(4)).algebra
    for other in (z4, m3):
        psi = LinearFunctional(other, other.unit_coords / other.ambient_dim)
        with pytest.raises(AlgebraMismatch):
            mk_between(phi, psi, ball)
        with pytest.raises(AlgebraMismatch):
            mk_between(psi, phi, ball)


def test_mk_symmetry_is_exact(m2, rng):
    ls = [random_hermitian(rng, 2) for _ in range(2)]
    ball = prepare_ball(CommutatorSeminorm(gradient_dirac_triple(ls, algebra=m2)))
    a, b = random_state(rng, m2), random_state(rng, m2)
    d_ab = mk_between(a, b, ball, tolerance=1e-9)
    d_ba = mk_between(b, a, ball, tolerance=1e-9)
    assert d_ab.value == d_ba.value


def test_mk_triangle(m2, rng):
    ls = [random_hermitian(rng, 2) for _ in range(2)]
    ball = prepare_ball(CommutatorSeminorm(gradient_dirac_triple(ls, algebra=m2)))
    sts = [random_state(rng, m2) for _ in range(3)]
    d01 = mk_between(sts[0], sts[1], ball, tolerance=1e-9).value
    d12 = mk_between(sts[1], sts[2], ball, tolerance=1e-9).value
    d02 = mk_between(sts[0], sts[2], ball, tolerance=1e-9).value
    assert d02 <= d01 + d12 + 2e-7


def test_complex_vs_selfadjoint_optimization(rng, d2):
    # grid over complex coordinates: the value never beats the self-adjoint
    # program (phase alignment), checked on the two-point space
    lip = CommutatorSeminorm(SpectralTriple(d2, d2.basis, X))
    dp, dq = point_states(d2)
    res = mk_between(dp, dq, prepare_ball(lip), tolerance=1e-9)
    g = (dp.values - dq.values)

    def ball(t):
        coords = np.array([t[0] + 1j * t[1], t[2] + 1j * t[3]])
        return lip.eval_coords(coords)

    def objective_complex(t):
        coords = np.array([t[0] + 1j * t[1], t[2] + 1j * t[3]])
        return (g @ coords).real

    best = 0.0
    span = 3.0
    center = np.zeros(4)
    for _ in range(5):
        grids = [np.linspace(c - span, c + span, 9) for c in center]
        import itertools
        for pt in itertools.product(*grids):
            t = np.array(pt)
            n = ball(t)
            if n > 0:
                t = t / max(n, 1.0)
            val = objective_complex(t)
            if ball(t) <= 1 + 1e-9 and val > best:
                best = val
                center = t
        span *= 0.4
    assert best <= res.value + 1e-6
    # and the grid reaches the self-adjoint value: nothing is lost
    assert best >= res.value - 1e-3


def test_delta_requires_trace_channels(z2_algebra, z2_trace, z2_length):
    from choimetric import identity_channel
    ctx = group_context("Z2")
    alg = z2_algebra.algebra
    double = ChannelMap(alg, alg, 2.0 * identity_channel(alg).matrix)
    with pytest.raises(NotTraceChannel):
        delta_distance(double, double, ctx.tau, ctx.ball)


def _count_algebra_builds(monkeypatch):
    """A list that grows by one for each ConcreteAlgebra built from now on."""
    from choimetric.algebra import ConcreteAlgebra
    builds = []
    init = ConcreteAlgebra.__init__

    def counted(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ConcreteAlgebra, "__init__", counted)
    return builds


@pytest.mark.parametrize("amplified", [False, True])
def test_delta_builds_no_algebra(amplified, monkeypatch):
    # both arguments are checked on the context's own carrier
    rng = np.random.default_rng(8)
    if amplified:
        ctx = stability_context("Z2")
        base = ctx.base
        f, g = (amplify(ctx.n, multiplier_channel(random_pdf(rng, base.group), base.ga))
                for _ in range(2))
        args = (f, g, ctx.amp_trace, ctx.ball_n)
    else:
        base = group_context("Z2")
        f, g = (multiplier_channel(random_pdf(rng, base.group), base.ga)
                for _ in range(2))
        args = (f, g, base.tau, base.ball)
    builds = _count_algebra_builds(monkeypatch)
    res = delta_distance(*args, tolerance=1e-9)
    assert res.status == "optimal"
    assert builds == []


def test_delta_rejects_a_non_cp_amplified_argument():
    # the partial transpose T (x) id on M_2 (x) C*(Z2) is unital, so it keeps
    # tau(F(1)) = 1 and fails on complete positivity alone
    from choimetric import identity_channel, tensor_channel
    ctx = stability_context("Z2")
    base = ctx.base
    m2 = matrix_algebra(ctx.n)
    flip = np.eye(4)[[0, 2, 1, 3]]          # e_ij -> e_ji on M_2
    partial_t = tensor_channel(ChannelMap(m2, m2, flip), identity_channel(base.ga.algebra))
    m = amplify(ctx.n, multiplier_channel(
        PositiveDefiniteFunction(cyclic_group(2), [1.0, 0.5]), base.ga))
    with pytest.raises(NotTraceChannel, match="second argument: not completely positive$"):
        delta_distance(m, partial_t, ctx.amp_trace, ctx.ball_n)


def test_delta_rejects_a_map_that_is_not_star_preserving():
    # diag(1, 0.3 + 0.4i) on C*(Z2) sends the self-adjoint lambda_g to a
    # multiple that is not: its omega-Gram is not Hermitian, so it is no
    # trace channel, and Delta against its conjugate has no value
    ctx = group_context("Z2")
    alg = ctx.ga.algebra
    f = ChannelMap(alg, alg, np.diag([1.0, 0.3 + 0.4j]))
    g = ChannelMap(alg, alg, np.diag([1.0, 0.3 - 0.4j]))
    assert not is_trace_channel(f, ctx.tau)
    assert omega_tau(f, ctx.tau).is_state() == is_trace_channel(f, ctx.tau)
    with pytest.raises(NotTraceChannel, match="first argument: not completely positive$"):
        delta_distance(f, g, ctx.tau, ctx.ball)


def test_delta_leaves_the_omega_carrier_structure_unbuilt():
    # the CP checks contract the omega functionals with the factors'
    # structure tensors, not with the 144^3 one of the carrier
    ctx = stability_context("Z3")
    alg = ctx.ball_n.seminorm.algebra
    rng = np.random.default_rng(11)
    f, g = (amplify(ctx.n, multiplier_channel(random_pdf(rng, ctx.base.group), ctx.base.ga))
            for _ in range(2))
    res = delta_distance(f, g, ctx.amp_trace, ctx.ball_n)
    assert callable(alg._structure)
    assert res.status == "optimal"
    assert abs(res.value - 0.5843053351775908) <= 1e-9


def test_delta_rejects_a_carrier_of_the_wrong_dimension(d2, monkeypatch):
    ctx = group_context("Z2")
    m = multiplier_channel(PositiveDefiniteFunction(cyclic_group(2), [1.0, 0.5]), ctx.ga)
    ball = prepare_ball(CommutatorSeminorm(SpectralTriple(d2, d2.basis, X).validate()))
    builds = _count_algebra_builds(monkeypatch)
    with pytest.raises(AlgebraMismatch):
        delta_distance(m, m, ctx.tau, ball)
    assert builds == []


def test_delta_rejects_a_seminorm_on_another_algebra_of_the_same_dimension(m2, tr2):
    # M_2 (x) M_2^op and C*(Z4) (x) C*(Z4)^op are both 16-dimensional
    half_id = ChannelMap(m2, m2, 0.5 * np.eye(4))
    depolarizing = ChannelMap(m2, m2, 0.25 * np.outer(
        m2.unit_coords, np.trace(m2.basis, axis1=1, axis2=2)))
    with pytest.raises(AlgebraMismatch):
        delta_distance(half_id, depolarizing, tr2, group_context("Z4").ball)


def test_delta_zero_on_equal_channels():
    ctx = group_context("Z2")
    phi = PositiveDefiniteFunction(cyclic_group(2), [1.0, 0.5])
    m = multiplier_channel(phi, ctx.ga)
    res = delta_distance(m, m, ctx.tau, ctx.ball)
    assert res.value == 0.0


def test_delta_multiplier_family_linear():
    # Delta(M_t, M_s) = kappa |t - s| on the Z/2 family
    ctx = group_context("Z2")
    vals = {}
    for (t, s) in ((0.9, 0.3), (0.5, -0.5), (0.2, 0.1)):
        mt = multiplier_channel(PositiveDefiniteFunction(cyclic_group(2), [1, t]), ctx.ga)
        ms = multiplier_channel(PositiveDefiniteFunction(cyclic_group(2), [1, s]), ctx.ga)
        res = delta_distance(mt, ms, ctx.tau, ctx.ball, tolerance=1e-9)
        vals[(t, s)] = res.value / abs(t - s)
    kappas = list(vals.values())
    assert max(kappas) - min(kappas) < 1e-7
    # the unit ball clips the single live coordinate at 1/sqrt(2): the
    # doubled product Dirac stretches it by exactly sqrt(2)
    assert abs(kappas[0] - 1.0 / np.sqrt(2.0)) < 1e-7
    # the same constant from the grid oracle on the restricted program
    ball = ctx.ball
    g = np.zeros(ball.seminorm.algebra.dim)
    # difference functional sits on the lambda_1 (x) lambda_1^op coordinate
    mt = multiplier_channel(PositiveDefiniteFunction(cyclic_group(2), [1, 1.0]), ctx.ga)
    ms = multiplier_channel(PositiveDefiniteFunction(cyclic_group(2), [1, 0.0]), ctx.ga)
    from choimetric.channels import omega_tau
    om_t, om_s = omega_tau(mt, ctx.tau), omega_tau(ms, ctx.tau)
    assert om_t.algebra is om_s.algebra is ball.seminorm.algebra
    diff = om_t.values - om_s.values
    gvec = (ball.rows @ diff).real

    def norm(t):
        return ball.seminorm.eval_coords(t @ ball.rows)

    oracle = grid_ball_maximize(gvec, norm, radius=3.0, rounds=6, pts=9)
    assert abs(oracle - kappas[0]) < 1e-4


def test_wasserstein_dual_basics(rng):
    rho1 = np.diag([1.0, 0.0]).astype(complex)
    rho2 = np.diag([0.0, 1.0]).astype(complex)
    res = wasserstein_dual(rho1, rho2, [X], tol=1e-9)
    assert abs(res.value - 1.0) < 1e-7
    same = wasserstein_dual(rho1, rho1, [X])
    assert abs(same.value) < 1e-7
    # a scalar L: the constraint map is 0, so the value is exactly 0 with no
    # solve when rho1 = rho2, and the program is infeasible otherwise
    scalar = wasserstein_dual(rho1, rho1, [np.eye(2)])
    assert (scalar.value, scalar.status) == (0.0, "optimal")
    with pytest.raises(Infeasible):
        wasserstein_dual(rho1, rho2, [np.eye(2, dtype=complex)])
    with pytest.raises(Infeasible):
        wasserstein_dual(rho1, rho2, [np.diag([1.0, -1.0]).astype(complex)])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("draw", [random_hermitian, lambda rng, n: random_complex(rng, n, n)],
                         ids=["hermitian", "complex"])
def test_wasserstein_matches_primal(rng, n, draw):
    # io.problem_from_dict accepts non-Hermitian L_i, so both sides must
    # agree on them as well
    alg = matrix_algebra(n)
    for _ in range(5):
        ls = [draw(rng, n) for _ in range(2)]
        r1, r2 = random_density(rng, n), random_density(rng, n)
        lip = CommutatorSeminorm(gradient_dirac_triple(ls, algebra=alg))
        f1 = LinearFunctional(alg, np.einsum("xy,byx->b", r1, alg.basis))
        f2 = LinearFunctional(alg, np.einsum("xy,byx->b", r2, alg.basis))
        primal = mk_between(f1, f2, prepare_ball(lip), tolerance=1e-8)
        dual = wasserstein_dual(r1, r2, ls, tol=1e-8)
        assert abs(primal.value - dual.value) < 1e-5


def test_delta_matches_wasserstein_on_m2(rng, m2, tr2):
    # identity-normalized versus depolarizing-normalized channels on M_2
    from choimetric import (as_trace, identity_channel, omega_tau,
                            opposite_algebra, standard_matrix_trace,
                            tensor_algebra)
    from choimetric.algebra import density_from_functional
    idn = ChannelMap(m2, m2, 0.5 * identity_channel(m2).matrix)
    dep_mat = 0.25 * np.outer(m2.unit_coords, np.trace(m2.basis, axis1=1, axis2=2))
    dep = ChannelMap(m2, m2, dep_mat)
    carrier = tensor_algebra(m2, opposite_algebra(m2))
    ls = [random_hermitian(rng, 4) for _ in range(2)]
    lip = CommutatorSeminorm(gradient_dirac_triple(ls, algebra=carrier))
    res = delta_distance(idn, dep, tr2, prepare_ball(lip), tolerance=1e-8)
    carrier_trace = standard_matrix_trace(carrier)
    d1, _ = density_from_functional(omega_tau(idn, tr2), carrier_trace)
    d2_, _ = density_from_functional(omega_tau(dep, tr2), carrier_trace)
    dual = wasserstein_dual(carrier.realize(d1), carrier.realize(d2_), ls, tol=1e-8)
    assert abs(res.value - dual.value) < 1e-5


def test_dl_zero_and_commutative_target(rng, d2):
    ball = prepare_ball(CommutatorSeminorm(SpectralTriple(d2, d2.basis, X)))
    f = ChannelMap(d2, d2, np.eye(2, dtype=complex))
    res = dl_distance(f, f, ball, starts=2, seed=0)
    assert res.value < 1e-9
    # two stochastic maps on the two-point space
    g = ChannelMap(d2, d2, np.array([[0.7, 0.3], [0.3, 0.7]], dtype=complex))
    h = ChannelMap(d2, d2, np.array([[0.2, 0.8], [0.8, 0.2]], dtype=complex))
    ascent = dl_distance(g, h, ball, starts=6, seed=1)
    exact = dl_distance_pure_states(g, h, ball)
    assert ascent.value <= exact.value + 1e-6
    assert abs(ascent.value - exact.value) < 1e-6
    # closed form: both pure-state pullback differences are (1/2)(d_p - d_q)
    assert abs(exact.value - 0.5) < 1e-7
    # extreme-point route agrees with direct enumeration over both characters
    chars = commutative_pure_states(d2)
    assert len(chars) == 2


def test_dl_rejects_channels_on_other_algebras(m2):
    # C*(Z4) has M_2's dimension, so only the objects tell them apart
    z4 = twisted_group_algebra(cyclic_group(4)).algebra
    with pytest.raises(AlgebraMismatch):
        dl_distance(identity_channel(m2), identity_channel(z4),
                    prepare_ball(Seminorm(m2, m2.basis)), starts=1)


def test_dl_stabilized_monotone(rng, d2):
    g = ChannelMap(d2, d2, np.array([[0.7, 0.3], [0.3, 0.7]], dtype=complex))
    h = ChannelMap(d2, d2, np.array([[0.2, 0.8], [0.8, 0.2]], dtype=complex))
    top, per_m = dl_stabilized(g, h, 2, starts=4, seed=0)
    assert top == max(per_m)
    base = dl_distance(g, h, prepare_ball(Seminorm(d2, d2.basis)), starts=4, seed=0)
    assert abs(per_m[0] - base.value) < 1e-8
    assert per_m[1] >= per_m[0] - 1e-8


def test_dl_rejects_no_starts_and_no_levels(d2):
    # a start count or a truncation level below 1 is an input error, not a
    # silent single start or an empty maximum
    g = ChannelMap(d2, d2, np.array([[0.7, 0.3], [0.3, 0.7]], dtype=complex))
    ball = prepare_ball(Seminorm(d2, d2.basis))
    for starts in (0, -5):
        with pytest.raises(ChoimetricError):
            dl_distance(g, g, ball, starts=starts)
    for m_max in (0, -1):
        with pytest.raises(ChoimetricError):
            dl_stabilized(g, g, m_max)


def test_delta_rejects_a_ball_of_another_seminorm():
    # the ball of L must not answer for 2L: the ball carries its seminorm,
    # so Delta_{2L} is solved on the ball of 2L and comes back halved
    ctx = group_context("Z3")
    rng = np.random.default_rng(3)
    f, g = (multiplier_channel(random_pdf(rng, ctx.group), ctx.ga) for _ in range(2))
    lip = ctx.ball.seminorm
    doubled = prepare_ball(Seminorm(lip.algebra, 2 * lip.matrices))
    own = delta_distance(f, g, ctx.tau, doubled)
    base = delta_distance(f, g, ctx.tau, ctx.ball)
    assert own.status == base.status == "optimal"
    assert abs(2 * own.value - base.value) < 1e-6


def _svd_row_and_null_space(mat):
    """The row and null space bases from the full SVD of `mat`, at the rank
    threshold of `row_and_null_space_real`."""
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    rank = int(np.sum(s > s[0] * 1e-12 * max(mat.shape)))
    return vh[:rank].T, vh[rank:].T


@pytest.mark.parametrize("shape, rank", [((300, 12), 12), ((300, 12), 7), ((3000, 40), 40),
                                         ((3000, 40), 25), ((41, 40), 3)])
def test_row_space_of_a_tall_matrix_comes_from_its_r_factor(shape, rank):
    # the R factor has the singular values and right factor of the matrix
    rng = np.random.default_rng(rank)
    mat = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
    row, null = row_and_null_space_real(mat)
    row_svd, null_svd = _svd_row_and_null_space(mat)
    assert row.shape[1] == row_svd.shape[1] == rank
    assert null.shape[1] == null_svd.shape[1] == shape[1] - rank
    assert np.abs(row @ row.T - row_svd @ row_svd.T).max() <= 1e-12
    assert np.abs(null @ null.T - null_svd @ null_svd.T).max() <= 1e-12
    assert np.abs(row.T @ null).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("key, restrict, amplified, sizes", [
    ("Z2", True, False, (1, 1)), ("Z3", True, False, (2, 1)), ("Z4", True, False, (3, 1)),
    ("S3", True, False, (5, 1)), ("Z2", True, True, (6, 2)), ("Z2", False, True, (60, 4)),
    ("Z3", True, True, (10, 2))])
def test_ball_range_and_kernel_sizes(key, restrict, amplified, sizes):
    # (q, n0): the range and kernel dimensions of every suite's ball
    ball = (stability_context(key, restrict=restrict).ball_n if amplified
            else group_context(key).ball)
    assert (ball.range_basis.shape[1], ball.null_basis.shape[1]) == sizes


def test_restricted_ball_rejects_an_objective_off_its_coordinates():
    ball = group_context("Z3").ball
    dim = ball.seminorm.algebra.dim
    values = np.zeros(dim, dtype=complex)
    values[np.setdiff1d(np.arange(dim), ball.keep)[0]] = 1e-3
    with pytest.raises(AlgebraMismatch):
        _maximize_linear(ball, values, 1e-7, sdp.MAX_ITER)


def test_opposite_seminorm_has_the_same_mk_values(rng, m2):
    # L_{A^op}(a^op) = L_A(a): the same stack over the opposite algebra
    lip = CommutatorSeminorm(gradient_dirac_triple([X, np.diag([1.0, -1.0])],
                                                   algebra=m2))
    lop = Seminorm(opposite_algebra(m2), lip.matrices)
    ball, ball_op = prepare_ball(lip), prepare_ball(lop)
    for _ in range(3):
        phi, psi = random_state(rng, m2), random_state(rng, m2)
        phi_op = LinearFunctional(lop.algebra, phi.values)
        psi_op = LinearFunctional(lop.algebra, psi.values)
        want = mk_between(phi, psi, ball, tolerance=1e-9)
        got = mk_between(phi_op, psi_op, ball_op, tolerance=1e-9)
        assert want.status == got.status == "optimal"
        assert abs(got.value - want.value) < 1e-8


def test_hyperplane_fallback(m2):
    # cutting planes bracket the path distance 2.838 + 0.3323 at the kink
    # of L where central-difference cuts stopped short, at 3.169460
    lip = path_seminorm(2.838, 0.3323)
    states = point_states(lip.algebra)
    lower, upper = cutting_plane_bracket(states[0], states[2], lip)
    assert lower <= 3.1703 <= upper and upper - lower < 1e-6
    # an unbounded ball is (inf, inf): a diagonal Dirac on M_2 leaves the
    # diagonal unconstrained
    diag = CommutatorSeminorm(SpectralTriple(m2, m2.basis,
                                             np.diag([1.0, -1.0]).astype(complex)))
    phi = LinearFunctional(m2, m2.basis[:, 0, 0].astype(complex))
    psi = LinearFunctional(m2, m2.basis[:, 1, 1].astype(complex))
    assert cutting_plane_bracket(phi, psi, diag) == (math.inf, math.inf)
    assert cutting_plane_bracket(phi, phi, diag) == (0.0, 0.0)


def test_cutting_planes_bracket_the_sdp_value(m2, rng):
    # the stacked-commutator norm of three L matrices on M_2
    for _ in range(3):
        ls = [random_hermitian(rng, 2) for _ in range(3)]
        lip = CommutatorSeminorm(gradient_dirac_triple(ls, algebra=m2))
        phi, psi = random_state(rng, m2), random_state(rng, m2)
        value = mk_between(phi, psi, prepare_ball(lip), tolerance=1e-10).value
        lower, upper = cutting_plane_bracket(phi, psi, lip)
        assert lower - 1e-8 <= value <= upper + 1e-8
        assert upper - lower <= 1e-6 * value


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.floats(0.2, 5.0), st.floats(0.2, 5.0))
def test_path_metric_properties(w01, w12):
    lip = path_seminorm(w01, w12)
    ball = prepare_ball(lip)
    states = point_states(lip.algebra)
    truth = classical_path_metric({(0, 1): w01, (1, 2): w12}, 3)
    for i, j in ((0, 1), (1, 2), (0, 2)):
        there = mk_between(states[i], states[j], ball, tolerance=1e-9)
        back = mk_between(states[j], states[i], ball, tolerance=1e-9)
        assert there.status == "optimal"
        assert abs(there.value - truth[i, j]) <= 1e-6 * truth[i, j]
        assert there.value == back.value
        lower, upper = cutting_plane_bracket(states[i], states[j], lip)
        assert lower - 1e-6 * truth[i, j] <= there.value <= upper + 1e-6 * truth[i, j]


def test_right_tensor_seminorm_kernel_witness(rng, m2):
    # with the seminorm blind to the first tensor factor, states differing
    # there are infinitely far apart, witnessed inside A (x) 1
    from choimetric import (cyclic_group, tensor_functional,
                            twisted_group_algebra, word_length)
    from choimetric.experiments import length_dirac
    from choimetric.geometry import right_tensor_seminorm
    ga = twisted_group_algebra(cyclic_group(2))
    t_b = length_dirac(ga, word_length(cyclic_group(2)))
    lip = right_tensor_seminorm(m2, t_b, m2.basis)
    s1, s2 = random_state(rng, m2), random_state(rng, m2)
    sb = random_state(rng, ga.algebra)
    phi = tensor_functional(s1, sb)
    psi = tensor_functional(s2, sb)
    assert phi.algebra is psi.algebra is lip.algebra
    res = mk_between(phi, psi, prepare_ball(lip))
    assert res.status == "infinite"
    witness = res.optimizer.reshape(4, 2)
    # the witness lives in A (x) span(1_B): both columns proportional to 1_B
    unit_b = ga.algebra.unit_coords
    proj = np.outer(unit_b, unit_b) / (unit_b @ unit_b)
    resid = witness - witness @ proj.T
    assert np.abs(resid).max() < 1e-8


def test_chaining_on_twisted_group():
    # one quadruple on the twisted Klein four-group: the full Delta stack
    # through a nontrivial cocycle
    from choimetric.channels import compose
    from choimetric.experiments import group_context
    from choimetric.generate import random_pdf
    ctx = group_context("Z2xZ2-twisted")
    rng = np.random.default_rng(12)
    phis = [random_pdf(rng, ctx.group) for _ in range(4)]
    ms = [multiplier_channel(p, ctx.ga) for p in phis]
    lhs = delta_distance(compose(ms[0], ms[1]), compose(ms[2], ms[3]), ctx.tau, ctx.ball)
    d13 = delta_distance(ms[0], ms[2], ctx.tau, ctx.ball)
    d24 = delta_distance(ms[1], ms[3], ctx.tau, ctx.ball)
    assert lhs.status == d13.status == d24.status == "optimal"
    assert lhs.value <= d13.value + d24.value + 2e-7


def test_solver_cap_propagates_to_mk(rng, m2):
    ls = [random_hermitian(rng, 2) for _ in range(2)]
    lip = CommutatorSeminorm(gradient_dirac_triple(ls, algebra=m2))
    a, b = random_state(rng, m2), random_state(rng, m2)
    res = mk_between(a, b, prepare_ball(lip), max_iter=1)
    assert res.status == "max_iter"


def test_dl_infinite_when_difference_sees_the_kernel(m2, rng):
    # diagonal Dirac: the commutator kernel contains the diagonal subalgebra;
    # unital CP maps differing there are infinitely far apart
    lip = CommutatorSeminorm(SpectralTriple(
        m2, m2.basis, np.diag([1.0, -1.0]).astype(complex)))
    from choimetric import identity_channel
    idc = identity_channel(m2)
    # conjugation by a rotation moves diagonal matrix units off themselves
    theta = 0.4
    u = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]], dtype=complex)
    cols = [m2.coords_of(u @ b @ u.conj().T) for b in m2.basis]
    rot = ChannelMap(m2, m2, np.array(cols).T)
    res = dl_distance(idc, rot, prepare_ball(lip), starts=2, seed=0)
    assert res.status == "infinite"
    assert math.isinf(res.value)


def test_state_sup_right_branch(rng):
    from choimetric.experiments import _toy_triples
    from choimetric import cyclic_group, twisted_group_algebra
    from choimetric.geometry import right_tensor_seminorm
    toys = _toy_triples()
    ga = twisted_group_algebra(cyclic_group(2))
    rt = right_tensor_seminorm(ga.algebra, toys["odd_m2"], ga.algebra.basis)
    lip_b = CommutatorSeminorm(toys["odd_m2"])
    for _ in range(10):
        z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        lb = state_sup_lower_bound(z, "right", lip_b, ga.algebra,
                                   samples=60, rng=rng)
        assert lb <= rt.eval_coords(z) + 1e-9


def test_dl_flags_nonoptimal_inner_solves(monkeypatch, d2):
    # an inner solve that stops short of optimal leaves its start unconverged
    ball = prepare_ball(CommutatorSeminorm(SpectralTriple(d2, d2.basis, X)))
    g = ChannelMap(d2, d2, np.array([[0.7, 0.3], [0.3, 0.7]], dtype=complex))
    h = ChannelMap(d2, d2, np.array([[0.2, 0.8], [0.8, 0.2]], dtype=complex))
    solve = sdp.solve_sdp

    def capped(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.status = "max_iter"
        return res

    monkeypatch.setattr(sdp, "solve_sdp", capped)
    with pytest.warns(UserWarning):
        res = dl_distance(g, h, ball, starts=2, seed=1)
    assert not res.converged
    assert res.status == "heuristic_nonconvergence"
    assert res.value <= 0.5 + 1e-6          # still a lower bound


def test_split_components_on_hand_made_stacks():
    stack = np.zeros((2, 6, 5))
    # rows 3 and 0 linked through column 4, row 4 joins them via column 1;
    # row 1 alone with column 2; row 2, row 5 and columns 0, 3 are empty
    stack[0, 3, 4] = 1.0
    stack[1, 0, 4] = -2.0
    stack[1, 0, 1] = 0.5
    stack[0, 4, 1] = 3.0
    stack[1, 1, 2] = 1.0
    stack[0, 5, 0] = 1e-14          # below the relative support tolerance
    comps = _split_components(stack)
    assert [(r.tolist(), c.tolist()) for r, c in comps] == [
        ([0, 3, 4], [1, 4]), ([1], [2])]
    assert _split_components(np.zeros((3, 4, 4))) == []


# ---------------------------------------------------------------------------
# one solved copy per class of equivalent blocks
# ---------------------------------------------------------------------------

def _blocks(stacks):
    """The assembled blocks of a ball: the rows of its stacks."""
    return [block for cstack, astack in stacks for block in zip(cstack, astack)]


def _stacked(blocks):
    """Blocks stacked by size, as a ball holds them."""
    sizes = sorted({len(cmat) for cmat, _ in blocks})
    return [tuple(np.stack([block[part] for block in blocks if len(block[0]) == n])
                  for part in (0, 1)) for n in sizes]


def _every_block(ball):
    """The same ball with every block handed to the solver."""
    return dataclasses.replace(ball, kept=_blocks(ball.stacks))


def _counting_solver(monkeypatch):
    calls = []
    solve = sdp.solve_sdp

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(sdp, "solve_sdp", counted)
    return calls


@pytest.mark.parametrize("key", ["Z2", "Z3", "Z4", "S3", "amplified Z2", "amplified Z3"])
def test_reduced_solve_matches_full_solve(key, monkeypatch):
    if key.startswith("amplified"):
        ctx = stability_context(key.split()[1])
        base = ctx.base

        def args(f, g):
            return amplify(ctx.n, f), amplify(ctx.n, g), ctx.amp_trace

        ball = ctx.ball_n
    else:
        base = group_context(key)

        def args(f, g):
            return f, g, base.tau

        ball = base.ball
    full = _every_block(ball)
    calls = _counting_solver(monkeypatch)
    rng = np.random.default_rng(31)
    for _ in range(3):
        f, g = (multiplier_channel(random_pdf(rng, base.group), base.ga) for _ in range(2))
        reduced = delta_distance(*args(f, g), ball, tolerance=1e-9)
        every = delta_distance(*args(f, g), full, tolerance=1e-9)
        assert reduced.status == every.status == "optimal"
        assert abs(reduced.value - every.value) <= 1e-7
    # no checked block failed its check: one solve on the kept blocks each
    assert calls == [len(ball.kept), len(full.kept)] * 3


_delta_context = functools.cache(group_context)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["Z3", "Z4"]), st.integers(0, 2**32 - 1))
def test_delta_symmetry_triangle_and_kept_blocks(key, seed):
    # three multipliers of one group from a drawn seed: Delta is symmetric
    # bit for bit (the solver's canonical objective sign), satisfies the
    # triangle inequality within the chaining floor, and the kept-block
    # solve agrees with the solve on every block
    ctx = _delta_context(key)
    rng = np.random.default_rng(seed)
    f, g, h = (multiplier_channel(random_pdf(rng, ctx.group), ctx.ga) for _ in range(3))

    def delta(a, b, ball=ctx.ball):
        res = delta_distance(a, b, ctx.tau, ball, tolerance=1e-9)
        assert res.status == "optimal"
        return res.value

    fg = delta(f, g)
    assert delta(g, f) == fg
    assert delta(f, h) <= fg + delta(g, h) + 2e-7
    assert abs(delta(f, g, ball=_every_block(ctx.ball)) - fg) <= 1e-7


def _delta_at_1e9(ctx, phi, psi):
    res = delta_distance(multiplier_channel(phi, ctx.ga), multiplier_channel(psi, ctx.ga),
                         ctx.tau, ctx.ball, tolerance=1e-9)
    assert res.status == "optimal"
    return res.value


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["Z4", "S3"]), st.floats(0.2, 5.0), st.integers(0, 2**32 - 1))
def test_delta_scales_inversely_with_the_length(key, c, seed):
    # the length c l scales the Dirac and every commutator by c, so the
    # unit ball shrinks by c and c Delta_{c l} = Delta_l: the scaled
    # program's blocks and iterates share no bits with the original's
    ctx = _delta_context(key)
    scaled = build_group_context(ctx.group, None,
                                 LengthFunction(ctx.group, c * word_length(ctx.group).values))
    rng = np.random.default_rng(seed)
    phi, psi = random_pdf(rng, ctx.group), random_pdf(rng, ctx.group)
    assert abs(c * _delta_at_1e9(scaled, phi, psi) - _delta_at_1e9(ctx, phi, psi)) <= 1e-8


def _relabelled(group, perm):
    """The group with element a renamed perm[a]."""
    inv = np.argsort(perm)
    return FiniteGroup(perm[group.mult[inv][:, inv]], int(perm[group.identity]),
                       generators=tuple(int(perm[a]) for a in group.generators))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["Z4", "S3"]), st.integers(0, 2**32 - 1))
def test_delta_is_invariant_under_relabelling(key, seed):
    # renaming the elements by one permutation (table, identity, generators
    # and both positive definite functions) permutes the coordinates that
    # the pinching closure, the copy classes and the block split see, but
    # leaves Delta as it is
    ctx = _delta_context(key)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ctx.group.order)
    group = _relabelled(ctx.group, perm)
    relabelled = build_group_context(group)
    phi, psi = random_pdf(rng, ctx.group), random_pdf(rng, ctx.group)
    moved = (PositiveDefiniteFunction(group, f.values[np.argsort(perm)]) for f in (phi, psi))
    assert abs(_delta_at_1e9(relabelled, *moved) - _delta_at_1e9(ctx, phi, psi)) <= 1e-8


def _unitary(rng, n):
    """A random n x n unitary: the Q of a complex Gaussian matrix, its
    columns' phases fixed by R's diagonal."""
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conjugated(triple, u):
    return SpectralTriple(triple.algebra, u @ triple.rep @ u.conj().T,
                          u @ triple.dirac @ u.conj().T)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["Z3", "Z4", "S3"]), st.integers(0, 2**32 - 1))
def test_delta_is_invariant_under_unitary_conjugation(key, seed):
    # conjugating both length-Dirac factors by unitaries (U D U*, U pi U*)
    # leaves every commutator norm, so Delta, as it is, but fills the zero
    # pattern: the pinching closure keeps every coordinate, and the copy
    # classes and the block split see another program (Z4's mixed [4, 1 x 8]
    # pieces become one 16-row block, S3's [6, 6, 6, 6, 12] one of 72 rows)
    ctx = _delta_context(key)
    rng = np.random.default_rng(seed)
    length = word_length(ctx.group)
    factors = (length_dirac(ctx.ga, length), length_dirac_op(ctx.ga, length))
    seminorm = CommutatorSeminorm(kasparov_product(
        *(_conjugated(t, _unitary(rng, t.hilbert_dim)) for t in factors)))
    ball = prepare_ball(seminorm, np.flatnonzero(ctx.group.mult == ctx.group.identity))
    assert len(ball.keep) == seminorm.algebra.dim > len(ctx.ball.keep)
    conjugated = dataclasses.replace(ctx, ball=ball)
    phi, psi = random_pdf(rng, ctx.group), random_pdf(rng, ctx.group)
    assert abs(_delta_at_1e9(conjugated, phi, psi) - _delta_at_1e9(ctx, phi, psi)) <= 1e-8


_BALLS = {
    "Z2": lambda: group_context("Z2").ball,
    "Z3": lambda: group_context("Z3").ball,
    "Z4": lambda: group_context("Z4").ball,
    "S3": lambda: group_context("S3").ball,
    "amplified Z2": lambda: stability_context("Z2").ball_n,
    "amplified Z3": lambda: stability_context("Z3").ball_n,
    "amplified Z2, unrestricted": lambda: stability_context("Z2", restrict=False).ball_n,
}


@functools.cache
def _ball(key):
    return _BALLS[key]()


@pytest.mark.parametrize("build, kept, total", [
    (lambda: group_context("Z2").ball, 1, 8),
    (lambda: group_context("Z3").ball, 2, 8),
    (lambda: group_context("Z4").ball, 2, 8),
    (lambda: group_context("S3").ball, 5, 12),
    (lambda: stability_context("Z2").ball_n, 1, 4),
    (lambda: stability_context("Z3").ball_n, 2, 6),
    (lambda: stability_context("Z2", restrict=False).ball_n, 1, 2),
])
def test_kept_block_counts(build, kept, total):
    # classes of copies among the assembled blocks, before any block splits
    blocks = _blocks(build().stacks)
    assert (len(_split_copies(blocks)), len(blocks)) == (kept, total)


_PIECE_SIZES = {
    "Z2": [1, 1],
    "Z3": [3, 3, 3],
    "Z4": [4] + [1] * 8,
    "S3": [6, 6, 6, 12, 6],
    "amplified Z2": [4],
    "amplified Z3": [6, 6, 12],
    "amplified Z2, unrestricted": [16, 16],
}


@pytest.mark.parametrize("key", list(_PIECE_SIZES))
def test_kept_piece_sizes(key, monkeypatch):
    # every kept block goes to the solver as its irreducible pieces, and
    # `_solve_certified` checks every assembled block, one call per stack of
    # one size, on the ball's own stacks
    ball = _ball(key)
    assert [len(cmat) for cmat, _ in ball.kept] == _PIECE_SIZES[key]
    checked = []
    violations = metrics._stack_violations

    def counted(cstack, astack, y):
        checked.append((cstack, astack))
        return violations(cstack, astack, y)

    monkeypatch.setattr(metrics, "_stack_violations", counted)
    b = np.zeros(ball.stacks[0][1].shape[1])
    b[0] = 1.0
    _solve_certified(b, ball.kept, ball.stacks, 1e-9, 1)
    assert len(checked) == len(ball.stacks)
    assert all(c is cstack and a is astack
               for (c, a), (cstack, astack) in zip(checked, ball.stacks))


def _verbatim(ball):
    """The kept blocks that are assembled blocks verbatim, as (stack, row)
    pairs: those whose arrays are row views of the ball's stacks."""
    found = []
    for cmat, astack in ball.kept:
        for cs, stack in ball.stacks:
            if np.shares_memory(astack, stack):
                row = next(j for j in range(len(stack))
                           if astack.__array_interface__ == stack[j].__array_interface__)
                assert cmat.base is cs and astack.base is stack
                assert cmat.__array_interface__ == cs[row].__array_interface__
                found.append(((cs, stack), row))
    return found


@pytest.mark.parametrize("key", list(_BALLS))
def test_ball_holds_each_block_once(key):
    # a ball holds every assembled block once: each stack owns its arrays,
    # one size per stack, and a kept block that is an assembled block is a
    # row view of its stack, not a copy; only Z3 (a 3-row block) and S3 (a
    # 12-row block) keep one
    ball = _ball(key)
    sizes = [cstack.shape[1] for cstack, _ in ball.stacks]
    assert len(set(sizes)) == len(sizes)
    assert all(part.base is None for stack in ball.stacks for part in stack)
    verbatim = [stack[0].shape[1] for stack, _ in _verbatim(ball)]
    assert verbatim == {"Z3": [3], "S3": [12]}.get(key, [])


def test_assembled_blocks_are_rows_of_the_stacks():
    # the blocks come back in component order, each a row view of the stack
    # of its size, in order, and the stacks hold nothing else
    stack = np.zeros((2, 6, 5), dtype=complex)
    stack[0, 3, 4] = 1.0
    stack[1, 0, 4] = -2.0
    stack[1, 0, 1] = 0.5
    stack[0, 4, 1] = 3.0
    stack[1, 1, 2] = 1.0
    stack[1, 5, 0] = 2.0j
    blocks, stacks = metrics._assemble_blocks(stack)
    assert [len(cmat) for cmat, _ in blocks] == [5, 2, 2]
    assert sorted(cstack.shape[1] for cstack, _ in stacks) == [2, 5]
    rows = {cstack.shape[1]: 0 for cstack, _ in stacks}
    for cmat, astack in blocks:
        cs, stk = next(s for s in stacks if s[0].shape[1] == len(cmat))
        j = rows[len(cmat)]
        assert cmat.base is cs and astack.base is stk
        assert cmat.__array_interface__ == cs[j].__array_interface__
        assert astack.__array_interface__ == stk[j].__array_interface__
        rows[len(cmat)] += 1
    assert rows == {cstack.shape[1]: len(cstack) for cstack, _ in stacks}
    np.testing.assert_array_equal(blocks[1][1][1], -np.array([[0, 1], [1, 0]]))


@pytest.mark.parametrize("key", ["Z3", "S3"])
@pytest.mark.parametrize("max_iter", [1, 2, 3])
def test_kept_verbatim_blocks_pass_within_the_dual_infeasibility(key, max_iter):
    # a kept block that is an assembled block verbatim has the slack Z + R_d
    # of the solve, Z positive definite, so even a capped solve leaves its
    # violation within the reported dual infeasibility
    ball = _ball(key)
    (((cstack, astack), row),) = _verbatim(ball)
    rng = np.random.default_rng(11)
    for _ in range(3):
        b = rng.standard_normal(astack.shape[1])
        res = sdp.solve_sdp(b, ball.kept, tol=1e-9, max_iter=max_iter)
        violation = metrics._stack_violations(cstack, astack, res.y)[row]
        assert violation <= res.dual_infeas * (1 + 1e-9) + 1e-15


@pytest.mark.parametrize("key", ["Z2", "S3", "amplified Z3"])
def test_stacked_check_names_the_violated_block(key):
    # the ball's stack of its largest blocks, at a y where every slack is
    # definite and the least definite has lambda_min 1/4: with one block's
    # A-stack doubled, its slack is indefinite, and the stacked check
    # returns that block's distance from the PSD cone, normalised as the
    # solver's dual infeasibility, and 0 for every other block
    cstack, astack = max(_ball(key).stacks, key=lambda stack: stack[0].shape[1])
    assert len(cstack) > 1
    y = np.random.default_rng(3).standard_normal(astack.shape[1])
    tops = [np.linalg.eigvalsh(contract_stack(y[None], a)[0])[-1] for a in astack]
    y *= 0.75 / max(tops)
    bad = int(np.argmax(tops))
    astack = astack.copy()
    astack[bad] *= 2.0
    got = metrics._stack_violations(cstack, astack, y)
    slack = cstack[bad] - contract_stack(y[None], astack[bad])[0]
    lam = np.linalg.eigvalsh(slack)
    assert lam[0] < -0.4
    want = np.linalg.norm(np.minimum(lam, 0.0)) / (1.0 + np.linalg.norm(cstack[bad]))
    assert abs(got[bad] - want) <= 1e-12
    assert np.array_equal(np.delete(got, bad), np.zeros(len(cstack) - 1))


def _lam_min(blocks, y):
    """The smallest eigenvalue of the slacks C - sum y_i A_i of the blocks."""
    return min(np.linalg.eigvalsh(c - contract_stack(y[None], a)[0])[0] for c, a in blocks)


@pytest.mark.parametrize("key", list(_BALLS))
def test_kept_pieces_give_the_smallest_slack_eigenvalue(key):
    # the pieces are the summands of each block up to unitary equivalence,
    # so at any y they carry the smallest eigenvalue of every slack
    ball = _ball(key)
    rng = np.random.default_rng(7)
    for _ in range(5):
        y = rng.standard_normal(ball.stacks[0][1].shape[1])
        assert abs(_lam_min(ball.kept, y) - _lam_min(_blocks(ball.stacks), y)) <= 1e-9


def test_gradient_dirac_blocks_split_without_losing_the_slack():
    # a 2x2 gradient Dirac ball: the quaternionic blocks whose Kramers-doubled
    # spectra a real generic element cannot resolve
    rng = np.random.default_rng(3)
    alg = matrix_algebra(2)
    ls = [random_hermitian(rng, 2) for _ in range(3)]
    ball = prepare_ball(CommutatorSeminorm(gradient_dirac_triple(ls, algebra=alg)))
    for block in _blocks(ball.stacks):
        pieces = _irreducible_pieces(block)
        for _ in range(5):
            y = rng.standard_normal(block[1].shape[0])
            assert abs(_lam_min(pieces, y) - _lam_min([block], y)) <= 1e-9


@pytest.mark.parametrize("suite", [
    lambda: run_duality(2026, trials=5),
    lambda: run_mk_correctness(2026),
    lambda: run_chaining(2026, quadruples=1),
    lambda: run_stability(2026, trials=2, groups=("Z2",), general_trials=(1,),
                          audit_samples=2),
], ids=["duality", "mk-correctness", "chaining", "stability"])
def test_small_balls_solve_once(suite, monkeypatch):
    # no reduced solve of these suites falls back to the full one, though
    # every assembled block is checked, the kept verbatim ones of Z3 and S3
    # among them
    certified = []
    solve_certified = metrics._solve_certified

    def counted(*args, **kwargs):
        certified.append(1)
        return solve_certified(*args, **kwargs)

    monkeypatch.setattr(metrics, "_solve_certified", counted)
    calls = _counting_solver(monkeypatch)
    suite()
    assert certified and len(calls) == len(certified)


def test_wrong_piece_falls_back_to_the_full_solve(monkeypatch):
    # pieces with half the A-stack claim a ball twice as large, a looser
    # program than the blocks they came from: the check of the split blocks
    # rejects the reduced y and the full program is solved
    ctx = stability_context("Z2")
    ball = ctx.ball_n
    wrong = dataclasses.replace(ball, kept=[(c, 0.5 * a) for c, a in ball.kept])
    rng = np.random.default_rng(5)
    f, g = (amplify(ctx.n, multiplier_channel(random_pdf(rng, ctx.base.group), ctx.base.ga))
            for _ in range(2))
    every = delta_distance(f, g, ctx.amp_trace, _every_block(ball), tolerance=1e-9)
    calls = _counting_solver(monkeypatch)
    res = delta_distance(f, g, ctx.amp_trace, wrong, tolerance=1e-9)
    assert calls == [len(ball.kept), len(_blocks(ball.stacks))]
    assert res.status == every.status == "optimal"
    assert abs(res.value - every.value) <= 1e-9


def test_wrong_copy_falls_back_to_the_full_solve(monkeypatch):
    # a block whose pencil differs (twice the A-stack halves the ball) marked
    # as a dropped copy: the check rejects the reduced y and solves them all
    ctx = group_context("Z2")
    # Z2's blocks are copies of one block, which the solver is handed whole
    (block,) = _split_copies(_blocks(ctx.ball.stacks))
    cmat, astack = block
    bad = (cmat, 2.0 * astack)
    wrong = dataclasses.replace(ctx.ball, kept=[block], stacks=_stacked([block, bad]))
    rng = np.random.default_rng(5)
    f, g = (multiplier_channel(random_pdf(rng, ctx.group), ctx.ga) for _ in range(2))
    right = delta_distance(f, g, ctx.tau, ctx.ball, tolerance=1e-9)
    every = delta_distance(f, g, ctx.tau, _every_block(wrong), tolerance=1e-9)
    calls = _counting_solver(monkeypatch)
    res = delta_distance(f, g, ctx.tau, wrong, tolerance=1e-9)
    assert calls == [1, 2]
    assert res.status == every.status == "optimal"
    assert abs(res.value - every.value) <= 1e-9
    assert abs(res.value - 0.5 * right.value) <= 1e-7


@pytest.mark.parametrize("key, reason, capped_reason", [
    ("Z2", "closed_form", "closed_form"),
    ("Z3", "converged", "max_iter"),
])
def test_solve_certified_passes_the_reason_through(key, reason, capped_reason, monkeypatch):
    # the reduced solve, and the full solve after wrong copies (each kept
    # block with twice its A-stack) fail their check: Z2's one variable has
    # the closed form, whatever the cap, and Z3's two iterate
    ctx = group_context(key)
    b = np.zeros(ctx.ball.kept[0][1].shape[0])
    b[0] = 1.0
    for checked in ([], [(c, 2.0 * a) for c, a in ctx.ball.kept]):
        stacks = _stacked(ctx.ball.kept + checked)
        calls = _counting_solver(monkeypatch)
        res = _solve_certified(b, ctx.ball.kept, stacks, 1e-9, sdp.MAX_ITER)
        assert (res.status, res.reason) == ("optimal", reason)
        assert calls == [len(ctx.ball.kept)] + ([len(_blocks(stacks))] if checked else [])
        capped = _solve_certified(b, ctx.ball.kept, stacks, 1e-9, 1)
        assert (capped.status, capped.reason) == (
            "optimal" if capped_reason == "closed_form" else "max_iter", capped_reason)


def _wasserstein_row(monkeypatch):
    """The first row of the trace-norm dual for L = sigma_x between
    diag(1, 0) and diag(0, 1), with its C = I / 2: a one-variable program."""
    captured = []
    solve = sdp.solve_sdp

    def capture(b, blocks, **kwargs):
        captured.append((b, blocks))
        return solve(b, blocks, **kwargs)

    monkeypatch.setattr(sdp, "solve_sdp", capture)
    wasserstein_dual(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), [X])
    monkeypatch.undo()
    ((b, ((cmat, astack),)),) = captured
    assert np.array_equal(cmat, 0.5 * np.eye(len(cmat))) and b[0] != 0
    return [(b[:1], [(cmat, astack[:1])])]


def _ball_programs(ball):
    """One-variable programs on a ball: its kept blocks at b = 1, -1 and
    0.37, and every assembled block at b = 1."""
    assert ball.kept[0][1].shape[0] == 1
    return ([(np.array([b]), ball.kept) for b in (1.0, -1.0, 0.37)]
            + [(np.array([1.0]), _blocks(ball.stacks))])


def _two_point_ball(dist):
    """The ball of `run_mk_correctness`'s two-point distance `dist`."""
    d2 = diagonal_algebra(2)
    return prepare_ball(CommutatorSeminorm(SpectralTriple(d2, d2.basis, X / dist)))


@pytest.mark.parametrize("programs", [
    lambda mp: _ball_programs(group_context("Z2").ball),
    lambda mp: _ball_programs(_two_point_ball(0.5)),
    lambda mp: _ball_programs(_two_point_ball(1.0)),
    lambda mp: _ball_programs(_two_point_ball(2.0)),
    _wasserstein_row,
], ids=["Z2", "two-point 0.5", "two-point 1", "two-point 2", "wasserstein row"])
def test_closed_form_matches_the_iteration_on_every_one_variable_ball(programs, monkeypatch):
    # the balls on which run-all poses one-variable programs, and a row of
    # the trace-norm dual: the closed form agrees with the iteration on the
    # same program with a second, unused variable
    for b, blocks in programs(monkeypatch):
        closed = sdp.solve_sdp(b, blocks, tol=1e-10)
        iterated = sdp.solve_sdp(*with_zero_variable(b, blocks), tol=1e-10)
        assert (closed.status, closed.reason, closed.iterations) == ("optimal", "closed_form", 0)
        assert (iterated.status, iterated.reason) == ("optimal", "converged")
        assert abs(closed.value - iterated.value) <= 1e-8 * abs(iterated.value)


def test_z2_delta_is_exact():
    # Delta between the Z2 multipliers of p = (1, 0.5) and q = (1, 0) is
    # 0.5 / sqrt(2), read from the closed form to rounding
    ctx = group_context("Z2")
    p, q = (multiplier_channel(PositiveDefiniteFunction(ctx.group, values), ctx.ga)
            for values in ([1.0, 0.5], [1.0, 0.0]))
    res = delta_distance(p, q, ctx.tau, ctx.ball)
    assert res.status == "optimal"
    assert abs(res.value - 0.5 / math.sqrt(2)) <= 1e-12

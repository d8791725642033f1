import csv
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import choimetric.experiments as E
from choimetric import amplify, metrics
from choimetric.cli import main
from choimetric.algebra import _swap_coords, matrix_algebra, opposite_algebra, tensor_algebra
from choimetric.errors import Infeasible, InvalidSpectralTriple
from choimetric.generate import random_pdf, random_trace_channel
from choimetric.geometry import (
    CommutatorSeminorm,
    SpectralTriple,
    kasparov_product,
    right_tensor_seminorm,
)
from choimetric.groups import (
    cyclic_group,
    dihedral_group,
    direct_product,
    multiplier_channel,
    symmetric_group_3,
    twisted_group_algebra,
    word_length,
)
from conftest import omega_triple


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_csv_schema_and_determinism(tmp_path):
    recs = E.run_flip(seed=3, trials=2)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    E.emit_report(recs, str(out1))
    E.emit_report(E.run_flip(seed=3, trials=2), str(out2))
    rows1, rows2 = read_rows(str(out1)), read_rows(str(out2))
    assert list(rows1[0].keys()) == ["experiment", "trial", "seed", "lhs",
                                     "rhs", "slack", "status", "pass", "ms"]
    # deterministic except for the wall-time column
    for a, b in zip(rows1, rows2):
        for key in ("experiment", "trial", "seed", "lhs", "rhs", "slack",
                    "status", "pass"):
            assert a[key] == b[key]


def test_different_seeds_differ():
    a = E.run_duality(seed=1, trials=2)
    b = E.run_duality(seed=2, trials=2)
    assert any(x.lhs != y.lhs for x, y in zip(a, b))


def test_records_mark_failures_not_drop():
    # a fabricated failing record keeps pass=0 in the CSV
    rec = E.ExperimentRecord("demo", 0, 0, 1.0, 0.0, -1.0, "max_iter", False)
    assert rec.ok is False


def test_infinite_values_serialize(tmp_path):
    rec = E.ExperimentRecord("demo", 0, 0, float("inf"), float("inf"),
                             1e-5, "infinite", True)
    out = tmp_path / "inf.csv"
    E.emit_report([rec], str(out))
    row = read_rows(str(out))[0]
    assert row["lhs"] == "inf" and row["rhs"] == "inf"


def test_cli_embedding_suite(tmp_path):
    out = str(tmp_path / "emb.csv")
    assert main(["embedding", "--trials", "4", "--seed", "1",
                 "--out", out]) == 0
    rows = read_rows(out)
    assert len(rows) == 8
    assert all(r["pass"] == "1" for r in rows)


def test_stability_small():
    recs = E.run_stability(seed=0, trials=2, groups=("Z2",),
                           general_trials=(1,), audit_samples=5)
    assert all(r.ok for r in recs)
    kinds = {r.experiment for r in recs}
    assert "stability-hypothesis-1" in kinds
    assert "stability-restriction-check" in kinds


def test_stability_builds_an_unrestricted_context_only_for_a_generic_trial(monkeypatch):
    # one trial over two groups: the first group runs it as its generic
    # trial, the second runs no trial and needs no unrestricted context
    calls = []
    true_context = E.stability_context

    def counted(key, **kwargs):
        calls.append((key, kwargs.get("restrict", True)))
        return true_context(key, **kwargs)

    monkeypatch.setattr(E, "stability_context", counted)
    recs = E.run_stability(seed=0, trials=1, groups=("Z2", "Z2"),
                           general_trials=(1, 1), audit_samples=5)
    assert calls == [("Z2", True), ("Z2", False), ("Z2", True)]
    assert all(r.ok for r in recs)
    # a generic trial on each group: only the first group's cross-check
    # builds an unrestricted context; Z3's generic trial runs on the
    # pinching closure of its support over the restricted context's seminorm
    calls.clear()
    recs = E.run_stability(seed=0, trials=2, groups=("Z2", "Z3"),
                           general_trials=(1, 1), audit_samples=5)
    assert calls == [("Z2", True), ("Z2", False), ("Z3", True)]
    assert [r.trial for r in recs if r.experiment == "stability-generic"] == [0, 1]
    assert all(r.ok for r in recs)


@pytest.mark.parametrize("key, order", [("Z2", 2), ("Z3", 3)])
def test_amplified_triple_is_valid_on_the_omega_carrier(key, order):
    ctx = E.stability_context(key)
    relabelled = omega_triple(ctx)
    relabelled.validate()
    # the amplified seminorm is the relabelled triple's commutator seminorm
    assert np.array_equal(relabelled.commutator_matrices(), ctx.ball_n.seminorm.matrices)
    # omega coordinate (i, a, j, b) reads Kasparov coordinate (i, j, a, b),
    # with i, j over the 4 coordinates of M_2 and a, b over the group
    kasparov = tensor_algebra(E.amplifier_triple(2).algebra, ctx.base.ball.seminorm.algebra)
    to_omega = _swap_coords(kasparov, np.arange(kasparov.dim), 1, 2)
    i, a, j, b = 1, order - 1, 2, 0
    assert to_omega[((i * order + a) * 4 + j) * order + b] \
        == ((i * 4 + j) * order + a) * order + b


def test_stability_context_allocates_about_its_omega_stack():
    # assembled from the factors' commutators, the amplified Z3 set-up holds
    # the (alpha, beta) stack and its omega copy, and little besides
    E.group_context("Z3")
    tracemalloc.start()
    try:
        ctx = E.stability_context("Z3")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = ctx.ball_n.seminorm.matrices
    assert stack.shape == (144, 144, 144)
    assert peak <= 2.5 * stack.nbytes


def test_chaining_small():
    recs = E.run_chaining(seed=0, quadruples=2, groups=("Z2", "S3"))
    assert all(r.ok for r in recs)
    assert all(r.slack >= -2e-7 for r in recs)


def test_duality_record_takes_the_status_of_the_nonoptimal_solve(monkeypatch):
    # an optimal primal and a stalled dual: the record says "stalled", fails
    true_dual = E.wasserstein_dual

    def stalled(*args, **kwargs):
        res = true_dual(*args, **kwargs)
        res.status = "stalled"
        return res

    monkeypatch.setattr(E, "wasserstein_dual", stalled)
    recs = E.run_duality(seed=1, trials=3)
    finite = [r for r in recs if r.status != "infinite"]
    assert finite
    assert all(r.status == "stalled" and not r.ok for r in finite)


def test_duality_record_names_the_infeasible_dual(monkeypatch):
    # a finite, optimal primal against a dual that raises Infeasible: the
    # sides disagree, so the record is "infeasible", not "infinite", and fails
    def infeasible(*args, **kwargs):
        raise Infeasible("rejected for the test")

    monkeypatch.setattr(E, "wasserstein_dual", infeasible)
    recs = E.run_duality(seed=1, trials=3)
    finite = [r for r in recs if math.isfinite(r.lhs)]
    assert finite
    assert all(r.status == "infeasible" and not r.ok for r in finite)


@pytest.mark.parametrize("seed, trial", [(2027, 13), (5, 39), (195, 34)])
def test_duality_trial_is_optimal(seed, trial):
    # seed 2027 trial 13 stalled just above the 1e-9 gap tolerance under
    # Nesterov-Todd scaling without a second-order corrector; seed 5 trial 39
    # and seed 195 trial 34 stalled at the numerical floor while the trace
    # norm was posed on the solver's dual side with 136 variables
    rec = E.run_duality(seed=seed, trials=trial + 1)[trial]
    assert (rec.trial, rec.status, rec.ok) == (trial, "optimal", True)


def _stall_call(fn, which):
    """fn, except that the calls for which which(*args, **kwargs) holds
    report "stalled"."""
    def wrapped(*args, **kwargs):
        res = fn(*args, **kwargs)
        if which(*args, **kwargs):
            res.status = "stalled"
        return res
    return wrapped


def test_metric_axioms_record_the_stalled_solve(monkeypatch):
    # the 2nd of the four mk solves of a trial stalls: both records of the
    # trial say "stalled" and fail
    calls = itertools.count(1)
    monkeypatch.setattr(E, "mk_between", _stall_call(
        E.mk_between, lambda *a, **k: next(calls) == 2))
    recs = E.run_metric_axioms(seed=0, triples=2)
    mk = {(r.experiment, r.trial): r for r in recs}
    for kind in ("mk-symmetry", "mk-triangle"):
        assert mk[kind, 0].status == "stalled" and not mk[kind, 0].ok
        assert mk[kind, 1].status == "optimal" and mk[kind, 1].ok


def _count_ball_preparations(monkeypatch):
    """A list that grows by one for each prepare_ball call from now on,
    made through either module that binds the name."""
    calls = []
    prepare = metrics.prepare_ball

    def counted(*args, **kwargs):
        calls.append(args[0])
        return prepare(*args, **kwargs)

    for module in (metrics, E):
        monkeypatch.setattr(module, "prepare_ball", counted)
    return calls


@pytest.mark.parametrize("suite, balls", [
    # one mk ball for the 40 mk solves, and the ball of the Z3 context
    (lambda: E.run_metric_axioms(2026, triples=10), 2),
    # one ball per two-point seminorm, and one for the three-point path
    (lambda: E.run_mk_correctness(2026), 4),
], ids=["metric-axioms", "mk-correctness"])
def test_suites_prepare_each_ball_once(suite, balls, monkeypatch):
    calls = _count_ball_preparations(monkeypatch)
    records = suite()
    assert all(r.ok for r in records)
    assert len(calls) == balls


def _coset_coordinates(group, n, omega=True):
    """The coordinates (i, a, j, b) with ab = e, found pair by pair, in
    (i, j, pair) order; with `omega`, only the (i, j) = (pn + q, qn + p) of
    supp omega(id_n)."""
    g = group.order
    pairs = [(a, b) for a in range(g) for b in range(g)
             if group.mult[a, b] == group.identity]
    amps = [(p * n + q, r * n + s) for p, q, r, s in itertools.product(range(n), repeat=4)
            if not omega or (r, s) == (q, p)]
    return [((i * g + a) * n * n + j) * g + b for i, j in amps for a, b in pairs]


_MORE_GROUPS = {"D4": lambda: dihedral_group(4), "D5": lambda: dihedral_group(5),
                "S3xZ2": lambda: direct_product(symmetric_group_3(), cyclic_group(2))}


def _kasparov_seminorm(group, cocycle=None, dirac=None):
    """The Kasparov seminorm of the group context, without its unit ball;
    `dirac` replaces the length Dirac of the first factor."""
    ga, length = twisted_group_algebra(group, cocycle), word_length(group)
    first = (E.length_dirac(ga, length) if dirac is None
             else SpectralTriple(ga.algebra, ga.algebra.basis, dirac).validate())
    return CommutatorSeminorm(kasparov_product(first, E.length_dirac_op(ga, length)))


def _product_e(group):
    return np.flatnonzero(group.mult == group.identity)


@pytest.mark.parametrize("key", ["Z2", "Z3", "Z4", "S3", "Z2xZ2", "Z2xZ2-twisted",
                                 "D4", "D5", "S3xZ2"])
def test_coset_restriction_keeps_the_pairs_with_product_e(key):
    # the pinching closure of the pairs ab = e is those pairs
    group, cocycle = ((_MORE_GROUPS[key](), None) if key in _MORE_GROUPS
                      else E.builtin_group(key))
    keep = metrics._pinching_closure(_kasparov_seminorm(group, cocycle).matrices,
                                     _product_e(group))
    assert keep.tolist() == _coset_coordinates(group, 1)
    # amplified coordinates, supp omega(id_2) times the pairs; a zero stack
    # on a 1-dimensional space mixes no classes, so its closure is the seed
    zero = np.zeros((16 * group.order ** 2, 1, 1))
    keep = metrics._pinching_closure(zero, E._omega_support(_product_e(group), group.order, 2))
    assert keep.tolist() == _coset_coordinates(group, 2)


@pytest.mark.parametrize("key, size", [("Z2", 8), ("Z3", 12)])
def test_amplified_seed_is_its_own_pinching_closure(key, size):
    # n^2 |G| coordinates: supp omega(id_2) times the pairs ab = e
    ctx = E.stability_context(key)
    seed = E._omega_support(_product_e(ctx.base.group), ctx.base.group.order, ctx.n)
    assert ctx.ball_n.keep.tolist() == seed.tolist() == _coset_coordinates(ctx.base.group, 2)
    assert len(ctx.ball_n.keep) == size


def _repaired_closure_loses_nothing(seminorm, seed, pairs):
    """The closure of `seed` strictly holds it, and Delta on its ball equals
    Delta on the full ball for each (f, g, tau) of `pairs`."""
    closure, full = metrics.prepare_ball(seminorm, seed), metrics.prepare_ball(seminorm)
    assert set(seed.tolist()) < set(closure.keep.tolist())
    for f, g, tau in pairs:
        res, ref = (E.delta_distance(f, g, tau, ball, tolerance=1e-10)
                    for ball in (closure, full))
        assert res.status == ref.status == "optimal"
        assert abs(res.value - ref.value) <= 1e-9


def test_coset_restriction_checks_the_cosets_exactly():
    # a length Dirac with one entry between x = 0 and x = 1 moves the
    # commutators of the pairs ab = e across the cosets: the closure adds
    # the pairs they reach, and the restriction still loses nothing
    group = symmetric_group_3()
    dirac = np.diag(word_length(group).values).astype(complex)
    dirac[0, 1] = dirac[1, 0] = 0.3
    ga = twisted_group_algebra(group)
    rng = np.random.default_rng(11)
    pairs = [(*(multiplier_channel(random_pdf(rng, group), ga) for _ in range(2)),
              E.canonical_trace(ga)) for _ in range(2)]
    _repaired_closure_loses_nothing(_kasparov_seminorm(group, dirac=dirac),
                                    _product_e(group), pairs)


@pytest.mark.parametrize("group", [symmetric_group_3(), dihedral_group(4)],
                         ids=["S3", "D4"])
def test_coset_restriction_loses_nothing_on_nonabelian_groups(group):
    # the restricted ball and the full ball of the same seminorm give the
    # same Delta between multipliers
    ctx = E.build_group_context(group)
    full = metrics.prepare_ball(ctx.ball.seminorm)
    rng = np.random.default_rng(11)
    for _ in range(2):
        f, g = (multiplier_channel(random_pdf(rng, group), ctx.ga) for _ in range(2))
        res, ref = (E.delta_distance(f, g, ctx.tau, ball, tolerance=E.SOLVER_TOL)
                    for ball in (ctx.ball, full))
        assert res.status == ref.status == "optimal"
        assert abs(res.value - ref.value) <= 1e-6


@pytest.mark.parametrize("key", ["Z2", "Z3"])
def test_torus_restriction_loses_nothing_against_the_coset_ball(key):
    # the amplified ball on supp omega(id_2) times the pairs ab = e and the
    # one on every pair (i, j) with ab = e give the same Delta between
    # amplified multipliers
    ctx = E.stability_context(key)
    group = ctx.base.group
    coset = metrics.prepare_ball(ctx.ball_n.seminorm,
                                 np.array(_coset_coordinates(group, 2, omega=False)))
    assert len(ctx.ball_n.keep) < len(coset.keep)
    rng = np.random.default_rng(11)
    for _ in range(2):
        f, g = (amplify(ctx.n, multiplier_channel(random_pdf(rng, group), ctx.base.ga))
                for _ in range(2))
        res, ref = (E.delta_distance(f, g, ctx.amp_trace, ball, tolerance=1e-10)
                    for ball in (ctx.ball_n, coset))
        assert res.status == ref.status == "optimal"
        assert abs(res.value - ref.value) <= 1e-9


@pytest.mark.parametrize("key, pairs, size", [("Z2", 2, 16), ("Z3", 1, 36)])
def test_generic_amplified_pairs_lose_nothing_on_the_closure_ball(key, pairs, size):
    # generic trace channels, amplified: the closure of supp omega(id_2)
    # times every pair (a, b) gives the full ball's Delta_n, and Delta_1
    ctx = E.stability_context(key)
    base = E.group_context(key, restrict=False)
    order = base.group.order
    closure = metrics.prepare_ball(ctx.ball_n.seminorm, E._omega_support(
        np.arange(order * order), order, ctx.n))
    full = metrics.prepare_ball(ctx.ball_n.seminorm)
    assert len(closure.keep) == size
    rng = np.random.default_rng(13)
    alg = base.ga.algebra
    for _ in range(pairs):
        f, g = (random_trace_channel(rng, alg, alg, base.tau) for _ in range(2))
        d1 = E.delta_distance(f, g, base.tau, base.ball, tolerance=1e-10)
        res, ref = (E.delta_distance(amplify(ctx.n, f), amplify(ctx.n, g), ctx.amp_trace,
                                     ball, tolerance=1e-10) for ball in (closure, full))
        assert res.status == ref.status == d1.status == "optimal"
        assert abs(res.value - ref.value) <= 1e-9
        assert abs(res.value - d1.value) <= 1e-9


def test_torus_restriction_at_amplification_3():
    # n^2 |G| = 9 * 2 coordinates, and the seed is its own closure
    ctx = E.stability_context("Z2", n=3)
    assert ctx.ball_n.keep.tolist() == _coset_coordinates(ctx.base.group, 3)
    assert len(ctx.ball_n.keep) == 18


def test_torus_restriction_checks_the_amplifier_exactly(monkeypatch):
    # an amplifier Dirac diag(1, -1) with entries between its two basis
    # vectors breaks the torus symmetry: the closure adds the amplifier
    # pairs it reaches, and the restriction still loses nothing
    mn = matrix_algebra(2)
    mn_op = opposite_algebra(mn)
    dirac = np.array([[1.0, 0.3], [0.3, -1.0]], dtype=complex)
    amplifier = kasparov_product(SpectralTriple(mn, mn.basis, dirac),
                                 SpectralTriple(mn_op, mn_op.basis, dirac))
    monkeypatch.setattr(E, "amplifier_triple", lambda n: amplifier)
    ctx = E.stability_context("Z2")
    group = ctx.base.group
    rng = np.random.default_rng(11)
    pairs = [(*(amplify(ctx.n, multiplier_channel(random_pdf(rng, group), ctx.base.ga))
                for _ in range(2)), ctx.amp_trace) for _ in range(2)]
    _repaired_closure_loses_nothing(ctx.ball_n.seminorm,
                                    E._omega_support(_product_e(group), group.order, ctx.n),
                                    pairs)


def test_restriction_cross_check_records_the_stalled_solve(monkeypatch):
    ctx = E.stability_context("Z2")
    ctx_full = E.stability_context("Z2", restrict=False)
    monkeypatch.setattr(E, "delta_distance", _stall_call(
        E.delta_distance, lambda f, g, tau, ball, **k: ball is ctx_full.ball_n))
    rec = E._restriction_cross_check(ctx, ctx_full, seed=0)
    assert rec.status == "stalled" and not rec.ok


def test_stability_side_records_time_their_own_work():
    ctx = E.stability_context("Z2")
    ctx_full = E.stability_context("Z2", restrict=False)
    assert E._restriction_cross_check(ctx, ctx_full, seed=0).ms > 0
    audit = E._stability_hypothesis_audit(ctx, seed=0, samples=2, trial=0)
    assert [r.ms > 0 for r in audit] == [True, True]


@pytest.mark.parametrize("key", ["Z2", "Z3"])
def test_audit_sample_flip_reads_the_reindexed_stack(key, rng):
    # condition 1 of the audit flips its samples instead of reindexing the stack
    ctx = E.stability_context(key)
    lip, lip_n = ctx.base.ball.seminorm, ctx.ball_n.seminorm
    mn, _, mn_op, _ = lip_n.algebra.factors
    nn = tensor_algebra(mn, mn_op)
    unflipped = right_tensor_seminorm(nn, lip.triple, nn.basis)
    x = rng.standard_normal((4, lip_n.algebra.dim)) + 1j * rng.standard_normal(
        (4, lip_n.algebra.dim))
    flipped = unflipped.eval_coords(_swap_coords(lip_n.algebra, x, 1, 2))
    assert np.abs(flipped - E._omega_seminorm(unflipped).eval_coords(x)).max() <= 1e-12


def test_kasparov_record_fails_on_an_invalid_product(monkeypatch):
    true_product = E.kasparov_product

    def odd_even_fails(ta, tb, *args, **kwargs):
        if not ta.even and tb.even:
            raise InvalidSpectralTriple("rejected for the test")
        return true_product(ta, tb, *args, **kwargs)

    monkeypatch.setattr(E, "kasparov_product", odd_even_fails)
    recs = [r for r in E.run_kasparov(seed=0, samples=4)
            if r.experiment == "kasparov-invariants"]
    assert [r.ok for r in recs] == [True, False, True, True]


def test_mk_three_point_fails_off_the_path_metric(monkeypatch):
    # the grid oracle still agrees with the solver; only the path metric is off
    true_paths = E.classical_path_metric
    monkeypatch.setattr(E, "classical_path_metric",
                        lambda *args, **kwargs: 1.5 * true_paths(*args, **kwargs))
    recs = [r for r in E.run_mk_correctness(seed=0) if r.experiment == "mk-three-point"]
    assert len(recs) == 3
    assert all(r.slack < 0 and not r.ok for r in recs)


def test_cp_transpose_witness_fails_when_the_oracle_accepts(monkeypatch):
    monkeypatch.setattr(E, "cp_oracle_npositivity", lambda f: True)
    (rec,) = [r for r in E.run_cp_characterization(seed=0, trials=1)
              if r.experiment == "cp-transpose-witness"]
    assert rec.slack < 0 and not rec.ok

"""Experiment suites: numerical verification of the embedding, complete
positivity, adjoint, stability, chaining, domination, contraction, and
duality statements, with CSV reporting.

Every suite is reproducible from (config, seed): trial randomness comes from
per-trial children of one seed sequence.  Solver results with a non-optimal
status are recorded as failures, never silently dropped.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import generate
from .algebra import (
    LinearFunctional,
    _swap_coords,
    as_trace,
    density_from_functional,
    diagonal_algebra,
    matrix_algebra,
    opposite_algebra,
    standard_matrix_trace,
    swap_functional,
    tensor_algebra,
    tensor_functional,
    tensor_trace,
)
from .channels import (
    ChannelMap,
    amplify,
    check_trace_channel,
    choi_matrix,
    compose,
    cp_oracle_npositivity,
    is_completely_positive,
    is_trace_channel,
    is_unital,
    omega_tau,
    tensor_channel,
    trace_adjoint,
    trace_of_unit_image,
)
from .errors import AlgebraMismatch, Infeasible, InvalidSpectralTriple
from .generate import child_rngs
from .geometry import (
    CommutatorSeminorm,
    KasparovSeminorm,
    SpectralTriple,
    gradient_dirac_triple,
    kasparov_product,
    right_tensor_seminorm,
    seminorm_domination_check,
)
from .groups import (
    LengthFunction,
    cyclic_group,
    direct_product,
    klein_twist_cocycle,
    multiplier_channel,
    multiplier_contraction_check,
    canonical_trace,
    symmetric_group_3,
    twisted_group_algebra,
    word_length,
)
from .linalg import EPS_STRUCT, complex_samples
from .metrics import delta_distance, mk_between, prepare_ball, wasserstein_dual
from .oracles import classical_path_metric, grid_ball_maximize

DEFAULT_TOL = 1e-7
# solver tolerance of the suites that compare values to 1e-5 or finer
SOLVER_TOL = 1e-9
CSV_COLUMNS = ("experiment", "trial", "seed", "lhs", "rhs", "slack",
               "status", "pass", "ms")


@dataclass
class ExperimentRecord:
    experiment: str
    trial: int
    seed: int
    lhs: float
    rhs: float
    slack: float
    status: str
    ok: bool
    ms: float = 0.0


def _num(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return f"{x:.12g}"


def emit_report(records: list[ExperimentRecord], path: str):
    """Single-writer CSV emission in (experiment, trial) order."""
    rows = sorted(records, key=lambda r: (r.experiment, r.trial))
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in rows:
            fh.write(",".join([
                r.experiment, str(r.trial), str(r.seed), _num(r.lhs),
                _num(r.rhs), _num(r.slack), r.status,
                "1" if r.ok else "0", f"{r.ms:.1f}",
            ]) + "\n")


def _first_nonoptimal(*statuses: str) -> str:
    """The status a record of several solves carries: the first that is not
    "optimal", or "optimal"."""
    return next((s for s in statuses if s != "optimal"), "optimal")


def _record(experiment: str, trial: int, lhs, rhs, slack: float,
            status: str = "optimal", seed: int = 0, ms: float = 0.0,
            floor: float = 0.0) -> ExperimentRecord:
    """The one way a suite makes a record: it passes when its solves are
    "optimal" (or agree on "infinite") and its slack is at least `floor`,
    so every check of the record must show in its slack."""
    ok = status in ("optimal", "infinite") and slack >= floor
    return ExperimentRecord(experiment, trial, seed, lhs, rhs, slack, status, ok, ms)


def _within(experiment: str, trial: int, err: float, tol: float,
            seed: int = 0) -> ExperimentRecord:
    """A residual `err` that must stay within `tol`."""
    return _record(experiment, trial, err, tol, tol - err, seed=seed)


def _yes(check: bool) -> float:
    """The slack of a yes/no check: 0 when it holds, -1 when not."""
    return 0.0 if check else -1.0


def _agree(experiment: str, trial: int, a: bool, b: bool) -> ExperimentRecord:
    """Two yes/no answers that must agree."""
    return _record(experiment, trial, float(a), float(b), _yes(a == b))


def _run_trials(fn, trials: int, seed: int, first: int = 0):
    """fn(trial_index, rng) -> list of records; merged in trial order, with
    the trial numbers shifted by `first`."""
    records = []
    for i, rng in enumerate(child_rngs(seed, trials)):
        t0 = time.perf_counter()
        recs = fn(i, rng)
        ms = (time.perf_counter() - t0) * 1000.0
        for r in recs:
            r.trial += first
            r.ms = ms / max(1, len(recs))
            r.seed = seed
        records.extend(recs)
    return records


# ---------------------------------------------------------------------------
# shared corpora
# ---------------------------------------------------------------------------

# key -> (group builder, whether the Klein twist cocycle applies)
_BUILTIN_GROUPS = {
    "Z2": (lambda: cyclic_group(2), False),
    "Z3": (lambda: cyclic_group(3), False),
    "Z4": (lambda: cyclic_group(4), False),
    "S3": (lambda: symmetric_group_3(), False),
    "Z2xZ2": (lambda: direct_product(cyclic_group(2), cyclic_group(2)), False),
    "Z2xZ2-twisted": (lambda: direct_product(cyclic_group(2), cyclic_group(2)), True),
}


def builtin_group(key: str):
    """(group, cocycle or None) of a builtin key."""
    if key not in _BUILTIN_GROUPS:
        raise KeyError(f"unknown builtin group {key!r}")
    build, twisted = _BUILTIN_GROUPS[key]
    group = build()
    return group, klein_twist_cocycle(group) if twisted else None


@dataclass(eq=False)
class GroupContext:
    """Everything needed for Delta distances between multipliers on one
    twisted group algebra: the prepared unit ball of the length Dirac
    Kasparov product seminorm over A (x) A^op, restricted to the pinching
    closure of the pairs ab = e."""

    group: object
    ga: object
    tau: object
    ball: object

    @cached_property
    def ball_full(self):
        """The unrestricted ball of the same seminorm, built on first read."""
        return prepare_ball(self.ball.seminorm)


def length_dirac(ga, length: LengthFunction) -> SpectralTriple:
    """Odd triple (C*(G, sigma), l2(G), diag(l)) with the left regular
    representation."""
    dirac = np.diag(length.values).astype(complex)
    return SpectralTriple(ga.algebra, ga.algebra.basis, dirac).validate()


def length_dirac_op(ga, length: LengthFunction) -> SpectralTriple:
    """The companion odd triple for the opposite algebra, represented by the
    twisted right regular representation on the same l2(G)."""
    dirac = np.diag(length.values).astype(complex)
    op = opposite_algebra(ga.algebra)
    return SpectralTriple(op, ga.right_rep, dirac).validate()


def build_group_context(group, cocycle=None,
                        length: LengthFunction | None = None) -> GroupContext:
    """The Kasparov product of the length Dirac triples of C*(G, sigma) and
    its opposite (word length when `length` is None), with its unit ball
    restricted to the closure of the pairs ab = e: omega(M_phi)(a, b) =
    phi(a) tau(lambda_a lambda_b) of a multiplier vanishes off them.  The
    unrestricted ball is `ctx.ball_full`, held once read."""
    ga = twisted_group_algebra(group, cocycle)
    if length is None:
        length = word_length(group)
    seminorm = CommutatorSeminorm(kasparov_product(
        length_dirac(ga, length), length_dirac_op(ga, length)))
    support = np.flatnonzero(group.mult == group.identity)
    return GroupContext(group, ga, canonical_trace(ga), prepare_ball(seminorm, support))


def group_context(key: str) -> GroupContext:
    return build_group_context(*builtin_group(key))


@dataclass(eq=False)
class StabilityContext:
    """The group context and the prepared unit ball of its amplified
    seminorm L_n over the omega-carrier, restricted or not (see
    `stability_context`), with the amplification trace."""

    base: GroupContext
    n: int                           # amplification order
    amp_trace: object
    ball_n: object                   # of the seminorm over the omega-carrier

    @cached_property
    def ball_generic(self):
        """The amplified ball of every pair (a, b), built on first read."""
        order = self.base.group.order
        return prepare_ball(self.ball_n.seminorm, _omega_support(
            np.arange(order * order), order, self.n))


def _omega_support(pairs: np.ndarray, g: int, n: int) -> np.ndarray:
    """supp omega(id_n) times the base `pairs` (flat a g + b), in omega
    order (i, a, j, b): omega(id_n)(e_pq (x) e_rs^op) = tr(e_pq e_rs) / n
    is nonzero at i = pn + q, j = qn + p, so by the flip omega(id_n (x) F)
    = Sigma*_[23](omega(id_n) (x) omega(F)) this holds omega(id_n (x) F)
    for every F with omega(F) supported on `pairs`."""
    p, q = np.divmod(np.arange(n * n), n)
    a, b = np.divmod(np.asarray(pairs), g)
    return ((((p * n + q)[:, None] * g + a) * n * n + (q * n + p)[:, None]) * g
            + b).reshape(-1)


def amplifier_triple(n: int) -> SpectralTriple:
    """d_n x d_n: the Kasparov product of the odd triple (M_n, C^n,
    diag(1, ..., -1, ...)) and its opposite on the same C^n."""
    mn = matrix_algebra(n)
    mn_op = opposite_algebra(mn)
    dirac_n = np.diag([1.0] * (n // 2) + [-1.0] * (n - n // 2)).astype(complex)
    return kasparov_product(SpectralTriple(mn, mn.basis, dirac_n),
                            SpectralTriple(mn_op, mn_op.basis, dirac_n))


def stability_context(key: str, n: int = 2, restrict: bool = True) -> StabilityContext:
    """Assemble the amplified seminorm L_n = L_{(d_n x d_n) x (d_A x d_B)}
    o Sigma_[23] together with the normalized amplification trace.

    The matrix trace on the amplification is normalized so that the
    amplified identity map id_n (x) F stays a trace channel and the
    associated functional of id_n is a state, which is what the stability
    equality requires.

    With `restrict`, the ball keeps the closure of `_omega_support` of the
    pairs ab = e, which holds every amplified multiplier difference.  The
    base is the restricted group context either way: its triple and trace
    do not depend on its ball.
    """
    base = group_context(key)
    t_nn, t_base = amplifier_triple(n), base.ball.seminorm.triple

    mn = matrix_algebra(n)
    trace_n = as_trace(LinearFunctional(
        mn, np.trace(mn.basis, axis1=1, axis2=2) / n))
    amp_trace = tensor_trace(trace_n, base.tau)

    # omega coordinate (i, a, j, b) reads Kasparov coordinate (i, j, a, b)
    kasparov = tensor_algebra(t_nn.algebra, t_base.algebra)
    _, _, a, b_op = kasparov.factors
    carrier = tensor_algebra(tensor_algebra(mn, a), opposite_algebra(
        tensor_algebra(mn, opposite_algebra(b_op))))
    seminorm_n = KasparovSeminorm(carrier, t_nn, t_base,
                                  _swap_coords(kasparov, np.arange(kasparov.dim), 1, 2))
    support = _omega_support(base.ball.keep, base.group.order, n) if restrict else None
    return StabilityContext(base, n, amp_trace, prepare_ball(seminorm_n, support))


def cp_corpus():
    """Algebras and faithful traces of the default corpus."""
    m2 = matrix_algebra(2)
    m3 = matrix_algebra(3)
    d2 = diagonal_algebra(2)
    z3 = twisted_group_algebra(cyclic_group(3))
    return [
        (m2, standard_matrix_trace(m2)),
        (m3, standard_matrix_trace(m3)),
        (d2, standard_matrix_trace(d2)),
        (z3.algebra, canonical_trace(z3)),
    ]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def run_cp_characterization(seed: int = 0, trials: int = 200) -> list[ExperimentRecord]:
    tolerance = 1e-10
    corpus = cp_corpus()
    pairs = [(s, t) for s in corpus for t in corpus]

    def one(i, rng):
        (src, _), (tgt, tau_t) = pairs[i % len(pairs)]
        kind = i % 3
        if kind == 0:
            f = generate.random_linear_map(rng, src, tgt)
        elif kind == 1:
            f = generate.random_cp_channel(rng, src, tgt, tau_t)
        else:
            f = generate.random_trace_channel(rng, src, tgt, tau_t)
        return [_agree("cp-characterization", i, is_completely_positive(f, tau_t).is_cp,
                       cp_oracle_npositivity(f))]

    records = _run_trials(one, trials, seed)
    # transpose map on M_2: rejected, with the swap eigenvalue as witness
    m2 = matrix_algebra(2)
    tr2 = standard_matrix_trace(m2)
    transpose = np.eye(4)[[0, 2, 1, 3]]          # e_pq -> e_qp
    t_map = ChannelMap(m2, m2, transpose)
    verdict = is_completely_positive(t_map, tr2)
    rejected = not verdict.is_cp and not cp_oracle_npositivity(t_map)
    if verdict.witness is not None:
        quad = verdict.witness
        om = verdict.functional
        # omega(x^* x) must reproduce the witness eigenvalue
        alg = om.algebra
        xsx = alg.multiply_coords(alg.adjoint_of_coords(quad), quad)
        rejected = rejected and abs(complex(om.values @ xsx) - verdict.min_eigenvalue) < 1e-8
    # the eigenvalue's distance to -1 when both tests reject with a witness
    slack = tolerance - abs(verdict.min_eigenvalue + 1.0) if rejected else -1.0
    records.append(_record("cp-transpose-witness", 0, verdict.min_eigenvalue, -1.0,
                           slack, seed=seed))
    return records


def run_embedding(seed: int = 0, trials: int = 100) -> list[ExperimentRecord]:
    """Density of omega vs transposed Choi matrix, and the state <=>
    normalization equivalence."""
    tolerance = 1e-10
    sizes = [(2, 2), (2, 3), (3, 2), (3, 3)]
    traces = {n: standard_matrix_trace(matrix_algebra(n)) for n in (2, 3)}
    carrier_traces = {
        (n, m): standard_matrix_trace(tensor_algebra(matrix_algebra(n),
                                                     opposite_algebra(matrix_algebra(m))))
        for n, m in sizes}

    def one(i, rng):
        n, m = sizes[i % len(sizes)]
        f = generate.random_kraus_channel(rng, matrix_algebra(n), matrix_algebra(m),
                                          kraus_rank=rng.integers(1, 4))
        if i % 2:
            scale = 1.0 / trace_of_unit_image(f, traces[m]).real
            f = ChannelMap(f.source, f.target, f.matrix * complex(scale))
        om = omega_tau(f, traces[m])
        density, _ = density_from_functional(om, carrier_traces[(n, m)])
        resid = float(np.abs(om.algebra.realize(density) - choi_matrix(f).T).max())
        normalized = abs(trace_of_unit_image(f, traces[m]) - 1.0) <= 1e-9
        return [_within("embedding-density", i, resid, tolerance),
                _agree("embedding-state", i, om.is_state(), normalized)]

    return _run_trials(one, trials, seed)


def run_flip(seed: int = 0, trials: int = 50) -> list[ExperimentRecord]:
    """omega_{tau (x) tau'}(F (x) G) = Sigma*_[23](omega(F) (x) omega(G))."""
    tolerance = 1e-11
    m2 = matrix_algebra(2)
    d2 = diagonal_algebra(2)
    tr_m2 = standard_matrix_trace(m2)
    tr_d2 = standard_matrix_trace(d2)
    pairs = [(tr_m2, tr_m2), (tr_m2, tr_d2), (tr_d2, tr_m2)]
    # the trace on each product source, validated once per pair
    combos = [(tau_b, tau_d, as_trace(tensor_trace(tau_b, tau_d))) for tau_b, tau_d in pairs]

    def one(i, rng):
        tau_b, tau_d, prod_trace = combos[i % len(combos)]
        f = generate.random_cp_channel(rng, tau_b.algebra, tau_b.algebra, tau_b)
        g = generate.random_cp_channel(rng, tau_d.algebra, tau_d.algebra, tau_d)
        lhs = omega_tau(tensor_channel(f, g), prod_trace)
        rhs = swap_functional(tensor_functional(omega_tau(f, tau_b), omega_tau(g, tau_d)), 1, 2)
        return [_within("flip", i, float(np.abs(lhs.values - rhs.values).max()), tolerance)]

    return _run_trials(one, trials, seed)


def run_adjoints(seed: int = 0, trials: int = 60) -> list[ExperimentRecord]:
    tolerance = 1e-10
    corpus = cp_corpus()

    def one(i, rng):
        src, tau_s = corpus[i % len(corpus)]
        tgt, tau_t = corpus[(i + 1 + i // len(corpus)) % len(corpus)]
        f = generate.random_trace_channel(rng, src, tgt, tau_t)
        sharp = trace_adjoint(f, tau_s, tau_t)
        # defining identity on all basis pairs
        ta = tau_s.bilinear_gram()
        tb = tau_t.bilinear_gram()
        lhs = f.matrix.T @ tb
        rhs = ta @ sharp.matrix
        tc_f = is_trace_channel(f, tau_t)
        tc_sharp = is_trace_channel(sharp, tau_s)
        double = trace_adjoint(sharp, tau_t, tau_s)
        return [_within("adjoint-identity", i, float(np.abs(lhs - rhs).max()), tolerance),
                _record("adjoint-trace-channel", i, float(tc_f), float(tc_sharp),
                        _yes(not tc_f or tc_sharp)),
                _within("adjoint-double", i, float(np.abs(double.matrix - f.matrix).max()),
                        tolerance)]

    records = _run_trials(one, trials, seed)
    # multiplier adjoints are exactly the inverted-argument multipliers
    for k, key in enumerate(("Z2", "Z4", "S3", "Z2xZ2-twisted")):
        group, cocycle = builtin_group(key)
        ga = twisted_group_algebra(group, cocycle)
        tau = canonical_trace(ga)
        rng = np.random.default_rng(seed + 17 + k)
        phi = generate.random_pdf(rng, group)
        m_phi = multiplier_channel(phi, ga)
        sharp = trace_adjoint(m_phi, tau, tau)
        expected = multiplier_channel(phi.circ(), ga)
        records.append(_within("adjoint-multiplier", k,
                               float(np.abs(sharp.matrix - expected.matrix).max()),
                               1e-12, seed=seed))
    return records


def _toy_triples():
    """Odd and even toy triples over small algebras, for parity sweeps."""
    d2 = diagonal_algebra(2)
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    odd = SpectralTriple(d2, d2.basis, x).validate()
    even = SpectralTriple(d2, d2.basis, x, z).validate()
    m2 = matrix_algebra(2)
    dirac_odd_m2 = np.diag([1.0, -1.0]).astype(complex)
    odd_m2 = SpectralTriple(m2, m2.basis, dirac_odd_m2).validate()
    rep_even = np.array([np.kron(np.eye(2), b) for b in m2.basis])
    grading = np.kron(np.diag([1.0, -1.0]), np.eye(2)).astype(complex)
    dirac_even = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)).astype(complex)
    even_m2 = SpectralTriple(m2, rep_even, dirac_even, grading).validate()
    return {"odd": odd, "even": even, "odd_m2": odd_m2, "even_m2": even_m2}


def run_kasparov(seed: int = 0, samples: int = 500) -> list[ExperimentRecord]:
    toys = _toy_triples()
    records = []
    for trial, (pa, pb) in enumerate(itertools.product(("odd", "even"), repeat=2)):
        try:
            # raises unless both factors and the product are triples
            kasparov_product(toys[pa], toys[pb])
            valid = True
        except InvalidSpectralTriple:
            valid = False
        records.append(_record("kasparov-invariants", trial, 1.0, 1.0, _yes(valid),
                               seed=seed))
    # toy even x even: the product Dirac has eigenvalues +-sqrt(2)
    product = kasparov_product(toys["even"], toys["even"])
    lam = np.linalg.eigvalsh(product.dirac)
    records.append(_within("kasparov-toy-eigenvalues", 0,
                           float(np.abs(np.abs(lam) - np.sqrt(2.0)).max()), 1e-12,
                           seed=seed))
    # seminorm domination on the (M_2, Z/2 group algebra) pair
    z2 = twisted_group_algebra(cyclic_group(2))
    l2 = word_length(cyclic_group(2))
    t_z2 = length_dirac(z2, LengthFunction(z2.group, l2.values))
    rng = np.random.default_rng(seed)
    v1, worst1 = seminorm_domination_check(toys["odd_m2"], t_z2,
                                           samples=samples // 2, rng=rng)
    v2, worst2 = seminorm_domination_check(toys["even_m2"], t_z2,
                                           samples=samples - samples // 2, rng=rng)
    violations = v1 + v2
    worst = max(worst1, worst2)
    records.append(_record("kasparov-domination", 0, worst, 0.0, -float(violations),
                           seed=seed))
    return records


def run_stability(seed: int = 0, trials: int = 25, groups=("Z2", "Z3"),
                  general_trials=(3, 1),
                  audit_samples: int = 25) -> list[ExperimentRecord]:
    """Delta_n(id_n (x) F, id_n (x) G) versus Delta_1(F, G) for random
    trace-channel pairs (multipliers plus a few fully generic ones), with
    the sampled hypothesis audit, at n = 2.

    Every ball keeps the pinching closure of its objectives' support, which
    loses nothing: multiplier pairs use the restricted contexts, generic
    ones the group context's seminorm on its full ball and, amplified, the
    closure of `_omega_support` of all pairs (a, b).  On the first group, one
    multiplier pair (the stability-restriction-check record) cross-checks
    the restricted amplified ball against the unrestricted one.
    """
    tolerance = 1e-5
    records = []
    per_group = [trials // len(groups) + (1 if i < trials % len(groups) else 0)
                 for i in range(len(groups))]
    for gi, key in enumerate(groups):
        ctx = stability_context(key)
        n_general = min(per_group[gi], general_trials[gi]) if gi < len(general_trials) else 0

        def one(i, rng, ctx=ctx, n_general=n_general):
            generic = i < n_general
            base = ctx.base
            ball, ball_n = ((base.ball_full, ctx.ball_generic) if generic
                            else (base.ball, ctx.ball_n))
            if generic:
                f, g = (generate.random_trace_channel(rng, base.ga.algebra,
                                                      base.ga.algebra, base.tau)
                        for _ in range(2))
            else:
                f, g = (multiplier_channel(generate.random_pdf(rng, base.group), base.ga)
                        for _ in range(2))
            d1 = delta_distance(f, g, base.tau, ball, tolerance=SOLVER_TOL)
            dn = delta_distance(amplify(ctx.n, f), amplify(ctx.n, g), ctx.amp_trace,
                                ball_n, tolerance=SOLVER_TOL)
            return [_record("stability-generic" if generic else "stability", i,
                            dn.value, d1.value, tolerance - abs(dn.value - d1.value),
                            _first_nonoptimal(dn.status, d1.status))]

        records.extend(_run_trials(one, per_group[gi], seed + 101 * gi,
                                   first=sum(per_group[:gi])))
        records.extend(_stability_hypothesis_audit(ctx, seed + 7 + gi,
                                                   audit_samples, gi))
        if gi == 0 and n_general:
            records.append(_restriction_cross_check(
                ctx, stability_context(key, restrict=False), seed))
    return records


def _restriction_cross_check(ctx: StabilityContext, ctx_full: StabilityContext,
                             seed: int) -> ExperimentRecord:
    """The restricted and unrestricted amplified solves must agree on a
    multiplier pair: the restriction is a sup over a subset, so equality
    certifies it loses nothing."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 4242)
    base = ctx.base
    f = multiplier_channel(generate.random_pdf(rng, base.group), base.ga)
    g = multiplier_channel(generate.random_pdf(rng, base.group), base.ga)
    f_n, g_n = amplify(ctx.n, f), amplify(ctx.n, g)
    d_res = delta_distance(f_n, g_n, ctx.amp_trace, ctx.ball_n, tolerance=SOLVER_TOL)
    d_full = delta_distance(f_n, g_n, ctx_full.amp_trace, ctx_full.ball_n,
                            tolerance=SOLVER_TOL)
    return _record("stability-restriction-check", 0, d_res.value, d_full.value,
                   1e-6 - abs(d_res.value - d_full.value),
                   _first_nonoptimal(d_res.status, d_full.status), seed,
                   (time.perf_counter() - t0) * 1000.0)


def _stability_hypothesis_audit(ctx: StabilityContext, seed: int,
                                samples: int, trial: int):
    """Sampled check of the two seminorm conditions behind stability:
    (1 (x) L_1) o Sigma_23 <= L_n, and L_n(Sigma_23(1 (x) 1 (x) x)) <= 1
    whenever L_1(x) <= 1."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    lip, lip_n = ctx.base.ball.seminorm, ctx.ball_n.seminorm
    mn, _, mn_op, _ = lip_n.algebra.factors
    nn = tensor_algebra(mn, mn_op)
    unflipped = right_tensor_seminorm(nn, lip.triple, nn.basis)
    x = complex_samples(rng, samples, lip_n.algebra.dim)
    worst1 = float((unflipped.eval_coords(_swap_coords(lip_n.algebra, x, 1, 2))
                    - lip_n.eval_coords(x)).max(initial=0.0))
    ms1 = (time.perf_counter() - t0) * 1000.0
    t0 = time.perf_counter()
    x = complex_samples(rng, samples, lip.algebra.dim)
    l1 = lip.eval_coords(x)
    nonzero = l1 >= 1e-12
    x = x[nonzero] / l1[nonzero, None]
    omega_coords = _swap_coords(
        unflipped.algebra, (nn.unit_coords[:, None] * x[:, None, :]).reshape(len(x), -1), 1, 2)
    worst2 = float((lip_n.eval_coords(omega_coords) - 1.0).max(initial=0.0))
    ms2 = (time.perf_counter() - t0) * 1000.0
    tol = 1e-8
    return [_record("stability-hypothesis-1", trial, worst1, 0.0, tol - worst1,
                    seed=seed, ms=ms1),
            _record("stability-hypothesis-2", trial, worst2, 0.0, tol - worst2,
                    seed=seed, ms=ms2)]


def run_chaining(seed: int = 0, quadruples: int = 100,
                 groups=("Z2", "Z3", "Z4", "S3")) -> list[ExperimentRecord]:
    """Delta(M_{p1} o M_{p2}, M_{p3} o M_{p4}) <= Delta(M_{p1}, M_{p3})
    + Delta(M_{p2}, M_{p4}) over random normalized positive definite
    quadruples, with the length Dirac Kasparov seminorm."""
    records = []
    for gi, key in enumerate(groups):
        ctx = group_context(key)

        def one(i, rng, ctx=ctx):
            phis = [generate.random_pdf(rng, ctx.group) for _ in range(4)]
            mults = [multiplier_channel(p, ctx.ga) for p in phis]
            # the hypotheses of the inequality, checked once per map: the
            # outer maps are trace channels, the inner ones unital
            for outer, inner in ((0, 1), (2, 3)):
                check_trace_channel(mults[outer], ctx.tau, label=f"chaining map {outer}")
                if not is_unital(mults[inner]):
                    raise AlgebraMismatch(f"chaining map {inner} is not unital")
            lhs = delta_distance(compose(mults[0], mults[1]),
                                 compose(mults[2], mults[3]), ctx.tau, ctx.ball,
                                 tolerance=DEFAULT_TOL)
            d13 = delta_distance(mults[0], mults[2], ctx.tau, ctx.ball,
                                 tolerance=DEFAULT_TOL)
            d24 = delta_distance(mults[1], mults[3], ctx.tau, ctx.ball,
                                 tolerance=DEFAULT_TOL)
            rhs = d13.value + d24.value
            return [_record("chaining", i, lhs.value, rhs, rhs - lhs.value,
                            _first_nonoptimal(lhs.status, d13.status, d24.status),
                            floor=-2 * DEFAULT_TOL)]

        records.extend(_run_trials(one, quadruples, seed + 211 * gi, first=gi * quadruples))
    return records


def run_contraction(seed: int = 0, pairs: int = 500) -> list[ExperimentRecord]:
    """L(M_phi(x)) <= L(x) for normalized positive definite phi, with the
    plain length Dirac seminorm, up to the relative slack EPS_STRUCT."""
    records = []
    for gi, key in enumerate(("Z2", "Z3", "Z4", "S3")):
        group, cocycle = builtin_group(key)
        ga = twisted_group_algebra(group, cocycle)
        triple = length_dirac(ga, word_length(group))
        rng = np.random.default_rng(seed + gi)
        n_funcs = max(1, pairs // 50)
        worst_ratio = 0.0
        violations = 0
        for _ in range(n_funcs):
            phi = generate.random_pdf(rng, group)
            count, ratio = multiplier_contraction_check(phi, triple,
                                                        samples=pairs // n_funcs, rng=rng)
            worst_ratio = max(worst_ratio, ratio)
            violations += count
        records.append(_record("contraction", gi, worst_ratio, 1.0 + EPS_STRUCT,
                               -float(violations), seed=seed))
    return records


def run_duality(seed: int = 0, trials: int = 50) -> list[ExperimentRecord]:
    """Primal Monge-Kantorovich versus the trace-norm dual on matrix Dirac
    instances, including agreement on infinite distances."""
    tolerance = 1e-5
    sizes = [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]

    def one(i, rng):
        n, nmat = sizes[i % len(sizes)]
        ls = [generate.random_hermitian(rng, n) for _ in range(nmat)]
        rho1 = generate.random_density(rng, n)
        rho2 = generate.random_density(rng, n)
        alg = matrix_algebra(n)
        lip = CommutatorSeminorm(gradient_dirac_triple(ls, algebra=alg))
        phi1 = LinearFunctional(alg, np.einsum("xy,byx->b", rho1, alg.basis))
        phi2 = LinearFunctional(alg, np.einsum("xy,byx->b", rho2, alg.basis))
        primal = mk_between(phi1, phi2, prepare_ball(lip), tolerance=SOLVER_TOL)
        try:
            dual = wasserstein_dual(rho1, rho2, ls, tol=SOLVER_TOL)
            dual_value, dual_status = dual.value, dual.status
        except Infeasible:
            dual_value, dual_status = math.inf, "infeasible"
        if primal.status == "infinite" and math.isinf(dual_value):
            return [_record("duality", i, primal.value, dual_value, tolerance, "infinite")]
        one_infinite = primal.status == "infinite" or math.isinf(dual_value)
        return [_record("duality", i, primal.value, dual_value,
                        -1.0 if one_infinite else tolerance - abs(primal.value - dual_value),
                        _first_nonoptimal(primal.status, dual_status))]

    return _run_trials(one, trials, seed)


def run_mk_correctness(seed: int = 0) -> list[ExperimentRecord]:
    """Closed-form two-point distances and the three-point path metric
    against the exhaustive grid oracle."""
    records = []
    d2 = diagonal_algebra(2)
    for k, dist in enumerate((0.5, 1.0, 2.0)):
        x = np.array([[0.0, 1.0 / dist], [1.0 / dist, 0.0]], dtype=complex)
        lip = CommutatorSeminorm(SpectralTriple(d2, d2.basis, x))
        delta_p = LinearFunctional(d2, np.array([1.0, 0.0], dtype=complex))
        delta_q = LinearFunctional(d2, np.array([0.0, 1.0], dtype=complex))
        res = mk_between(delta_p, delta_q, prepare_ball(lip), tolerance=SOLVER_TOL)
        records.append(_record("mk-two-point", k, res.value, dist,
                               1e-7 - abs(res.value - dist), res.status, seed))
    # three-point path metric with unit edges (1,2), (2,3)
    d3 = diagonal_algebra(3)
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = h[1, 0] = 1.0
    h[2, 3] = h[3, 2] = 1.0
    rep = np.zeros((3, 4, 4), dtype=complex)
    rep[0, 0, 0] = 1.0
    rep[1, 1, 1] = rep[1, 2, 2] = 1.0
    rep[2, 3, 3] = 1.0
    triple = SpectralTriple(d3, rep, h)
    lip = CommutatorSeminorm(triple)
    ball = prepare_ball(lip)
    states = [LinearFunctional(d3, np.eye(3, dtype=complex)[i]) for i in range(3)]
    paths = classical_path_metric({(0, 1): 1.0, (1, 2): 1.0}, 3)
    expected = {(0, 1): paths[0, 1], (0, 2): paths[0, 2], (1, 2): paths[1, 2]}
    for trial, ((i, j), truth) in enumerate(expected.items()):
        res = mk_between(states[i], states[j], ball, tolerance=SOLVER_TOL)
        # grid oracle over (t_1, t_2) with the third coordinate pinned to 0;
        # shifting by multiples of the unit does not change the objective
        diff = states[i].values - states[j].values

        def norm(t):
            return lip.eval_coords(np.pad(t, ((0, 0), (0, 1))).astype(complex))

        oracle = grid_ball_maximize(np.array([diff[0].real, diff[1].real]),
                                    norm, radius=4.0, rounds=6, pts=17)
        # the value must match both the grid oracle and the path metric
        err = max(abs(res.value - oracle), abs(res.value - truth))
        records.append(_record("mk-three-point", trial, res.value, oracle, 1e-5 - err,
                               res.status, seed))
    return records


def run_metric_axioms(seed: int = 0, triples: int = 10) -> list[ExperimentRecord]:
    """Symmetry (to 1e-12) and the triangle inequality (to 2e-7) for mk on
    random states and for Delta on random multiplier trace channels."""
    alg = matrix_algebra(2)
    rng0 = np.random.default_rng(seed)
    ls = [generate.random_hermitian(rng0, 2) for _ in range(2)]
    ball = prepare_ball(CommutatorSeminorm(gradient_dirac_triple(ls, algebra=alg)))

    def axioms(name, draw, dist):
        """Trials on three points from draw(rng), measured by dist."""
        def one(i, rng):
            pts = draw(rng)
            d12, d21, d23, d13 = (dist(pts[a], pts[b])
                                  for a, b in ((0, 1), (1, 0), (1, 2), (0, 2)))
            sym = abs(d12.value - d21.value)
            status = _first_nonoptimal(d12.status, d21.status, d23.status,
                                       d13.status)
            return [_record(f"{name}-symmetry", i, sym, 1e-12, 1e-12 - sym, status),
                    _record(f"{name}-triangle", i, d13.value, d12.value + d23.value,
                            d12.value + d23.value + 2e-7 - d13.value, status)]
        return one

    records = _run_trials(
        axioms("mk", lambda rng: [generate.random_state(rng, alg) for _ in range(3)],
               lambda p, q: mk_between(p, q, ball, tolerance=SOLVER_TOL)),
        triples, seed)
    ctx = group_context("Z3")
    records.extend(_run_trials(
        axioms("delta",
               lambda rng: [multiplier_channel(generate.random_pdf(rng, ctx.group),
                                               ctx.ga) for _ in range(3)],
               lambda f, g: delta_distance(f, g, ctx.tau, ctx.ball,
                                           tolerance=SOLVER_TOL)),
        max(1, triples // 2), seed + 5))
    return records


# ---------------------------------------------------------------------------
# the shipped acceptance configuration
# ---------------------------------------------------------------------------

# (name, suite(seed)) at acceptance sizes; each sized suite binds exactly one
# size keyword, which the CLI's --trials replaces.
ACCEPTANCE_SUITES = (
    ("cp-characterization", partial(run_cp_characterization, trials=200)),
    ("embedding", partial(run_embedding, trials=100)),
    ("flip", partial(run_flip, trials=50)),
    ("adjoints", partial(run_adjoints, trials=60)),
    ("kasparov", partial(run_kasparov, samples=500)),
    ("stability", partial(run_stability, trials=25)),
    ("chaining", partial(run_chaining, quadruples=100)),
    ("contraction", partial(run_contraction, pairs=500)),
    ("duality", partial(run_duality, trials=50)),
    ("mk-correctness", run_mk_correctness),
    ("metric-axioms", partial(run_metric_axioms, triples=10)),
)


def run_all(seed: int = 0) -> list[ExperimentRecord]:
    """Run the full acceptance configuration."""
    return [r for _, suite in ACCEPTANCE_SUITES for r in suite(seed)]

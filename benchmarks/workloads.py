"""The benchmark's workloads, driven through choimetric's public API.

Each workload has
- contexts: the experiments contexts it reuses, built once during set-up;
- a warm-up: a tiny pass that pays first-call costs during set-up;
- a pass: a fixed amount of work at one seed.  Pass k of a run uses seed
  `seed + k`, so repeated passes see new inputs.

The suites call `experiments.group_context` and `experiments.stability_context`
on every invocation.  `ContextCache` rebinds those two names so that each
context is built once, in set-up, and every later call gets the same object,
as one long-running caller would keep it.

Every record is checked: an operation (one record) fails when its criterion
check fails, which includes a non-optimal solve status, or when it misses
the stored reference values at the default seed.  A failure only counts
against correctness when the value itself is out of tolerance; a failure
whose value is within tolerance but whose solver did not certify optimality
is reported, not treated as a wrong answer.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass
from pathlib import Path

from tracing import Patch

DEFAULT_SEED = 2026            # the acceptance seed
REFERENCE_FILE = Path(__file__).with_name("references.json")
REFERENCE_TOL = 1e-5           # acceptance tolerance of Delta and duality values
CHAINING_SLACK_TOL = -2e-7     # acceptance tolerance of the chaining slack

CHAINING_GROUPS = ("Z2", "Z3", "Z4", "S3")
CHAINING_QUADRUPLES = 3        # per group and pass
STABILITY_GROUPS = ("Z2", "Z3")
# Split evenly over the groups.  Two passes give 100 solves, so that ten lie
# above p90.
STABILITY_TRIALS = 24
# Unrestricted (generic) trials per group.  None on Z3: its unrestricted
# context takes 8 s to build and its one solve 18 s, more than a run can hold.
STABILITY_GENERAL = (2, 0)
STABILITY_AUDIT = 10
SMALL_SUITES = ("cp-characterization", "embedding", "flip", "adjoints",
                "kasparov", "contraction", "duality", "mk-correctness",
                "metric-axioms")


class ContextCache:
    """Builds each experiments context once; later calls with the same
    arguments return the same object."""

    NAMES = ("group_context", "stability_context")

    def __init__(self, experiments):
        self._built = {}
        self.patch = Patch({getattr(experiments, name): self._cached(getattr(experiments, name))
                            for name in self.NAMES})

    def _cached(self, build):
        signature = inspect.signature(build)
        built = self._built

        def cached(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = (build.__name__,) + tuple(bound.arguments.values())
            try:
                hash(key)
            except TypeError:           # array arguments: not cacheable
                return build(*args, **kwargs)
            if key not in built:
                built[key] = build(*args, **kwargs)
            return built[key]

        cached.__name__ = build.__name__
        return cached


@dataclass(frozen=True)
class Workload:
    name: str
    contexts: tuple             # (experiments function name, args, kwargs)
    warmup: object              # (experiments, seed) -> records
    run_pass: object            # (experiments, seed) -> records
    unit: str                   # what one pass is, for the report


def _chaining_pass(exp, seed, quadruples=CHAINING_QUADRUPLES):
    return exp.run_chaining(seed, quadruples=quadruples, groups=CHAINING_GROUPS)


def _stability_pass(exp, seed, trials=STABILITY_TRIALS,
                    general=STABILITY_GENERAL, audit=STABILITY_AUDIT):
    return exp.run_stability(seed, trials=trials, groups=STABILITY_GROUPS,
                             general_trials=general, audit_samples=audit)


def _small_pass(exp, seed):
    suites = dict(exp.ACCEPTANCE_SUITES)
    return [r for name in SMALL_SUITES for r in suites[name](seed)]


def _small_warmup(exp, seed):
    """Every suite of the pass once, at its smallest size."""
    return (exp.run_cp_characterization(seed, trials=3) + exp.run_embedding(seed, trials=4)
            + exp.run_flip(seed, trials=3) + exp.run_adjoints(seed, trials=4)
            + exp.run_kasparov(seed, samples=4) + exp.run_contraction(seed, pairs=4)
            + exp.run_duality(seed, trials=5) + exp.run_mk_correctness(seed)
            + exp.run_metric_axioms(seed, triples=2))


WORKLOADS = {
    "chaining": Workload(
        "chaining",
        tuple(("group_context", (key,), {}) for key in CHAINING_GROUPS),
        lambda exp, seed: _chaining_pass(exp, seed, quadruples=1),
        _chaining_pass,
        f"{CHAINING_QUADRUPLES} quadruples on each of {', '.join(CHAINING_GROUPS)}"),
    "stability": Workload(
        "stability",
        (("stability_context", ("Z2",), {"n": 2}),
         ("stability_context", ("Z2",), {"n": 2, "restrict": False}),
         ("stability_context", ("Z3",), {"n": 2})),
        lambda exp, seed: _stability_pass(exp, seed, trials=1, general=(0, 0), audit=1),
        _stability_pass,
        f"{STABILITY_TRIALS} amplified n=2 trials on {', '.join(STABILITY_GROUPS)}"),
    "small-suites": Workload(
        "small-suites",
        (("group_context", ("Z3",), {}),),
        _small_warmup,
        _small_pass,
        "the nine small acceptance suites at acceptance sizes"),
}


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def record_tuple(r):
    return (r.experiment, r.trial, r.seed, r.lhs, r.rhs, r.slack, r.status, bool(r.ok))


def _slack_floor(experiment):
    return CHAINING_SLACK_TOL if experiment == "chaining" else 0.0


def value_failure(r) -> bool:
    """A failed record whose value is out of tolerance.  Records encode
    their check in `slack` (tolerance minus error, or a -1 / -violations
    flag), so a failed record with slack inside tolerance failed on solver
    status alone."""
    return not r.ok and not r.slack >= _slack_floor(r.experiment)


def load_references():
    return json.loads(REFERENCE_FILE.read_text())


def _close(a, b):
    if a is None or b is None:
        return a is b
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REFERENCE_TOL


def _as_number(x):
    return "inf" if isinstance(x, float) and math.isinf(x) else x


def _from_number(x):
    return math.inf if x == "inf" else x


def reference_rows(records):
    return [[r.experiment, r.trial, _as_number(r.lhs), _as_number(r.rhs)] for r in records]


def reference_misses(records, rows):
    """Indices of records that disagree with the stored reference rows."""
    if len(records) != len(rows):
        return list(range(len(records)))
    return [i for i, (r, row) in enumerate(zip(records, rows))
            if [r.experiment, r.trial] != row[:2]
            or not _close(r.lhs, _from_number(row[2]))
            or not _close(r.rhs, _from_number(row[3]))]

"""Command-line interface.

Verbs: validate, choi, omega, classify, mk, delta, dl, wasserstein,
kasparov, group-gen, stability, chaining, embedding, run-all.  Each verb
takes only the flags it reads (`choimetric <verb> --help`).  File formats
are documented in the io module and the README.  Results are printed as JSON
records {value | "inf", status, gap}, with the seed on `dl`; the suite verbs
(stability, chaining, embedding, run-all) run acceptance suites and write
CSV with --out.  Input errors print `error: ...` and exit 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial

import numpy as np

from . import experiments, io, sdp
from .channels import (
    choi_matrix,
    is_completely_positive,
    is_trace_channel,
    is_trace_preserving,
    is_unital,
    omega_tau,
)
from .errors import ChoimetricError
from .geometry import CommutatorSeminorm, kasparov_product
from .groups import (
    cyclic_group,
    dihedral_group,
    direct_product,
    klein_twist_cocycle,
    multiplier_channel,
    symmetric_group_3,
    word_length,
)
from .metrics import (
    delta_distance,
    dl_distance,
    dl_stabilized,
    mk_between,
    prepare_ball,
    wasserstein_dual,
)


def _registry(paths):
    registry = {}
    for path in paths or ():
        alg = io.algebra_from_dict(io.load_json(path))
        if not alg.name:
            raise ChoimetricError(f"{path}: algebra file needs a name")
        registry[alg.name] = alg
    return registry


def _result_json(value, status, gap, **extra):
    return json.dumps({"value": "inf" if math.isinf(value) else value,
                       "status": status, "gap": gap, **extra})


def cmd_validate(args):
    kind = args.kind
    if args.group is not None and kind != "pdf":
        raise ChoimetricError(f"--kind {kind} does not read --group")
    data = io.load_json(args.file)
    registry = _registry(args.algebras)
    if kind == "algebra":
        alg = io.algebra_from_dict(data)
        print(f"valid algebra: dim {alg.dim} in M_{alg.ambient_dim}")
    elif kind == "functional":
        phi = io.functional_from_dict(data, registry)
        print(f"valid functional; positive={phi.is_positive()} state={phi.is_state()}")
    elif kind == "trace":
        tau = io.trace_from_dict(data, registry)
        print(f"valid trace; faithful={tau.faithful}")
    elif kind == "channel":
        io.channel_from_dict(data, registry)
        print("valid channel file")
    elif kind == "triple":
        io.triple_from_dict(data, registry)
        print("valid spectral triple")
    elif kind == "group":
        group, cocycle, length = io.group_from_dict(data)
        bits = [f"valid group of order {group.order}"]
        if cocycle is not None:
            bits.append("with cocycle")
        if length is not None:
            bits.append("with length function")
        print(" ".join(bits))
    elif kind == "pdf":
        if not args.group:
            raise ChoimetricError("validating a pdf file needs --group")
        group, _, _ = io.group_from_dict(io.load_json(args.group))
        io.pdf_from_dict(data, group)
        print("valid positive definite function")
    return 0


def cmd_choi(args):
    registry = _registry(args.algebras)
    ch = io.channel_from_dict(io.load_json(args.channel), registry)
    c = choi_matrix(ch)
    out = {"choi": io.matrix_to_json(c),
           "eigenvalues": [float(v) for v in np.linalg.eigvalsh(c)]}
    if args.out:
        io.save_json(out, args.out)
    else:
        print(json.dumps(out["eigenvalues"]))
    return 0


def cmd_omega(args):
    registry = _registry(args.algebras)
    ch = io.channel_from_dict(io.load_json(args.channel), registry)
    tau = io.trace_from_dict(io.load_json(args.trace), registry)
    om = omega_tau(ch, tau)
    out = {"values": io.vector_to_json(om.values),
           "positive": om.is_positive(), "state": om.is_state()}
    if args.out:
        io.save_json(out, args.out)
    else:
        print(json.dumps({"positive": out["positive"], "state": out["state"]}))
    return 0


def cmd_classify(args):
    registry = _registry(args.algebras)
    ch = io.channel_from_dict(io.load_json(args.channel), registry)
    tau = io.trace_from_dict(io.load_json(args.trace), registry)
    verdict = is_completely_positive(ch, tau)
    out = {
        "cp": verdict.is_cp,
        "min_gram_eigenvalue": verdict.min_eigenvalue,
        "trace_channel": is_trace_channel(ch, tau),
        "unital": is_unital(ch),
    }
    if args.trace_source:
        tau_src = io.trace_from_dict(io.load_json(args.trace_source), registry)
        out["trace_preserving"] = is_trace_preserving(ch, tau_src, tau)
    print(json.dumps(out))
    return 0


def cmd_mk(args):
    registry = _registry(args.algebras)
    triple = io.triple_from_dict(io.load_json(args.triple), registry)
    phi = io.functional_from_dict(io.load_json(args.phi), registry)
    psi = io.functional_from_dict(io.load_json(args.psi), registry)
    res = mk_between(phi, psi, prepare_ball(CommutatorSeminorm(triple)),
                     tolerance=args.tolerance, max_iter=args.max_iter)
    print(_result_json(res.value, res.status, res.dual_gap))
    return 0 if res.status in ("optimal", "infinite") else 1


def cmd_delta(args):
    group, cocycle, length = io.group_from_dict(io.load_json(args.group))
    phi = io.pdf_from_dict(io.load_json(args.pdf), group)
    psi = io.pdf_from_dict(io.load_json(args.pdf2), group)
    ctx = experiments.build_group_context(group, cocycle, length)
    res = delta_distance(multiplier_channel(phi, ctx.ga),
                         multiplier_channel(psi, ctx.ga), ctx.tau, ctx.ball,
                         tolerance=args.tolerance)
    print(_result_json(res.value, res.status, res.dual_gap))
    return 0 if res.status in ("optimal", "infinite") else 1


def cmd_dl(args):
    registry = _registry(args.algebras)
    f = io.channel_from_dict(io.load_json(args.channel), registry)
    g = io.channel_from_dict(io.load_json(args.channel2), registry)
    if args.m_max and args.triple:
        raise ChoimetricError("dl takes either --triple or --m-max, not both")
    if args.m_max:
        value, per_m = dl_stabilized(f, g, args.m_max, starts=args.starts,
                                     seed=args.seed, tolerance=args.tolerance)
        print(json.dumps({"value": value, "per_m": per_m, "status": "lower_bound",
                          "seed": args.seed}))
        return 0
    if not args.triple:
        raise ChoimetricError("dl needs either --triple or --m-max")
    triple = io.triple_from_dict(io.load_json(args.triple), registry)
    res = dl_distance(f, g, prepare_ball(CommutatorSeminorm(triple)),
                      starts=args.starts, seed=args.seed, tolerance=args.tolerance)
    print(_result_json(res.value, res.status, 0.0, seed=args.seed,
                       converged=res.converged))
    return 0 if res.status in ("optimal", "infinite") else 1


def cmd_wasserstein(args):
    ls, rho1, rho2 = io.problem_from_dict(io.load_json(args.problem))
    try:
        res = wasserstein_dual(rho1, rho2, ls, tol=args.tolerance)
    except ChoimetricError as exc:
        print(_result_json(math.inf, "infeasible", 0.0, reason=str(exc)))
        return 0
    print(_result_json(res.value, res.status, res.gap))
    return 0 if res.status == "optimal" else 1


def cmd_kasparov(args):
    registry = _registry(args.algebras)
    ta = io.triple_from_dict(io.load_json(args.triple), registry)
    tb = io.triple_from_dict(io.load_json(args.triple2), registry)
    product = kasparov_product(ta, tb)
    # the product's algebra is shared with other callers: name the copies
    name = args.name or product.algebra.name
    out = {"algebra": {**io.algebra_to_dict(product.algebra), "name": name},
           "triple": {**io.triple_to_dict(product), "algebra": name}}
    if args.out:
        io.save_json(out, args.out)
    print(json.dumps({"hilbert_dim": product.hilbert_dim,
                      "even": product.even}))
    return 0


# the order flags each group kind reads
_ORDERS = {"cyclic": ("n",), "dihedral": ("n",), "product": ("n", "m")}


def cmd_group_gen(args):
    reads = _ORDERS.get(args.kind, ())
    for flag in ("n", "m"):
        if getattr(args, flag) is not None and flag not in reads:
            raise ChoimetricError(f"--kind {args.kind} does not read --{flag}")
    n = 2 if args.n is None else args.n
    m = 2 if args.m is None else args.m
    if args.kind == "cyclic":
        group = cyclic_group(n)
    elif args.kind == "dihedral":
        group = dihedral_group(n)
    elif args.kind == "symmetric3":
        group = symmetric_group_3()
    elif args.kind == "product":
        group = direct_product(cyclic_group(n), cyclic_group(m))
    elif args.kind == "klein-twisted":
        group = direct_product(cyclic_group(2), cyclic_group(2))
    else:
        raise ChoimetricError(f"unknown group kind {args.kind}")
    cocycle = klein_twist_cocycle(group) if args.kind == "klein-twisted" else None
    length = word_length(group)
    data = io.group_to_dict(group, cocycle, length)
    if args.out:
        io.save_json(data, args.out)
    else:
        print(json.dumps(data))
    return 0


def _report(records, out):
    if out:
        experiments.emit_report(records, out)
    passed = sum(r.ok for r in records)
    print(f"{passed}/{len(records)} records passed")
    return 0 if passed == len(records) else 1


def cmd_suite(args):
    """One acceptance suite at its acceptance size, or at --trials."""
    suite = dict(experiments.ACCEPTANCE_SUITES)[args.verb]
    if args.trials < 0:
        raise ChoimetricError(f"--trials {args.trials}: give a positive suite size, "
                              "or 0 for the acceptance size")
    if args.trials:
        (size,) = suite.keywords
        suite = partial(suite, **{size: args.trials})
    return _report(suite(args.seed), args.out)


def cmd_run_all(args):
    return _report(experiments.run_all(args.seed), args.out)


# Flags shared by several verbs; each verb names the ones it reads.
FLAGS = {
    "--seed": {"type": int, "default": 0},
    "--trials": {"type": int, "default": 0,
                 "help": "suite size (default: the acceptance size)"},
    "--tolerance": {"type": float, "default": 1e-7},
    "--max-iter": {"type": int, "default": sdp.MAX_ITER},
    "--out": {"default": None},
    "--m-max": {"type": int, "default": 0},
    "--algebras": {"nargs": "*", "default": [],
                   "help": "algebra JSON files for name resolution"},
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="choimetric",
        description="Distances between completely positive maps via "
                    "Choi-Jamiolkowski functionals and spectral-triple seminorms")
    sub = p.add_subparsers(dest="verb", required=True)

    def verb(name, fn, help, flags):
        sp = sub.add_parser(name, help=help)
        for flag in flags:
            sp.add_argument(flag, **FLAGS[flag])
        sp.set_defaults(fn=fn)
        return sp

    sp = verb("validate", cmd_validate, "validate an input file", ["--algebras"])
    sp.add_argument("file")
    sp.add_argument("--kind", required=True,
                    choices=["algebra", "functional", "trace", "channel",
                             "triple", "group", "pdf"])
    sp.add_argument("--group", default=None, help="group file (for --kind pdf)")

    sp = verb("choi", cmd_choi, "Choi matrix of a channel", ["--out", "--algebras"])
    sp.add_argument("--channel", required=True)

    sp = verb("omega", cmd_omega, "associated functional of a channel",
              ["--out", "--algebras"])
    sp.add_argument("--channel", required=True)
    sp.add_argument("--trace", required=True)

    sp = verb("classify", cmd_classify, "CP / trace-channel / unital flags",
              ["--algebras"])
    sp.add_argument("--channel", required=True)
    sp.add_argument("--trace", required=True)
    sp.add_argument("--trace-source", default=None)

    sp = verb("mk", cmd_mk, "Monge-Kantorovich distance between functionals",
              ["--tolerance", "--max-iter", "--algebras"])
    sp.add_argument("--triple", required=True)
    sp.add_argument("--phi", required=True)
    sp.add_argument("--psi", required=True)

    sp = verb("delta", cmd_delta, "Delta distance between group multipliers",
              ["--tolerance"])
    sp.add_argument("--group", required=True)
    sp.add_argument("--pdf", required=True)
    sp.add_argument("--pdf2", required=True)

    sp = verb("dl", cmd_dl, "D_L distance between unital CP maps",
              ["--seed", "--tolerance", "--m-max", "--algebras"])
    sp.add_argument("--channel", required=True)
    sp.add_argument("--channel2", required=True)
    sp.add_argument("--triple", default=None)
    sp.add_argument("--starts", type=int, default=8)

    sp = verb("wasserstein", cmd_wasserstein, "trace-norm dual distance",
              ["--tolerance"])
    sp.add_argument("--problem", required=True,
                    help='JSON file {"l_matrices": [...], "rho1": ..., "rho2": ...}')

    sp = verb("kasparov", cmd_kasparov, "exterior product of two triples",
              ["--out", "--algebras"])
    sp.add_argument("--triple", required=True)
    sp.add_argument("--triple2", required=True)
    sp.add_argument("--name", default=None)

    sp = verb("group-gen", cmd_group_gen, "generate a builtin group file", ["--out"])
    sp.add_argument("--kind", required=True,
                    choices=["cyclic", "dihedral", "symmetric3", "product",
                             "klein-twisted"])
    sp.add_argument("--n", type=int, default=None,
                    help="order (cyclic, dihedral, product; default 2)")
    sp.add_argument("--m", type=int, default=None,
                    help="order of the second factor (product; default 2)")

    for name in ("stability", "chaining", "embedding"):
        verb(name, cmd_suite, f"run the {name} acceptance suite",
             ["--seed", "--trials", "--out"])
    verb("run-all", cmd_run_all, "run every acceptance suite", ["--seed", "--out"])
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # SeedSequence and default_rng take no negative seed
        if getattr(args, "seed", 0) < 0:
            raise ChoimetricError(f"--seed {args.seed}: give a non-negative seed")
        # every relative gap, that of the starting point too, is below 1, and
        # no gap reaches 0 or nan
        if not 0 < getattr(args, "tolerance", 1e-7) < 1:
            raise ChoimetricError(f"--tolerance {args.tolerance}: give a relative "
                                  "gap in (0, 1)")
        if getattr(args, "max_iter", 1) < 1:
            raise ChoimetricError(f"--max-iter {args.max_iter}: give at least one "
                                  "iteration")
        return args.fn(args)
    except ChoimetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

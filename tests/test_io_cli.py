import json
import math

import numpy as np
import pytest

from choimetric import (
    CommutatorSeminorm,
    canonical_trace,
    cyclic_group,
    delta_distance,
    identity_channel,
    io,
    kasparov_product,
    multiplier_channel,
    prepare_ball,
    word_length,
)
from choimetric import cli
from choimetric.cli import main
from choimetric.errors import ChoimetricError
from choimetric.experiments import length_dirac, length_dirac_op
from choimetric.groups import twisted_group_algebra
from choimetric.metrics import DLResult


def functional_to_dict(phi) -> dict:
    return {"algebra": phi.algebra.name, "values": io.vector_to_json(phi.values)}


def channel_to_dict(ch) -> dict:
    return {"source": ch.source.name, "target": ch.target.name,
            "matrix": io.matrix_to_json(ch.matrix)}


def write(tmp_path, name, data):
    path = tmp_path / name
    io.save_json(data, str(path))
    return str(path)


def test_algebra_round_trip(tmp_path, m2):
    assert m2.name == "M2"
    path = write(tmp_path, "m2.json", io.algebra_to_dict(m2))
    back = io.algebra_from_dict(io.load_json(path))
    assert np.abs(back.basis - m2.basis).max() < 1e-12
    assert back.name == "M2"


def test_functional_and_channel_round_trip(tmp_path, m2, tr2):
    assert m2.name == "M2"
    registry = {"M2": m2}
    tau_path = write(tmp_path, "tr.json", functional_to_dict(tr2))
    tau = io.trace_from_dict(io.load_json(tau_path), registry)
    assert np.abs(tau.values - tr2.values).max() < 1e-12
    ch_path = write(tmp_path, "id.json", channel_to_dict(identity_channel(m2)))
    ch = io.channel_from_dict(io.load_json(ch_path), registry)
    assert np.abs(ch.matrix - np.eye(4)).max() == 0


def test_group_file_round_trip(tmp_path):
    g = cyclic_group(3)
    length = word_length(g)
    path = write(tmp_path, "z3.json", io.group_to_dict(g, None, length))
    back, cocycle, back_length = io.group_from_dict(io.load_json(path))
    assert back.order == 3 and cocycle is None
    assert np.allclose(back_length.values, length.values)


def test_triple_round_trip(tmp_path):
    ga = twisted_group_algebra(cyclic_group(2))
    ga.algebra.name = "Z2alg"
    t = length_dirac(ga, word_length(cyclic_group(2)))
    path = write(tmp_path, "t.json", io.triple_to_dict(t))
    back = io.triple_from_dict(io.load_json(path), {"Z2alg": ga.algebra})
    assert np.abs(back.dirac - t.dirac).max() < 1e-12


def test_malformed_json_fails_fast(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ChoimetricError):
        io.load_json(str(bad))


def test_cli_validate_and_classify(tmp_path, m2, tr2):
    assert m2.name == "M2"
    alg = write(tmp_path, "m2.json", io.algebra_to_dict(m2))
    tau = write(tmp_path, "tr.json", functional_to_dict(tr2))
    ch = write(tmp_path, "id.json", channel_to_dict(identity_channel(m2)))
    assert main(["validate", alg, "--kind", "algebra"]) == 0
    assert main(["validate", tau, "--kind", "trace", "--algebras", alg]) == 0
    assert main(["classify", "--channel", ch, "--trace", tau,
                 "--algebras", alg]) == 0


def test_cli_choi_and_omega(tmp_path, m2, tr2, capsys):
    assert m2.name == "M2"
    alg = write(tmp_path, "m2.json", io.algebra_to_dict(m2))
    tau = write(tmp_path, "tr.json", functional_to_dict(tr2))
    ch = write(tmp_path, "id.json", channel_to_dict(identity_channel(m2)))
    assert main(["choi", "--channel", ch, "--algebras", alg]) == 0
    eigs = json.loads(capsys.readouterr().out.strip())
    assert abs(max(eigs) - 2.0) < 1e-9
    assert main(["omega", "--channel", ch, "--trace", tau,
                 "--algebras", alg]) == 0
    rec = json.loads(capsys.readouterr().out.strip())
    assert rec["positive"] and not rec["state"]


def test_cli_group_gen_and_delta(tmp_path, capsys):
    gpath = str(tmp_path / "z2.json")
    assert main(["group-gen", "--kind", "cyclic", "--n", "2",
                 "--out", gpath]) == 0
    phi = write(tmp_path, "phi.json",
                {"group": "Z2", "values": [[1, 0], [0.8, 0]]})
    psi = write(tmp_path, "psi.json",
                {"group": "Z2", "values": [[1, 0], [0.2, 0]]})
    assert main(["delta", "--group", gpath, "--pdf", phi, "--pdf2", psi]) == 0
    rec = json.loads(capsys.readouterr().out.strip())
    assert rec["status"] == "optimal"
    assert rec["value"] > 0
    # the CLI solves on the pairs ab = e; the unrestricted
    # Kasparov seminorm gives the same value
    group, _, length = io.group_from_dict(io.load_json(gpath))
    ga = twisted_group_algebra(group)
    seminorm = CommutatorSeminorm(kasparov_product(length_dirac(ga, length),
                                                   length_dirac_op(ga, length)))
    pdfs = [io.pdf_from_dict(io.load_json(p), group) for p in (phi, psi)]
    full = delta_distance(*(multiplier_channel(p, ga) for p in pdfs),
                          canonical_trace(ga), prepare_ball(seminorm))
    assert full.status == "optimal"
    assert abs(rec["value"] - full.value) <= 1e-6


def test_cli_mk(tmp_path, capsys):
    ga = twisted_group_algebra(cyclic_group(2))
    ga.algebra.name = "Z2alg"
    alg = write(tmp_path, "alg.json", io.algebra_to_dict(ga.algebra))
    t = length_dirac(ga, word_length(cyclic_group(2)))
    tpath = write(tmp_path, "t.json", io.triple_to_dict(t))
    phi = write(tmp_path, "phi.json",
                {"algebra": "Z2alg", "values": [[1, 0], [0.5, 0]]})
    psi = write(tmp_path, "psi.json",
                {"algebra": "Z2alg", "values": [[1, 0], [-0.5, 0]]})
    assert main(["mk", "--triple", tpath, "--phi", phi, "--psi", psi,
                 "--algebras", alg]) == 0
    rec = json.loads(capsys.readouterr().out.strip())
    assert abs(rec["value"] - 1.0) < 1e-6
    assert "seed" not in rec


def test_cli_mk_rejects_a_psi_on_another_algebra(tmp_path, capsys, m2):
    ga = twisted_group_algebra(cyclic_group(2))
    ga.algebra.name = "Z2alg"
    algs = [write(tmp_path, "alg.json", io.algebra_to_dict(ga.algebra)),
            write(tmp_path, "m2.json", io.algebra_to_dict(m2))]
    t = length_dirac(ga, word_length(cyclic_group(2)))
    tpath = write(tmp_path, "t.json", io.triple_to_dict(t))
    phi = write(tmp_path, "phi.json",
                {"algebra": "Z2alg", "values": [[1, 0], [0.5, 0]]})
    psi = write(tmp_path, "psi.json",
                {"algebra": "M2", "values": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]})
    assert main(["mk", "--triple", tpath, "--phi", phi, "--psi", psi,
                 "--algebras", *algs]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_wasserstein(tmp_path, capsys):
    prob = write(tmp_path, "w.json", {
        "l_matrices": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]],
        "rho1": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
        "rho2": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
    })
    assert main(["wasserstein", "--problem", prob]) == 0
    rec = json.loads(capsys.readouterr().out.strip())
    assert abs(rec["value"] - 1.0) < 1e-6


def test_cli_kasparov(tmp_path, capsys):
    ga = twisted_group_algebra(cyclic_group(2))
    ga.algebra.name = "Z2alg"
    alg = write(tmp_path, "alg.json", io.algebra_to_dict(ga.algebra))
    t = length_dirac(ga, word_length(cyclic_group(2)))
    tpath = write(tmp_path, "t.json", io.triple_to_dict(t))
    out = str(tmp_path / "prod.json")
    assert main(["kasparov", "--triple", tpath, "--triple2", tpath,
                 "--algebras", alg, "--out", out, "--name", "P"]) == 0
    rec = json.loads(capsys.readouterr().out.strip())
    assert rec["hilbert_dim"] == 8 and rec["even"]
    data = io.load_json(out)
    assert data["algebra"]["name"] == data["triple"]["algebra"] == "P"
    registry = {"P": io.algebra_from_dict(data["algebra"])}
    assert io.triple_from_dict(data["triple"], registry).hilbert_dim == 8


def test_cli_missing_file_is_an_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json"),
                 "--kind", "algebra"]) == 1


def test_cli_bad_input_file_is_an_error(tmp_path, capsys):
    gpath = str(tmp_path / "z2.json")
    assert main(["group-gen", "--kind", "cyclic", "--n", "2",
                 "--out", gpath]) == 0
    bad = write(tmp_path, "bad.json",
                {"group": "Z2", "values": [[1, 0], [0.5, 0], [0.2, 0]]})
    assert main(["validate", bad, "--kind", "pdf", "--group", gpath]) == 1
    assert capsys.readouterr().err.startswith("error:")


Z3_TABLE = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
# the trivial cocycle on Z3 with one entry NaN
Z3_NAN_COCYCLE = [[[1, 0]] * 3, [[1, 0]] * 3, [[1, 0], [1, 0], [math.nan, 0]]]
DIAG2_BASIS = [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
               [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]


@pytest.mark.parametrize("kind, data", [
    ("pdf", {"group": "Z2"}),
    ("pdf", {"group": "Z2", "values": [[1, 0], ["a", 0]]}),
    ("group", {"order": 2, "identity": 0}),
    ("group", {"mult_table": [[0, 1], [1, "a"]], "identity": 0}),
    ("group", {"mult_table": [[0, 1], [1, 0]], "identity": [0, 1]}),
    ("group", {"mult_table": [[0, 1], [1, 0]], "identity": 5}),
    ("group", {"mult_table": [[0, 1], [1, 0]], "identity": 0, "generators": [5]}),
    ("group", {"mult_table": [[0, 1], [1, 0]], "identity": 0, "generators": ["a"]}),
    ("group", {"mult_table": [[0, 1], [1, 0]], "identity": 0, "generators": [0.5]}),
    ("group", {"mult_table": [[0, 1], [1, 0]], "identity": 0, "generators": [-1]}),
    # integer fields and table entries that are not integers, and an order
    # that is not the table's, which a float, a bool or a mismatch must not
    # pass truncated or unread
    ("group", {"mult_table": Z3_TABLE, "identity": 0.7}),
    ("group", {"mult_table": Z3_TABLE, "identity": False}),
    ("group", {"mult_table": Z3_TABLE, "identity": 0, "order": 5}),
    ("group", {"mult_table": Z3_TABLE, "identity": 0, "order": "x"}),
    ("group", {"mult_table": Z3_TABLE, "identity": 0, "order": 3.0}),
    ("group", {"mult_table": [[0, 1], [1, 0.7]], "identity": 0}),
    ("group", {"mult_table": [[0, 1], [1, False]], "identity": 0}),
    ("algebra", {"ambient_dim": 2.9, "basis": DIAG2_BASIS, "name": "diag2"}),
    ("triple", {"algebra": "diag2", "hilbert_dim": 2.5, "rep": DIAG2_BASIS,
                "dirac": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]], "grading": None}),
    # a grading whose shape is not the Dirac's: 3 x 3 does not broadcast
    # against it, 1 x 1 does
    ("triple", {"algebra": "diag2", "hilbert_dim": 2, "rep": DIAG2_BASIS,
                "dirac": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
                "grading": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [-1, 0], [0, 0]],
                            [[0, 0], [0, 0], [1, 0]]]}),
    ("triple", {"algebra": "diag2", "hilbert_dim": 2, "rep": DIAG2_BASIS,
                "dirac": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]], "grading": [[[1, 0]]]}),
    ("pdf", {"group": "Z2", "values": 5}),
    ("channel", {"source": "diag2", "target": "diag2"}),
    ("algebra", {"ambient_dim": 2, "name": "diag2"}),
    ("functional", {"algebra": "diag2"}),
    ("problem", {"rho1": [[[1, 0]]], "rho2": [[[1, 0]]]}),
    ("problem", {"l_matrices": [[[[1, 0]]]], "rho1": [], "rho2": [[[1, 0]]]}),
    ("problem", {"l_matrices": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]],
                 "rho1": [[[1, 0], [1, 0]], [[-1, 0], [0, 0]]],
                 "rho2": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}),
    ("problem", {"l_matrices": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]],
                 "rho1": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                 "rho2": [[[0, 0], [0, 1]], [[0, 1], [1, 0]]]}),
    # numbers that are not finite: NaN and Infinity, which Python's json
    # reads, a float beyond the float range, which it reads as inf, and an
    # integer beyond it (the last three written as raw JSON text)
    ("group", {"mult_table": Z3_TABLE, "identity": 0, "cocycle": Z3_NAN_COCYCLE,
               "length": [0, 1, 1]}),
    ("group", {"mult_table": Z3_TABLE, "identity": 0, "length": [0, math.inf, math.inf]}),
    pytest.param("group", '{"mult_table": %s, "identity": 0, "length": [0, 1e400, 1e400]}'
                 % Z3_TABLE, id="group-length-1e400"),
    pytest.param("group", '{"mult_table": %s, "identity": 0, "length": [0, %d, %d]}'
                 % (Z3_TABLE, 10 ** 400, 10 ** 400), id="group-length-10**400"),
    ("pdf", {"group": "Z2", "values": [[math.nan, 0], [0, 0]]}),
    pytest.param("pdf", '{"group": "Z2", "values": [[1e400, 0], [0, 0]]}', id="pdf-1e400"),
    pytest.param("pdf", '{"group": "Z2", "values": [[%d, 0], [0, 0]]}' % 10 ** 400,
                 id="pdf-10**400"),
])
def test_cli_malformed_input_file_is_an_error(tmp_path, capsys, kind, data):
    # a missing key, a value of the wrong type or shape, a non-numeric or
    # non-finite entry or a rho that is not Hermitian is an input error, not
    # a traceback or a solve of its Hermitian part
    from choimetric import diagonal_algebra
    gpath = str(tmp_path / "z2.json")
    assert main(["group-gen", "--kind", "cyclic", "--n", "2",
                 "--out", gpath]) == 0
    d2 = diagonal_algebra(2)
    assert d2.name == "diag2"
    alg = write(tmp_path, "d2.json", io.algebra_to_dict(d2))
    if isinstance(data, str):
        bad = str(tmp_path / "bad.json")
        (tmp_path / "bad.json").write_text(data)
    else:
        bad = write(tmp_path, "bad.json", data)
    if kind == "problem":
        argv = ["wasserstein", "--problem", bad]
    else:
        argv = ["validate", bad, "--kind", kind, "--algebras", alg]
        if kind == "pdf":
            argv += ["--group", gpath]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["run-all", "--trials", "3"],
    ["delta", "--group", "g.json", "--pdf", "p.json", "--pdf2", "q.json",
     "--max-iter", "5"],
    ["mk", "--triple", "t.json", "--phi", "p.json", "--psi", "q.json", "--seed", "1"],
])
def test_cli_rejects_flags_the_verb_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    # a negative suite size, which would reach SeedSequence.spawn
    ["chaining", "--trials", "-2"],
    ["stability", "--trials", "-2"],
    ["embedding", "--trials", "-2"],
    # a group of order 0, whose empty table has no entry to range-check
    ["group-gen", "--kind", "cyclic", "--n", "0"],
    ["group-gen", "--kind", "product", "--n", "0"],
    # a negative seed, which SeedSequence and default_rng reject
    ["embedding", "--seed", "-1"],
    ["chaining", "--seed", "-1"],
    ["stability", "--seed", "-1"],
    ["run-all", "--seed", "-1"],
])
def test_cli_out_of_range_size_is_an_error(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["group-gen", "--kind", "symmetric3", "--n", "5"],
    ["group-gen", "--kind", "symmetric3", "--n", "5", "--m", "9"],
    ["group-gen", "--kind", "klein-twisted", "--m", "3"],
    ["group-gen", "--kind", "cyclic", "--n", "3", "--m", "9"],
    ["group-gen", "--kind", "dihedral", "--m", "3"],
])
def test_cli_group_gen_rejects_an_order_its_kind_does_not_read(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "does not read" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kind, n, m, order", [
    ("cyclic", None, None, 2), ("cyclic", 5, None, 5), ("dihedral", None, None, 4),
    ("product", None, None, 4), ("product", 3, None, 6), ("product", 2, 3, 6),
    ("symmetric3", None, None, 6), ("klein-twisted", None, None, 4),
])
def test_cli_group_gen_reads_the_orders_of_its_kind(kind, n, m, order, capsys):
    argv = ["group-gen", "--kind", kind]
    argv += ["--n", str(n)] if n is not None else []
    argv += ["--m", str(m)] if m is not None else []
    assert main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)["mult_table"]) == order


@pytest.mark.parametrize("kind", ["group", "algebra", "triple"])
def test_cli_validate_rejects_a_group_file_outside_kind_pdf(tmp_path, capsys, kind):
    gpath = str(tmp_path / "z2.json")
    assert main(["group-gen", "--kind", "cyclic", "--out", gpath]) == 0
    assert main(["validate", gpath, "--kind", kind, "--group", gpath]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "does not read --group" in captured.err
    assert captured.out == ""


_SOLVE_ARGV = {
    "delta": ["delta", "--group", "g.json", "--pdf", "p.json", "--pdf2", "q.json"],
    "mk": ["mk", "--triple", "t.json", "--phi", "p.json", "--psi", "q.json"],
    "wasserstein": ["wasserstein", "--problem", "w.json"],
    "dl": ["dl", "--channel", "f.json", "--channel2", "g.json", "--m-max", "2"],
}


@pytest.mark.parametrize("verb, bad", [
    # every relative gap is below 1, so a tolerance of 1 or more (inf too)
    # passes at the starting point; 0 or nan is never reached
    ("delta", ["--tolerance", "1"]),
    ("delta", ["--tolerance", "0"]),
    ("mk", ["--tolerance", "inf"]),
    ("mk", ["--tolerance", "nan"]),
    ("mk", ["--tolerance=-1e-7"]),
    ("wasserstein", ["--tolerance", "inf"]),
    ("dl", ["--tolerance", "2"]),
    # a solve of no iteration
    ("mk", ["--max-iter", "0"]),
    ("mk", ["--max-iter", "-3"]),
])
def test_cli_solver_flags_outside_their_range_are_an_error(capsys, verb, bad):
    # the flag is rejected before any input file is read
    assert main(_SOLVE_ARGV[verb] + bad) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: " + bad[0].split("=")[0]) and out.out == ""


def _dl_files(tmp_path):
    """Two unital CP maps on diag(2), the triple and the algebra file."""
    from choimetric import ChannelMap, diagonal_algebra
    d2 = diagonal_algebra(2)
    assert d2.name == "diag2"
    alg = write(tmp_path, "d2.json", io.algebra_to_dict(d2))
    f = write(tmp_path, "f.json", channel_to_dict(ChannelMap(
        d2, d2, np.array([[0.7, 0.3], [0.3, 0.7]], dtype=complex))))
    g = write(tmp_path, "g.json", channel_to_dict(ChannelMap(
        d2, d2, np.array([[0.2, 0.8], [0.8, 0.2]], dtype=complex))))
    x = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    t = write(tmp_path, "t.json", {"algebra": "diag2", "hilbert_dim": 2,
                                   "rep": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                                           [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]],
                                   "dirac": x, "grading": None})
    return f, g, t, alg


def test_cli_dl(tmp_path, capsys):
    f, g, t, alg = _dl_files(tmp_path)
    assert main(["dl", "--channel", f, "--channel2", g, "--triple", t,
                 "--algebras", alg, "--starts", "4"]) == 0
    rec = json.loads(capsys.readouterr().out.strip())
    assert rec["value"] > 0
    # stabilized path with the operator-norm family
    assert main(["dl", "--channel", f, "--channel2", g, "--algebras", alg,
                 "--m-max", "2", "--starts", "2"]) == 0
    rec2 = json.loads(capsys.readouterr().out.strip())
    assert rec2["status"] == "lower_bound" and len(rec2["per_m"]) == 2


def test_cli_dl_rejects_a_negative_seed(tmp_path, capsys):
    f, g, t, alg = _dl_files(tmp_path)
    for path in (["--triple", t], ["--m-max", "2"]):
        assert main(["dl", "--channel", f, "--channel2", g, *path,
                     "--algebras", alg, "--starts", "2", "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("bad", [["--m-max", "-1"],
                                 ["--m-max", "2", "--starts", "0"],
                                 ["--m-max", "2", "--starts", "-5"],
                                 ["--starts", "0"],
                                 ["--starts", "-5"]])
def test_cli_dl_rejects_no_starts_and_no_levels(tmp_path, capsys, bad):
    # neither a silent single start nor an empty maximum
    f, g, t, alg = _dl_files(tmp_path)
    path = [] if "--m-max" in bad else ["--triple", t]
    assert main(["dl", "--channel", f, "--channel2", g, *path,
                 "--algebras", alg, *bad]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_dl_rejects_a_triple_next_to_m_max(tmp_path, capsys):
    # the stabilized path reads no triple; a file that is not a triple
    # must not pass without a word either
    f, g, t, alg = _dl_files(tmp_path)
    for triple in (t, f):
        assert main(["dl", "--channel", f, "--channel2", g, "--triple", triple,
                     "--algebras", alg, "--m-max", "2", "--starts", "2"]) == 1
        assert capsys.readouterr().err.startswith("error:")


def test_cli_dl_nonconvergence_exits_1(tmp_path, capsys, monkeypatch):
    f, g, t, alg = _dl_files(tmp_path)
    monkeypatch.setattr(cli, "dl_distance", lambda *a, **k: DLResult(
        0.5, False, "heuristic_nonconvergence"))
    assert main(["dl", "--channel", f, "--channel2", g, "--triple", t,
                 "--algebras", alg]) == 1
    rec = json.loads(capsys.readouterr().out.strip())
    assert rec["status"] == "heuristic_nonconvergence"
    assert rec["converged"] is False

import csv

import choimetric.experiments as E
from choimetric.cli import main


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

"""Command-line interface: flows, CSV schema, exit codes."""

import csv
import io

import mafkit as mk
from mafkit import cli
from mafkit.cli import CSV_FIELDS, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_deterministic(tmp_path, capsys):
    f1 = tmp_path / "a.nwk"
    f2 = tmp_path / "b.nwk"
    assert main(["gen", "-n", "6", "-m", "2", "-x", "1", "--seed", "7", "--out", str(f1)]) == 0
    assert main(["gen", "-n", "6", "-m", "2", "-x", "1", "--seed", "7", "--out", str(f2)]) == 0
    assert f1.read_text() == f2.read_text()
    assert f1.read_text().startswith("# spec n=6 m=2 x=1 seed=7")


def test_gen_x_zero_identical_trees(tmp_path):
    out = tmp_path / "i.nwk"
    main(["gen", "-n", "5", "-m", "2", "-x", "0", "--seed", "7", "--out", str(out)])
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert len(lines) == 2 and lines[0] == lines[1]


def test_pmaf_identical(tmp_path, capsys):
    p = tmp_path / "i.nwk"
    p.write_text("((a,b),c);\n((a,b),c);\n")
    code, out, _ = run(capsys, "pmaf", str(p), "--verify")
    assert code == 0
    assert out.splitlines()[0] == "order 1"
    assert "verified against 2 input trees" in out


def test_pmaf_conflicting_pair(tmp_path, capsys):
    p = tmp_path / "i.nwk"
    p.write_text("((a,b),c);\n((a,c),b);\n")
    code, out, _ = run(capsys, "pmaf", str(p), "--verify")
    assert code == 0
    assert out.splitlines()[0] == "order 2"


def test_pmaf_cap_exit_code(tmp_path, capsys):
    p = tmp_path / "i.nwk"
    p.write_text("((a,b),c);\n((a,c),b);\n")
    code, _, err = run(capsys, "pmaf", str(p), "--k", "1")
    assert code == 1
    assert "no agreement forest" in err


def test_pmaf_cap_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    p = tmp_path / "i.nwk"
    p.write_text("((a,b),c);\n((a,c),b);\n")

    def broken(*args, **kwargs):
        raise mk.ForestError("invariant violated")

    monkeypatch.setattr(cli, "find_min_k", broken)
    code, _, err = run(capsys, "pmaf", str(p), "--k", "1")
    assert code == 3
    assert "internal error" in err


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "i.nwk"
    p.write_text("((a,b),c);\n((a,x),b);\n")
    code, _, err = run(capsys, "pmaf", str(p))
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "pmaf", str(tmp_path / "missing.nwk"))
    assert code == 2


def test_amaf_flow(tmp_path, capsys):
    p = tmp_path / "i.nwk"
    p.write_text("((a,b),c);\n((a,c),b);\n")
    cert = tmp_path / "cert.nwk"
    code, out, _ = run(capsys, "amaf", str(p), "--verify", "--out", str(cert))
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("order ")
    assert 2 <= int(first.split()[1]) <= 6
    assert "ratio_bound=3" in out
    assert cert.read_text().strip().endswith(";")


def test_amaf_unrooted(tmp_path, capsys):
    p = tmp_path / "i.nwk"
    p.write_text("((a,b),(c,d));\n((a,c),(b,d));\n")
    code, out, _ = run(capsys, "amaf", str(p), "--unrooted", "--verify")
    assert code == 0 and "ratio_bound=4" in out


def test_bench_empty_directory(tmp_path, capsys):
    code, out, _ = run(capsys, "bench", str(tmp_path))
    assert code == 0
    assert out.strip() == ",".join(CSV_FIELDS)


def test_bench_schema_and_aggregates(tmp_path, capsys):
    main(["gen", "-n", "5", "-m", "2", "-x", "1", "--seed", "1", "--out", str(tmp_path / "a.nwk")])
    main(["gen", "-n", "5", "-m", "2", "-x", "1", "--seed", "2", "--out", str(tmp_path / "b.nwk")])
    main(["gen", "-n", "6", "-m", "3", "-x", "1", "--seed", "3", "--out", str(tmp_path / "c.nwk")])
    (tmp_path / "junk.nwk").write_text("this is not newick\n")
    code, out, _ = run(capsys, "bench", str(tmp_path), "--mode", "all")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0].keys()) == CSV_FIELDS
    methods = {r["method"] for r in rows}
    assert {"approx", "fpt", "oracle", "aggregate", "error"} <= methods
    aggs = [r for r in rows if r["method"] == "aggregate"]
    assert {(r["n"], r["m"]) for r in aggs} == {("5", "2"), ("6", "3")}
    # ratio present on approx rows when an exact order is known
    approxes = [r for r in rows if r["method"] == "approx"]
    assert all(r["ratio"] for r in approxes)
    assert all(float(r["ratio"]) <= 3.0 for r in approxes)
    # exactness: fpt and oracle agree per instance
    by_inst = {}
    for r in rows:
        if r["method"] in ("fpt", "oracle"):
            by_inst.setdefault(r["instance"], set()).add(r["order"])
    assert all(len(v) == 1 for v in by_inst.values())


def test_bench_jobs_matches_serial(tmp_path, capsys):
    main(["gen", "-n", "5", "-m", "2", "-x", "1", "--seed", "1", "--out", str(tmp_path / "a.nwk")])
    main(["gen", "-n", "5", "-m", "2", "-x", "0", "--seed", "2", "--out", str(tmp_path / "b.nwk")])

    def strip_time(text):
        rows = list(csv.DictReader(io.StringIO(text)))
        for r in rows:
            r["wall_ms"] = ""
        return rows

    _, serial, _ = run(capsys, "bench", str(tmp_path))
    _, parallel, _ = run(capsys, "bench", str(tmp_path), "--jobs", "2")
    assert strip_time(serial) == strip_time(parallel)


def test_bench_error_row_keeps_the_sweep_going(tmp_path, capsys, monkeypatch):
    main(["gen", "-n", "5", "-m", "2", "-x", "1", "--seed", "1", "--out", str(tmp_path / "a.nwk")])
    main(["gen", "-n", "5", "-m", "2", "-x", "1", "--seed", "2", "--out", str(tmp_path / "b.nwk")])
    solve = cli.find_min_k

    def broken_on_b(instance, *args, **kwargs):
        if instance.name == "b.nwk":
            raise mk.ForestError("invariant violated")
        return solve(instance, *args, **kwargs)

    monkeypatch.setattr(cli, "find_min_k", broken_on_b)
    code, out, _ = run(capsys, "bench", str(tmp_path), "--mode", "fpt", "--jobs", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    errors = [r for r in rows if r["method"] == "error"]
    assert [(r["instance"], r["note"]) for r in errors] == [("b.nwk", "invariant violated")]
    good = [r for r in rows if r["instance"] == "a.nwk"]
    assert [r["method"] for r in good] == ["fpt"] and good[0]["order"]
    agg = [r for r in rows if r["method"] == "aggregate"]
    assert [r["note"] for r in agg] == ["instances=1"]


def test_env_seed_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MAF_SEED", "77")
    out1 = tmp_path / "a.nwk"
    main(["gen", "-n", "5", "-m", "2", "-x", "1", "--out", str(out1)])
    assert "seed=77" in out1.read_text()


def test_pmaf_stdout_certificate_revalidates(tmp_path, capsys):
    main(["gen", "-n", "7", "-m", "2", "-x", "2", "--seed", "5", "--out", str(tmp_path / "i.nwk")])
    code, out, _ = run(capsys, "pmaf", str(tmp_path / "i.nwk"), "--verify")
    assert code == 0
    cert_lines = [l for l in out.splitlines()[1:] if l and not l.startswith(("#", "verified"))]
    inst = mk.parse_instance((tmp_path / "i.nwk").read_text(), rooted=True)
    # re-parse the printed certificate components and check they partition X
    names = set()
    for line in cert_lines:
        for tok in line.replace("(", " ").replace(")", " ").replace(",", " ").replace(";", " ").split():
            names.add(tok)
    want = {inst.forests[0].labels.name(l) for l in inst.forests[0].label_ids()}
    assert names == want

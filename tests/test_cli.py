"""Command-line interface: flows, CSV schema, exit codes."""

import csv
import io

import pytest

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


def test_unexpected_exception_exits_internal_with_traceback(tmp_path, capsys, monkeypatch):
    p = tmp_path / "i.nwk"
    p.write_text("((a,b),c);\n((a,c),b);\n")

    def broken(*args, **kwargs):
        raise RuntimeError("solver fell over")

    # ``maf amaf`` approximates through the CLI's binding, ``maf pmaf``
    # through the bootstrap's
    monkeypatch.setattr(cli, "approx_rmaf", broken)
    monkeypatch.setattr(mk.approx, "approx_rmaf", broken)
    for command in ("amaf", "pmaf"):
        code, _, err = run(capsys, command, str(p))
        assert code == 3
        assert "Traceback" in err and "RuntimeError: solver fell over" in err


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "i.nwk"
    p.write_text("((a,b),c);\n((a,x),b);\n")
    code, _, err = run(capsys, "pmaf", str(p))
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "pmaf", str(tmp_path / "missing.nwk"))
    assert code == 2


@pytest.mark.parametrize("args", [
    ("-n", "2", "-m", "2", "-x", "1"),
    ("-n", "6", "-m", "1", "-x", "1"),
    ("-n", "6", "-m", "2", "-x", "-1"),
    ("-n", "6", "-m", "2", "-x", "1", "--contract", "99"),
    ("-n", "6", "-m", "2", "-x", "1", "--contract", "-1"),
])
def test_gen_bad_parameters_are_input_errors(capsys, args):
    code, out, err = run(capsys, "gen", "--seed", "7", *args)
    assert code == 2 and not out
    assert err.startswith("error: ") and "Traceback" not in err


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


def test_amaf_verify_compares_each_input_once(tmp_path, capsys, monkeypatch):
    # ``certify`` checks every witness by its removal; nothing checks it again
    p = tmp_path / "i.nwk"
    p.write_text("((a,b),(c,d));\n((a,c),(b,d));\n((a,d),(b,c));\n")
    same_structure = mk.Forest.same_structure
    compared = []

    def counted(f, other):
        compared.append(f)
        return same_structure(f, other)

    monkeypatch.setattr(mk.Forest, "same_structure", counted)
    monkeypatch.setattr(mk.AgreementForest, "verify", None)
    assert run(capsys, "amaf", str(p), "--unrooted")[0] == 0
    unverified = len(compared)
    compared.clear()
    code, out, _ = run(capsys, "amaf", str(p), "--unrooted", "--verify")
    assert code == 0 and out.splitlines()[-1] == "verified against 3 input trees"
    assert len(compared) == unverified + 3


def test_pmaf_verify_builds_keys_only_for_the_certificate(tmp_path, capsys, monkeypatch):
    # the search, the certificate and its re-validation test equality many
    # times; only the writer builds a canonical key
    p = tmp_path / "i.nwk"
    inst = mk.generate_instance(mk.GenSpec(n=12, m=3, x=2, seed=5, rooted=True))
    p.write_text(mk.format_instance(inst))
    keyed, results = [], []
    canonical_key, find_min_k = mk.Forest.canonical_key, cli.find_min_k

    def counting(self):
        keyed.append(self)
        return canonical_key(self)

    def kept(*args, **kwargs):
        results.append(find_min_k(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(mk.Forest, "canonical_key", counting)
    monkeypatch.setattr(cli, "find_min_k", kept)
    code, out, _ = run(capsys, "pmaf", str(p), "--verify")
    assert code == 0 and out.splitlines()[-1] == "verified against 3 input trees"
    (res,) = results
    # the search at k = 3 fails, collapsing on the way, and the merged
    # incumbent of order 4 answers
    (attempt,) = res.attempts
    assert attempt.collapses > 0 and attempt.nodes > 1
    assert keyed == [res.af.forest]


def test_amaf_verify_fails_when_certify_does(tmp_path, capsys, monkeypatch):
    def refuse(forest, instance):
        raise mk.ForestError("forest is not a subforest of every input")

    p = tmp_path / "i.nwk"
    p.write_text("((a,b),c);\n((a,c),b);\n")
    monkeypatch.setattr(cli, "certify", refuse)
    code, out, err = run(capsys, "amaf", str(p), "--verify")
    assert code != 0 and "verified" not in out
    assert "not a subforest" in err


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


def test_bench_error_row_for_unexpected_exception(tmp_path, capsys, monkeypatch):
    main(["gen", "-n", "5", "-m", "2", "-x", "1", "--seed", "1", "--out", str(tmp_path / "a.nwk")])
    main(["gen", "-n", "5", "-m", "2", "-x", "1", "--seed", "2", "--out", str(tmp_path / "b.nwk")])
    approximate = cli._approximate

    def broken_on_a(instance):
        if instance.name == "a.nwk":
            raise RecursionError("maximum recursion depth exceeded")
        return approximate(instance)

    monkeypatch.setattr(cli, "_approximate", broken_on_a)
    code, out, err = run(capsys, "bench", str(tmp_path), "--mode", "approx")
    assert code == 0 and "Traceback" in err
    rows = list(csv.DictReader(io.StringIO(out)))
    errors = [(r["instance"], r["note"]) for r in rows if r["method"] == "error"]
    assert errors == [("a.nwk", "RecursionError: maximum recursion depth exceeded")]
    assert [r["method"] for r in rows if r["instance"] == "b.nwk"] == ["approx"]


def test_bench_aggregates_in_numeric_size_order(tmp_path, capsys):
    for n in (20, 9, 12):
        main(["gen", "-n", str(n), "-m", "2", "-x", "1", "--seed", "1",
              "--out", str(tmp_path / f"t{n}.nwk")])
    code, out, _ = run(capsys, "bench", str(tmp_path), "--mode", "approx")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    aggs = [r["instance"] for r in rows if r["method"] == "aggregate"]
    assert aggs == ["t9-2", "t12-2", "t20-2"]


def test_env_seed_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MAF_SEED", "77")
    out1 = tmp_path / "a.nwk"
    main(["gen", "-n", "5", "-m", "2", "-x", "1", "--out", str(out1)])
    assert "seed=77" in out1.read_text()


def test_env_seed_is_read_when_gen_runs(tmp_path, capsys, monkeypatch):
    # the parser is built once per process, so it must not hold MAF_SEED
    monkeypatch.delenv("MAF_SEED", raising=False)
    main(["gen", "-n", "5", "-m", "2", "-x", "1", "--out", str(tmp_path / "a.nwk")])
    assert "seed=0" in (tmp_path / "a.nwk").read_text()
    monkeypatch.setenv("MAF_SEED", "78")
    main(["gen", "-n", "5", "-m", "2", "-x", "1", "--out", str(tmp_path / "b.nwk")])
    assert "seed=78" in (tmp_path / "b.nwk").read_text()
    assert cli.build_parser() is cli.build_parser()


def test_env_seed_not_an_integer_is_bad_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MAF_SEED", "abc")
    code, out, err = run(capsys, "gen", "-n", "5", "-m", "2", "-x", "1")
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err == "error: MAF_SEED must be an integer, got 'abc'\n"


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


def test_pmaf_starts_at_the_ceiling_of_the_bound(tmp_path, capsys):
    # k' = 7 rooted: ⌊7/3⌋ = 2 would spend one attempt that cannot succeed;
    # the merged order equals the start, so the incumbent answers at k = 3
    path = tmp_path / "i.nwk"
    main(["gen", "-n", "10", "-m", "2", "-x", "3", "--seed", "1", "--out", str(path)])
    code, out, _ = run(capsys, "pmaf", str(path), "--verify")
    assert code == 0
    lines = out.splitlines()
    assert "# bootstrap k'=7 start k=3 merged=3" in lines
    assert lines[0] == "order 3"
    summary = next(line for line in lines if line.startswith("# k="))
    assert summary.startswith("# k=3 ")


def test_pmaf_starts_at_the_trace_bound(tmp_path, capsys):
    # k' = 6 rooted: ⌈6/3⌉ = 2, but partner 1 took 2 steps with an
    # essential edge, so the optimum is at least 3
    path = tmp_path / "i.nwk"
    main(["gen", "-n", "8", "-m", "2", "-x", "2", "--seed", "5", "--out", str(path)])
    code, out, _ = run(capsys, "pmaf", str(path), "--verify")
    assert code == 0
    lines = out.splitlines()
    assert "# bootstrap k'=6 start k=3 merged=3" in lines
    inst = cli._read_instance(str(path), True)
    ares = mk.approx_rmaf(inst)
    res = mk.find_min_k(inst, ares.lower_bound(), incumbent=mk.coarsen(inst, ares.forest))
    assert lines[0] == f"order {res.order}" == f"order {mk.find_min_k(inst).order}"
    assert lines[1:1 + res.order] == mk.serialize(res.af.forest).splitlines()


def test_pmaf_cap_below_the_bound_does_not_search(tmp_path, capsys, monkeypatch):
    # the bound is 2 here, so a cap of 1 leaves nothing to search
    p = tmp_path / "i.nwk"
    p.write_text("((a,b),c);\n((a,c),b);\n")

    def unreachable(*args):
        raise AssertionError("searched below the bound")

    monkeypatch.setattr(mk.fpt, "_search", unreachable)
    code, out, err = run(capsys, "pmaf", str(p), "--k", "1")
    assert (code, out) == (1, "")
    assert err == "no agreement forest of order <= 1\n"


def test_pmaf_cap_against_the_merged_order(tmp_path, capsys, solved_ks):
    # start k = 2, optimum 3, merged order 4: a cap from the optimum up is
    # answered by a search that stops below the merged order, one below the
    # optimum is "no solution" after searching from the start, and one below
    # the start is that at once
    path = tmp_path / "i.nwk"
    main(["gen", "-n", "6", "-m", "2", "-x", "2", "--seed", "12", "--out", str(path)])
    for cap in (5, 4, 3):
        solved_ks.clear()
        code, out, _ = run(capsys, "pmaf", str(path), "--k", str(cap), "--verify")
        assert code == 0 and out.splitlines()[0] == "order 3"
        assert "# bootstrap k'=4 start k=2 merged=4" in out.splitlines()
        assert solved_ks == [2, 3]
    solved_ks.clear()
    assert run(capsys, "pmaf", str(path), "--k", "2") == (
        1, "", "no agreement forest of order <= 2\n")
    assert solved_ks == [2]
    solved_ks.clear()
    assert run(capsys, "pmaf", str(path), "--k", "1")[0] == 1
    assert solved_ks == []


def test_pmaf_cap_at_the_merged_order_is_answered_by_it(tmp_path, capsys, solved_ks):
    # start k = 3, and the merged order 4 is the optimum: k = 3 fails, so
    # the merged forest answers a cap of 4 or more with no search at k = 4
    path = tmp_path / "i.nwk"
    main(["gen", "-n", "12", "-m", "3", "-x", "2", "--seed", "5", "--out", str(path)])
    for cap in ("4", "9"):
        solved_ks.clear()
        code, out, _ = run(capsys, "pmaf", str(path), "--k", cap, "--verify")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "order 4" and solved_ks == [3]
        assert "# bootstrap k'=7 start k=3 merged=4" in lines
        assert next(l for l in lines if l.startswith("# k=")).startswith("# k=4 nodes=0 ")
        assert lines[-1] == "verified against 3 input trees"
    solved_ks.clear()
    code, out, err = run(capsys, "pmaf", str(path), "--k", "3")
    assert (code, out, err) == (1, "", "no agreement forest of order <= 3\n")
    assert solved_ks == [3]

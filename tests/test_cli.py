import argparse
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

import patternlab as pl
from patternlab import cli, patterns
from patternlab.cli import _build_parser, main
from patternlab.data import example_path, list_examples


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text):
    # json.dumps writes NaN and Infinity, which strict JSON readers reject
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = strict_json(captured.out) if captured.out.strip() else None
    return code, doc


REPORT_KEYS = ["value", "argmax", "support", "restarts_used", "converged", "kkt_residual"]


# ---------------------------------------------------------------------------
# lambda
# ---------------------------------------------------------------------------


def test_lambda_heavy_edge_file(capsys):
    code, doc = run_cli(capsys, "lambda", str(example_path("p_112.json")))
    assert code == 0
    assert doc["result"]["report"]["value"] == pytest.approx(4 / 9, abs=1e-9)
    assert list(doc["result"]) == ["input", "report"]
    assert list(doc["result"]["report"]) == REPORT_KEYS
    assert doc["manifest"]["version"] == pl.__version__
    assert doc["manifest"]["input_hashes"]


def test_lambda_empty_pattern(capsys):
    code, doc = run_cli(capsys, "lambda", str(example_path("empty.json")))
    assert code == 0
    assert doc["result"]["report"]["value"] == 0.0


def test_lambda_k5_hypergraph(capsys):
    code, doc = run_cli(capsys, "lambda", str(example_path("k5.json")))
    assert code == 0
    assert doc["result"]["input"]["kind"] == "hypergraph"
    assert doc["result"]["report"]["value"] == pytest.approx(0.8, abs=1e-9)


def test_lambda_triple_with_grid_oracle(capsys):
    code, doc = run_cli(capsys, "lambda", str(example_path("triple.json")),
                        "--grid-denominator", "3")
    assert code == 0
    rep = doc["result"]["report"]
    assert rep["value"] == pytest.approx(2 / 9, abs=1e-9)
    assert doc["result"]["grid_oracle"]["value"] == "2/9"
    assert abs(rep["oracle_gap"]) < 1e-9
    assert list(doc["result"]) == ["input", "report", "grid_oracle"]
    assert list(rep) == REPORT_KEYS + ["oracle_gap"]
    assert list(doc["result"]["grid_oracle"]) == ["denominator", "value", "value_float"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_lambda_tol_must_be_finite(capsys, tol):
    code = main(["lambda", str(example_path("k5.json")), f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"patternlab: tolerance must be finite and > 0, got {float(tol)}\n"


def test_lambda_parse_failure_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["lambda", str(bad)]) == 2
    assert main(["lambda", str(tmp_path / "missing.json")]) == 2
    bad.write_text('{"r":3,"m":2,"edges":[[1,1]]}')
    assert main(["lambda", str(bad)]) == 2


def test_lambda_index_past_intp_exits_2(capsys, tmp_path):
    huge = tmp_path / "huge.json"
    huge.write_text('{"r":2,"m":1180591620717411303424,"edges":[[1,36893488147419103232]]}')
    assert main(["lambda", str(huge)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("patternlab: invalid pattern document: "
                            "index 36893488147419103232 does not fit in np.intp\n")


def test_grid_cap_exits_3(capsys, tmp_path):
    path = tmp_path / "big.json"
    pl.save_pattern(pl.complete_pattern(9, 3), path)
    assert main(["lambda", str(path), "--grid-denominator", "100000"]) == 3


# ---------------------------------------------------------------------------
# union
# ---------------------------------------------------------------------------


def test_union_writes_pattern_and_sidecar(capsys, tmp_path):
    out = tmp_path / "u.json"
    code, doc = run_cli(capsys, "union", str(example_path("p_112.json")),
                        str(example_path("p_112.json")), "--on", "2",
                        "--out", str(out))
    assert code == 0
    U = pl.load_pattern(out)
    assert U == pl.Pattern(3, 3, [[1, 1, 2], [1, 1, 3], [2, 2, 3]])
    sidecar = json.loads((tmp_path / "u.labeling.json").read_text())
    assert sidecar["glue"] == [2]
    assert len(sidecar["origin"]) == 3
    assert doc["result"]["edges"] == 3


def test_union_with_empty_inner_is_relabeled_copy(capsys, tmp_path):
    inner = tmp_path / "inner.json"
    pl.save_pattern(pl.Pattern(1, 3, []), inner)
    out = tmp_path / "u.json"
    code, _ = run_cli(capsys, "union", str(example_path("pb.json")), str(inner),
                      "--on", "1", "--out", str(out))
    assert code == 0
    assert pl.load_pattern(out) == pl.load_pattern(example_path("pb.json"))


def test_union_incompatible_uniformity_exits_2(capsys):
    code = main(["union", str(example_path("p_112.json")),
                 str(example_path("k3.json")), "--on", "1"])
    assert code == 2


def test_union_explicit_glue_list(capsys, tmp_path):
    code, doc = run_cli(capsys, "union", str(example_path("grosu_m3_r3.json")),
                        str(example_path("p_112.json")), "--on-set", "1,3")
    assert code == 0
    assert doc["result"]["glue"] == [1, 3]
    assert doc["result"]["m"] == 3 + 2 * (2 - 1)


def test_union_then_lambda_matches_closed_form(capsys, tmp_path):
    # glue the triangle pattern into both indices of the 2-index plain-pair
    # host; the result's Lagrangian is 1 - (1 - 2/3)/2 = 5/6
    k3_pattern = tmp_path / "k3_pattern.json"
    pl.save_pattern(pl.pattern_of_hypergraph(pl.complete_graph(3)), k3_pattern)
    out = tmp_path / "u.json"
    code, _ = run_cli(capsys, "union", str(example_path("grosu_m2_r2.json")),
                      str(k3_pattern), "--on-set", "all", "--out", str(out))
    assert code == 0
    code, doc = run_cli(capsys, "lambda", str(out))
    assert code == 0
    want = float(pl.grosu_map(pl.maximize(
        pl.pattern_of_hypergraph(pl.complete_graph(3))).value, 2, 2))
    assert doc["result"]["report"]["value"] == pytest.approx(want, abs=1e-8)
    assert doc["result"]["report"]["value"] == pytest.approx(5 / 6, abs=1e-8)


# ---------------------------------------------------------------------------
# mapf / catalog
# ---------------------------------------------------------------------------


def test_mapf_grosu_zero(capsys):
    code, doc = run_cli(capsys, "mapf", "--pattern", str(example_path("grosu_m2_r3.json")),
                        "--glue-set", "all", "--lambda", "0")
    assert code == 0
    assert doc["result"]["value"] == pytest.approx(0.75, abs=1e-9)
    assert list(doc["result"]) == ["glue", "lambda2", "value", "report"]
    assert list(doc["result"]["report"]) == REPORT_KEYS


def test_mapf_single_glue(capsys):
    code, doc = run_cli(capsys, "mapf", "--pattern", str(example_path("pb.json")),
                        "--glue", "2", "--lambda", "1")
    assert code == 0
    assert doc["result"]["value"] <= 1.0 + 1e-9


def test_mapf_glue_list(capsys):
    code, doc = run_cli(capsys, "mapf", "--pattern", str(example_path("grosu_m3_r3.json")),
                        "--glue-set", "1,2,3", "--lambda", "0.5")
    assert code == 0
    assert doc["result"]["value"] == pytest.approx(1 - 0.5 / 9, abs=1e-8)


def test_glue_set_trailing_comma(capsys):
    # union --on-set and mapf --glue-set read one spec the same way: empty
    # fields between commas are skipped.
    host, inner = str(example_path("grosu_m3_r3.json")), str(example_path("p_112.json"))
    runs = [("union", host, inner, "--on-set"), ("mapf", "--pattern", host, "--lambda", "0.5",
                                                 "--glue-set")]
    for argv in runs:
        code, plain = run_cli(capsys, *argv, "1,3")
        assert code == 0
        code, doc = run_cli(capsys, *argv, "1,3,")
        assert code == 0
        assert doc["result"] == plain["result"]
        assert doc["result"]["glue"] == [1, 3]


def test_catalog_r3(capsys):
    code, doc = run_cli(capsys, "catalog", "--r", "3")
    assert code == 0
    values = {e["statement"]: e.get("value") for e in doc["result"]["entries"]}
    assert values["r!/r^r"] == "2/9"
    assert values["5*r!/(2*r^r)"] == "5/9"
    assert values["54*r!/(25*r^r)"] == "12/25"
    sources = {e["source"] for e in doc["result"]["entries"]}
    assert any("Erdos" in s for s in sources)
    keys = {e["statement"]: list(e) for e in doc["result"]["entries"]}
    head = ["statement", "status", "source"]
    assert keys["r!/r^r"] == head + ["value", "value_float", "note"]
    assert keys["5*r!/(2*r^r)"] == head + ["value", "value_float"]
    assert keys["1 - 1/l^(r-1), l > 2r"] == head + ["note"]


def test_catalog_r2_exits_2(capsys):
    assert main(["catalog", "--r", "2"]) == 2


# ---------------------------------------------------------------------------
# blowup / density
# ---------------------------------------------------------------------------


def test_blowup_and_density(capsys, tmp_path):
    out = tmp_path / "g.json"
    code, doc = run_cli(capsys, "blowup", "--pattern", str(example_path("p_112.json")),
                        "--sizes", "2,2", "--out", str(out))
    assert code == 0
    assert doc["result"]["edges"] == 2
    assert doc["result"]["density"] == pytest.approx(0.5)
    assert doc["result"]["hypergraph"] == json.loads(out.read_text())
    code, doc = run_cli(capsys, "density", str(out))
    assert code == 0
    assert doc["result"]["value"] == "1/2"


def _counted(calls, name, real):
    def count(obj):
        calls[name] += 1
        return real(obj)
    return count


@pytest.mark.parametrize("command", ["union", "blowup"])
def test_an_out_file_is_the_printed_document(capsys, tmp_path, monkeypatch, command):
    # The document (and the union's labeling) is built once, printed and
    # written; the file holds the bytes save_pattern / save_hypergraph write.
    p112 = str(example_path("p_112.json"))
    out, want = tmp_path / "out.json", tmp_path / "want.json"
    argv = {"union": ["union", p112, p112, "--on", "2", "--out", str(out)],
            "blowup": ["blowup", "--pattern", p112, "--sizes", "2,2", "--out", str(out)]}
    built = Counter()
    with monkeypatch.context() as patch:
        for owner, name in ((cli, "_document"), (patterns, "_document"),
                            (pl.UnionLabeling, "to_dict")):
            patch.setattr(owner, name, _counted(built, name, getattr(owner, name)))
        code, doc = run_cli(capsys, *argv[command])
    assert code == 0
    P = pl.load_pattern(p112)
    if command == "union":
        assert built == {"_document": 1, "to_dict": 1}
        U, lab = pl.union_on_set(P, P, 2)
        pl.save_pattern(U, want)
        sidecar = (tmp_path / "out.labeling.json").read_text()
        assert sidecar == json.dumps(lab.to_dict(), indent=2) + "\n"
    else:
        assert built == {"_document": 1}
        pl.save_hypergraph(pl.blowup(P, [2, 2])[0], want)
    assert out.read_bytes() == want.read_bytes()


def test_density_rejects_pattern_file(capsys):
    assert main(["density", str(example_path("p_112.json"))]) == 2


def test_blowup_cap_exits_3(capsys):
    code = main(["blowup", "--pattern", str(example_path("p_112.json")),
                 "--sizes", "5000,5000"])
    assert code == 3


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_decomposition(capsys):
    code, doc = run_cli(capsys, "verify", "decomposition", "--trials", "200")
    assert code == 0
    suite = doc["result"]["suites"][0]
    assert suite["max_gap"] < 1e-12
    assert doc["result"]["passed"]


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_trials_below_one_exits_2(capsys, trials):
    code = main(["verify", "decomposition", f"--trials={trials}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"patternlab: trials must be >= 1, got {trials}\n"


def test_verify_minimality(capsys):
    code, doc = run_cli(capsys, "verify", "minimality")
    assert code == 0
    assert doc["result"]["passed"]


def test_verify_construction(capsys):
    code, doc = run_cli(capsys, "verify", "construction")
    assert code == 0
    assert doc["result"]["passed"]


# ---------------------------------------------------------------------------
# check-sequence
# ---------------------------------------------------------------------------


def _write_sequence(tmp_path, patterns):
    seq = tmp_path / "seq"
    seq.mkdir()
    for t, P in enumerate(patterns):
        pl.save_pattern(P, seq / f"term_{t:02d}.json")
    return seq


def test_check_sequence_failing_condition2_exits_4(capsys, tmp_path):
    pb = pl.load_pattern(example_path("pb.json"))
    seq = _write_sequence(tmp_path, [pb] * 3)
    eps = tmp_path / "eps.json"
    eps.write_text("0.01")
    code, doc = run_cli(capsys, "check-sequence", str(seq), "--k", "2",
                        "--lambda0", "0.75", "--eps-file", str(eps))
    assert code == 4
    assert doc["result"]["cond2_all"] is False
    assert all(not row["cond2_ok"] for row in doc["result"]["per_t"])


def test_check_sequence_passing(capsys, tmp_path):
    # plain-triple patterns: every 2-index subpattern is edgeless, so
    # condition 3 holds at any nonnegative level
    seq = _write_sequence(tmp_path, [pl.complete_pattern(4, 3),
                                     pl.complete_pattern(5, 3)])
    eps = tmp_path / "eps.json"
    eps.write_text("[0.01, 0.01]")
    code, doc = run_cli(capsys, "check-sequence", str(seq), "--k", "2",
                        "--lambda0", "0.3", "--eps-file", str(eps))
    assert code == 0
    assert doc["result"]["cond2_all"] and doc["result"]["cond3_all"]
    assert doc["result"]["terms"] == ["term_00.json", "term_01.json"]
    assert list(doc["result"]) == ["terms", "lambda0", "k", "per_t", "trend_slope",
                                   "cond2_all", "cond3_all", "verdicts", "ok"]
    for row in doc["result"]["per_t"]:
        assert list(row) == ["t", "m", "lambda_value", "eps", "cond2_ok", "worst_subset",
                             "worst_subset_value", "cond3_ok"]


def test_check_sequence_bad_eps_exits_2(capsys, tmp_path):
    seq = _write_sequence(tmp_path, [pl.offdiagonal_pattern(3, 3)])
    eps = tmp_path / "eps.json"
    eps.write_text('"not a number"')
    code = main(["check-sequence", str(seq), "--k", "2", "--lambda0", "0.1",
                 "--eps-file", str(eps)])
    assert code == 2


@pytest.mark.parametrize("text, want", [
    ("true", "eps must be a number, got true"),
    ("[true]", "eps[0] must be a number, got true"),
    ('["0.1"]', 'eps[0] must be a number, got "0.1"'),
    ("[null]", "eps[0] must be a number, got null"),
    ("[0.1, null]", "eps[1] must be a number, got null"),
    ("{}", "eps must be a number, got {}"),
    ("NaN", "eps must be finite, got NaN"),
    ("[0.1, Infinity]", "eps[1] must be finite, got Infinity"),
    ("[-Infinity]", "eps[0] must be finite, got -Infinity"),
    # json reads integers of any length; float() takes none past 1.8e308
    pytest.param("[0.1, 1" + "0" * 400 + "]", "eps[1] is too large for a float", id="big-int"),
    pytest.param("-1" + "0" * 400, "eps is too large for a float", id="big-negative-int"),
])
def test_check_sequence_eps_entries_must_be_numbers(capsys, tmp_path, text, want):
    seq = _write_sequence(tmp_path, [pl.offdiagonal_pattern(3, 3)])
    eps = tmp_path / "eps.json"
    eps.write_text(text)
    code = main(["check-sequence", str(seq), "--k", "2", "--lambda0", "0.1",
                 "--eps-file", str(eps)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"patternlab: eps file: {want}\n"


@pytest.mark.parametrize("k", ["0", "-1"])
def test_check_sequence_k_below_one_exits_2(capsys, tmp_path, k):
    seq = _write_sequence(tmp_path, [pl.offdiagonal_pattern(3, 3)])
    eps = tmp_path / "eps.json"
    eps.write_text("0.01")
    code = main(["check-sequence", str(seq), f"--k={k}", "--lambda0", "0.1",
                 "--eps-file", str(eps)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"patternlab: k must be >= 1, got {k}\n"


@pytest.mark.parametrize("lambda0", ["nan", "inf", "-inf"])
def test_check_sequence_lambda0_must_be_finite(capsys, tmp_path, lambda0):
    seq = _write_sequence(tmp_path, [pl.offdiagonal_pattern(3, 3)])
    eps = tmp_path / "eps.json"
    eps.write_text("0.01")
    code = main(["check-sequence", str(seq), "--k", "2", f"--lambda0={lambda0}",
                 "--eps-file", str(eps)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"patternlab: --lambda0 must be a finite number, got {float(lambda0)}\n"


# ---------------------------------------------------------------------------
# Manifest and determinism
# ---------------------------------------------------------------------------


def test_same_invocation_is_byte_identical(capsys):
    argv = ["lambda", str(example_path("pb.json")), "--grid-denominator", "4"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_manifest_excludes_wall_clock_by_default(capsys):
    keys = ["command", "config", "input_hashes", "version", "seed"]
    code, doc = run_cli(capsys, "lambda", str(example_path("empty.json")))
    assert list(doc) == ["manifest", "result"]
    assert list(doc["manifest"]) == keys
    code, doc = run_cli(capsys, "--timing", "lambda", str(example_path("empty.json")))
    assert list(doc["manifest"]) == keys + ["wall_clock_s"]
    assert doc["manifest"]["wall_clock_s"] >= 0


def test_every_subcommand_prints_strict_json(capsys, tmp_path):
    p112 = str(example_path("p_112.json"))
    graph = tmp_path / "g.json"
    seq = _write_sequence(tmp_path, [pl.complete_pattern(4, 3)])
    eps = tmp_path / "eps.json"
    eps.write_text("0.01")
    runs = {
        "lambda": ["lambda", p112, "--grid-denominator", "3"],
        "union": ["union", p112, p112, "--on", "2"],
        "mapf": ["mapf", "--pattern", p112, "--glue", "2", "--lambda", "0.5"],
        "blowup": ["blowup", "--pattern", p112, "--sizes", "2,2", "--out", str(graph)],
        "density": ["density", str(graph)],
        "verify": ["verify", "decomposition", "--trials", "5"],
        "check-sequence": ["check-sequence", str(seq), "--k", "2", "--lambda0", "0.3",
                           "--eps-file", str(eps)],
        "catalog": ["catalog", "--r", "3", "--frankl-rodl-l", "7"],
    }
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(runs) == sorted(sub.choices)
    for name, argv in runs.items():
        for pretty in ([], ["--pretty"]):
            assert main(pretty + argv) == 0, name
            assert strict_json(capsys.readouterr().out)["result"], name


def test_pretty_mode(capsys):
    code = main(["--pretty", "catalog", "--r", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("{\n")
    json.loads(out)


def test_bundled_examples_present():
    names = list_examples()
    for required in ("p_112.json", "empty.json", "k5.json", "triple.json",
                     "pb.json", "grosu_m2_r3.json"):
        assert required in names
    with pytest.raises(FileNotFoundError):
        example_path("nope.json")


# The value and support `lambda` reported for each bundled example before
# the barycenter starts were cut to one per twin-class orbit.
BUNDLED_LAMBDA = {
    "empty.json": (0.0, [1]),
    "grosu_m2_r2.json": (0.5, [1, 2]),
    "grosu_m2_r3.json": (0.75, [1, 2]),
    "grosu_m3_r3.json": (0.8888888888888891, [1, 2, 3]),
    "k3.json": (0.6666666666666666, [1, 2, 3]),
    "k5.json": (0.7999999999999998, [1, 2, 3, 4, 5]),
    "p_112.json": (0.4444444444444444, [1, 2]),
    "pb.json": (0.75, [1, 2]),
    "triple.json": (0.2222222222222222, [1, 2, 3]),
}


def test_lambda_of_every_bundled_example_is_unchanged(capsys):
    assert sorted(BUNDLED_LAMBDA) == list_examples()
    for name, (value, support) in BUNDLED_LAMBDA.items():
        code, doc = run_cli(capsys, "lambda", str(example_path(name)))
        report = doc["result"]["report"]
        assert code == 0, name
        assert report["value"] == pytest.approx(value, abs=1e-12), name
        assert report["support"] == support, name


def test_reader_closing_stdout_early_exits_quietly():
    # As in `patternlab catalog ... | head -c 100`: the pipe is closed before
    # the report is written.
    env = {k: v for k, v in os.environ.items() if k != "PATTERNLAB_SEED"}
    env["PYTHONPATH"] = str(pathlib.Path(pl.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "patternlab", "catalog", "--r", "3", "--frankl-rodl-l", "7,9"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    try:
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    finally:
        proc.stderr.close()
        proc.kill()
    assert code == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err
    assert err.startswith("patternlab: catalog finished")

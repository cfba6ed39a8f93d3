import json
import time

import pytest

from subspace_products.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_report(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_kappa_command(capsys):
    code, rep, _ = run_report(capsys, "kappa", "--n", "16", "--r", "11", "--s", "4")
    assert code == 0
    assert rep["results"]["value"] == 12
    assert rep["results"]["h0"] == 4
    assert rep["results"]["terms"]["4"] == 12
    assert rep["command"] == "kappa"


def test_kappa_with_explicit_degrees(capsys):
    code, rep, _ = run_report(capsys, "kappa", "--degrees", "1,7", "--r", "3", "--s", "4")
    assert code == 0 and rep["results"]["value"] == 6
    code, rep, _ = run_report(capsys, "kappa", "--degrees", "1", "--r", "5", "--s", "5")
    assert code == 0 and rep["results"]["value"] == 9


def test_kappa_usage_errors(capsys):
    code, _, err = run(capsys, "kappa", "--r", "3", "--s", "4")
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, "kappa", "--n", "16", "--r", "3")
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2


def test_kappa_large_n(capsys):
    t0 = time.perf_counter()
    code, rep, _ = run_report(capsys, "kappa", "--n", "1000000000", "--r", "1", "--s", "1")
    assert time.perf_counter() - t0 < 1
    assert code == 0 and rep["results"]["value"] == 1 and len(rep["results"]["terms"]) == 100
    code, out, err = run(capsys, "kappa", "--n", str(2 ** 64), "--r", "1", "--s", "1")
    assert code == 2 and out == "" and err.startswith("error: n=")


def test_kappa_table_text_and_csv(capsys):
    code, out, _ = run(capsys, "kappa-table", "--n", "1")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "kappa-table", "--n", "6")
    assert code == 0
    assert out.splitlines()[2].split() == ["3", "3", "3", "6", "6", "6"]
    code, out, _ = run(capsys, "kappa-table", "--n", "4", "--format", "csv")
    assert out.splitlines()[0] == "1,2,3,4"
    code, rep, _ = run_report(capsys, "kappa-table", "--n", "4", "--format", "json")
    assert rep["results"]["table"][0] == [1, 2, 3, 4]
    assert rep["results"]["degrees"] == [1, 2, 4]
    code, rep, _ = run_report(capsys, "kappa-table", "--n", "4", "--degrees", "1,4",
                              "--format", "json")
    assert rep["results"]["degrees"] == [1, 4] and rep["results"]["table"][1][1] == 3


@pytest.mark.parametrize("n", ["100000", str(10 ** 12)])
def test_kappa_table_refuses_large_n(capsys, n):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "kappa-table", "--n", n)
    assert time.perf_counter() - t0 < 0.1
    assert code == 2 and out == "" and err.startswith("error: n=")


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_kappa_table_refuses_n_zero(capsys, fmt):
    # a degree set given without an ambient degree has n = 0, so --n 0 with
    # --degrees matches it and must be refused by the n check itself
    code, out, err = run(capsys, "kappa-table", "--n", "0", "--degrees", "1",
                         "--format", fmt)
    assert code == 2 and out == "" and err.startswith("error: n=")


def test_mu_field_exhaustive(capsys):
    code, rep, _ = run_report(capsys, "mu-field", "--field", "2^4",
                              "--r", "3", "--s", "3", "--exhaustive")
    assert code == 0
    res = rep["results"]
    assert res["value"] == 4 and res["exhaustive"]
    assert len(res["witness_a"]) == 3
    assert all(len(row.split(",")) == 4 for row in res["witness_a"])


def test_mu_field_mode_required(capsys):
    code, _, err = run(capsys, "mu-field", "--field", "2^4", "--r", "1", "--s", "1")
    assert code == 2 and "exhaustive" in err
    code, _, _ = run(capsys, "mu-field", "--field", "2^4", "--r", "1", "--s", "1",
                     "--exhaustive", "--trials", "5")
    assert code == 2


def test_mu_field_budget_exit(capsys):
    # kappa(3,3) over divisors(6) is 3 (the F_8 subfield), which the first few
    # canonical pairs cannot attain, so a tiny budget truncates the scan
    code, rep, _ = run_report(capsys, "mu-field", "--field", "2^6", "--r", "3",
                              "--s", "3", "--exhaustive", "--budget", "4")
    assert code == 3
    assert not rep["results"]["exhaustive"]
    assert rep["results"]["pairs_examined"] == 4


def test_mu_field_has_no_workers_option(capsys):
    code, out, err = run(capsys, "mu-field", "--field", "2^4", "--r", "2", "--s", "2",
                         "--exhaustive", "--workers", "2")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --workers" in err


def test_mu_field_refuses_oversized_scan(capsys):
    code, out, err = run(capsys, "mu-field", "--field", "2^16", "--r", "8", "--s", "8",
                         "--exhaustive")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_mu_field_randomized_replay(capsys):
    argv = ("mu-field", "--field", "2^6", "--r", "3", "--s", "3",
            "--trials", "200", "--seed", "7")
    code1, rep1, _ = run_report(capsys, *argv)
    code2, rep2, _ = run_report(capsys, *argv)
    assert code1 == code2 == 0
    assert rep1["results"] == rep2["results"]
    assert rep1["seed"] == 7


def test_mu_field_entropy_seed_echoed(capsys):
    code, rep, _ = run_report(capsys, "mu-field", "--field", "2^4", "--r", "2",
                              "--s", "2", "--trials", "10")
    assert code == 0
    assert isinstance(rep["seed"], int)


def test_construct_command(capsys):
    code, rep, _ = run_report(capsys, "construct", "--field", "3^4", "--r", "3", "--s", "3")
    assert code == 0
    res = rep["results"]
    assert res["dim_ab"] == 4 and res["achieves_kappa"]
    assert res["kneser"]["holds"]
    code, rep, _ = run_report(capsys, "construct", "--field", "2^4", "--r", "4", "--s", "4")
    assert rep["results"]["dim_ab"] == 4


def test_construct_with_modulus_override(capsys):
    code, rep, _ = run_report(capsys, "construct", "--field", "2^4",
                              "--modulus", "1,1,1,1,1", "--r", "2", "--s", "2")
    assert code == 0 and rep["results"]["modulus"] == "x^4+x^3+x^2+x+1"


def test_stabilizer_command(capsys, tmp_path):
    # F_4 inside GF(2^4): span{1, g} with g = x^2+x (primitive^5)
    path = tmp_path / "subspace.txt"
    path.write_text("1,0,0,0\n0,1,1,0\n")
    code, rep, _ = run_report(capsys, "stabilizer", "--field", "2^4",
                              "--subspace", str(path))
    assert code == 0
    assert rep["results"]["g"] == 2
    assert rep["results"]["is_subfield_verified"]


def test_stabilizer_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1,0\n")
    code, _, err = run(capsys, "stabilizer", "--field", "2^4", "--subspace", str(path))
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "stabilizer", "--field", "2^4",
                       "--subspace", str(tmp_path / "missing.txt"))
    assert code == 2
    path.write_text("0,0,0,0\n0,0,0,0\n")
    code, out, err = run(capsys, "stabilizer", "--field", "2^4", "--subspace", str(path))
    assert code == 2 and out == "" and err.startswith("error: subspace file describes the zero")


def test_verify_kneser_command(capsys):
    code, rep, _ = run_report(capsys, "verify-kneser", "--field", "2^6",
                              "--r", "2", "--s", "3", "--pairs", "200", "--seed", "1")
    assert code == 0
    res = rep["results"]
    assert res["violations"] == 0
    assert res["subfield_check_failures"] == 0
    assert sum(res["slack_histogram"].values()) == 200


def test_unverified_stabilizer_fails_construct_and_verify_kneser(capsys, monkeypatch):
    import dataclasses

    import subspace_products.products as products

    real = products.stabilizer
    monkeypatch.setattr(products, "stabilizer", lambda v: dataclasses.replace(
        real(v), is_subfield_verified=False))
    code, rep, _ = run_report(capsys, "construct", "--field", "3^4", "--r", "3", "--s", "3")
    res = rep["results"]
    assert res["achieves_kappa"] and res["kneser"]["holds"]
    assert code == 4
    code, rep, _ = run_report(capsys, "verify-kneser", "--field", "2^6",
                              "--r", "2", "--s", "3", "--pairs", "5", "--seed", "1")
    assert code == 4
    assert rep["results"]["subfield_check_failures"] == 5
    assert rep["results"]["violations"] == 0


@pytest.mark.parametrize("r, s", [(9, 3), (2, 9)])
def test_verify_kneser_refuses_dimension_past_n(run_python, r, s):
    # no 9-dimensional subspace of GF(2^8) exists, so sampling one never ends
    proc = run_python("-m", "subspace_products.cli", "verify-kneser", "--field", "2^8",
                      "--r", str(r), "--s", str(s), "--pairs", "1", "--seed", "1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("r, s, pairs", [(0, 3, 1), (2, 3, -5), (2, 3, 0)])
def test_verify_kneser_usage_errors(capsys, r, s, pairs):
    code, out, err = run(capsys, "verify-kneser", "--field", "2^8", "--r", str(r),
                         "--s", str(s), "--pairs", str(pairs), "--seed", "1")
    assert code == 2 and out == "" and err.startswith("error:")


def test_mu_group_exhaustive(capsys):
    code, rep, _ = run_report(capsys, "mu-group", "--group", "cyclic:6",
                              "--r", "3", "--s", "3", "--exhaustive")
    assert code == 0
    res = rep["results"]
    assert res["value"] == 3  # subgroup of order 3
    assert res["kappa_g"]["value"] == 3
    assert res["exhaustive"]


def test_mu_group_randomized_witness(capsys):
    code, rep, _ = run_report(capsys, "mu-group", "--group", "Z7xZ3semidirect",
                              "--r", "5", "--s", "9", "--trials", "100000",
                              "--seed", "1")
    assert code == 0
    res = rep["results"]
    assert res["value"] == 13
    assert res["kappa_g"]["value"] == 12
    assert len(res["witness_a"]) == 5 and len(res["witness_b"]) == 9


def test_mu_group_from_json_file(capsys, tmp_path):
    from oracle import group_to_json
    from subspace_products.groups import builtin_group
    path = tmp_path / "group.json"
    path.write_text(group_to_json(builtin_group("cyclic:5")))
    code, rep, _ = run_report(capsys, "mu-group", "--group-file", str(path),
                              "--r", "2", "--s", "3", "--exhaustive")
    assert code == 0 and rep["results"]["value"] == 4


def test_mu_group_usage_errors(capsys):
    code, _, _ = run(capsys, "mu-group", "--r", "2", "--s", "2", "--exhaustive")
    assert code == 2
    code, _, _ = run(capsys, "mu-group", "--group", "unknown:1",
                     "--r", "2", "--s", "2", "--exhaustive")
    assert code == 2
    code, out, err = run(capsys, "mu-group", "--group", "cyclic:100000",
                         "--r", "2", "--s", "2", "--exhaustive")
    assert code == 2 and out == "" and err.startswith("error: group order")
    for extra, message in [(("--exhaustive", "--trials", "5"), "choose exactly one"),
                           (("--exhaustive", "--budget", "0"), "budget"),
                           (("--trials", "0"), "trials")]:
        code, out, err = run(capsys, "mu-group", "--group", "cyclic:6",
                             "--r", "2", "--s", "2", *extra)
        assert code == 2 and out == "" and err.startswith("error:") and message in err


@pytest.mark.parametrize("content, message", [
    ('{"cayley": 5}', "list of rows of integers"),
    ("[1, 2]", "JSON object"),
    ('{"cayley": [[null]]}', "list of rows of integers"),
    ('{"cayley": [[0.5]]}', "list of rows of integers"),
    (None, "cannot read group file"),
    ("{cayley", "malformed group file"),
    ('{"identity": 1, "cayley": [[0, 1], [1, 0]]}', "declared identity"),
    ('{"name": 5, "cayley": [[0]]}', "'name' must be of type str"),
    ('{"name": [1], "cayley": [[0]]}', "'name' must be of type str"),
    ('{"cayley": [[0]], "order": 1.0, "identity": false}', "'order' must be of type int"),
    ('{"cayley": [[0]], "order": true}', "'order' must be of type int"),
    ('{"cayley": [[0]], "identity": false}', "'identity' must be of type int"),
], ids=["cayley-int", "top-level-list", "null-entry", "float-entry", "unreadable",
        "not-json", "wrong-identity", "int-name", "list-name", "float-order",
        "bool-order", "bool-identity"])
def test_mu_group_rejects_bad_group_file(capsys, tmp_path, content, message):
    path = tmp_path / "group.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run(capsys, "mu-group", "--group-file", str(path),
                         "--r", "1", "--s", "1", "--exhaustive")
    assert code == 2 and out == "" and err.startswith("error:") and message in err


@pytest.mark.parametrize("exc, code, message", [
    (AssertionError("rank drifted"), 4, "error: invariant violated: rank drifted"),
    (MemoryError("pair table"), 3, "error: out of memory: pair table"),
    (KeyboardInterrupt(), 3, "error: interrupted"),
], ids=["assertion", "memory", "interrupt"])
def test_handler_failures_map_to_exit_codes(capsys, monkeypatch, exc, code, message):
    import subspace_products.cli as cli

    def failing(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_kappa", failing)
    got, out, err = run(capsys, "kappa", "--n", "4", "--r", "2", "--s", "2")
    assert got == code and out == ""
    assert err.strip() == message


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0

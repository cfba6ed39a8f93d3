import json
import time

import pytest

from subspace_products.cli import build_parser, main


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


@pytest.mark.parametrize("degrees, bad", [("1,-2", "[-2]"), ("0,1", "[0]")])
def test_kappa_names_a_non_positive_degree(capsys, degrees, bad):
    code, out, err = run(capsys, "kappa", "--degrees", degrees, "--r", "2", "--s", "3")
    assert code == 2 and out == ""
    assert err.strip() == f"error: degrees must be >= 1, got {bad}"


@pytest.mark.parametrize("degrees, bad", [("1,,2", ""), ("1,x", "x"), ("", "")])
def test_kappa_names_a_degree_that_is_not_an_integer(capsys, degrees, bad):
    code, out, err = run(capsys, "kappa", "--degrees", degrees, "--r", "2", "--s", "3")
    assert code == 2 and out == ""
    assert err.strip() == f"error: bad degrees {degrees!r}: {bad!r} is not an integer"


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


@pytest.mark.parametrize("argv", [
    ("kappa-table", "--degrees", "1", "--format", "text"),
    ("kappa-table", "--degrees", "1", "--format", "csv"),
    ("kappa-table", "--degrees", "1", "--format", "json"),
    ("kappa", "--degrees", "1,7", "--r", "3", "--s", "4"),
], ids=["text", "csv", "json", "kappa"])
def test_kappa_table_refuses_n_zero(capsys, argv):
    # a degree set given without an ambient degree has n = 0, so --n 0 with
    # --degrees matches it and must be refused by the n check itself
    code, out, err = run(capsys, *argv, "--n", "0")
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


@pytest.mark.parametrize("argv, pairs, value", [
    # kappa(3,3) over divisors(6) is 3 (the F_8 subfield), which the first few
    # canonical pairs cannot attain, so a tiny budget truncates the scan
    (("mu-field", "--field", "2^6", "--r", "3", "--s", "3", "--budget", "4"), 4, 5),
    # the order-21 (5, 9) minimum 13 lies past the first 1000 search nodes
    (("mu-group", "--group", "Z7xZ3semidirect", "--r", "5", "--s", "9", "--budget", "1000"),
     1000, 15),
], ids=["mu-field", "mu-group"])
def test_mu_budget_exit(capsys, argv, pairs, value):
    code, rep, _ = run_report(capsys, *argv, "--exhaustive")
    assert code == 3
    assert not rep["results"]["exhaustive"]
    assert rep["results"]["pairs_examined"] == pairs
    assert rep["results"]["value"] == value


def test_mu_field_has_no_workers_option(capsys):
    code, out, err = run(capsys, "mu-field", "--field", "2^4", "--r", "2", "--s", "2",
                         "--exhaustive", "--workers", "2")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --workers" in err


def test_mu_field_refuses_oversized_scan(run_python):
    # in a child process with a timeout: GF(2^30) (2, 2) has basis rows of
    # 2^28 values, which must be refused before any is built, whatever the budget
    proc = run_python("-m", "subspace_products.cli", "mu-field", "--field", "2^30",
                      "--r", "2", "--s", "2", "--budget", "100", "--exhaustive", timeout=5)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    # GF(2^40) (20, 20): each row takes 2^20 values, but a profile's 19 rows
    # take 19 * 2^20, refused before the first row is built
    proc = run_python("-m", "subspace_products.cli", "mu-field", "--field", "2^40",
                      "--r", "20", "--s", "20", "--exhaustive", timeout=5)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "takes 19922944 values" in proc.stderr


def test_mu_field_scans_a_huge_field_when_its_rows_fit(capsys):
    # GF(2^16): rows of at most 2^8 values, however many subspaces there are
    code, rep, _ = run_report(capsys, "mu-field", "--field", "2^16", "--r", "1",
                              "--s", "8", "--exhaustive")
    assert code == 0
    assert (rep["results"]["value"], rep["results"]["exhaustive"],
            rep["results"]["pairs_examined"]) == (8, True, 1)
    t0 = time.perf_counter()
    code, rep, _ = run_report(capsys, "mu-field", "--field", "2^16", "--r", "8",
                              "--s", "8", "--exhaustive")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and not rep["results"]["exhaustive"]
    assert rep["results"]["pairs_examined"] == 10 ** 9


@pytest.mark.parametrize("spec", ["65521^3000000", "3^10000000"])
def test_construct_refuses_huge_degree_before_the_power(run_python, spec):
    # p^n has millions of digits; the size check must not compute it first
    proc = run_python("-m", "subspace_products.cli", "construct", "--field", spec,
                      "--r", "1", "--s", "1", timeout=2)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_mu_field_randomized_replay(capsys):
    argv = ("mu-field", "--field", "2^6", "--r", "3", "--s", "3",
            "--trials", "200", "--seed", "7")
    code1, rep1, _ = run_report(capsys, *argv)
    code2, rep2, _ = run_report(capsys, *argv)
    assert code1 == code2 == 0
    assert rep1["results"] == rep2["results"]
    assert rep1["seed"] == 7


def test_mu_field_entropy_seed_echoed(capsys):
    argv = ("mu-field", "--field", "2^6", "--r", "3", "--s", "3", "--trials", "5")
    code, rep, _ = run_report(capsys, *argv)
    assert code == 0
    seed = rep["seed"]
    assert isinstance(seed, int) and 0 <= seed < 2 ** 32
    # the echoed seed replays the run: same value, same witnesses
    code, again, _ = run_report(capsys, *argv, "--seed", str(seed))
    assert code == 0 and again["seed"] == seed
    assert again["results"] == rep["results"]


def test_cli_import_leaves_hashlib_unloaded(run_python):
    # the entropy seed needs no hashlib, whose OpenSSL load costs every
    # process that imports the CLI a few MB of RSS
    proc = run_python("-c", "import sys, subspace_products.cli; "
                            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
    code, out, err = run(capsys, "construct", "--field", "2^4",
                         "--modulus", "1,1,0,0,2", "--r", "2", "--s", "2")
    assert code == 2 and out == ""
    assert err.strip() == "error: modulus coefficients must lie in [0, p)"


def test_empty_modulus_is_refused(capsys):
    code, out, err = run(capsys, "mu-field", "--field", "2^4", "--modulus", "",
                         "--r", "1", "--s", "1", "--exhaustive")
    assert code == 2 and out == "" and err.startswith("error: bad modulus ''")


@pytest.mark.parametrize("spec", ["2^x", "2^", "2^6^2", "x"])
def test_bad_field_spec_is_named(capsys, spec):
    code, out, err = run(capsys, "construct", "--field", spec, "--r", "2", "--s", "2")
    assert code == 2 and out == ""
    assert err.strip() == (f"error: bad field spec {spec!r}: "
                           f"expected p^n or p, with integers p and n")


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
    assert err.strip() == "error: bad subspace row '1,0': expected 4 coordinates, got 2"
    path.write_text("1,0,0,0\n1,0,2,0\n")
    code, out, err = run(capsys, "stabilizer", "--field", "2^4", "--subspace", str(path))
    assert code == 2 and out == ""
    assert err.strip() == "error: bad subspace row '1,0,2,0': coordinates must lie in [0, 2)"
    path.write_text("1,0,0,0\n1,0,x,0\n")
    code, out, err = run(capsys, "stabilizer", "--field", "2^4", "--subspace", str(path))
    assert code == 2 and out == ""
    assert err.strip() == "error: bad subspace row '1,0,x,0': 'x' is not an integer"
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


def test_verify_kneser_reports_its_first_violation(capsys, monkeypatch):
    import dataclasses

    import subspace_products.cli as cli

    real, seen = cli.kneser_check, []

    def check(a, b):
        # the third seeded pair reports a violation, with its true slack
        seen.append((a, b, real(a, b)))
        rep = seen[-1][2]
        return dataclasses.replace(rep, holds=False) if len(seen) == 3 else rep

    monkeypatch.setattr(cli, "kneser_check", check)
    code, rep, _ = run_report(capsys, "verify-kneser", "--field", "2^6",
                              "--r", "2", "--s", "3", "--pairs", "20", "--seed", "1")
    res = rep["results"]
    a, b, bad = seen[2]
    assert code == 4 and len(seen) == 20
    assert res["violations"] == 1 and res["subfield_check_failures"] == 0
    assert res["slack_histogram"][str(bad.slack)] >= 1
    assert sum(res["slack_histogram"].values()) == 20
    assert res["first_violation"] == {"witness_a": a.to_text().splitlines(),
                                      "witness_b": b.to_text().splitlines()}


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


def test_mu_group_checks_range_before_the_bound(capsys):
    code, out, err = run(capsys, "mu-group", "--group", "Z7xZ3semidirect",
                         "--r", "22", "--s", "1", "--exhaustive")
    assert code == 2 and out == ""
    assert err.strip() == "error: r=22, s=1 must lie in [1, 21]"


@pytest.mark.parametrize("name", ["product:2", "cyclic:", "product:2,3,4"])
def test_mu_group_names_the_form_of_a_malformed_group(capsys, name):
    code, out, err = run(capsys, "mu-group", "--group", name, "--r", "1", "--s", "1",
                         "--exhaustive")
    assert code == 2 and out == ""
    assert err.strip() == (f"error: malformed group name {name!r}: "
                           "expected cyclic:n or product:n,m")


def test_mu_group_loads_order64_group_file_quickly(capsys, tmp_path):
    # the XOR table of (Z/2)^6 has 2,825 subgroups
    path = tmp_path / "xor64.json"
    path.write_text(json.dumps({"cayley": [[x ^ y for y in range(64)] for x in range(64)]}))
    t0 = time.perf_counter()
    code, rep, _ = run_report(capsys, "mu-group", "--group-file", str(path),
                              "--r", "1", "--s", "1", "--exhaustive")
    assert time.perf_counter() - t0 < 1.5
    assert code == 0
    assert rep["results"]["subgroup_orders"] == [1, 2, 4, 8, 16, 32, 64]


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
    ("[" * 100000 + "]" * 100000, "malformed group file: maximum recursion depth exceeded"),
], ids=["cayley-int", "top-level-list", "null-entry", "float-entry", "unreadable",
        "not-json", "wrong-identity", "int-name", "list-name", "float-order",
        "bool-order", "bool-identity", "deep-nesting"])
def test_mu_group_rejects_bad_group_file(capsys, tmp_path, content, message):
    path = tmp_path / "group.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run(capsys, "mu-group", "--group-file", str(path),
                         "--r", "1", "--s", "1", "--exhaustive")
    assert code == 2 and out == "" and err.startswith("error:") and message in err


@pytest.mark.parametrize("argv, what", [
    (("mu-group", "--r", "1", "--s", "1", "--exhaustive", "--group-file"), "group"),
    (("stabilizer", "--field", "2^4", "--subspace"), "subspace"),
], ids=["group-file", "subspace-file"])
def test_non_utf8_file_is_named(capsys, tmp_path, argv, what):
    path = tmp_path / "bytes.txt"
    path.write_bytes(b"\xff\xfe1,0,0,0\n")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.strip() == (f"error: cannot read {what} file: 'utf-8' codec can't decode "
                           f"byte 0xff in position 0: invalid start byte")


@pytest.mark.parametrize("argv, message", [
    ("mu-field --field 2^-4 --r 1 --s 1 --exhaustive", "n must be >= 1, got -4"),
    ("mu-field --field 65537^1 --r 1 --s 1 --exhaustive",
     "p=65537 exceeds the supported bound 65536"),
    ("verify-kneser --field 65521^4 --r 2 --s 2 --pairs 2 --seed 1",
     "p^n = 65521^4 exceeds the supported bound 9223372036854775808"),
    ("mu-field --field 2^4 --modulus 1,0,0,0,1 --r 1 --s 1 --exhaustive",
     "modulus is not irreducible over F_p"),
    ("stabilizer --field 2^4 --subspace {dir}",
     "cannot read subspace file: [Errno 21] Is a directory: '{dir}'"),
    ("mu-group --group cyclic:99999999999999999999 --r 1 --s 1 --exhaustive",
     "group order must be in [1, 64], got 99999999999999999999"),
    ("kappa --n 18446744073709551616 --r 1 --s 1",
     "n=18446744073709551616 must lie in [1, 2^64)"),
    ("mu-field --field 2^4 --r 2 --s 2 --trials -1 --seed 3", "trials must be >= 1"),
], ids=["negative-degree", "prime-too-large", "field-too-large", "reducible-modulus",
        "subspace-is-a-directory", "group-order-too-large", "kappa-n-too-large",
        "negative-trials"])
def test_bad_input_exits_2_with_one_error_line(capsys, tmp_path, argv, message):
    # usage exit: nothing on stdout, the one line naming the input on stderr
    code, out, err = run(capsys, *argv.format(dir=tmp_path).split())
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: " + message.format(dir=tmp_path)]
    assert "Traceback" not in err


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


def test_main_calls_share_no_parsed_state(capsys):
    # the parser is built once per process; each call parses into its own namespace
    assert build_parser() is build_parser()
    code, rep, _ = run_report(capsys, "kappa", "--n", "16", "--r", "3", "--s", "5")
    assert code == 0 and rep["params"]["n"] == 16
    code, rep, _ = run_report(capsys, "kappa", "--degrees", "1,2", "--r", "3", "--s", "5")
    assert code == 0 and "n" not in rep["params"] and rep["params"]["degrees"] == "1,2"


def test_usage_error_leaves_the_next_report_unchanged(capsys):
    argv = ("construct", "--field", "3^4", "--r", "2", "--s", "3")
    code, first, _ = run_report(capsys, *argv)
    assert code == 0
    first.pop("elapsed_seconds")
    for bad in (("construct", "--field", "3^4", "--r", "2"),            # argparse
                ("construct", "--field", "3^4", "--r", "2", "--s", "9"),  # handler
                ("kappa-table", "--n", "4", "--format", "xml")):
        assert run(capsys, *bad)[0] == 2
        code, again, _ = run_report(capsys, *argv)
        assert code == 0
        again.pop("elapsed_seconds")
        assert json.dumps(again) == json.dumps(first)


def test_reducible_modulus_is_refused_after_the_default_field(capsys):
    assert run(capsys, "construct", "--field", "2^4", "--r", "2", "--s", "2")[0] == 0
    code, out, err = run(capsys, "construct", "--field", "2^4", "--modulus", "1,0,0,0,1",
                         "--r", "2", "--s", "2")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: modulus is not irreducible over F_p"]


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "verlinde.cli"]
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=env)


def test_split_inline_polynomials():
    res = run_cli("split", "--n", "2", "--d", "2", "--k", "3",
                  "--f1", "x0*x1", "--f2", "x0*x2")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["type"] == [2, 1, 0, 0, 0, 0, 0]
    assert out["p"] == 5
    assert out["generic"] is False
    assert out["gcd_degree"] == 1
    assert out["dominance"] == "dominates"


def test_split_sampled_line_is_generic():
    res = run_cli("split", "--n", "2", "--d", "2", "--k", "3",
                  "--sample", "random", "--seed", "1")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["type"] == [1, 1, 1, 0, 0, 0, 0]
    assert out["generic"] is True
    assert out["dominance"] == "equal"


def test_split_reads_json_and_file(tmp_path):
    poly = {"n": 2, "degree": 2, "terms": [{"c": "1", "e": [1, 1, 0]}]}
    path = tmp_path / "f1.json"
    path.write_text(json.dumps(poly))
    res = run_cli("split", "--n", "2", "--d", "2", "--k", "3",
                  "--f1", f"@{path}", "--f2", json.dumps(
                      {"n": 2, "degree": 2, "terms": [{"c": "1", "e": [1, 0, 1]}]}))
    assert res.returncode == 0
    assert json.loads(res.stdout)["p"] == 5


def test_split_missing_partner_is_usage_error():
    res = run_cli("split", "--n", "2", "--d", "2", "--k", "3", "--f1", "x0*x1")
    assert res.returncode == 2
    assert "--f2" in res.stderr


def test_split_neither_source_is_usage_error():
    res = run_cli("split", "--n", "2", "--d", "2", "--k", "3")
    assert res.returncode == 2


@pytest.mark.parametrize("forms", [["--f1", "x0*x1", "--f2", "x0*x2"], ["--f2", "x0*x2"]])
@pytest.mark.parametrize("mode", ["random", "jumping:999"])
def test_split_refuses_forms_and_a_sample_together(capsys, forms, mode):
    # the sample used to be dropped silently whenever a form was given
    from verlinde import cli

    assert cli.main(["split", "--n", "2", "--d", "2", "--k", "3", *forms, "--sample", mode]) == 2
    out = capsys.readouterr()
    assert "--sample, not both" in out.err and out.out == ""


def test_split_malformed_term_names_offender():
    bad = json.dumps({"n": 2, "degree": 2, "terms": [{"c": "1", "e": [2, 0, 1]}]})
    res = run_cli("split", "--n", "2", "--d", "2", "--k", "3",
                  "--f1", bad, "--f2", "x0*x1")
    assert res.returncode == 2
    assert "term 0" in res.stderr


@pytest.mark.parametrize("f1", [
    json.dumps({"n": 2, "degree": 2, "terms": 5}),
    json.dumps({"n": 2, "degree": 2, "terms": None}),
    json.dumps({"n": float("inf"), "degree": 2, "terms": []}),
    json.dumps({"n": 2, "degree": 2, "terms": [{"c": float("inf"), "e": [2, 0, 0]}]}),
    "1/0*x0^2",
])
def test_split_malformed_input_is_usage_error(f1):
    res = run_cli("split", "--n", "2", "--d", "2", "--k", "3", "--f1", f1, "--f2", "x0*x1")
    assert res.returncode == 2
    assert "--f1" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("f1", [
    json.dumps({"n": 2, "degree": 2, "terms": [{"c": "1", "e": [1.9, 1, 0]}]}),
    json.dumps({"n": 2, "degree": 2, "terms": [{"c": 0.1, "e": [1, 1, 0]}]}),
    json.dumps({"n": 2.5, "degree": 2, "terms": [{"c": "1", "e": [1, 1, 0]}]}),
    json.dumps({"n": 2, "degree": 2.5, "terms": [{"c": "1", "e": [1, 1, 0]}]}),
    json.dumps({"n": 2, "degree": 2, "terms": [{"c": True, "e": [1, 1, 0]}]}),
])
def test_split_non_integer_json_number_is_usage_error(f1):
    # each of these was read before: 1.9 truncated to 1, 0.1 taken as its
    # binary fraction, 2.5 as 2, true as 1
    res = run_cli("split", "--n", "2", "--d", "2", "--k", "3", "--f1", f1, "--f2", "x0*x1")
    assert res.returncode == 2
    assert "--f1" in res.stderr and "Traceback" not in res.stderr


def test_split_rational_form_matches_integer_multiple():
    # the pencil is built from the forms' integer multiples, which only
    # rescales (s, t); the output still prints the forms as given
    common = ("split", "--n", "2", "--d", "2", "--k", "3")
    cases = [
        (("1/2*x0*x1", "x0*x2"), ("x0*x1", "x0*x2"),
         ([{"c": "1/2", "e": [1, 1, 0]}],
          [{"c": "1", "e": [1, 0, 1]}])),
        (("1/2*x0*x1 + 3*x2^2", "x0*x2 - 2/3*x1^2"),
         ("x0*x1 + 6*x2^2", "3*x0*x2 - 2*x1^2"),
         ([{"c": "1/2", "e": [1, 1, 0]}, {"c": "3", "e": [0, 0, 2]}],
          [{"c": "1", "e": [1, 0, 1]}, {"c": "-2/3", "e": [0, 2, 0]}])),
    ]
    for rational, integral, (terms1, terms2) in cases:
        half = run_cli(*common, "--f1", rational[0], "--f2", rational[1])
        whole = run_cli(*common, "--f1", integral[0], "--f2", integral[1])
        assert half.returncode == whole.returncode == 0
        out, want = json.loads(half.stdout), json.loads(whole.stdout)
        assert out["f1"] == {"n": 2, "degree": 2, "terms": terms1}
        assert out["f2"] == {"n": 2, "degree": 2, "terms": terms2}
        assert out["type"] == want["type"]
        assert (out["p"], out["generic"]) == (want["p"], want["generic"])


@pytest.mark.parametrize("mode", ["jumping:1_0", "jumping:+1", "jumping:01", "jumping:", "jumping:x"])
def test_split_unknown_sample_mode_is_usage_error(mode):
    res = run_cli("split", "--n", "2", "--d", "2", "--k", "3", "--sample", mode)
    assert res.returncode == 2 and res.stdout == ""
    assert "unknown sampling mode" in res.stderr and "Traceback" not in res.stderr


def test_split_degenerate_line_rejected():
    res = run_cli("split", "--n", "2", "--d", "2", "--k", "3",
                  "--f1", "x0*x1", "--f2", "2*x0*x1")
    assert res.returncode == 2


def test_split_deterministic_bytes():
    args = ("split", "--n", "2", "--d", "2", "--k", "4", "--sample", "jumping:1", "--seed", "9")
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_split_no_gcd_trials_is_usage_error(monkeypatch, capsys):
    # exited 0 with "gcd_degree": null, then 2 only after the splitting type
    import verlinde.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("pencil work done before the trials check")

    monkeypatch.setattr(cli, "splitting_type", forbidden)
    monkeypatch.setattr(cli, "is_generic_type", forbidden)
    assert cli.main(["split", "--n", "2", "--d", "2", "--k", "3",
                     "--sample", "random", "--trials", "0"]) == 2
    out = capsys.readouterr()
    assert "trials" in out.err and out.out == ""


def test_split_oversized_pencil_refused_before_any_matrix(monkeypatch, capsys):
    import verlinde.cli as cli
    import verlinde.family as family

    def forbidden(*args, **kwargs):
        raise AssertionError("work done before the size guard")

    monkeypatch.setattr(family, "_multiplication_pencil", forbidden)
    monkeypatch.setattr(cli, "sample_line", forbidden)
    monkeypatch.setattr(cli, "_load_poly", forbidden)
    # w*u = 18564 * 5005, about 9.3e7
    assert cli.main(["split", "--n", "6", "--d", "3", "--k", "12", "--sample", "random"]) == 2
    err = capsys.readouterr().err
    assert "too large" in err


def test_split_reference_cells_fit_the_size_guard():
    from verlinde.cli import SPLIT_MAX_CELLS
    from verlinde.family import context

    for cell in [(3, 3, 7), (3, 4, 8), (3, 4, 9), (2, 4, 9)]:
        ctx = context(*cell)
        assert 2 * ctx.w * ctx.u <= SPLIT_MAX_CELLS


def _forbid_split_work(monkeypatch, cli):
    def forbidden(*args, **kwargs):
        raise AssertionError("work done before the size guard")

    for name in ("context", "sample_line", "_load_poly"):
        monkeypatch.setattr(cli, name, forbidden)


def test_split_prices_the_forms_when_k_is_below_d(monkeypatch, capsys):
    # u = 0, so 2*w*u = 0; the forms' C(1002, 2) = 501501 coefficients each
    # were read and split before anything priced them
    import verlinde.cli as cli

    _forbid_split_work(monkeypatch, cli)
    assert cli.main(["split", "--n", "2", "--d", "1000", "--k", "1",
                     "--f1", "x0^1000", "--f2", "x1^1000"]) == 2
    out = capsys.readouterr()
    assert "forms too large" in out.err and out.out == ""


def test_split_refused_before_any_exact_binomial(monkeypatch, capsys):
    # context() would compute C(2*10**6, 10**6) exactly, about 38 s
    import verlinde.cli as cli

    _forbid_split_work(monkeypatch, cli)
    assert cli.main(["split", "--n", "1000000", "--d", "1", "--k", "1000000",
                     "--sample", "random"]) == 2
    assert "too large" in capsys.readouterr().err


def test_split_size_guard_prices_exactly_up_to_the_cap():
    from verlinde.cli import SPLIT_MAX_CELLS, _check_split_size, _comb_past

    for a in range(12):
        for b in range(-1, a + 2):
            exact = math.comb(a, b) if b >= 0 else 0
            assert _comb_past(a, b, 100) == (exact if exact <= 100 else 101)
    assert _comb_past(10**12, 10**11, SPLIT_MAX_CELLS) == SPLIT_MAX_CELLS + 1
    _check_split_size(2, 314, 1)  # 2 * C(316, 2) = 99540 coefficients
    with pytest.raises(ValueError, match="forms too large"):
        _check_split_size(2, 315, 1)  # 2 * C(317, 2) = 100172
    _check_split_size(3, 4, 9)  # 2*w*u = 24640
    with pytest.raises(ValueError, match="pencil too large"):
        _check_split_size(2, 1, 10**9)


@pytest.mark.parametrize("cell,mode,positions", [
    ((2, 200, 200), "jumping:100", 26_532_801),
    ((2, 80, 1), "jumping:40", 741_321),
    ((2, 60, 1), "jumping:30", 246_016),
    ((2, 40, 1), "jumping:20", 53_361),
    ((3, 4, 8), "jumping:3", 80),
    ((3, 3, 9), "jumping:2", 40),
])
def test_split_size_guard_prices_the_planted_product(cell, mode, positions):
    # h*g's product table holds C(D+n, n)*C(d-D+n, n) positions
    from verlinde.cli import SPLIT_MAX_CELLS, _check_split_size

    n, d, _ = cell
    D = int(mode[8:])
    assert math.comb(D + n, n) * math.comb(d - D + n, n) == positions
    _check_split_size(*cell, "random")  # forms and pencil fit
    if positions <= SPLIT_MAX_CELLS:
        _check_split_size(*cell, mode)
    else:
        with pytest.raises(ValueError, match="planted product too large"):
            _check_split_size(*cell, mode)


def test_split_oversized_planted_product_refused_before_sampling(monkeypatch, capsys):
    # the h*g table at (2, 200, 200) jumping:100 took 18.9 s and 244 MB to build
    # (2-vCPU Xeon, Python 3.11)
    import verlinde.cli as cli
    import verlinde.family as family

    def forbidden(*args, **kwargs):
        raise AssertionError("line sampled before the size guard")

    for owner in (cli, family):
        monkeypatch.setattr(owner, "sample_line", forbidden)
    monkeypatch.setattr(family, "random_form", forbidden)
    assert cli.main(["split", "--n", "2", "--d", "200", "--k", "200",
                     "--sample", "jumping:100"]) == 2
    out = capsys.readouterr()
    assert "planted product too large" in out.err and out.out == ""


@pytest.mark.parametrize("where,depth", [("inline", 5000), ("file", 100_000)])
def test_split_deeply_nested_json_is_usage_error(tmp_path, where, depth):
    # the JSON decoder raises RecursionError, not a ValueError, past its depth
    spec = '{"n": ' + "[" * depth + "]" * depth + ', "degree": 2, "terms": []}'
    if where == "file":
        path = tmp_path / "f1.json"
        path.write_text(spec)
        spec = f"@{path}"
    res = run_cli("split", "--n", "2", "--d", "2", "--k", "3", "--f1", spec, "--f2", "x0*x1")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: --f1: ") and "Traceback" not in res.stderr


def test_split_small_cell_below_d_is_admitted():
    res = run_cli("split", "--n", "2", "--d", "2", "--k", "1", "--f1", "x0^2", "--f2", "x1^2")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["type"] == [0, 0, 0] and out["p"] == 3 and out["gcd_degree"] == 0


# sha256 of stdout, recorded before the per-line memo; any change to these
# bytes is a change of output, not of speed
GOLDEN = {
    ("split", "--n", "3", "--d", "3", "--k", "7", "--sample", "random", "--seed", "0"):
        "33ae7e1dc1d56c5633f4a12283e1584370ae06a76f77bee722949a5156622baa",
    ("split", "--n", "3", "--d", "4", "--k", "8", "--sample", "random", "--seed", "0"):
        "383b950d73b667fcd6dbb05ac39635327b612346d6f05fae16899302c00fe0b2",
    ("split", "--n", "3", "--d", "4", "--k", "9", "--sample", "random", "--seed", "0"):
        "da7c21f9b0e4a1dbd6e6495cb0751c61fcea1311a538a930981e27b0ee7ab290",
    # planted lines, whose h-sequences run past h(3) > 0 (random ones stop at h(3) = 0)
    ("split", "--n", "3", "--d", "3", "--k", "7", "--sample", "jumping:2", "--seed", "0"):
        "994a2ce6b9ade84e1cbc16321e8e2c081c569be2ffc0d715803c1e932da861da",
    ("split", "--n", "3", "--d", "4", "--k", "8", "--sample", "jumping:2", "--seed", "0"):
        "0d2b0c501e73efa5d371f12512a089b2b745ff696e64f7edee71a5e974a05e19",
    ("split", "--n", "3", "--d", "4", "--k", "9", "--sample", "jumping:2", "--seed", "0"):
        "a807499e59b65288f5dbc006730732188bb0747c9b7f8956515a2a1e4cf6f128",
    # seven h-steps of three primes each, the last one empty: recorded before
    # an empty kernel returned at its first prime and the Hadamard cap's
    # largest entry was scanned once a stack
    ("split", "--n", "3", "--d", "3", "--k", "9", "--sample", "jumping:2", "--seed", "0"):
        "24c8f4411a57749c5cbe80d2281946f8946ce9b799f37bc27c6e8c33b9aab99e",
    # a cell whose steps cut their rows: the first step's cut run checks its
    # first failed lift against the full rows; recorded before that check
    # became the cut's one check
    ("split", "--n", "3", "--d", "4", "--k", "10", "--sample", "random", "--seed", "0"):
        "70c40b4a7dde4563ff6a815f686b84ce088342647a783fec8b6a4727cd59f581",
    ("jumping-class", "--n", "2", "--d", "2", "--seed", "0"):
        "934313197d42635050e4b11fefff0dc00056a2cdd1e45b038f61933d5a5432dc",
    ("jumping-class", "--n", "3", "--d", "3", "--seed", "0"):
        "7a0f0fd74c9d315621bb42de97efefe38bc7da46ddb8e58e8fc642ccb8d89bf5",
    # the dearest pairs, recorded before dim Z moved to the factored Jacobian
    ("jumping-class", "--n", "3", "--d", "5", "--seed", "0"):
        "d43bda4c4b9f7e64296a2fe455747e8a08e930bded18482e1ba70e52e4d9b59c",
    ("jumping-class", "--n", "2", "--d", "9", "--seed", "0"):
        "f5988b557f5cb0e6d0931839692209328e87757c5aabc401ea675c505a7c90c6",
    # the other desk-scale pairs, recorded before the Jacobian's columns
    # were ranked from one-pass residues, g-columns first
    ("jumping-class", "--n", "2", "--d", "3", "--seed", "0"):
        "a0d6e6532d92d2d0328ce269d8e1102be8a1c0748d489c16e0d1706f68374e20",
    ("jumping-class", "--n", "2", "--d", "4", "--seed", "0"):
        "bdb9443d713457a5d87925f614e910333573d78f23284125f7c523c99ae2b3ae",
    ("jumping-class", "--n", "2", "--d", "5", "--seed", "0"):
        "1f307ec68523ffd74850ab447a30c641aabcb5264b685787fe39d391c3bd0e70",
    ("jumping-class", "--n", "2", "--d", "6", "--seed", "0"):
        "c3fae8a9cc1ba7ae805e74d58b065c8a83222d500f45d49249aafa917bfecbaf",
    ("jumping-class", "--n", "2", "--d", "7", "--seed", "0"):
        "a5a967526536a2cd633a74bd00de255372da942624ab51f8a2c736560ed8ab20",
    ("jumping-class", "--n", "2", "--d", "8", "--seed", "0"):
        "6f5f58e55c3468002430e3cfb01410b3e0af4e317e0a985a8652b057083b58cf",
    ("jumping-class", "--n", "3", "--d", "2", "--seed", "0"):
        "35cd8acf7ef4af249675623ece9735116f8d61b055fae2ba51158eae8cacbf87",
    ("jumping-class", "--n", "3", "--d", "4", "--seed", "0"):
        "894296db5988d42bf95f3d94cfec6d7cb884837c1b4f5d83932b7a11018767bb",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_reference_outputs_are_byte_identical(argv, capsys):
    import verlinde.cli as cli

    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[argv]


def test_the_cut_golden_split_takes_the_first_failed_lift_check(monkeypatch, capsys):
    # its first h-step needs two primes: the cut run's lift fails at the
    # first, where _holds passes, and certifies at the second; its last
    # step returns the empty kernel at its first prime
    import verlinde.cli as cli
    from verlinde import linalg

    holds, check = [], linalg.KernelStack._holds

    def holding(stack, c, *args):
        holds.append((c, check(stack, c, *args)))
        return holds[-1][1]

    monkeypatch.setattr(linalg.KernelStack, "_holds", holding)
    argv = ("split", "--n", "3", "--d", "4", "--k", "10", "--sample", "random", "--seed", "0")
    assert cli.main(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == GOLDEN[argv]
    assert holds == [(linalg._FOLDS[0], True)]


def test_jumping_class_report():
    res = run_cli("jumping-class", "--n", "2", "--d", "2", "--seed", "0")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["dim_z"] == {"paper": 6, "oracle": 4}
    assert out["flags"] == ["DIM_MISMATCH", "OUT_OF_RANGE_INDEX"]
    assert all(row["equal"] for row in out["coefficient_table"])


def test_jumping_class_no_jacobian_trials_is_usage_error():
    # exited 0 reporting dim_z.oracle = 0: no Jacobian was ranked
    res = run_cli("jumping-class", "--n", "2", "--d", "2", "--trials", "0")
    assert res.returncode == 2
    assert "trials" in res.stderr and res.stdout == ""


def test_jumping_class_out_of_scope_n():
    res = run_cli("jumping-class", "--n", "4", "--d", "2")
    assert res.returncode == 2
    assert "restricted to n in {2, 3}" in res.stderr
    assert res.stdout == ""


def test_jumping_class_desk_scale_bound():
    res = run_cli("jumping-class", "--n", "2", "--d", "20")
    assert res.returncode == 2
    assert "desk-scale" in res.stderr


def test_verify_unknown_suite():
    res = run_cli("verify", "--suite", "nosuch")
    assert res.returncode == 2


def test_verify_algebra_deterministic_and_passing():
    args = ("verify", "--suite", "algebra", "--seed", "42")
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    out = json.loads(a.stdout)
    assert out["passed"] is True
    assert out["suites"][0]["failures"] == []
    assert "wall" not in a.stdout  # timing stays on stderr
    # the CLI's own summary line, timed around the suite
    assert re.fullmatch(r"\[algebra\] cases=117 ok \(\d+\.\ds\)\n", a.stderr)


def test_verify_exit_one_on_failure(monkeypatch, capsys):
    import verlinde.cli as cli
    from verlinde.suites import SuiteResult

    failing = SuiteResult("algebra", 0)
    failing.record("some_check", "case-0", 1, 2)
    monkeypatch.setitem(cli.SUITES, "algebra", lambda seed: failing)
    rc = cli.main(["verify", "--suite", "algebra", "--seed", "0"])
    assert rc == 1
    captured = capsys.readouterr()
    assert re.fullmatch(r"\[algebra\] cases=0 1 FAILURES \(\d+\.\ds\)\n", captured.err)
    out = json.loads(captured.out)
    assert out["passed"] is False
    assert out["suites"][0]["failures"]


@pytest.mark.parametrize("command", ["split", "jumping-class"])
def test_trials_help_says_the_oracle_stops_early(command):
    res = run_cli(command, "--help")
    assert res.returncode == 0
    assert "stops once a trial proves the value" in " ".join(res.stdout.split())

"""Command-line interface: subcommands, job files, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

import germkit
from germkit import parse_poly, parse_ring, std, vdim
from germkit.cli import _germkit_env, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# one-shot subcommands


def test_mult_zariski(capsys):
    code, out, _ = run(
        capsys, "mult", "--ring", "0 (x,y,z) ds", "--family", "zariski:40,30,8:t=0"
    )
    assert code == 0 and out.strip() == "17"


def test_milnor_json_envelope(capsys):
    code, out, _ = run(capsys, "milnor", "--family", "ft:5,4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["mu"] == 11
    assert data["characteristic"] == 0
    assert data["ordering"] == "ds"
    assert data["strategy"]["pair_selection"] == "sugar"
    assert "version" in data


def test_ft_report(capsys):
    code, out, _ = run(capsys, "ft", "--k", "5", "--l", "4", "--report")
    assert code == 0
    data = json.loads(out)
    assert data["mu"] == 11 and data["tau"] == 10
    assert data["quasi_homogeneous"] == "no"


def test_ft_plain_text(capsys):
    code, out, _ = run(capsys, "ft", "--k", "6", "--l", "5")
    assert code == 0
    assert "mu 13" in out and "tau 12" in out


def test_qh_weights(capsys):
    code, out, _ = run(capsys, "qh", "--ring", "0 (x,y) ds", "--poly", "x^2+y^3")
    assert code == 0
    assert out.startswith("yes")
    assert "1/2" in out and "1/3" in out


def test_std_and_vdim(capsys):
    code, out, _ = run(
        capsys, "std", "--ring", "0 (x,y) dp", "--poly", "x^2+y", "--poly", "x*y-1"
    )
    assert code == 0
    assert "y^2+x" in out.splitlines()
    code, out, _ = run(
        capsys, "vdim", "--ring", "0 (x,y) dp", "--poly", "x^2+y", "--poly", "x*y-1"
    )
    assert code == 0 and out.strip() == "3"


def test_vdim_infinite(capsys):
    code, out, _ = run(capsys, "vdim", "--ring", "0 (x,y) ds", "--poly", "x")
    assert code == 0 and out.strip() == "infinite"


@pytest.mark.parametrize("polys, want", [(["x^2", "y^3"], 6), (["x"], "infinite")])
def test_vdim_json_value(capsys, polys, want):
    argv = ["vdim", "--ring", "0 (x,y) ds", "--json"]
    for s in polys:
        argv += ["--poly", s]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["vdim"] == want


def test_reiffen_text(capsys):
    code, out, _ = run(capsys, "reiffen", "--family", "ft:5,4")
    assert code == 0
    assert "verdict: exact-up-to-order-3" in out
    assert "mu 11 = 12 - 1" in out


def test_char_override(capsys):
    code, out, _ = run(
        capsys, "tjurina", "--family", "ft:5,4", "--char", "32003", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["characteristic"] == 32003 and data["tau"] == 10


def test_family_honors_ring(capsys):
    code, out, _ = run(
        capsys, "milnor", "--ring", "32003 (x,y,z) ds", "--family", "ft:5,4", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["characteristic"] == 32003 and data["mu"] == 11


def test_family_honors_ordering(capsys):
    code, out, _ = run(capsys, "milnor", "--family", "ft:5,4", "--ordering", "ls", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ordering"] == "ls" and data["mu"] == 11


@pytest.mark.parametrize("argv", [
    ["std", "--family", "ft:5,4", "--ordering", "dp"],
    ["ft", "--k", "5", "--l", "4", "--ordering", "dp"],
    ["milnor", "--family", "zariski:16,12,4:t=1", "--ordering", "dp"],
])
def test_family_needs_local_ordering(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1 and "ModeOrderingMismatch" in err


def test_json_determinism(capsys):
    args = ("milnor", "--family", "ft:6,5", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_env_overrides(capsys, monkeypatch):
    monkeypatch.setenv("GERMKIT_STRATEGY", "fifo")
    code, out, _ = run(capsys, "milnor", "--family", "ft:5,4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["strategy"]["pair_selection"] == "fifo"
    assert data["mu"] == 11


# ---------------------------------------------------------------------------
# usage errors


def test_missing_input_is_usage_error(capsys):
    code, _, err = run(capsys, "milnor")
    assert code == 2 and "need --family or --poly" in err


def test_unknown_family(capsys):
    code, _, err = run(capsys, "milnor", "--family", "brieskorn:2,3")
    assert code == 2 and "unknown family" in err


@pytest.mark.parametrize("argv", [
    ["zariski", "--a", "16", "--b", "12", "--c", "4", "--t", "abc"],
    ["milnor", "--family", "zariski:16,12,4:t=1/0"],
])
def test_bad_family_parameter_is_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and "t takes an integer or a fraction" in err


def test_no_command_prints_usage(capsys):
    code, _, err = run(capsys)
    assert code == 2


def test_computation_error_maps_to_one(capsys):
    code, _, err = run(capsys, "milnor", "--ring", "0 (x,y) ds", "--poly", "x+q")
    assert code == 1 and "q" in err


@pytest.mark.parametrize("poly", ["3^65536", "(x+1)^65536"])
def test_literal_power_past_the_exponent_range_maps_to_one(capsys, poly):
    # refused by the parser before the power is computed
    code, out, err = run(capsys, "vdim", "--ring", "0 (x,y) ds", "--poly", poly)
    assert code == 1 and not out
    assert "ExponentOverflow: exponent 65536 out of range [0, 2^16)" in err


@pytest.mark.parametrize("order, code, message", [
    ("65", 1, "ResourceExhausted: condition-1 linear algebra refused at order 65"
              " (limit 64)"),
    ("-1", 1, "ParameterOutOfRange: truncation order must be a non-negative"
              " integer"),
    ("abc", 2, "--order takes an integer or auto"),
])
def test_reiffen_order_refusals(capsys, order, code, message):
    got, out, err = run(capsys, "reiffen", "--family", "ft:5,4", "--order", order)
    assert (got, out) == (code, "")
    assert err == "germkit reiffen: %s\n" % message


ZARISKI_T1 = ["milnor", "--ring", "32003 (x,y,z) ds", "--family", "zariski:16,12,4:t=1"]


@pytest.mark.parametrize("argv, env", [
    (["vdim", "--ring", "0 (x,y) ds", "--poly", "x^2", "--poly", "y^3", "--ceiling", "-1"],
     None),
    (ZARISKI_T1 + ["--ceiling", "-1"], None),
    (ZARISKI_T1, "-7"),
])
def test_negative_ceiling_is_refused(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("GERMKIT_CEILING", env)
    got, out, err = run(capsys, *argv)
    assert (got, out) == (1, "")
    assert err == ("germkit %s: ParameterOutOfRange: reduction ceiling must be "
                   "non-negative\n" % argv[0])


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as e:
        main(["milnor", "--bogus"])
    assert e.value.code == 2


@pytest.mark.parametrize("name", ["GERMKIT_CEILING", "GERMKIT_SEED", "GERMKIT_CHAR"])
def test_bad_integer_environment_exits_two(capsys, monkeypatch, name):
    monkeypatch.setenv(name, "abc")
    with pytest.raises(SystemExit) as e:
        main(["vdim", "--ring", "0 (x,y) ds", "--poly", "x^2", "--poly", "y^3"])
    assert e.value.code == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err


def test_environment_read_on_every_call(capsys, monkeypatch):
    chars = []
    for value in ("32003", "101"):
        monkeypatch.setenv("GERMKIT_CHAR", value)
        code, out, _ = run(capsys, "milnor", "--family", "ft:5,4", "--json")
        assert code == 0
        chars.append(json.loads(out)["characteristic"])
    assert chars == [32003, 101]


def test_only_documented_environment_variables_are_read(capsys, monkeypatch):
    argv = ["vdim", "--poly", "x^2", "--poly", "y^3"]
    monkeypatch.setenv("GERMKIT_RING", "0 (x,y) ds")
    monkeypatch.setenv("GERMKIT_JSON", "1")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["ordering"] == "ds"
    # a flag wins over its variable
    code, out, _ = run(capsys, *argv, "--ring", "0 (x,y) ls")
    assert code == 0 and json.loads(out)["ordering"] == "ls"
    # an undocumented name is no setting, whatever its value
    monkeypatch.setenv("GERMKIT_FOO", "bogus")
    monkeypatch.setenv("GERMKIT_POLY", "x")
    assert run(capsys, *argv) == (code, out.replace('"ls"', '"ds"'), "")
    assert sorted(dict(_germkit_env())) == ["JSON", "RING"]


VDIM_ARGV = ["vdim", "--ring", "0 (x,y) ds", "--poly", "x^2", "--poly", "y^3"]


def test_unknown_strategy_flag_is_usage_error(capsys):
    code, out, err = run(capsys, *VDIM_ARGV, "--strategy", "bogus")
    assert (code, out) == (2, "")
    assert err == "germkit vdim: unknown strategy token 'bogus'\n"


def test_unknown_strategy_environment_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("GERMKIT_STRATEGY", "sugar,bogus")
    code, out, err = run(capsys, *VDIM_ARGV)
    assert (code, out) == (2, "")
    assert err == "germkit vdim: unknown strategy token 'bogus'\n"


def test_bench_checks_every_strategy_before_running(capsys, monkeypatch):
    runs = []
    monkeypatch.setattr("germkit.cli._bench_one", lambda *a: runs.append(a))
    code, out, err = run(capsys, "bench", "--family", "ft:5,4",
                         "--strategies", "sugar;bogus")
    assert (code, out, runs) == (2, "", [])
    assert err == "germkit bench: unknown strategy token 'bogus'\n"


@pytest.mark.parametrize("token", ["chain", "no-chain", "product", "no-product",
                                   "min-ecart", "first-found"])
def test_pair_criteria_are_not_strategy_tokens(capsys, token):
    code, _, err = run(capsys, *VDIM_ARGV, "--strategy", "sugar," + token)
    assert code == 2
    assert err == "germkit vdim: unknown strategy token %r\n" % token


def test_char_environment_fallback(capsys, monkeypatch):
    monkeypatch.setenv("GERMKIT_CHAR", "32003")
    code, out, _ = run(capsys, "milnor", "--family", "ft:5,4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["characteristic"] == 32003
    assert data["mu"] == 11


_VDIM_CASES = [
    ("0 (x,y) dp", ["x^2+y", "x*y-1"]),
    ("32003 (x,y) dp(1),ds(1)", ["x^2+y^3", "x*y"]),
]


@pytest.mark.parametrize("decl, polys", _VDIM_CASES)
def test_vdim_command_matches_std(capsys, decl, polys):
    ring = parse_ring("ring " + decl)
    want = str(vdim(std([parse_poly(s, ring) for s in polys])))
    argv = ["vdim", "--ring", decl]
    for s in polys:
        argv += ["--poly", s]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.strip() == want


@pytest.mark.parametrize("decl, polys", _VDIM_CASES)
def test_jobfile_vdim_matches_std(tmp_path, capsys, decl, polys):
    ring = parse_ring("ring " + decl)
    want = str(vdim(std([parse_poly(s, ring) for s in polys])))
    job = tmp_path / "vdim.job"
    lines = ["ring " + decl]
    lines += ["f%d = %s;" % (i, s) for i, s in enumerate(polys)]
    job.write_text("\n".join(lines + ["vdim;", ""]))
    code, out, _ = run(capsys, str(job))
    assert code == 0 and out.strip() == want


# ---------------------------------------------------------------------------
# job files


def test_jobfile_roundtrip(tmp_path, capsys):
    job = tmp_path / "ft54.job"
    job.write_text(
        """# FT(5,4)
ring 0 (x,y,z) ds
f = x*y+z^3;
g = x*z+y*z^2+y^4;
tjurina;
milnor f, g;
mult;
"""
    )
    code, out, _ = run(capsys, str(job))
    assert code == 0
    assert out.splitlines() == ["10", "11", "5"]


def test_jobfile_std_and_vdim(tmp_path, capsys):
    job = tmp_path / "basis.job"
    job.write_text(
        """ring 0 (x,y) ds
f = x^2;
g = y^3;
vdim;
std f, g;
"""
    )
    code, out, _ = run(capsys, str(job))
    assert code == 0
    assert out.splitlines()[0] == "6"


def test_empty_jobfile(tmp_path, capsys):
    job = tmp_path / "empty.job"
    job.write_text("")
    code, out, _ = run(capsys, str(job))
    assert code == 0 and out == ""


def test_jobfile_unknown_variable(tmp_path, capsys):
    job = tmp_path / "bad.job"
    job.write_text("ring 0 (x,y) ds\nf = x + w^2;\n")
    code, _, err = run(capsys, str(job))
    assert code == 1
    assert "bad.job:2" in err and "w" in err


def test_jobfile_missing_file(capsys):
    code, _, err = run(capsys, "/nonexistent/path.job")
    assert code == 1 and "No such file" in err


def test_jobfile_unknown_binding(tmp_path, capsys):
    job = tmp_path / "oops.job"
    job.write_text("ring 0 (x,y) ds\nf = x;\nmilnor h;\n")
    code, _, err = run(capsys, str(job))
    assert code == 1 and "h" in err


# ---------------------------------------------------------------------------
# bench


def test_bench_digests_agree(capsys):
    code, out, _ = run(
        capsys,
        "bench",
        "--family",
        "ft:8,8",
        "--orderings",
        "ds,ls",
        "--strategies",
        "sugar;fifo",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    records = data["records"]
    assert len(records) == 4
    assert len({r["digest"] for r in records}) == 1
    assert all(r["pairs"] > 0 for r in records)


def test_importing_the_cli_stays_lean():
    # every command pays for importing germkit, so the import must not load
    # what few commands use; a fresh interpreter shows what it loads, and
    # bench, which alone hashes, still prints README's digest
    script = (
        "import json, sys, germkit, germkit.cli\n"
        "print(json.dumps(sorted({'numpy', 'dataclasses', 'inspect', 'hashlib'}"
        " & set(sys.modules))))\n"
        "sys.exit(germkit.cli.main(['bench', '--family', 'ft:5,4', '--json']))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(germkit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, out = proc.stdout.split("\n", 1)
    assert json.loads(loaded) == []
    digests = {r["digest"] for r in json.loads(out)["records"]}
    assert digests == {"fb27c4018f6f8185"}


def test_bench_orders_records_by_input_ordering_and_strategy(capsys, monkeypatch):
    # each run reports less time than the one before, so an order by time
    # would reverse the grid
    millis = iter(range(100, 0, -1))

    def fake(label, gens, strategy_text, strategy, ceiling):
        return {"input": label, "ordering": gens[0].ring.ordering.token(),
                "strategy": strategy_text, "pairs": 0, "reductions": 0,
                "millis": next(millis), "digest": "-"}

    monkeypatch.setattr("germkit.cli._bench_one", fake)
    code, out, err = run(capsys, "bench", "--ring", "0 (x,y,z) ds", "--poly", "x^2",
                       "--poly", "y^3", "--family", "ft:5,4", "--orderings", "ds,ls",
                       "--strategies", "sugar;fifo", "--json")
    assert (code, err) == (0, "")
    got = [(r["input"], r["ordering"], r["strategy"])
           for r in json.loads(out)["records"]]
    assert got == [(label, o, s) for label in ("ft:5,4", "ideal")
                   for o in ("ds", "ls") for s in ("sugar", "fifo")]


def test_bench_block_orderings(capsys):
    code, out, _ = run(
        capsys, "bench", "--ring", "0 (x,y) ds", "--poly", "x^2+y^5", "--poly", "y^3",
        "--orderings", "ds,ls,dp(1),ds(1)", "--json",
    )
    assert code == 0
    records = json.loads(out)["records"]
    assert sorted(r["ordering"] for r in records) == ["dp(1),ds(1)", "ds", "ls"]
    assert len({r["digest"] for r in records}) == 1


def test_bench_table_output(capsys):
    code, out, _ = run(capsys, "bench", "--family", "ft:5,4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[:3] == ["input", "ordering", "strategy"]
    assert len(lines) == 2


def test_bench_counts_every_jet_rung(capsys):
    # the Tjurina ideal of x^30+y^8+z^5+x*y^3*z^2+y^2*z^3 runs jets 39 -> 78
    code, out, _ = run(
        capsys, "bench", "--ring", "32003 (x,y,z) ds",
        "--poly", "x^30+y^8+z^5+x*y^3*z^2+y^2*z^3", "--poly", "30*x^29+y^3*z^2",
        "--poly", "8*y^7+3*x*y^2*z^2+2*y*z^3", "--poly", "5*z^4+2*x*y^3*z+3*y^2*z^2",
        "--json",
    )
    assert code == 0
    (record,) = json.loads(out)["records"]
    assert record["reductions"] == 113 + 520


def test_vdim_past_the_largest_jet(capsys):
    # the pure powers guess a first jet past MAX_JET; the ladder clamps it,
    # and the untruncated run after the failed rung decides
    code, out, _ = run(capsys, "vdim", "--ring", "0 (x,y) ds",
                       "--poly", "x^4000", "--poly", "y^200")
    assert code == 0
    assert out == "800000\n"


# ---------------------------------------------------------------------------
# selftest plumbing


def test_selftest_single_criterion(capsys):
    code, out, _ = run(capsys, "selftest", "--criterion", "7")
    assert code == 0
    assert out.startswith("criterion 7")
    assert "PASS" in out

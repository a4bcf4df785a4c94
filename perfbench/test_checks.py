"""The checkers must reject wrong outputs, not only accept right ones.

    python3 -m pytest perfbench/test_checks.py

Each test feeds a checker one output that is right and several that are
deliberately wrong: a Milnor number off by one, a wrong leading monomial, a
malformed line, a broken verdict.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
from checks import CheckError  # noqa: E402
from workloads import ft_commands, global_commands, zariski_commands  # noqa: E402


def rejects(fn, *args):
    try:
        fn(*args)
    except CheckError:
        return True
    return False


def germkit_output(argv):
    from worker import import_germkit

    cli = import_germkit() if "germkit" not in sys.modules else sys.modules["germkit.cli"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def _zariski(cmd, value, **over):
    doc = {"characteristic": 32003, "ordering": "ds",
           ("mu" if cmd["invariant"] == "milnor" else "tau"): value}
    doc.update(over)
    return json.dumps(doc) + "\n"


def test_zariski_checker_rejects_wrong_values():
    table = checks.load_reference()
    checks.check_reference(table)
    cmds = zariski_commands()
    paper = next(c for c in cmds if c["member"] == [40, 30, 8, "0"]
                 and c["invariant"] == "milnor")
    assert not rejects(checks.check_zariski, paper, _zariski(paper, 10661), table)
    assert rejects(checks.check_zariski, paper, _zariski(paper, 10662), table)
    assert rejects(checks.check_zariski, paper, _zariski(paper, 10660), table)
    assert rejects(checks.check_zariski, paper, _zariski(paper, 10661, ordering="ls"),
                   table)
    assert rejects(checks.check_zariski, paper, '{"mu": 10661', table)
    assert rejects(checks.check_zariski, paper, "10661\n", table)
    for cmd in cmds:
        mu, tau = table[tuple(cmd["member"])]
        right = mu if cmd["invariant"] == "milnor" else tau
        assert not rejects(checks.check_zariski, cmd, _zariski(cmd, right), table)
        assert rejects(checks.check_zariski, cmd, _zariski(cmd, right + 1), table)
        assert rejects(checks.check_zariski, cmd, _zariski(cmd, str(right)), table)


def test_zariski_reference_and_saito_property():
    table = checks.load_reference()
    bad = dict(table)
    bad[(40, 30, 8, "0")] = (10660, table[(40, 30, 8, "0")][1])
    assert rejects(checks.check_reference, bad)
    key = (16, 12, 4, "1")
    bad = dict(table)
    bad[key] = (table[key][0], table[key][0])  # tau = mu: quasi-homogeneous
    assert rejects(checks.check_reference, bad)
    pair = [c for c in zariski_commands() if c["member"] == list(key)]
    outs = [_zariski(c, 900) for c in pair]
    assert rejects(checks.check_tau_below_mu, pair, outs)
    # a germ with an infinite Milnor number prints "infinite", not a number
    milnor = next(c for c in pair if c["invariant"] == "milnor")
    tjurina = next(c for c in pair if c["invariant"] == "tjurina")
    outs = [_zariski(milnor, "infinite"), _zariski(tjurina, 900)]
    assert rejects(checks.check_tau_below_mu, [milnor, tjurina], outs)


def test_failed_commands_are_counted_not_checked():
    """A command that exits non-zero with no output counts as failed."""
    cmds = zariski_commands()
    table = checks.load_reference()
    outputs = []
    for c in cmds:
        mu, tau = table[tuple(c["member"])]
        outputs.append(_zariski(c, mu if c["invariant"] == "milnor" else tau))
    outputs[0] = _zariski(cmds[0], "infinite")
    rcs = [0] * len(cmds)
    rcs[2] = 1
    outputs[2] = ""
    passes = [{"rcs": rcs, "outputs": outputs, "errors": [""] * len(cmds)}]
    # wrong twice: the milnor output itself, and tau < mu within the pass
    assert run.check_outputs("zariski-modp", cmds, passes) == (len(cmds), 1, 2)

    gcmds = global_commands()
    rcs = [1] + [0] * (len(gcmds) - 1)
    outputs = [""] + ['{"generators": ["u0+2*u1-1"], "size": 1}\n',
                      '{"generators": "x0"}\n', "not json\n"][:len(gcmds) - 1]
    assert checks.max_coeff_bits(gcmds, rcs, outputs) == 3
    assert checks.max_coeff_bits(gcmds, [1] * len(gcmds), [""] * len(gcmds)) == 0


def test_global_checker_rejects_wrong_bases():
    cmd = next(c for c in global_commands()
               if c["ideal"] == "cyclic" and c["characteristic"])
    output = germkit_output(cmd["argv"])
    leads = checks.sympy_leads(cmd)
    rt = checks.germkit_round_trip
    assert not rejects(checks.check_global, cmd, output, leads, rt)
    doc = json.loads(output)
    gens = doc["generators"]

    def variant(lines):
        d = dict(doc, generators=lines, size=len(lines))
        return json.dumps(d) + "\n"

    # a wrong leading monomial: raise the first generator's lead
    first = gens[0]
    assert rejects(checks.check_global, cmd,
                   variant(["x0^9*" + first] + gens[1:]), leads, rt)
    # a missing generator changes the leads and the staircase
    assert rejects(checks.check_global, cmd, variant(gens[1:]), leads, rt)
    # malformed lines
    assert rejects(checks.check_global, cmd, variant([first + "+*x1"] + gens[1:]),
                   leads, rt)
    assert rejects(checks.check_global, cmd, variant([first + "+y7"] + gens[1:]),
                   leads, rt)
    assert rejects(checks.check_global, cmd, variant([" " + first] + gens[1:]),
                   leads, rt)
    # not monic, and a coefficient outside [1, p)
    assert rejects(checks.check_global, cmd, variant(["2*" + first] + gens[1:]),
                   leads, rt)
    assert rejects(checks.check_global, cmd,
                   variant([first + "+32003*x4^9"] + gens[1:]), leads, rt)
    # the same polynomial in a non-canonical term order does not round-trip
    terms = first.split("+")  # F_p coefficients print without signs
    swapped = "+".join([terms[0], terms[2], terms[1]] + terms[3:])
    assert rejects(checks.check_global, cmd, variant([swapped] + gens[1:]), leads, rt)
    # wrong reference leads, and a wrong size field
    assert rejects(checks.check_global, cmd, output, leads[1:], rt)
    bad = dict(doc, size=len(gens) + 1)
    assert rejects(checks.check_global, cmd, json.dumps(bad), leads, rt)


def test_staircase_counter():
    assert checks.staircase_size([(2, 0), (0, 3)], 2) == 6
    assert checks.staircase_size([(2, 0), (1, 1), (0, 2)], 2) == 3
    assert checks.staircase_size([(2, 0)], 2) is None
    assert checks.staircase_size([(0, 0)], 2) == 0


def _report(k, l, **over):
    doc = {"characteristic": 0, "mu": k + l + 2, "tau": k + l + 1,
           "quasi_homogeneous": "no", "multiplicity": 5, "note": ""}
    doc.update(over)
    return json.dumps(doc) + "\n"


def _reiffen(k, l, order=3, **over):
    mu = k + l + 2
    doc = {"characteristic": 0, "mu": mu, "dim_omega2": mu + 1, "dim_omega3": 1,
           "order": order, "verdict": "exact-up-to-order-%d" % order,
           "quasi_homogeneous": "no"}
    doc.update(over)
    return json.dumps(doc) + "\n"


def test_ft_checkers_reject_wrong_reports():
    cmds = ft_commands()
    ft = next(c for c in cmds if c["kind"] == "ft")
    k, l = ft["k"], ft["l"]
    assert not rejects(checks.check_ft, ft, _report(k, l))
    assert rejects(checks.check_ft, ft, _report(k, l, mu=k + l + 1))
    assert rejects(checks.check_ft, ft, _report(k, l, tau=k + l + 2))
    assert rejects(checks.check_ft, ft, _report(k, l, quasi_homogeneous="yes"))
    assert rejects(checks.check_ft, ft, "mu %d, tau %d\n" % (k + l + 2, k + l + 1))

    auto = next(c for c in cmds if c["kind"] == "reiffen" and c["order"] is None)
    k, l = auto["k"], auto["l"]
    assert not rejects(checks.check_reiffen, auto, _reiffen(k, l))
    assert rejects(checks.check_reiffen, auto, _reiffen(k, l, mu=k + l + 3))
    assert rejects(checks.check_reiffen, auto, _reiffen(k, l, dim_omega3=2))
    assert rejects(checks.check_reiffen, auto, _reiffen(k, l, verdict="not-exact"))
    assert rejects(checks.check_reiffen, auto,
                   _reiffen(k, l, verdict="exact-up-to-order-4"))
    assert rejects(checks.check_reiffen, auto, _reiffen(k, l, order=0,
                                                        verdict="inconclusive"))

    fixed = next(c for c in cmds if c["kind"] == "reiffen" and c["order"] is not None)
    k, l, n = fixed["k"], fixed["l"], fixed["order"]
    assert not rejects(checks.check_reiffen, fixed, _reiffen(k, l, order=n))
    assert rejects(checks.check_reiffen, fixed, _reiffen(k, l, order=n + 1))


def test_real_outputs_pass():
    """One real command of each kind passes its checker."""
    checker_z = checks.Checker("zariski-modp")
    cmd = next(c for c in zariski_commands() if c["member"] == [40, 30, 8, "0"])
    checker_z.check(cmd, germkit_output(cmd["argv"]))
    checker_f = checks.Checker("ft-corpus")
    for cmd in ft_commands()[:3]:
        checker_f.check(cmd, germkit_output(cmd["argv"]))


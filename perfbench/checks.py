"""Output checks that do not trust the engine.

Each checker takes one command (as built in workloads.py) and its captured
stdout and raises CheckError on a wrong answer. The expected values come
from the paper (mu 10661 for Zariski (40,30,8) t=0), from a reference table
that a second route regenerates (make_reference.py), from known solution
counts (2^n for Katsura-n, 70 for Cyclic-5), from sympy's Groebner bases,
and from properties the method must have (tau < mu on the non
quasi-homogeneous Zariski family; mu = k+l+2 and tau = k+l+1 on FT curves).

Polynomial lines are read by the small parser below, not by germkit's;
germkit's front end is used only to confirm that each line parses back to
itself.
"""

import json
import os
import re
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "zariski_reference.json")

PAPER_MU = {(40, 30, 8, "0"): 10661}


class CheckError(Exception):
    pass


def _json(output):
    lines = output.strip().splitlines()
    if len(lines) != 1:
        raise CheckError("expected one JSON line, got %d lines" % len(lines))
    try:
        doc = json.loads(lines[0])
    except ValueError as exc:
        raise CheckError("malformed JSON: %s" % exc) from None
    if not isinstance(doc, dict):
        raise CheckError("JSON output is not an object")
    return doc


def _expect(doc, key, value):
    if key not in doc:
        raise CheckError("missing %r" % key)
    got = doc[key]
    if type(got) is not type(value) or got != value:
        raise CheckError("%s is %r, expected %r" % (key, got, value))


# ---------------------------------------------------------------------------
# zariski-modp


def load_reference(path=REFERENCE):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    table = {}
    for row in doc["members"]:
        key = (row["a"], row["b"], row["c"], row["t"])
        table[key] = (row["mu"], row["tau"])
    return table


def check_reference(table):
    """The table itself: paper value, and tau < mu on every member."""
    for key, mu in PAPER_MU.items():
        if key not in table or table[key][0] != mu:
            raise CheckError("reference table lacks the paper's mu %d for %r"
                             % (mu, key))
    for key, (mu, tau) in table.items():
        if not (isinstance(mu, int) and isinstance(tau, int) and 0 < tau < mu):
            raise CheckError("reference %r violates 0 < tau < mu: %r"
                             % (key, (mu, tau)))


def check_zariski(cmd, output, table):
    doc = _json(output)
    key = tuple(cmd["member"])
    if key not in table:
        raise CheckError("no reference value for %r" % (key,))
    mu, tau = table[key]
    _expect(doc, "characteristic", 32003)
    _expect(doc, "ordering", "ds")
    if cmd["invariant"] == "milnor":
        _expect(doc, "mu", PAPER_MU.get(key, mu))
    else:
        _expect(doc, "tau", tau)


def check_tau_below_mu(cmds, outputs):
    """Within one pass: every member with both values has tau < mu."""
    seen = {}
    for cmd, out in zip(cmds, outputs):
        if cmd["kind"] != "zariski":
            continue
        doc = _json(out)
        field = "mu" if cmd["invariant"] == "milnor" else "tau"
        seen.setdefault(tuple(cmd["member"]), {})[field] = doc.get(field)
    for key, vals in seen.items():
        if "mu" not in vals or "tau" not in vals:
            continue
        mu, tau = vals["mu"], vals["tau"]
        if type(mu) is not int or type(tau) is not int or not tau < mu:
            raise CheckError("tau %r is not below mu %r for %r"
                             % (vals["tau"], vals["mu"], key))


# ---------------------------------------------------------------------------
# global-dp

_TERM = re.compile(r"([+-]?)([^+-]+)")
_NUMBER = re.compile(r"\d+(/\d+)?\Z")
_POWER = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(\^(\d+))?\Z")


def parse_line(line, variables):
    """Polynomial text -> {exponent tuple: Fraction}; strict, germkit-free."""
    if not line or line != line.strip():
        raise CheckError("malformed polynomial line %r" % line)
    index = {v: i for i, v in enumerate(variables)}
    poly = {}
    pos = 0
    for m in _TERM.finditer(line):
        if m.start() != pos or (m.start() > 0 and not m.group(1)):
            raise CheckError("malformed polynomial line %r" % line)
        pos = m.end()
        sign, body = m.groups()
        coeff = Fraction(1)
        exps = [0] * len(variables)
        factors = body.split("*")
        if _NUMBER.match(factors[0]):
            coeff = Fraction(factors.pop(0))
            if not coeff:
                raise CheckError("zero coefficient in %r" % line)
        elif not factors[0]:
            raise CheckError("malformed polynomial line %r" % line)
        for f in factors:
            pm = _POWER.match(f)
            if not pm or pm.group(1) not in index:
                raise CheckError("bad factor %r in %r" % (f, line))
            e = int(pm.group(3) or 1)
            if e < 1:
                raise CheckError("bad exponent in %r" % line)
            exps[index[pm.group(1)]] += e
        key = tuple(exps)
        if key in poly:
            raise CheckError("repeated monomial in %r" % line)
        poly[key] = -coeff if sign == "-" else coeff
    if pos != len(line) or not poly:
        raise CheckError("malformed polynomial line %r" % line)
    return poly


def grevlex_key(exps):
    """Sort key of degree reverse lexicographic order (x0 > x1 > ...)."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def leading_exponent(poly):
    return max(poly, key=grevlex_key)


def staircase_size(leads, nvars, cap=10 ** 6):
    """Number of monomials outside the monomial ideal; None if infinite."""
    pures = [None] * nvars
    for e in leads:
        nz = [i for i, a in enumerate(e) if a]
        if len(nz) == 1 and (pures[nz[0]] is None or e[nz[0]] < pures[nz[0]]):
            pures[nz[0]] = e[nz[0]]
        if not nz:
            return 0
    if any(p is None for p in pures):
        return None
    count = 0
    stack = [(0,) * nvars]
    seen = {stack[0]}
    while stack:
        m = stack.pop()
        if any(all(a <= b for a, b in zip(g, m)) for g in leads):
            continue
        count += 1
        if count > cap:
            raise CheckError("staircase larger than %d" % cap)
        for v in range(nvars):
            child = m[:v] + (m[v] + 1,) + m[v + 1:]
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return count


def sympy_leads(cmd):
    """Leading exponents of sympy's reduced grevlex basis of the same ideal."""
    import sympy

    from workloads import ideal

    names, polys = ideal(cmd["ideal"], cmd["n"])
    gens = sympy.symbols(names)
    exprs = [sympy.sympify(p.replace("^", "**")) for p in polys]
    opts = {"modulus": cmd["characteristic"]} if cmd["characteristic"] else {}
    basis = sympy.groebner(exprs, *gens, order="grevlex", **opts)
    return sorted(tuple(p.monoms(order="grevlex")[0]) for p in basis.polys)


def check_global(cmd, output, reference_leads=None, round_trip=None):
    """std output: parses, monic, minimal, right staircase, sympy's leads.

    `round_trip(line, cmd)` may return (text, {exponents: Fraction}): the
    line parsed by germkit's own front end and serialized again. Both must
    match the line and what the parser here reads from it.
    """
    from workloads import expected_vdim

    doc = _json(output)
    p = cmd["characteristic"]
    _expect(doc, "characteristic", p)
    _expect(doc, "ordering", "dp")
    gens = doc.get("generators")
    if not isinstance(gens, list) or not gens:
        raise CheckError("no generators")
    _expect(doc, "size", len(gens))
    names = cmd["variables"]
    leads = []
    for line in gens:
        if not isinstance(line, str):
            raise CheckError("generator %r is not text" % (line,))
        poly = parse_line(line, names)
        if round_trip is not None and round_trip(line, cmd) != (line, poly):
            raise CheckError("%r does not parse back to itself" % line)
        lead = leading_exponent(poly)
        if poly[lead] != 1:
            raise CheckError("generator %r is not monic" % line)
        for c in poly.values():
            if p and (c.denominator != 1 or not 0 < c < p):
                raise CheckError("coefficient %s outside F_%d in %r" % (c, p, line))
        leads.append(lead)
    for i, a in enumerate(leads):
        for j, b in enumerate(leads):
            if i != j and all(x <= y for x, y in zip(a, b)):
                raise CheckError("basis is not minimal: %r divides %r" % (a, b))
    size = staircase_size(leads, len(names))
    want = expected_vdim(cmd["ideal"], cmd["n"])
    if size != want:
        raise CheckError("staircase has %r monomials, expected %d" % (size, want))
    if reference_leads is not None and sorted(leads) != list(reference_leads):
        raise CheckError("leading monomials differ from sympy's")


def germkit_round_trip(line, cmd):
    if "germkit" not in sys.modules:
        from worker import import_germkit

        import_germkit()
    from germkit.parse import parse_poly, parse_ring, serialize

    ring = parse_ring(cmd["argv"][2])
    poly = parse_poly(line, ring)
    return serialize(poly), {tuple(e): Fraction(c) for c, e in poly.terms()}


def max_coeff_bits(cmds, rcs, outputs):
    """Largest numerator-plus-denominator bit length in the std outputs.

    Commands that failed and outputs that do not parse are skipped; the
    output checks count them.
    """
    best = 0
    for cmd, rc, output in zip(cmds, rcs, outputs):
        if cmd["kind"] != "global" or rc != 0:
            continue
        try:
            gens = _json(output).get("generators")
            if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
                continue
            polys = [parse_line(line, cmd["variables"]) for line in gens]
        except CheckError:
            continue
        for poly in polys:
            for c in poly.values():
                best = max(best, abs(c.numerator).bit_length()
                           + c.denominator.bit_length())
    return best


# ---------------------------------------------------------------------------
# ft-corpus


def check_ft(cmd, output):
    doc = _json(output)
    k, l = cmd["k"], cmd["l"]
    _expect(doc, "characteristic", 0)
    _expect(doc, "mu", k + l + 2)
    _expect(doc, "tau", k + l + 1)
    _expect(doc, "quasi_homogeneous", "no")


def check_reiffen(cmd, output):
    doc = _json(output)
    k, l = cmd["k"], cmd["l"]
    mu = k + l + 2
    _expect(doc, "characteristic", 0)
    _expect(doc, "mu", mu)
    _expect(doc, "quasi_homogeneous", "no")
    d2, d3 = doc.get("dim_omega2"), doc.get("dim_omega3")
    if not (isinstance(d2, int) and isinstance(d3, int) and d2 - d3 == mu):
        raise CheckError("dim_omega2 - dim_omega3 = %r - %r is not mu %d"
                         % (d2, d3, mu))
    order = doc.get("order")
    if not isinstance(order, int) or order < 1:
        raise CheckError("condition-1 order %r is not a positive integer" % (order,))
    if cmd["order"] is not None and order != cmd["order"]:
        raise CheckError("order %r, requested %r" % (order, cmd["order"]))
    _expect(doc, "verdict", "exact-up-to-order-%d" % order)


# ---------------------------------------------------------------------------


class Checker:
    """Checks every output of a run; expensive references are built once."""

    def __init__(self, workload):
        self.workload = workload
        self.table = None
        self.leads = {}
        self.parsed = set()
        if workload == "zariski-modp":
            self.table = load_reference()
            check_reference(self.table)

    def _reference_leads(self, cmd):
        key = (cmd["ideal"], cmd["n"], cmd["characteristic"])
        if key not in self.leads:
            self.leads[key] = sympy_leads(cmd)
        return self.leads[key]

    def check(self, cmd, output):
        kind = cmd["kind"]
        if kind == "zariski":
            check_zariski(cmd, output, self.table)
        elif kind == "global":
            # outputs repeat byte for byte across passes: round-trip once
            fresh = output not in self.parsed
            check_global(cmd, output, self._reference_leads(cmd),
                         germkit_round_trip if fresh else None)
            self.parsed.add(output)
        elif kind == "ft":
            check_ft(cmd, output)
        elif kind == "reiffen":
            check_reiffen(cmd, output)
        else:
            raise CheckError("unknown command kind %r" % kind)

    def check_together(self, cmds, outputs):
        """Checks across the commands of one pass."""
        if self.workload == "zariski-modp":
            check_tau_below_mu(cmds, outputs)

"""Command-line front end: one-shot computations, job files, benchmarks.

Usage shapes:

    germkit mult --ring "0 (x,y,z) ds" --family zariski:40,30,8:t=0
    germkit milnor --ring "32003 (x,y,z) ds" --family zariski:40,30,8:t=1 --json
    germkit ft --k 5 --l 4 --report
    germkit std --ring "0 (x,y) dp" --poly "x^2+y" --poly "x*y-1" --json
    germkit reiffen --family ft:5,4 --order auto
    germkit bench --family ft:8,8 --orderings ds,ls --strategies "sugar;fifo"
    germkit selftest
    germkit path/to/file.job

Inputs are one --poly (a hypersurface germ) or two (a space curve), or a
family member (--family ft:k,l or zariski:a,b,c:t=q, and the ft and
zariski commands). A family member is built in the ring of --ring, --char
and --ordering (default "0 (x,y,z) ds"), which must be local; std and vdim
take its Tjurina ideal. `bench --orderings` lists orderings in the
ordering grammar, each ending at the block that covers the last variable:
in two variables ds,ls,dp(1),ds(1) is three orderings. JSON dimensions
(mu, tau, vdim) are integers or "infinite".

A --strategy is a pair selection (sugar, min-lcm-degree, fifo): least
sugar or least lcm degree first, ties to the smaller lcm, or the pairs in
the order they were made. bench --strategies takes several, separated by
semicolons, and checks them all before it runs any. An unknown token is a
usage error. The reducer rule
follows from the mode, and the chain and product criteria of
Gebauer-Moeller are no options: every run applies them.

Every flag has a GERMKIT_* environment variable fallback (GERMKIT_RING,
GERMKIT_ORDERING, GERMKIT_STRATEGY, GERMKIT_CHAR, GERMKIT_ORDER,
GERMKIT_JSON, GERMKIT_CEILING, GERMKIT_SEED); flags win.
Exit codes: 0 success, 1 computation error, 2 usage error.

Text and JSON outputs are deterministic for a fixed configuration; timing
lives only in `bench`, whose millis column is expected to vary run to run.
"""

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .errors import GermkitError, ParseError
from .invariants import (
    HypersurfaceGerm,
    SpaceCurveGerm,
    _dim_json,
    find_weights,
    ft_germ,
    full_report,
    is_quasihomogeneous,
    milnor,
    multiplicity,
    tjurina,
    zariski_family,
)
from .parse import parse_job, parse_orderings, parse_poly, parse_ring, serialize
from .poincare import exactness_report
from .ring import RingContext
from .stdbasis import (
    DEFAULT_CEILING,
    INFINITE,
    PAIR_SELECTIONS,
    Strategy,
    highest_corner,
    local_vdim,
    std,
)


class UsageError(Exception):
    pass


def _dim_text(value):
    return "infinite" if value is INFINITE else str(value)


# ---------------------------------------------------------------------------
# configuration plumbing


_ENV_NAMES = ("CEILING", "CHAR", "JSON", "ORDER", "ORDERING", "RING", "SEED", "STRATEGY")


def _germkit_env():
    """The documented GERMKIT_* variables that are set, prefix dropped, as
    sorted (name, value) pairs; no other variable is read."""
    get = os.environ.get
    return tuple((name, v) for name in _ENV_NAMES
                 if (v := get("GERMKIT_" + name)) is not None)


@functools.lru_cache(maxsize=8)
def _build_parser(env):
    """The argument parser whose defaults fall back on `env` (_germkit_env()),
    built once per distinct set of values."""
    env = dict(env)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--ring", default=env.get("RING"), metavar="DECL",
                        help='ring declaration, e.g. "0 (x,y,z) ds"')
    common.add_argument("--poly", action="append", default=None, metavar="EXPR",
                        help="polynomial (repeatable)")
    common.add_argument("--family", default=None, metavar="SPEC",
                        help="zariski:a,b,c:t=q or ft:k,l")
    common.add_argument("--ordering", default=env.get("ORDERING"), metavar="TOKENS",
                        help="ordering override, e.g. ds or dp(2),ds(1)")
    common.add_argument("--char", type=int, default=env.get("CHAR"), metavar="P",
                        help="characteristic override")
    common.add_argument("--strategy", default=env.get("STRATEGY"), metavar="OPTS",
                        help="pair selection: %s" % "|".join(PAIR_SELECTIONS))
    # string defaults go through type=int, so a bad variable is a usage error
    common.add_argument("--ceiling", type=int,
                        default=env.get("CEILING", str(DEFAULT_CEILING)),
                        metavar="N", help="reduction-step ceiling")
    common.add_argument("--seed", type=int, default=env.get("SEED", "20250819"),
                        metavar="N", help="seed for randomized suites")
    common.add_argument("--json", action="store_true",
                        default=env.get("JSON", "") not in ("", "0"),
                        help="emit a JSON report")

    top = argparse.ArgumentParser(prog="germkit", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--version", action="version", version="germkit " + __version__)
    sub = top.add_subparsers(dest="command")

    for name, text in (
        ("std", "standard basis of the given generators"),
        ("vdim", "vector-space dimension of the quotient by the ideal"),
        ("milnor", "Milnor number"),
        ("tjurina", "Tjurina number"),
        ("mult", "multiplicity at the origin"),
        ("qh", "quasi-homogeneity verdict (and weights when certified)"),
    ):
        sub.add_parser(name, parents=[common], help=text)

    ft = sub.add_parser("ft", parents=[common], help="invariants of the FT germ")
    ft.add_argument("--k", type=int, required=True)
    ft.add_argument("--l", type=int, required=True)
    ft.add_argument("--report", action="store_true",
                    help="full JSON invariant report")

    za = sub.add_parser("zariski", parents=[common],
                        help="invariants of a Zariski-family member")
    za.add_argument("--a", type=int, required=True)
    za.add_argument("--b", type=int, required=True)
    za.add_argument("--c", type=int, required=True)
    za.add_argument("--t", required=True, help="parameter value (rational)")
    za.add_argument("--report", action="store_true",
                    help="full JSON invariant report")

    re_ = sub.add_parser("reiffen", parents=[common],
                         help="Poincare-complex exactness report")
    re_.add_argument("--order", default=env.get("ORDER", "auto"), metavar="N",
                     help="condition-1 truncation order, or auto")

    be = sub.add_parser("bench", parents=[common],
                        help="strategy/ordering cross-product timings")
    be.add_argument("--orderings", default=None, metavar="TOK,TOK",
                    help="comma list of orderings, each ending at the block "
                         "that covers the last variable (default: the ring's)")
    be.add_argument("--strategies", default=None, metavar="S;S",
                    help="semicolon list of strategy option lists")

    st = sub.add_parser("selftest", parents=[common],
                        help="run the acceptance criteria")
    st.add_argument("--criterion", type=int, default=None, metavar="N",
                    help="run a single criterion")
    return top


def _parse_strategy(text):
    try:
        return Strategy.from_text(text)
    except ValueError as exc:
        raise UsageError(exc) from None


def _resolve_strategy(args):
    return _parse_strategy(args.strategy or "")


def _resolve_ring(args):
    """Ring from --ring, with --char / --ordering overriding its fields."""
    base = parse_ring(args.ring or "0 (x,y,z) ds")
    if args.char is None and not args.ordering:
        return base
    char = base.characteristic if args.char is None else args.char
    return RingContext(char, base.variables, args.ordering or base.ordering)


def _parse_rational(text):
    try:
        return Fraction(text) if "/" in text else int(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError("t takes an integer or a fraction p/q, not %r" % text) from None


def _parse_family(spec):
    """(name, parameters) from a family shorthand: zariski:a,b,c:t=q or ft:k,l."""
    head, _, rest = spec.partition(":")
    if head == "ft":
        try:
            k, l = (int(s) for s in rest.split(","))
        except ValueError:
            raise UsageError("--family ft needs ft:k,l") from None
        return "ft", (k, l)
    if head == "zariski":
        params, _, tpart = rest.partition(":")
        try:
            a, b, c = (int(s) for s in params.split(","))
        except ValueError:
            raise UsageError("--family zariski needs zariski:a,b,c:t=q") from None
        if not tpart.startswith("t="):
            raise UsageError("--family zariski needs a t= part")
        return "zariski", (a, b, c, _parse_rational(tpart[2:]))
    raise UsageError("unknown family %r (want zariski:... or ft:k,l)" % spec)


def _family(args):
    """The family member a command names, as (name, parameters), or None."""
    if args.command == "ft":
        return "ft", (args.k, args.l)
    if args.command == "zariski":
        return "zariski", (args.a, args.b, args.c, _parse_rational(args.t))
    return _parse_family(args.family) if args.family else None


def _family_germ(family, ring):
    """The germ of a family member in the given ring, which must be local."""
    name, params = family
    if name == "ft":
        return ft_germ(*params, ring=ring)
    return HypersurfaceGerm(zariski_family(*params, ring=ring))


def _germ_of(polys):
    """The germ of one equation (a hypersurface) or two (a space curve)."""
    if len(polys) == 1:
        return HypersurfaceGerm(polys[0])
    if len(polys) == 2:
        return SpaceCurveGerm(*polys)
    raise UsageError("a germ takes one equation (hypersurface) or two (curve)")


def _resolve_input(args):
    """(family member germ, None) or (None, the --poly list) of a command."""
    family = _family(args)
    if family is None and not args.poly:
        raise UsageError("need --family or --poly")
    ring = _resolve_ring(args)
    if family:
        return _family_germ(family, ring), None
    return None, [parse_poly(s, ring) for s in args.poly]


def _resolve_germ(args):
    germ, polys = _resolve_input(args)
    return _germ_of(polys) if germ is None else germ


def _resolve_ideal(args):
    """Generators for std/vdim: the family's Tjurina ideal or --poly."""
    germ, polys = _resolve_input(args)
    return polys if germ is None else germ.tjurina_generators()


def _emit(as_json, ring, strategy, payload, text):
    """Print a result: its payload and the run's settings as JSON, or its text."""
    if as_json:
        out = dict(payload)
        out.update(
            characteristic=ring.characteristic,
            ordering=ring.ordering.token(),
            strategy=strategy.to_json(),
            version=__version__,
        )
        print(json.dumps(out, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_std(args):
    gens = _resolve_ideal(args)
    strategy = _resolve_strategy(args)
    basis = std(gens, strategy, ceiling=args.ceiling)
    rendered = [serialize(g) for g in basis]
    stats = basis.stats.to_json()
    del stats["millis"]  # byte-identical reruns
    payload = {"generators": rendered, "stats": stats, "size": len(basis)}
    _emit(args.json, gens[0].ring, strategy, payload, "\n".join(rendered))
    return 0


def _cmd_vdim(args):
    gens = _resolve_ideal(args)
    strategy = _resolve_strategy(args)
    value, _ = local_vdim(gens, strategy=strategy, ceiling=args.ceiling)
    _emit(args.json, gens[0].ring, strategy, {"vdim": _dim_json(value)},
          _dim_text(value))
    return 0


# invariant commands and job-file commands: name -> (function, JSON key)
_INVARIANTS = {
    "milnor": (milnor, "mu"),
    "tjurina": (tjurina, "tau"),
    "mult": (multiplicity, "multiplicity"),
    "qh": (is_quasihomogeneous, "quasi_homogeneous"),
}


def _cmd_invariant(args):
    germ = _resolve_germ(args)
    strategy = _resolve_strategy(args)
    fn, key = _INVARIANTS[args.command]
    value = fn(germ, strategy=strategy, ceiling=args.ceiling)
    if args.command != "qh":
        payload, text = {key: _dim_json(value)}, _dim_text(value)
    else:
        payload, text = {key: value}, value
        if isinstance(germ, HypersurfaceGerm) and value == "yes":
            w = find_weights(germ.f)
            if w is not None:
                payload["weights"] = [str(x) for x in w]
                text = "%s (weights %s)" % (value, ", ".join(payload["weights"]))
    _emit(args.json, germ.ring, strategy, payload, text)
    return 0


def _cmd_report(args):
    germ = _resolve_germ(args)
    strategy = _resolve_strategy(args)
    report = full_report(germ, strategy=strategy, ceiling=args.ceiling)
    text = "mu %s, tau %s, multiplicity %d, quasi-homogeneous %s" % (
        _dim_text(report.mu),
        _dim_text(report.tau),
        report.multiplicity,
        report.quasi_homogeneous,
    )
    _emit(args.json or args.report, germ.ring, strategy, report.to_json(), text)
    return 0


def _cmd_reiffen(args):
    if not args.family and len(args.poly or []) != 2:
        raise UsageError("reiffen needs --family ft:k,l or two --poly")
    germ = _resolve_germ(args)
    if not isinstance(germ, SpaceCurveGerm):
        raise UsageError("reiffen needs a space-curve germ")
    order = args.order
    if order != "auto":
        try:
            order = int(order)
        except ValueError:
            raise UsageError("--order takes an integer or auto") from None
    strategy = _resolve_strategy(args)
    report = exactness_report(germ.f, germ.g, order, strategy=strategy,
                              ceiling=args.ceiling)
    c2 = report.condition2
    text = "\n".join((
        "condition 1: %s" % report.condition1.label(),
        "condition 2: mu %s = %s - %s (%s)" % (
            _dim_text(c2.mu),
            _dim_text(c2.dim_omega2),
            _dim_text(c2.dim_omega3),
            "holds" if c2.holds else "fails",
        ),
        "quasi-homogeneous: %s" % report.quasi_homogeneous,
        "verdict: %s" % report.verdict,
    ))
    _emit(args.json, germ.ring, strategy, report.to_json(), text)
    return 0


# ---------------------------------------------------------------------------
# bench


def _staircase_digest(ring, basis, value):
    """Canonical result digest, independent of strategy and, for finite
    quotients under degree orderings, of the ordering itself.

    A finite staircase is hashed through its per-degree standard-monomial
    counts (the Hilbert data of the leading ideal, which agrees across
    degree-compatible orderings); an infinite one falls back to the sorted
    minimal leading exponents.
    """
    import hashlib  # only bench digests; importing it at startup loads OpenSSL

    h = hashlib.sha256()
    h.update(("p=%d;vars=%s;" % (ring.characteristic, ",".join(ring.variables)))
             .encode())
    if value is INFINITE:
        leads = sorted(basis.leading_exponents())
        h.update(("leads=%r" % (leads,)).encode())
    else:
        counts = basis.staircase().counts_by_degree(highest_corner(basis) - 1)
        h.update(("vdim=%d;counts=%r" % (value, tuple(counts))).encode())
    return h.hexdigest()[:16]


def _bench_one(label, gens, strategy_text, strategy, ceiling):
    ring = gens[0].ring
    t0 = time.perf_counter()
    value, basis = local_vdim(gens, strategy=strategy, ceiling=ceiling)
    millis = int((time.perf_counter() - t0) * 1000)
    return {
        "input": label,
        "ordering": ring.ordering.token(),
        "strategy": strategy_text,
        "pairs": basis.stats.pairs,
        "reductions": basis.stats.reductions,
        "millis": millis,
        "digest": _staircase_digest(ring, basis, value),
    }


def _cmd_bench(args):
    strategy_texts = ["sugar"]
    if args.strategies:
        strategy_texts = [s.strip() for s in args.strategies.split(";") if s.strip()]
    strategies = [(text, _parse_strategy(text)) for text in strategy_texts]

    family = _family(args)
    if family is None and not args.poly:
        raise UsageError("bench needs --family or --poly input")
    base = _resolve_ring(args)
    orderings = [base.ordering]
    if args.orderings:
        orderings = parse_orderings(args.orderings, base.n)
    rings = [RingContext(base.characteristic, base.variables, o) for o in orderings]
    inputs = []  # (label, generators)
    if family:
        inputs += [(args.family, _family_germ(family, r).tjurina_generators())
                   for r in rings]
    if args.poly:
        inputs += [("ideal", [parse_poly(s, r) for s in args.poly]) for r in rings]

    records = [
        _bench_one(label, gens, text, strategy, args.ceiling)
        for label, gens in inputs
        for text, strategy in strategies
    ]

    by_input = {}
    for r in records:
        by_input.setdefault(r["input"], set()).add(r["digest"])
    for label, digests in sorted(by_input.items()):
        if len(digests) > 1:
            print(
                "bench: digest mismatch on %r: %s" % (label, sorted(digests)),
                file=sys.stderr,
            )
            return 1

    # a stable sort: within an input, the orderings and then the strategies
    # keep the order they were given in
    records.sort(key=lambda r: r["input"])
    if args.json:
        print(json.dumps({"records": records, "version": __version__},
                         sort_keys=True))
    else:
        head = ("input", "ordering", "strategy", "pairs", "reductions",
                "millis", "digest")
        widths = [
            max(len(head[i]), max((len(str(r[head[i]])) for r in records), default=0))
            for i in range(len(head))
        ]
        print("  ".join(h.ljust(w) for h, w in zip(head, widths)))
        for r in records:
            print("  ".join(str(r[h]).ljust(w) for h, w in zip(head, widths)))
    return 0


# ---------------------------------------------------------------------------
# selftest and job files


def _cmd_selftest(args):
    from .acceptance import run_all, run_criterion

    if args.criterion is not None:
        results = [run_criterion(args.criterion, args.seed)]
    else:
        results = run_all(args.seed)
    code = 0
    for res in results:
        print(res.line())
        for d in res.details:
            print("    " + d)
        if not res.passed:
            code = 1
    return code


def run_jobfile(path):
    """Execute a job file: ring declaration, bindings, then commands.

    A command with arguments applies to the named bindings; with none it
    consumes every binding made so far, in order. Results print one per
    line. The first error aborts with its line number.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print("germkit: %s" % exc, file=sys.stderr)
        return 1
    try:
        statements = parse_job(text)
    except ParseError as exc:
        print("germkit: %s: %s" % (path, exc), file=sys.stderr)
        return 1

    ring = None
    bindings = {}
    order = []

    def polys(names, lineno):
        chosen = names or order
        missing = [n for n in chosen if n not in bindings]
        if missing:
            raise ParseError("unknown binding %r" % missing[0], lineno, 1)
        if not chosen:
            raise ParseError("no bindings to operate on", lineno, 1)
        return [bindings[n] for n in chosen]

    for kind, payload, lineno in statements:
        try:
            if kind == "ring":
                ring = parse_ring(payload)
                bindings.clear()
                order.clear()
                continue
            if ring is None:
                raise ParseError("no ring declared yet", lineno, 1)
            if kind == "bind":
                name, expr = payload
                bindings[name] = parse_poly(expr, ring)
                if name not in order:
                    order.append(name)
                continue
            cmd, argnames = payload
            if cmd == "std":
                for g in std(polys(argnames, lineno)):
                    print(serialize(g))
            elif cmd == "vdim":
                print(_dim_text(local_vdim(polys(argnames, lineno))[0]))
            elif cmd in _INVARIANTS:
                fn, _ = _INVARIANTS[cmd]
                print(_dim_text(fn(_germ_of(polys(argnames, lineno)))))
            elif cmd == "reiffen":
                ps = polys(argnames, lineno)
                if len(ps) != 2:
                    raise ParseError("reiffen takes two equations", lineno, 1)
                report = exactness_report(ps[0], ps[1])
                print(report.verdict)
            elif cmd == "serialize":
                for p in polys(argnames, lineno):
                    print(serialize(p))
            else:
                raise ParseError("unknown command %r" % cmd, lineno, 1)
        except (ParseError, UsageError) as exc:
            print("germkit: %s:%s: %s" % (path, lineno, exc), file=sys.stderr)
            return 1
        except GermkitError as exc:
            print(
                "germkit: %s:%s: %s: %s"
                % (path, lineno, type(exc).__name__, exc),
                file=sys.stderr,
            )
            return 1
    return 0


# ---------------------------------------------------------------------------
# entry point


COMMANDS = {
    "std": _cmd_std,
    "vdim": _cmd_vdim,
    "milnor": _cmd_invariant,
    "tjurina": _cmd_invariant,
    "mult": _cmd_invariant,
    "qh": _cmd_invariant,
    "ft": _cmd_report,
    "zariski": _cmd_report,
    "reiffen": _cmd_reiffen,
    "bench": _cmd_bench,
    "selftest": _cmd_selftest,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in COMMANDS and not argv[0].startswith("-"):
        if len(argv) > 1:
            print("germkit: a job file takes no further arguments", file=sys.stderr)
            return 2
        return run_jobfile(argv[0])

    parser = _build_parser(_germkit_env())
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print("germkit %s: %s" % (args.command, exc), file=sys.stderr)
        return 2
    except ParseError as exc:
        print("germkit %s: %s" % (args.command, exc), file=sys.stderr)
        return 1
    except GermkitError as exc:
        print(
            "germkit %s: %s: %s" % (args.command, type(exc).__name__, exc),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())

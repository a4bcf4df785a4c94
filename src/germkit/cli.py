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

Every flag has a GERMKIT_* environment variable fallback (GERMKIT_RING,
GERMKIT_ORDERING, GERMKIT_STRATEGY, GERMKIT_CHAR, GERMKIT_ORDER,
GERMKIT_JSON, GERMKIT_CEILING, GERMKIT_SEED); flags win.
Exit codes: 0 success, 1 computation error, 2 usage error.

Text and JSON outputs are deterministic for a fixed configuration; timing
lives only in `bench`, whose millis column is expected to vary run to run.
"""

import argparse
import hashlib
import json
import os
import sys
import time

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
from .parse import parse_job, parse_poly, parse_ring, serialize
from .poincare import exactness_report
from .stdbasis import (
    DEFAULT_CEILING,
    INFINITE,
    Strategy,
    highest_corner,
    local_vdim,
    std,
)

COMMANDS = (
    "std",
    "vdim",
    "milnor",
    "tjurina",
    "mult",
    "qh",
    "ft",
    "zariski",
    "reiffen",
    "bench",
    "selftest",
)

_GERM_COMMANDS = ("milnor", "tjurina", "mult", "qh")


class UsageError(Exception):
    pass


def _env(name, default=None):
    return os.environ.get("GERMKIT_" + name, default)


def _dim_text(value):
    return "infinite" if value is INFINITE else str(value)


# ---------------------------------------------------------------------------
# configuration plumbing


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--ring", default=_env("RING"), metavar="DECL",
                        help='ring declaration, e.g. "0 (x,y,z) ds"')
    common.add_argument("--poly", action="append", default=None, metavar="EXPR",
                        help="polynomial (repeatable)")
    common.add_argument("--family", default=None, metavar="SPEC",
                        help="zariski:a,b,c:t=q or ft:k,l")
    common.add_argument("--ordering", default=_env("ORDERING"), metavar="TOKENS",
                        help="ordering override, e.g. ds or dp(2),ds(1)")
    common.add_argument("--char", type=int, default=_env("CHAR"), metavar="P",
                        help="characteristic override")
    common.add_argument("--strategy", default=_env("STRATEGY"), metavar="OPTS",
                        help="comma list: sugar|min-lcm-degree|fifo, "
                             "min-ecart|first-found, [no-]product, [no-]chain")
    # string defaults go through type=int, so a bad variable is a usage error
    common.add_argument("--ceiling", type=int,
                        default=_env("CEILING", str(DEFAULT_CEILING)),
                        metavar="N", help="reduction-step ceiling")
    common.add_argument("--seed", type=int, default=_env("SEED", "20250819"),
                        metavar="N", help="seed for randomized suites")
    common.add_argument("--json", action="store_true",
                        default=_env("JSON", "") not in ("", "0"),
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
    re_.add_argument("--order", default=_env("ORDER", "auto"), metavar="N",
                     help="condition-1 truncation order, or auto")

    be = sub.add_parser("bench", parents=[common],
                        help="strategy/ordering cross-product timings")
    be.add_argument("--orderings", default=None, metavar="TOK,TOK",
                    help="comma list of ordering tokens (default: the ring's)")
    be.add_argument("--strategies", default=None, metavar="S;S",
                    help="semicolon list of strategy option lists")

    st = sub.add_parser("selftest", parents=[common],
                        help="run the acceptance criteria")
    st.add_argument("--criterion", type=int, default=None, metavar="N",
                    help="run a single criterion")
    return top


def _resolve_strategy(args):
    if args.strategy:
        return Strategy.from_text(args.strategy)
    return Strategy()


def _resolve_ring(args, default="0 (x,y,z) ds"):
    """Ring from --ring, with --char / --ordering overriding its fields."""
    base = parse_ring(args.ring if args.ring else default)
    char = base.characteristic if args.char is None else args.char
    tokens = args.ordering if args.ordering else base.ordering.token()
    return parse_ring(
        "ring %d (%s) %s" % (char, ",".join(base.variables), tokens)
    )


def _parse_rational(text):
    text = text.strip()
    if "/" in text:
        from fractions import Fraction

        return Fraction(text)
    return int(text)


def _family_germ(spec, args):
    """Germ from a family shorthand: zariski:a,b,c:t=q or ft:k,l."""
    head, _, rest = spec.partition(":")
    if head == "ft":
        try:
            k, l = (int(s) for s in rest.split(","))
        except ValueError:
            raise UsageError("--family ft needs ft:k,l") from None
        char = args.char if args.char is not None else 0
        return ft_germ(k, l, char)
    if head == "zariski":
        params, _, tpart = rest.partition(":")
        try:
            a, b, c = (int(s) for s in params.split(","))
        except ValueError:
            raise UsageError("--family zariski needs zariski:a,b,c:t=q") from None
        if not tpart.startswith("t="):
            raise UsageError("--family zariski needs a t= part")
        t = _parse_rational(tpart[2:])
        ring = _resolve_ring(args)
        return HypersurfaceGerm(zariski_family(a, b, c, t, ring=ring))
    raise UsageError("unknown family %r (want zariski:... or ft:k,l)" % spec)


def _resolve_germ(args):
    if args.family:
        return _family_germ(args.family, args)
    polys = args.poly or []
    if not polys:
        raise UsageError("need --family or --poly")
    ring = _resolve_ring(args)
    ps = [parse_poly(s, ring) for s in polys]
    if len(ps) == 1:
        return HypersurfaceGerm(ps[0])
    if len(ps) == 2:
        return SpaceCurveGerm(ps[0], ps[1])
    raise UsageError("a germ takes one equation (hypersurface) or two (curve)")


def _resolve_ideal(args):
    """Generator list for std/vdim: the family's natural ideal or --poly."""
    if args.family:
        germ = _family_germ(args.family, args)
        if isinstance(germ, SpaceCurveGerm):
            return [germ.f, germ.g] + list(germ.minors()), germ.ring
        f = germ.f
        return [f] + [f.partial(i) for i in range(f.ring.n)], germ.ring
    polys = args.poly or []
    if not polys:
        raise UsageError("need --family or --poly")
    ring = _resolve_ring(args)
    return [parse_poly(s, ring) for s in polys], ring


def _envelope(ring, strategy):
    return {
        "characteristic": ring.characteristic,
        "ordering": ring.ordering.token(),
        "strategy": strategy.to_json(),
        "version": __version__,
    }


def _emit(args, ring, strategy, payload, text):
    if args.json:
        out = dict(payload)
        out.update(_envelope(ring, strategy))
        print(json.dumps(out, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_std(args):
    gens, ring = _resolve_ideal(args)
    strategy = _resolve_strategy(args)
    basis = std(gens, strategy, ceiling=args.ceiling)
    rendered = [serialize(g) for g in basis]
    stats = basis.stats.to_json()
    del stats["millis"]  # byte-identical reruns
    if args.json:
        payload = {"generators": rendered, "stats": stats, "size": len(basis)}
        _emit(args, ring, strategy, payload, "")
    else:
        for line in rendered:
            print(line)
    return 0


def _cmd_vdim(args):
    gens, ring = _resolve_ideal(args)
    strategy = _resolve_strategy(args)
    value, _ = local_vdim(gens, strategy=strategy, ceiling=args.ceiling)
    _emit(args, ring, strategy, {"vdim": _dim_text(value)}, _dim_text(value))
    return 0


def _cmd_invariant(args):
    germ = _resolve_germ(args)
    strategy = _resolve_strategy(args)
    fn = {"milnor": milnor, "tjurina": tjurina, "mult": multiplicity}[args.command]
    value = fn(germ, strategy=strategy, ceiling=args.ceiling)
    key = {"milnor": "mu", "tjurina": "tau", "mult": "multiplicity"}[args.command]
    _emit(args, germ.ring, strategy, {key: _dim_json(value)}, _dim_text(value))
    return 0


def _cmd_qh(args):
    germ = _resolve_germ(args)
    strategy = _resolve_strategy(args)
    verdict = is_quasihomogeneous(germ, strategy=strategy, ceiling=args.ceiling)
    payload = {"quasi_homogeneous": verdict}
    text = verdict
    if isinstance(germ, HypersurfaceGerm) and verdict == "yes":
        w = find_weights(germ.f)
        if w is not None:
            payload["weights"] = [str(x) for x in w]
            text = "%s (weights %s)" % (verdict, ", ".join(str(x) for x in w))
    _emit(args, germ.ring, strategy, payload, text)
    return 0


def _report_out(args, germ, report):
    strategy = _resolve_strategy(args)
    if args.report or args.json:
        out = report.to_json()
        out.update(_envelope(germ.ring, strategy))
        print(json.dumps(out, sort_keys=True))
    else:
        print(
            "mu %s, tau %s, multiplicity %d, quasi-homogeneous %s"
            % (
                _dim_text(report.mu),
                _dim_text(report.tau),
                report.multiplicity,
                report.quasi_homogeneous,
            )
        )
    return 0


def _cmd_ft(args):
    germ = ft_germ(args.k, args.l, args.char if args.char is not None else 0)
    strategy = _resolve_strategy(args)
    report = full_report(germ, strategy=strategy, ceiling=args.ceiling)
    return _report_out(args, germ, report)


def _cmd_zariski(args):
    ring = _resolve_ring(args)
    f = zariski_family(args.a, args.b, args.c, _parse_rational(args.t), ring=ring)
    germ = HypersurfaceGerm(f)
    strategy = _resolve_strategy(args)
    report = full_report(germ, strategy=strategy, ceiling=args.ceiling)
    return _report_out(args, germ, report)


def _cmd_reiffen(args):
    if args.family:
        germ = _family_germ(args.family, args)
        if not isinstance(germ, SpaceCurveGerm):
            raise UsageError("reiffen needs a space-curve germ")
        f, g = germ.f, germ.g
    else:
        polys = args.poly or []
        if len(polys) != 2:
            raise UsageError("reiffen needs --family ft:k,l or two --poly")
        ring = _resolve_ring(args)
        f, g = (parse_poly(s, ring) for s in polys)
    order = args.order
    if order != "auto":
        try:
            order = int(order)
        except ValueError:
            raise UsageError("--order takes an integer or auto") from None
    strategy = _resolve_strategy(args)
    report = exactness_report(f, g, order, strategy=strategy, ceiling=args.ceiling)
    if args.json:
        out = report.to_json()
        out.update(_envelope(f.ring, strategy))
        print(json.dumps(out, sort_keys=True))
    else:
        print("condition 1: %s" % report.condition1.label())
        print(
            "condition 2: mu %s = %s - %s (%s)"
            % (
                _dim_text(report.condition2.mu),
                _dim_text(report.condition2.dim_omega2),
                _dim_text(report.condition2.dim_omega3),
                "holds" if report.condition2.holds else "fails",
            )
        )
        print("quasi-homogeneous: %s" % report.quasi_homogeneous)
        print("verdict: %s" % report.verdict)
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
    h = hashlib.sha256()
    h.update(("p=%d;vars=%s;" % (ring.characteristic, ",".join(ring.variables)))
             .encode())
    if value is INFINITE:
        leads = sorted(basis.leading_exponents())
        h.update(("leads=%r" % (leads,)).encode())
    else:
        counts = basis.staircase().counts_by_degree(highest_corner(basis))
        while counts and counts[-1] == 0:
            counts.pop()
        h.update(("vdim=%d;counts=%r" % (value, tuple(counts))).encode())
    return h.hexdigest()[:16]


def _bench_one(label, decl, strategy_text, ceiling):
    ring = parse_ring(decl[0])
    gens = [parse_poly(s, ring) for s in decl[1]]
    strategy = Strategy.from_text(strategy_text)
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
    strategy_texts = ["sugar,min-ecart"]
    if args.strategies:
        strategy_texts = [s.strip() for s in args.strategies.split(";") if s.strip()]

    # assemble inputs as (label, (ring decl, generator texts))
    inputs = []
    families = [args.family] if args.family else []
    if not families and not args.poly:
        raise UsageError("bench needs --family or --poly input")
    base_ring = _resolve_ring(args)
    orderings = [base_ring.ordering.token()]
    if args.orderings:
        orderings = [t.strip() for t in args.orderings.split(",") if t.strip()]
    for fam in families:
        for tok in orderings:
            sub = argparse.Namespace(**vars(args))
            sub.ordering = tok
            germ = _family_germ(fam, sub)
            if isinstance(germ, SpaceCurveGerm):
                gens = [germ.f, germ.g] + list(germ.minors())
            else:
                f = germ.f
                gens = [f] + [f.partial(i) for i in range(3)]
            decl = (
                "ring %d (%s) %s"
                % (germ.ring.characteristic, ",".join(germ.ring.variables), tok),
                [serialize(g) for g in gens],
            )
            inputs.append((fam, decl))
    if args.poly:
        for tok in orderings:
            decl = (
                "ring %d (%s) %s"
                % (base_ring.characteristic, ",".join(base_ring.variables), tok),
                list(args.poly),
            )
            inputs.append(("ideal", decl))

    records = [
        _bench_one(label, decl, stext, args.ceiling)
        for label, decl in inputs
        for stext in strategy_texts
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

    records.sort(key=lambda r: (r["input"], r["millis"]))
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


def run_jobfile(path, *, json_out=False):
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

    def germ_of(ps, lineno):
        if len(ps) == 1:
            return HypersurfaceGerm(ps[0])
        if len(ps) == 2:
            return SpaceCurveGerm(ps[0], ps[1])
        raise ParseError("a germ takes one or two equations", lineno, 1)

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
            elif cmd in ("milnor", "tjurina", "mult", "qh"):
                germ = germ_of(polys(argnames, lineno), lineno)
                if cmd == "milnor":
                    print(_dim_text(milnor(germ)))
                elif cmd == "tjurina":
                    print(_dim_text(tjurina(germ)))
                elif cmd == "mult":
                    print(multiplicity(germ))
                else:
                    print(is_quasihomogeneous(germ))
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
        except ParseError as exc:
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


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in COMMANDS and not argv[0].startswith("-"):
        if len(argv) > 1:
            print("germkit: a job file takes no further arguments", file=sys.stderr)
            return 2
        return run_jobfile(argv[0])

    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.command == "std":
            return _cmd_std(args)
        if args.command == "vdim":
            return _cmd_vdim(args)
        if args.command in ("milnor", "tjurina", "mult"):
            return _cmd_invariant(args)
        if args.command == "qh":
            return _cmd_qh(args)
        if args.command == "ft":
            return _cmd_ft(args)
        if args.command == "zariski":
            return _cmd_zariski(args)
        if args.command == "reiffen":
            return _cmd_reiffen(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "selftest":
            return _cmd_selftest(args)
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
    raise AssertionError("unhandled command %r" % args.command)


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer measurement from outside germkit.

`SpanTracer` wraps the public functions of each layer by replacing every
binding of the function object in the loaded germkit modules (so
`germkit.stdbasis.std` and the `std` that `germkit.invariants` imported are
both wrapped), records one span per call (name, parent, start, end), and
turns the spans into the per-layer metrics. `CoeffCounter` counts calls into
the coefficient-field methods; it runs in a pass of its own so its per-call
wrapper does not distort the spans.
"""

import functools
import sys
import time

# span name -> layer; the name is "<layer>.<function>" as reported
CLI = ("cli.main",)
PARSE = ("parse.parse_ring", "parse.parse_poly", "parse.serialize")
RING = ("ring.jacobian_minors", "ring.partial", "ring.mul", "ring.rmul",
        "ring.pow")
STD = ("stdbasis.std",)
STAIRCASE = ("stdbasis.jet_dimensions", "stdbasis.vdim",
             "stdbasis.highest_corner", "stdbasis.Staircase.std_exponents",
             "stdbasis.Staircase.counts_by_degree",
             "stdbasis.Staircase.is_finite",
             "stdbasis.Staircase.pure_power_degrees")
MILNOR = ("invariants.milnor", "invariants.milnor_hypersurface",
          "invariants.milnor_space_curve")
TJURINA = ("invariants.tjurina", "invariants.tjurina_hypersurface",
           "invariants.tjurina_space_curve")

FIELD_METHODS = ("add", "sub", "mul", "div", "neg", "inv")


def _germkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "germkit" or name.startswith("germkit."))]


def _rebind(original, replacement):
    """Point every germkit module-level binding of `original` at `replacement`."""
    hits = 0
    for mod in _germkit_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    if not hits:
        raise RuntimeError("no binding of %r found" % (original,))


def _generators_key(gens):
    key = []
    for g in gens:
        ring = g.ring
        key.append((ring.characteristic, tuple(ring.variables),
                    getattr(g, "rank", None), tuple(g._terms)))
    return tuple(key)


class SpanTracer:
    def __init__(self):
        self.spans = []  # [name, parent, start, end]
        self.stack = []
        self.parse_chars = 0
        self.std_calls = []  # (span id, jet, reductions, pairs, discarded)
        self.rung_of = {}  # id(basis) -> (basis, span id), per command
        self.uncertified = set()  # span ids of jet rungs that did not certify
        self.vdim_calls = 0
        self.vdim_repeats = 0
        self.vdim_seen = set()  # generator lists seen in the current command

    def _wrap(self, name, fn, after=None):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(rec)
            stack.append(sid)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(sid, args, kwargs, result)
            return result

        return traced

    # -- per-call bookkeeping -------------------------------------------

    def _on_parse_text(self, sid, args, kwargs, result):
        if args and isinstance(args[0], str):
            self.parse_chars += len(args[0])

    def _on_serialize(self, sid, args, kwargs, result):
        self.parse_chars += len(result)

    def _on_std(self, sid, args, kwargs, result):
        st = result.stats
        jet = kwargs.get("jet")
        self.std_calls.append((sid, jet, st.reductions, st.pairs, st.discarded))
        if jet is not None:
            self.rung_of[id(result)] = (result, sid)

    def _on_jet_dimensions(self, sid, args, kwargs, result):
        # only a rung's first evaluation, inside local_vdim, decides
        hit = self.rung_of.pop(id(args[0]), None)
        if hit is not None and not result[1]:
            self.uncertified.add(hit[1])

    def _before_vdim(self, gens):
        self.vdim_calls += 1
        key = _generators_key([g for g in gens if g])
        if key in self.vdim_seen:
            self.vdim_repeats += 1
        else:
            self.vdim_seen.add(key)

    def _new_command(self):
        self.vdim_seen.clear()
        self.rung_of.clear()

    # -- installation ---------------------------------------------------

    def install(self):
        import germkit.cli as cli
        import germkit.invariants as inv
        import germkit.parse as parse
        import germkit.poincare as poincare
        import germkit.ring as ring
        import germkit.stdbasis as sb

        main = cli.main
        wrapped_main = self._wrap("cli.main", main)

        def main_entry(*args, **kwargs):
            if not self.stack:
                self._new_command()
            return wrapped_main(*args, **kwargs)

        _rebind(main, functools.wraps(main)(main_entry))

        functions = [
            ("parse.parse_ring", parse.parse_ring, self._on_parse_text),
            ("parse.parse_poly", parse.parse_poly, self._on_parse_text),
            ("parse.serialize", parse.serialize, self._on_serialize),
            ("ring.jacobian_minors", ring.jacobian_minors, None),
            ("stdbasis.std", sb.std, self._on_std),
            ("stdbasis.jet_dimensions", sb.jet_dimensions, self._on_jet_dimensions),
            ("stdbasis.vdim", sb.vdim, None),
            ("stdbasis.highest_corner", sb.highest_corner, None),
            ("invariants.milnor", inv.milnor, None),
            ("invariants.tjurina", inv.tjurina, None),
            ("invariants.milnor_hypersurface", inv.milnor_hypersurface, None),
            ("invariants.milnor_space_curve", inv.milnor_space_curve, None),
            ("invariants.tjurina_hypersurface", inv.tjurina_hypersurface, None),
            ("invariants.tjurina_space_curve", inv.tjurina_space_curve, None),
            ("poincare.omega_dimension", poincare.omega_dimension, None),
            ("poincare.reiffen_condition_1", poincare.reiffen_condition_1, None),
            ("poincare.reiffen_condition_2", poincare.reiffen_condition_2, None),
        ]
        for name, fn, after in functions:
            _rebind(fn, self._wrap(name, fn, after))

        local_vdim = sb.local_vdim
        wrapped_vdim = self._wrap("stdbasis.local_vdim", local_vdim)

        def vdim_entry(generators, *args, **kwargs):
            generators = list(generators)
            self._before_vdim(generators)
            return wrapped_vdim(generators, *args, **kwargs)

        _rebind(local_vdim, functools.wraps(local_vdim)(vdim_entry))

        methods = [
            (ring.Polynomial, "partial", "ring.partial"),
            (ring.Polynomial, "__mul__", "ring.mul"),
            (ring.Polynomial, "__rmul__", "ring.rmul"),
            (ring.Polynomial, "__pow__", "ring.pow"),
            (sb.Staircase, "std_exponents", "stdbasis.Staircase.std_exponents"),
            (sb.Staircase, "counts_by_degree", "stdbasis.Staircase.counts_by_degree"),
            (sb.Staircase, "is_finite", "stdbasis.Staircase.is_finite"),
            (sb.Staircase, "pure_power_degrees",
             "stdbasis.Staircase.pure_power_degrees"),
        ]
        for cls, attr, name in methods:
            setattr(cls, attr, self._wrap(name, getattr(cls, attr)))

    # -- metrics ----------------------------------------------------------

    def metrics(self):
        spans = self.spans
        n = len(spans)
        child = [0.0] * n
        for rec in spans:
            if rec[1] >= 0:
                child[rec[1]] += rec[3] - rec[2]
        self_by_name = {}
        calls_by_name = {}
        for i, rec in enumerate(spans):
            name = rec[0]
            self_by_name[name] = self_by_name.get(name, 0.0) + (rec[3] - rec[2]) - child[i]
            calls_by_name[name] = calls_by_name.get(name, 0) + 1

        def self_s(names):
            return sum(self_by_name.get(nm, 0.0) for nm in names)

        def calls(names):
            return sum(calls_by_name.get(nm, 0) for nm in names)

        def covered_s(names):
            """Inclusive time of the spans in `names` not nested in another."""
            names = set(names)
            total = 0.0
            for rec in spans:
                if rec[0] not in names:
                    continue
                p = rec[1]
                while p >= 0 and spans[p][0] not in names:
                    p = spans[p][1]
                if p < 0:
                    total += rec[3] - rec[2]
            return total

        reductions = sum(c[2] for c in self.std_calls)
        wasted = sum(c[2] for c in self.std_calls if c[0] in self.uncertified)
        std_self = self_s(STD)
        return {
            "cli.self_s": self_s(CLI),
            "parse.calls": calls(PARSE),
            "parse.self_s": self_s(PARSE),
            "parse.chars": self.parse_chars,
            "ring.self_s": self_s(RING),
            "stdbasis.std.calls": len(self.std_calls),
            "stdbasis.std.self_s": std_self,
            "stdbasis.reductions": reductions,
            "stdbasis.pairs": sum(c[3] for c in self.std_calls),
            "stdbasis.discarded": sum(c[4] for c in self.std_calls),
            "stdbasis.reductions_per_s": reductions / std_self if std_self > 0 else 0.0,
            "stdbasis.jet_rungs": sum(1 for c in self.std_calls if c[1] is not None),
            "stdbasis.uncertified_rung_s": sum(
                spans[s][3] - spans[s][2] for s in self.uncertified),
            "stdbasis.useful_reduction_share": (
                (reductions - wasted) / reductions if reductions else 1.0),
            "stdbasis.staircase_s": self_s(STAIRCASE),
            "invariants.milnor_s": covered_s(MILNOR),
            "invariants.tjurina_s": covered_s(TJURINA),
            "invariants.local_vdim.calls": self.vdim_calls,
            "invariants.repeat_vdim_share": (
                self.vdim_repeats / self.vdim_calls if self.vdim_calls else 0.0),
            "poincare.omega_s": covered_s(("poincare.omega_dimension",)),
            "poincare.condition1_s": covered_s(("poincare.reiffen_condition_1",)),
            "poincare.condition2_s": covered_s(("poincare.reiffen_condition_2",)),
        }

    def write(self, path):
        """One JSON array per line: [id, name, parent, start_s, end_s]."""
        import json

        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps([i, name, parent, round(start - t0, 7),
                                     round(end - t0, 7)]) + "\n")


class CoeffCounter:
    """Counts calls into the Field methods of the rationals and F_p."""

    def __init__(self):
        self.counts = {"rational": 0, "prime": 0}

    def install(self):
        from germkit.coeff import PrimeField, RationalField

        for cls, key in ((RationalField, "rational"), (PrimeField, "prime")):
            for attr in FIELD_METHODS:
                setattr(cls, attr, self._counting(getattr(cls, attr), key))

    def _counting(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def metrics(self):
        return {"coeff.rational_ops": self.counts["rational"],
                "coeff.prime_ops": self.counts["prime"]}

"""The three fixed command corpora of the benchmark.

Every corpus is a fixed list, issued in a fixed order; nothing here draws
random numbers, and the run's seed selects nothing, so every run of a
workload does exactly the same work. (Rotating the list by the seed was
tried: the small Zariski commands took up to 40 % longer at some positions
of the pass than at others, which spread op_p50_s by half its value.)

Each command is a dict with the `argv` handed to `germkit.cli.main` and the
metadata its checker needs (`kind` plus the inputs it was built from).
"""

PRIME = 32003

# Zariski-family surface germs over F_32003 under ds. (40,30,8) t=0 is the
# paper's member; its ladder runs jets 32 -> 64 -> 128 (milnor) and
# 32 -> 64 -> 107 (tjurina), and each t=1 member's milnor throws away the
# jet-32 rung.
ZARISKI_MEMBERS = (
    ((40, 30, 8, "0"), ("milnor", "tjurina")),
    ((16, 12, 4, "1"), ("milnor", "tjurina")),
    ((20, 15, 4, "1"), ("milnor", "tjurina")),
)

# (name, index, characteristics) for std under dp; the same ideals in both
# fields, so the Q/F_p ratio isolates the coefficient cost
GLOBAL_IDEALS = (
    ("katsura", 5, (PRIME, 0)),
    ("cyclic", 5, (PRIME, 0)),
)

# FT space curves ft:k,l with 4 <= l <= k; every third germ's reiffen call
# carries an explicit condition-1 order so the elimination does real work.
FT_K = range(5, 15)
FT_L_MAX = 12


def zariski_spec(member):
    a, b, c, t = member
    return "zariski:%d,%d,%d:t=%s" % (a, b, c, t)


def zariski_commands():
    out = []
    for member, invariants in ZARISKI_MEMBERS:
        for inv in invariants:
            argv = [inv, "--ring", "%d (x,y,z) ds" % PRIME,
                    "--family", zariski_spec(member), "--json"]
            out.append({"kind": "zariski", "argv": argv,
                        "invariant": inv, "member": list(member)})
    return out


def katsura(n):
    """Katsura-n in u0..un: 2^n solutions, all simple."""
    names = ["u%d" % i for i in range(n + 1)]

    def u(k):
        k = abs(k)
        return names[k] if k <= n else None

    polys = ["+".join([names[0]] + ["2*" + names[i] for i in range(1, n + 1)]) + "-1"]
    for m in range(n):
        terms = []
        for l in range(-n, n + 1):
            a, b = u(l), u(m - l)
            if a and b:
                terms.append(a + "*" + b)
        polys.append("+".join(terms) + "-" + names[m])
    return names, polys


def cyclic(n):
    """Cyclic-n in x0..x(n-1); Cyclic-5 has 70 solutions, all simple."""
    names = ["x%d" % i for i in range(n)]
    polys = []
    for d in range(1, n):
        polys.append("+".join(
            "*".join(names[(i + j) % n] for j in range(d)) for i in range(n)
        ))
    polys.append("*".join(names) + "-1")
    return names, polys


def ideal(name, n):
    return katsura(n) if name == "katsura" else cyclic(n)


def expected_vdim(name, n):
    """Number of solutions counted with multiplicity (Bezout-sharp counts)."""
    if name == "katsura":
        return 2 ** n
    if (name, n) == ("cyclic", 5):
        return 70
    raise ValueError("no known count for %s-%d" % (name, n))


def global_commands():
    out = []
    for name, n, chars in GLOBAL_IDEALS:
        names, polys = ideal(name, n)
        for p in chars:
            argv = ["std", "--ring", "%d (%s) dp" % (p, ",".join(names))]
            for q in polys:
                argv += ["--poly", q]
            argv.append("--json")
            out.append({"kind": "global", "argv": argv, "ideal": name,
                        "n": n, "characteristic": p, "variables": names})
    return out


def ft_commands():
    out = []
    index = 0
    for k in FT_K:
        for l in range(4, min(k, FT_L_MAX) + 1):
            out.append({"kind": "ft", "argv": ["ft", "--k", str(k), "--l", str(l),
                                               "--report", "--json"],
                        "k": k, "l": l, "order": None})
            argv = ["reiffen", "--family", "ft:%d,%d" % (k, l), "--json"]
            order = None
            if index % 3 == 0:
                order = 4 + (k + l) % 5
                argv += ["--order", str(order)]
            out.append({"kind": "reiffen", "argv": argv, "k": k, "l": l,
                        "order": order})
            index += 1
    return out


WORKLOADS = {
    "zariski-modp": zariski_commands,
    "global-dp": global_commands,
    "ft-corpus": ft_commands,
}


def commands(workload):
    """The workload's fixed command list."""
    return WORKLOADS[workload]()

"""Text front end: ring declarations, polynomial expressions, job files.

Grammar for expressions (no implicit multiplication, ``^`` takes a literal
non-negative integer below 2^16, unary minus applies to the whole factor so
``-x^2`` means ``-(x^2)``):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' nat)?
    atom   := nat ('/' nat)? | var | '(' expr ')'

Ring declarations follow the classical short syntax, e.g.
``ring 0 (x,y,z) ds`` or ``32003 (x,y) dp,ls`` (the leading ``ring`` keyword
is optional). Ordering tokens: dp, Dp, lp, ds, ls, wp(w,...), ws(w,...);
multi-block orderings use parenthesized sizes as in ``dp(2),ds(1)`` (the
last block may omit its size and takes the remaining variables). A list of
orderings, as ``bench --orderings`` takes, splits after each block that
covers the last variable.
"""

from fractions import Fraction

from .errors import ExponentOverflow, ParseError, UnknownOrderingToken
from .ring import (
    _EXP_LIMIT,
    Block,
    OrderingSpec,
    RingContext,
    TOKEN_TO_KIND,
    render_polynomial,
)

_PUNCT = "+-*/^(),=;"


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind  # 'nat' | 'name' | one of _PUNCT | 'end'
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%r, %r)" % (self.kind, self.value)


def _tokenize(text):
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("nat", int(text[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, start_col)
    tokens.append(_Token("end", None, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def accept(self, kind):
        if self.cur.kind == kind:
            return self.advance()
        return None

    def expect(self, kind, what=None):
        tok = self.cur
        if tok.kind != kind:
            raise ParseError(
                "expected %s, found %r" % (what or repr(kind), _show(tok)),
                tok.line,
                tok.col,
            )
        return self.advance()

    def fail(self, message):
        tok = self.cur
        raise ParseError(message, tok.line, tok.col)

    def expect_end(self, after):
        if self.cur.kind != "end":
            self.fail("unexpected %r after %s" % (_show(self.cur), after))


def _show(tok):
    if tok.kind == "end":
        return "end of input"
    return str(tok.value)


# ---------------------------------------------------------------------------
# polynomial expressions


def _parse_expr(p, ring):
    tok = p.cur
    if tok.kind == "+":
        p.fail("expressions cannot start with '+'")
    total = _parse_term(p, ring)
    while True:
        if p.accept("+"):
            total = total + _parse_term(p, ring)
        elif p.accept("-"):
            total = total - _parse_term(p, ring)
        else:
            return total


def _parse_term(p, ring):
    value = _parse_factor(p, ring)
    while p.accept("*"):
        value = value * _parse_factor(p, ring)
    return value


def _parse_factor(p, ring):
    if p.accept("-"):
        return -_parse_factor(p, ring)
    value = _parse_atom(p, ring)
    if p.accept("^"):
        e = p.expect("nat", "a non-negative integer exponent")
        if e.value >= _EXP_LIMIT:
            # refused before any arithmetic: a power's cost grows with it
            raise ExponentOverflow("exponent %d out of range [0, 2^16) "
                                   "(line %d, column %d)" % (e.value, e.line, e.col))
        return value ** e.value
    return value


def _parse_atom(p, ring):
    tok = p.cur
    if tok.kind == "nat":
        p.advance()
        if p.accept("/"):
            den = p.expect("nat", "a denominator")
            if den.value == 0:
                raise ParseError("zero denominator", den.line, den.col)
            return ring.constant(Fraction(tok.value, den.value))
        return ring.constant(tok.value)
    if tok.kind == "name":
        p.advance()
        if tok.value not in ring.variables:
            raise ParseError("unknown variable %r" % tok.value, tok.line, tok.col)
        return ring.variable(tok.value)
    if tok.kind == "(":
        p.advance()
        inner = _parse_expr(p, ring)
        p.expect(")", "')'")
        return inner
    p.fail("expected a number, variable or '(', found %r" % _show(tok))


def parse_poly(text, ring):
    """Parse an expression into a polynomial of the given ring."""
    p = _Parser(_tokenize(text))
    value = _parse_expr(p, ring)
    p.expect_end("expression (implicit multiplication is not allowed)")
    return value


# ---------------------------------------------------------------------------
# ring declarations and ordering tokens


def _parse_block(p, remaining):
    tok = p.expect("name", "an ordering token")
    base = tok.value
    kind = TOKEN_TO_KIND.get(base)
    if kind is None:
        raise UnknownOrderingToken(
            "unknown ordering token %r (line %d, column %d)" % (base, tok.line, tok.col)
        )
    if base in ("wp", "ws"):
        p.expect("(", "'(' with weights")
        weights = [p.expect("nat", "a weight").value]
        while p.accept(","):
            weights.append(p.expect("nat", "a weight").value)
        p.expect(")", "')'")
        return Block(kind, len(weights), tuple(weights))
    if p.accept("("):
        size = p.expect("nat", "a block size").value
        p.expect(")", "')'")
        return Block(kind, size)
    # bare token: takes all remaining variables, so it must come last
    return Block(kind, remaining)


def parse_ordering_tokens(text, n):
    """Parse an ordering token list (e.g. ``ds`` or ``dp(2),ls``)."""
    p = _Parser(_tokenize(text))
    spec = _parse_ordering(p, n)
    p.expect_end("ordering")
    return spec


def parse_orderings(text, n):
    """Parse a comma list of orderings (e.g. ``ds,ls,dp(1),ds(1)`` for n = 2).

    Each ordering ends at the block that covers the last of the n
    variables, so a bare token is an ordering of its own.
    """
    p = _Parser(_tokenize(text))
    specs = [_parse_ordering(p, n, several=True)]
    while p.accept(","):
        specs.append(_parse_ordering(p, n, several=True))
    p.expect_end("ordering")
    return specs


def _parse_ordering(p, n, several=False):
    blocks = []
    remaining = n
    while True:
        if remaining <= 0:
            p.fail("ordering blocks cover more than %d variables" % n)
        blk = _parse_block(p, remaining)
        blocks.append(blk)
        remaining -= blk.size
        if (several and remaining <= 0) or not p.accept(","):
            break
    if remaining != 0:
        tok = p.cur
        raise ParseError(
            "ordering blocks cover %d of %d variables" % (n - remaining, n),
            tok.line,
            tok.col,
        )
    return OrderingSpec(tuple(blocks))


def parse_ring(text):
    """Parse a ring declaration like ``ring 0 (x,y,z) ds``."""
    p = _Parser(_tokenize(text))
    if p.cur.kind == "name" and p.cur.value == "ring":
        p.advance()
    char_tok = p.expect("nat", "the characteristic")
    p.expect("(", "'(' before the variable list")
    names = [p.expect("name", "a variable name").value]
    while p.accept(","):
        names.append(p.expect("name", "a variable name").value)
    p.expect(")", "')'")
    spec = _parse_ordering(p, len(names))
    p.expect_end("ring declaration")
    return RingContext(char_tok.value, names, spec)


def serialize(poly):
    """Canonical text form of a polynomial (round-trips through parse_poly)."""
    return render_polynomial(poly)


# ---------------------------------------------------------------------------
# job files


def parse_job(text):
    """Split a job file into statements.

    One statement per line: a ring declaration, a binding ``name = expr;``,
    or a command ``cmd arg, arg;`` (trailing ``;`` optional, ``#`` starts a
    comment). Returns a list of (kind, payload, line_number) with kind in
    {'ring', 'bind', 'command'}.
    """
    statements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line.endswith(";"):
            line = line[:-1].rstrip()
        if not line:
            continue
        if line.startswith("ring ") or line == "ring":
            statements.append(("ring", line, lineno))
            continue
        if "=" in line:
            name, expr = line.split("=", 1)
            name = name.strip()
            if not name.isidentifier():
                raise ParseError("bad binding name %r" % name, lineno, 1)
            expr = expr.strip()
            if not expr:
                raise ParseError("empty right-hand side", lineno, 1)
            statements.append(("bind", (name, expr), lineno))
            continue
        parts = line.split(None, 1)
        cmd = parts[0]
        args = []
        if len(parts) > 1:
            args = [a.strip() for a in parts[1].split(",")]
            if any(not a for a in args):
                raise ParseError("empty argument in %r" % line, lineno, 1)
        statements.append(("command", (cmd, args), lineno))
    return statements

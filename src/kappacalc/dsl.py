"""Surface syntax for the series-defining functions.

Grammar (one-variable expressions in A):

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := '-' factor | postfix
    postfix := primary ('^' integer)*
    primary := rational | 'A' | identifier | func '(' expr ')' | '(' expr ')'

Rationals are "p" or "p/q"; identifiers are bound to exact rationals at
evaluation time; func is one of exp, log, sqrt.  Division by a series with
zero constant term is allowed only when the numerator is exactly divisible,
which makes expressions like A/(exp(A)-1) first-class.  An exponent is an
integer of absolute value at most MAX_EXPONENT, and so is the product of the
exponents of nested powers.  A number p/q after '^' is the exponent p
followed by the division /q: A^2/3 is (A^2)/3 and A^-2/3 is (A^-2)/3.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .records import FrozenRecord
from .scalars import _frac
from .series import SeriesError, TruncSeries

FUNCS = ("exp", "log", "sqrt")

# Largest |exponent| a power may carry, also taken over the product of the
# exponents of nested powers such as (c^a)^b: a constant raised to a huge
# power is a huge exact integer that no truncation order bounds.
MAX_EXPONENT = 1000


class DslError(ValueError):
    pass


class DslSyntaxError(DslError):
    pass


class DslEvalError(DslError):
    pass


# -- AST ----------------------------------------------------------------------


class Lit(FrozenRecord):
    __slots__ = ("value",)


class Var(FrozenRecord):
    __slots__ = ()


class Name(FrozenRecord):
    __slots__ = ("ident",)


class Neg(FrozenRecord):
    __slots__ = ("arg",)


class Bin(FrozenRecord):
    __slots__ = ("op", "left", "right")


class Call(FrozenRecord):
    __slots__ = ("func", "arg")


class Pow(FrozenRecord):
    __slots__ = ("base", "exponent")


# -- tokenizer ----------------------------------------------------------------

IDENT = r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|(" + IDENT + r")|([()+\-*/^]))")


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m or m.end() == pos:
            if src[pos:].strip():
                raise DslSyntaxError(f"unexpected character at column {pos + 1}: "
                                     f"{src[pos:].strip()[0]!r}")
            break
        num, ident, op = m.groups()
        if num is not None:
            tokens.append(("num", num, m.start(1)))
        elif ident is not None:
            tokens.append(("ident", ident, m.start(2)))
        else:
            tokens.append(("op", op, m.start(3)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise DslSyntaxError("unexpected end of input")
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise DslSyntaxError(f"expected {op!r} at column {tok[2] + 1}")

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise DslSyntaxError(f"trailing input at column {tok[2] + 1}")
        if _nested_exponent(node) > MAX_EXPONENT:
            raise DslSyntaxError(f"nested powers exceed a total exponent of "
                                 f"{MAX_EXPONENT}")
        return node

    def expr(self):
        node = self.term()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.take()
                node = Bin(tok[1], node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "*/":
                self.take()
                node = Bin(tok[1], node, self.factor())
            else:
                return node

    def factor(self):
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.take()
            return Neg(self.factor())
        return self.postfix()

    def postfix(self):
        node = self.primary()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "^":
                self.take()
                node = Pow(node, self.integer())
            else:
                return node

    def integer(self) -> int:
        neg = False
        tok = self.take()
        if tok[0] == "op" and tok[1] == "-":
            neg = True
            tok = self.take()
        if tok[0] != "num":
            raise DslSyntaxError(f"expected integer exponent at column {tok[2] + 1}")
        if "/" in tok[1]:  # the exponent of A^p/q is p; "/q" goes to term
            p, q = tok[1].split("/")
            col = tok[2] + len(p)
            self.tokens[self.pos:self.pos] = [("op", "/", col),
                                              ("num", q, col + 1)]
            tok = ("num", p, tok[2])
        digits = tok[1].lstrip("0") or "0"
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise DslSyntaxError(f"exponent {tok[1]} at column {tok[2] + 1} "
                                 f"exceeds {MAX_EXPONENT}")
        val = int(digits)
        return -val if neg else val

    def primary(self):
        tok = self.take()
        if tok[0] == "num":
            try:
                return Lit(Fraction(tok[1]))
            except ZeroDivisionError:
                raise DslSyntaxError(f"zero denominator in {tok[1]!r} at "
                                     f"column {tok[2] + 1}") from None
            except ValueError:  # beyond the interpreter's int-string limit
                raise DslSyntaxError(f"number too long at column "
                                     f"{tok[2] + 1}") from None
        if tok[0] == "ident":
            if tok[1] == "A":
                return Var()
            if tok[1] in FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(tok[1], arg)
            return Name(tok[1])
        if tok[0] == "op" and tok[1] == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise DslSyntaxError(f"unexpected token {tok[1]!r} at column {tok[2] + 1}")


def _nested_exponent(node) -> int:
    """Largest product of |exponents| along a chain of nested powers."""
    if isinstance(node, Pow):
        return max(abs(node.exponent), 1) * _nested_exponent(node.base)
    if isinstance(node, (Neg, Call)):
        return _nested_exponent(node.arg)
    if isinstance(node, Bin):
        return max(_nested_exponent(node.left), _nested_exponent(node.right))
    return 1


def parse_dsl(src: str):
    try:
        return _Parser(src).parse()
    except RecursionError:  # the parser recurses once per nesting level
        raise DslSyntaxError("expression is nested too deeply") from None


# -- rendering ----------------------------------------------------------------


def render_dsl(node) -> str:
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Var):
        return "A"
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Neg):
        return f"-{render_dsl(node.arg)}" if isinstance(node.arg, (Lit, Var, Name, Call)) \
            else f"-({render_dsl(node.arg)})"
    if isinstance(node, Call):
        return f"{node.func}({render_dsl(node.arg)})"
    if isinstance(node, Pow):
        base = render_dsl(node.base)
        if not isinstance(node.base, (Lit, Var, Name, Call)):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Bin):
        left, right = render_dsl(node.left), render_dsl(node.right)
        if node.op in "*/":
            if isinstance(node.left, Bin) and node.left.op in "+-":
                left = f"({left})"
            if isinstance(node.right, (Bin, Neg)):
                right = f"({right})"
        else:
            if isinstance(node.right, (Bin, Neg)) and not (
                    isinstance(node.right, Bin) and node.right.op in "*/"):
                right = f"({right})"
        return f"{left}{node.op}{right}"
    raise DslError(f"unknown node {node!r}")


# -- evaluation ---------------------------------------------------------------


def _binop(op: str, a: TruncSeries, b: TruncSeries, node) -> TruncSeries:
    order = min(a.order, b.order)
    a, b = a.truncate(order), b.truncate(order)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    # division: full field-of-fractions behaviour where truncation allows it
    if not b[0].is_zero():
        return a * b.recip()
    v = b.valuation()
    if v > order:
        raise DslEvalError(f"division by zero series in {render_dsl(node)!r}")
    if a.valuation() < v:
        raise DslEvalError(
            f"inexact division in {render_dsl(node)!r}: numerator is not "
            f"divisible by A^{v}")
    return a.div_by_t(v) * b.div_by_t(v).recip()


def _eval(node, order: int, bindings: dict) -> TruncSeries:
    if isinstance(node, Lit):
        return TruncSeries.const(node.value, order)
    if isinstance(node, Var):
        return TruncSeries.t(order)
    if isinstance(node, Name):
        if node.ident not in bindings:
            raise DslEvalError(f"unbound identifier {node.ident!r}")
        return TruncSeries.const(_frac(bindings[node.ident]), order)
    if isinstance(node, Neg):
        return -_eval(node.arg, order, bindings)
    if isinstance(node, Bin):
        return _binop(node.op, _eval(node.left, order, bindings),
                      _eval(node.right, order, bindings), node)
    if isinstance(node, Call):
        arg = _eval(node.arg, order, bindings)
        try:
            return getattr(arg, node.func)()
        except SeriesError as exc:
            raise DslEvalError(f"{node.func} precondition failed in "
                               f"{render_dsl(node)!r}: {exc}") from exc
    if isinstance(node, Pow):
        base = _eval(node.base, order, bindings)
        try:
            return base.pow(node.exponent)
        except SeriesError as exc:
            raise DslEvalError(f"power precondition failed in "
                               f"{render_dsl(node)!r}: {exc}") from exc
    raise DslError(f"unknown node {node!r}")


def eval_dsl(node, order: int, bindings: dict | None = None) -> TruncSeries:
    """Evaluate to an exact series of exactly the requested order.

    Inner divisions by powers of A reduce the known order, so evaluation is
    retried at a padded order until the result carries the full request; the
    retry is sound because every operation is truncation-functorial.
    """
    if isinstance(node, str):
        node = parse_dsl(node)
    bindings = bindings or {}
    work = order
    for _ in range(order + 2):
        result = _eval(node, work, bindings)
        if result.order >= order:
            return result.truncate(order)
        work += order - result.order
    raise DslEvalError("evaluation cannot reach the requested order")

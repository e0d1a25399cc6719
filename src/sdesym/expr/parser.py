"""Pratt parser for the infix expression grammar.

Grammar: numbers, identifiers, + - * / ^, unary minus, parentheses, and
function application f(e) for the builtin functions.  Identifiers x1..xn,
t, w1..wm are variables (x and w are accepted as aliases in the scalar
case); every other identifier is a free parameter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List

from .nodes import (
    BUILTINS,
    Apply,
    Const,
    Context,
    Expr,
    Neg,
    Param,
    Power,
    Var,
    add,
    mul,
    negate,
    state,
    TIME,
    wiener,
)


class ExprSyntaxError(ValueError):
    """Syntax or name-resolution error, with the offending position."""

    def __init__(self, message: str, pos: int, text: str = ""):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos
        self.text = text


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\^|\*|/|\+|-|\(|\)))"
)

_STATE_RE = re.compile(r"^x(\d+)$")
_WIENER_RE = re.compile(r"^w(\d+)$")

_BIND = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_BIND = 25


@dataclass
class _Token:
    kind: str  # 'num' | 'ident' | 'op' | 'end'
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_pos = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {text[bad_pos]!r}", bad_pos, text)
        for kind in ("num", "ident", "op"):
            value = match.group(kind)
            if value is not None:
                tokens.append(_Token(kind, value, match.start(kind)))
                break
        pos = match.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


def _number(text: str) -> Const:
    if "e" in text or "E" in text:
        mantissa, _, expo = text.replace("E", "e").partition("e")
        return Const(Fraction(mantissa) * Fraction(10) ** int(expo))
    return Const(Fraction(text))


class _Parser:
    def __init__(self, text: str, ctx: Context):
        self.text = text
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.i = 0

    @property
    def token(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.token
        if tok.kind != "op" or tok.text != op:
            raise ExprSyntaxError(f"expected {op!r}", tok.pos, self.text)
        self.advance()

    def resolve(self, name: str, pos: int) -> Expr:
        if name == "t":
            return Var(TIME)
        if name == "x" and self.ctx.n == 1:
            return Var(state(1))
        if name == "w" and self.ctx.m == 1:
            return Var(wiener(1))
        match = _STATE_RE.match(name)
        if match:
            index = int(match.group(1))
            if not 1 <= index <= self.ctx.n:
                raise ExprSyntaxError(
                    f"state variable {name} not declared (n = {self.ctx.n})", pos, self.text
                )
            return Var(state(index))
        match = _WIENER_RE.match(name)
        if match:
            index = int(match.group(1))
            if not 1 <= index <= self.ctx.m:
                raise ExprSyntaxError(
                    f"wiener variable {name} not declared (m = {self.ctx.m})", pos, self.text
                )
            return Var(wiener(index))
        if name in ("x", "w"):
            raise ExprSyntaxError(
                f"alias {name!r} is only available in the scalar case", pos, self.text
            )
        if name in BUILTINS:
            raise ExprSyntaxError(f"builtin {name!r} needs an argument list", pos, self.text)
        return Param(name)

    def nud(self, tok: _Token) -> Expr:
        if tok.kind == "num":
            return _number(tok.text)
        if tok.kind == "ident":
            if self.token.kind == "op" and self.token.text == "(":
                if tok.text not in BUILTINS:
                    raise ExprSyntaxError(f"unknown function {tok.text!r}", tok.pos, self.text)
                self.advance()
                arg = self.expression(0)
                self.expect_op(")")
                return Apply(tok.text, arg)
            return self.resolve(tok.text, tok.pos)
        if tok.kind == "op" and tok.text == "(":
            inner = self.expression(0)
            self.expect_op(")")
            return inner
        if tok.kind == "op" and tok.text == "-":
            operand = self.expression(_UNARY_BIND)
            if isinstance(operand, Const):
                return Const(-operand.value)
            return Neg(operand)
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.pos, self.text)

    def led(self, tok: _Token, left: Expr) -> Expr:
        op = tok.text
        if op == "+":
            return add(left, self.expression(_BIND["+"]))
        if op == "-":
            return add(left, negate(self.expression(_BIND["-"])))
        if op == "*":
            return mul(left, self.expression(_BIND["*"]))
        if op == "/":
            right = self.expression(_BIND["/"])
            if isinstance(left, Const) and isinstance(right, Const):
                if isinstance(left.value, Fraction) and isinstance(right.value, Fraction):
                    if right.value != 0:
                        return Const(left.value / right.value)
            return mul(left, Power(right, Const(Fraction(-1))))
        if op == "^":
            return Power(left, self.expression(_BIND["^"] - 1))
        raise ExprSyntaxError(f"unexpected operator {op!r}", tok.pos, self.text)

    def lbp(self, tok: _Token) -> int:
        if tok.kind == "op" and tok.text in _BIND:
            return _BIND[tok.text]
        return 0

    def expression(self, rbp: int) -> Expr:
        tok = self.advance()
        left = self.nud(tok)
        while rbp < self.lbp(self.token):
            tok = self.advance()
            left = self.led(tok, left)
        return left

    def parse(self) -> Expr:
        result = self.expression(0)
        tok = self.token
        if tok.kind != "end":
            raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.pos, self.text)
        return result


def parse(text: str, ctx: Context) -> Expr:
    """Parse ``text`` into an expression tree over ``ctx``'s variables."""
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0, text)
    return _Parser(text, ctx).parse()

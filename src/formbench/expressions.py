"""Parsers for scalar coefficients and form expressions.

The grammar is deliberately small: sums of products of rational literals,
``i``, declared scalar variables (with ``^`` integer powers) and, in form
expressions, wedge chains of generator names joined by ``^``
(``"x1^x2 + x3^x4"``).  Everything the package renders parses back.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .exterior import Form
from .scalars import GaussianRational
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([+\-*/^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}")
            break
        number, name, op = m.groups()
        if number is not None:
            tokens.append(("num", int(number)))
        elif name is not None:
            tokens.append(("name", name))
        else:
            tokens.append(("op", op))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, text, table, coframe=None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.table = table
        self.coframe = coframe

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, op):
        kind, value = self.take()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}, found {value!r}")

    # sums -------------------------------------------------------------------

    def parse(self):
        value = self.term()
        while True:
            kind, op = self.peek()
            if kind == "op" and op in "+-":
                self.take()
                rhs = self.term()
                value = _add(value, rhs, subtract=op == "-")
            else:
                break
        return value

    def term(self):
        negate = False
        while True:
            kind, op = self.peek()
            if kind == "op" and op in "+-":
                self.take()
                if op == "-":
                    negate = not negate
            else:
                break
        value = self.factor()
        while True:
            kind, op = self.peek()
            if kind == "op" and op == "*":
                self.take()
                value = value * self.factor()
            else:
                break
        if negate:
            value = -value
        return value

    # products ----------------------------------------------------------------

    def factor(self):
        kind, value = self.take()
        if kind == "num":
            rational = Fraction(value)
            nk, nv = self.peek()
            if nk == "op" and nv == "/":
                self.take()
                dk, dv = self.take()
                if dk != "num" or dv == 0:
                    raise ParseError("expected a nonzero integer denominator")
                rational = Fraction(value, dv)
            scalar = self.table.constant(rational)
            nk, nv = self.peek()
            if nk == "name" and nv == "i":
                self.take()
                scalar = scalar * GaussianRational(0, 1)
            return scalar
        if kind == "name":
            if value == "i":
                return self.table.constant(GaussianRational(0, 1))
            if self.coframe is not None and value in self.coframe.position:
                return self.wedge_chain(value)
            if value in self.table.names:
                power = self.maybe_power()
                return self.table.variable(value, power)
            raise ParseError(f"unknown symbol {value!r}")
        if kind == "op" and value == "(":
            inner = self.parse()
            self.expect_op(")")
            if isinstance(inner, Form):
                return inner
            power = self.maybe_power()
            return inner ** power
        raise ParseError(f"unexpected token {value!r}")

    def maybe_power(self):
        kind, value = self.peek()
        if kind == "op" and value == "^":
            self.take()
            nk, nv = self.take()
            if nk != "num":
                raise ParseError("expected an integer exponent after '^'")
            return nv
        return 1

    def wedge_chain(self, first):
        names = [first]
        while True:
            kind, value = self.peek()
            if kind == "op" and value == "^":
                self.take()
                nk, nv = self.take()
                if nk != "name" or nv not in self.coframe.position:
                    raise ParseError(f"expected a generator name, found {nv!r}")
                names.append(nv)
            else:
                break
        return self.coframe.monomial_form(names)


def _add(a, b, subtract=False):
    if isinstance(a, Form) and not isinstance(b, Form):
        b = a.coframe.unit(b)
    elif isinstance(b, Form) and not isinstance(a, Form):
        a = b.coframe.unit(a)
    return a - b if subtract else a + b


def _parse_whole(text, table, coframe=None):
    """The value of the whole text; an exponent past the scalar bound, or
    nesting past the recursion limit, is a ParseError."""
    parser = _Parser(text, table, coframe)
    try:
        value = parser.parse()
    except OverflowError as exc:
        raise ParseError(str(exc)) from exc
    except RecursionError as exc:
        raise ParseError("expression nested too deeply") from exc
    if parser.peek()[0] != "end":
        raise ParseError(f"trailing input in {text!r}")
    return value


def parse_scalar(text, table):
    """Parse a polynomial scalar expression over the given variable table."""
    value = _parse_whole(text, table)
    if isinstance(value, Form):
        raise ParseError("expected a scalar, found a form")
    return value


def parse_form(text, coframe):
    """Parse a form expression such as ``"x1^x2 + (1+2i)*x3^x4"``."""
    value = _parse_whole(text, coframe.table, coframe)
    if not isinstance(value, Form):
        value = coframe.unit(value)
    return value

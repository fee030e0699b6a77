"""Recursive-descent parser for the end-space term DSL.

Grammar (whitespace-insensitive):

    input    := term | surface
    surface  := "surface" "{" "genus" ":" ("inf" | nat) "," "ends" ":" term "}"
    term     := "pt" gflag? | "ord" "(" cnf ")" | "mix" "(" termlist ";" colorword ")"
              | "cantor" gflag? "(" termlist? ")" | "sum" "(" termlist ")"
    gflag    := "^g"
    colorword:= "planar" | "g"
    termlist := term ("," term)*
    cnf      := cterm ("+" cterm)* ; cterm := "w" ("^" "(" cnf ")")? ("*" nat)? | nat

Terms and ordinal exponents nest at most MAX_NESTING levels deep; deeper
input is a ParseError, not a recursion overflow.
"""

from __future__ import annotations

from . import _Frozen
from .ordinals import Cnf, add, from_nat, mul_nat, omega_pow
from .terms import (
    Color,
    INF,
    Ord,
    Pt,
    Sum,
    SurfaceDescriptor,
    Term,
    mk_cantor,
    mk_mix,
)


class LexError(ValueError):
    pass


class ParseError(SyntaxError):
    """Grammar error; str() carries the line:column position."""


KEYWORDS = {"pt", "ord", "mix", "cantor", "sum", "surface", "genus", "ends",
            "inf", "planar", "g", "w"}
SYMBOLS = "(){},;:+*^"
MAX_NESTING = 200
MAX_DIGITS = 4300  # the most decimal digits int() reads by default


class Token(_Frozen):
    # kind: "name" | "nat" | one of SYMBOLS
    __slots__ = ("kind", "text", "line", "col")


def lex(text: str) -> list:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in SYMBOLS:
            tokens.append(Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        if "0" <= ch <= "9":  # not isdigit(): int() rejects "²" and reads "٣" as 3
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            if j - i > MAX_DIGITS:
                raise LexError(f"number longer than {MAX_DIGITS} digits at {line}:{col}")
            tokens.append(Token("nat", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word not in KEYWORDS:
                raise LexError(f"unknown token {word!r} at {line}:{col}")
            tokens.append(Token("name", word, line, col))
            col += j - i
            i = j
            continue
        raise LexError(f"unknown character {ch!r} at {line}:{col}")
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = lex(text)
        self.pos = 0
        self.depth = 0  # terms and exponents open around the current token

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        shown = tok.text or "end of input"
        raise ParseError(f"{message}, got {shown!r} at {tok.line}:{tok.col}")

    def expect(self, kind: str, text: str = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            self.fail(f"expected {text or kind!r}")
        return self.next()

    def at_word(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "name" and tok.text == word

    def nested(self, rule):
        """Parse `rule` one nesting level deeper, within MAX_NESTING."""
        if self.depth == MAX_NESTING:
            self.fail(f"input nests deeper than the maximum of {MAX_NESTING} levels")
        self.depth += 1
        node = rule()
        self.depth -= 1
        return node

    # -- entry points ----------------------------------------------------

    def input(self):
        if self.at_word("surface"):
            node = self.surface()
        else:
            node = self.term()
        if self.peek().kind != "eof":
            self.fail("expected end of input")
        return node

    def surface(self) -> SurfaceDescriptor:
        self.expect("name", "surface")
        self.expect("{")
        self.expect("name", "genus")
        self.expect(":")
        if self.at_word("inf"):
            self.next()
            genus = INF
        else:
            genus = int(self.expect("nat").text)
        self.expect(",")
        self.expect("name", "ends")
        self.expect(":")
        ends = self.term()
        self.expect("}")
        return SurfaceDescriptor(genus, ends)

    def term(self) -> Term:
        return self.nested(self._term)

    def _term(self) -> Term:
        tok = self.peek()
        if tok.kind != "name":
            self.fail("expected a term")
        if tok.text == "pt":
            self.next()
            return Pt(self.gflag())
        if tok.text == "ord":
            self.next()
            self.expect("(")
            lit = self.cnf()
            self.expect(")")
            if lit.is_zero():
                raise ParseError(
                    f"ord(0) denotes no space (degree >= 1 needed) at {tok.line}:{tok.col}"
                )
            rank, degree = lit.leading()
            return Ord(rank, degree)
        if tok.text == "mix":
            self.next()
            self.expect("(")
            comps = self.termlist()
            self.expect(";")
            color = self.colorword()
            self.expect(")")
            return mk_mix(comps, color)
        if tok.text == "cantor":
            self.next()
            color = self.gflag()
            self.expect("(")
            comps = [] if self.peek().kind == ")" else self.termlist()
            self.expect(")")
            return mk_cantor(comps, color)
        if tok.text == "sum":
            self.next()
            self.expect("(")
            parts = self.termlist()
            self.expect(")")
            if len(parts) < 2:
                self.fail("sum needs at least two parts")
            return Sum(tuple(parts))
        self.fail("expected a term")

    def gflag(self) -> Color:
        if self.peek().kind == "^":
            self.next()
            self.expect("name", "g")
            return Color.GENUS
        return Color.PLANAR

    def colorword(self) -> Color:
        tok = self.expect("name")
        if tok.text == "planar":
            return Color.PLANAR
        if tok.text == "g":
            return Color.GENUS
        raise ParseError(f"expected color at {tok.line}:{tok.col}")

    def termlist(self) -> list:
        out = [self.term()]
        while self.peek().kind == ",":
            self.next()
            out.append(self.term())
        return out

    # -- cnf -------------------------------------------------------------

    def cnf(self) -> Cnf:
        total = self.cterm()
        while self.peek().kind == "+":
            self.next()
            total = add(total, self.cterm())
        return total

    def cterm(self) -> Cnf:
        tok = self.peek()
        if tok.kind == "nat":
            self.next()
            return from_nat(int(tok.text))
        if tok.kind == "name" and tok.text == "w":
            self.next()
            exponent = from_nat(1)
            if self.peek().kind == "^":
                self.next()
                self.expect("(")
                exponent = self.nested(self.cnf)
                self.expect(")")
            value = omega_pow(exponent)
            if self.peek().kind == "*":
                self.next()
                value = mul_nat(value, int(self.expect("nat").text))
            return value
        self.fail("expected a cnf summand")


def parse(text: str):
    """Parse a term or surface descriptor from source text."""
    return _Parser(text).input()


def parse_term(text: str) -> Term:
    node = parse(text)
    if isinstance(node, SurfaceDescriptor):
        raise ParseError("expected a term, found a surface descriptor")
    return node


def parse_cnf(text: str) -> Cnf:
    p = _Parser(text)
    value = p.cnf()
    if p.peek().kind != "eof":
        p.fail("expected end of input")
    return value

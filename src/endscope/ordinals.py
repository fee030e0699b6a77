"""Cantor-normal-form ordinal arithmetic for ordinals below epsilon_0.

An ordinal is a sum  w^e1*c1 + w^e2*c2 + ... + w^ek*ck  with exponents e1 > e2
> ... > ek (themselves ordinals in the same form) and coefficients ci >= 1.
The empty sum is 0.
"""

from __future__ import annotations

from functools import total_ordering

from . import _Interned, _set


class OrdinalError(ArithmeticError):
    pass


@total_ordering
class Cnf(_Interned):
    """Ordinal in Cantor normal form: tuple of (exponent, coefficient) pairs.

    Interned (`_Interned`), so equal ordinals are one object, and `==` and the
    hash are identity however deep their exponents nest. A new ordinal is
    checked once, when it is first built; its rendering by `print_cnf` the
    first time it is asked for."""

    __slots__ = ("summands", "_text")

    def __new__(cls, summands: tuple = ()):
        return cls._make((summands,))

    def _seal(self):
        summands = self.summands
        for exp, coeff in summands:
            if not isinstance(exp, Cnf):
                raise OrdinalError("exponent must be a Cnf")
            if not isinstance(coeff, int) or coeff < 1:
                raise OrdinalError("coefficient must be a positive integer")
        exps = [exp for exp, _ in summands]
        for a, b in zip(exps, exps[1:]):
            if cmp(a, b) <= 0:
                raise OrdinalError("exponents must be strictly decreasing")
        _set(self, "_text", None)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.summands

    def is_nat(self) -> bool:
        """True iff the ordinal is a natural number (possibly 0)."""
        if not self.summands:
            return True
        return len(self.summands) == 1 and self.summands[0][0].is_zero()

    def nat_value(self) -> int:
        if not self.is_nat():
            raise OrdinalError("not a natural number")
        return self.summands[0][1] if self.summands else 0

    def is_successor(self) -> bool:
        return bool(self.summands) and self.summands[-1][0].is_zero()

    def is_limit(self) -> bool:
        return bool(self.summands) and not self.is_successor()

    def pred(self) -> "Cnf":
        """Predecessor of a successor ordinal."""
        if not self.is_successor():
            raise OrdinalError("not a successor ordinal")
        exp, coeff = self.summands[-1]
        rest = self.summands[:-1]
        if coeff > 1:
            return Cnf(rest + ((exp, coeff - 1),))
        return Cnf(rest)

    def leading(self):
        """(exponent, coefficient) of the most significant summand."""
        if not self.summands:
            raise OrdinalError("0 has no leading summand")
        return self.summands[0]

    # -- ordering --------------------------------------------------------

    def __lt__(self, other: "Cnf") -> bool:
        return cmp(self, other) < 0

    def __str__(self) -> str:
        return print_cnf(self)

    def __repr__(self) -> str:
        return f"Cnf<{print_cnf(self)}>"


ZERO = Cnf()
ONE = Cnf(((ZERO, 1),))
OMEGA = Cnf(((ONE, 1),))


def from_nat(k: int) -> Cnf:
    if k < 0:
        raise OrdinalError("negative value")
    return Cnf() if k == 0 else Cnf(((ZERO, k),))


def cmp(a: Cnf, b: Cnf) -> int:
    """-1, 0 or 1: lexicographic on the (exponent, coefficient) summand lists."""
    for (ea, ca), (eb, cb) in zip(a.summands, b.summands):
        c = cmp(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.summands) != len(b.summands):
        return -1 if len(a.summands) < len(b.summands) else 1
    return 0


def add(a: Cnf, b: Cnf) -> Cnf:
    """Ordinal addition: summands of a below b's leading exponent are absorbed."""
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    eb, cb = b.leading()
    kept = []
    carry = 0
    for e, c in a.summands:
        order = cmp(e, eb)
        if order > 0:
            kept.append((e, c))
            continue
        if order == 0:
            carry = c
        break
    merged = ((eb, cb + carry),) + b.summands[1:]
    return Cnf(tuple(kept) + merged)


def mul_nat(a: Cnf, k: int) -> Cnf:
    """Right multiplication by a natural number."""
    if k < 0:
        raise OrdinalError("negative multiplier")
    if k == 0 or a.is_zero():
        return ZERO
    e, c = a.leading()
    return Cnf(((e, c * k),) + a.summands[1:])


def omega_pow(a: Cnf) -> Cnf:
    """w^a; omega_pow(0) = 1."""
    return Cnf(((a, 1),))


def fundamental(a: Cnf, k: int) -> Cnf:
    """k-th element of the canonical fundamental sequence of a limit ordinal.

    Strictly increasing in k with supremum a.
    """
    if not a.is_limit():
        raise OrdinalError("not a limit ordinal")
    if k < 1:
        raise OrdinalError("index must be >= 1")
    exp, coeff = a.summands[-1]
    head = a.summands[:-1] + (((exp, coeff - 1),) if coeff > 1 else ())
    if exp.is_successor():
        tail = mul_nat(omega_pow(exp.pred()), k)
    else:
        tail = omega_pow(fundamental(exp, k))
    return Cnf(head) if tail.is_zero() else add(Cnf(head), tail)


def print_cnf(a: Cnf) -> str:
    """Render in the term-grammar cnf syntax: w^(e)*c summands joined by +."""
    text = a._text
    if text is None:
        text = _render(a)
        _set(a, "_text", text)
    return text


def _render(a: Cnf) -> str:
    if a.is_zero():
        return "0"
    out = []
    for exp, coeff in a.summands:
        if exp.is_zero():
            out.append(str(coeff))
            continue
        if exp is ONE:
            piece = "w"
        else:
            piece = f"w^({print_cnf(exp)})"
        if coeff > 1:
            piece += f"*{coeff}"
        out.append(piece)
    return "+".join(out)

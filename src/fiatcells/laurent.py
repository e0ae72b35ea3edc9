"""
Integer Laurent polynomials in one variable.

Coefficients are arbitrary-precision integers; the representation is a
normalized exponent -> coefficient map (no zero coefficients stored).

>>> v = LaurentPoly.var()
>>> (v + v**-1) * (v + v**-1)
LaurentPoly({-2: 1, 0: 2, 2: 1})
>>> (v + v**-1).eval_one()
2
"""

from __future__ import annotations

__all__ = ["LaurentPoly"]


class LaurentPoly:
    """Immutable integer Laurent polynomial."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        clean = {e: c for e, c in (coeffs or {}).items() if c != 0}
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def var(cls, exp: int = 1) -> "LaurentPoly":
        return cls({exp: 1})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if len(self.coeffs) == 1:
            ((e, c),) = self.coeffs.items()
            if n < 0 and c in (1, -1):
                return LaurentPoly({e * n: c if n % 2 else 1})
        if n < 0:
            raise ValueError("negative power of a non-monomial Laurent polynomial")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- queries -----------------------------------------------------------

    def eval_one(self) -> int:
        """Value at the variable = 1 (forgets the grading)."""
        return sum(self.coeffs.values())

    def bar(self) -> "LaurentPoly":
        """The involution inverting the variable."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

    def is_bar_invariant(self) -> bool:
        return self.coeffs == self.bar().coeffs

    def coeff(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    def max_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no extremal exponent")
        return max(self.coeffs)

    def only_positive_exps(self) -> bool:
        """True when supported in strictly positive degrees (or zero)."""
        return all(e > 0 for e in self.coeffs)

    def nonpositive_part_symmetrized(self) -> "LaurentPoly":
        """The unique bar-invariant polynomial matching the degree <= 0 part.

        Used when peeling canonical-basis corrections off a
        bar-invariant element.
        """
        out: dict[int, int] = {}
        for e, c in self.coeffs.items():
            if e < 0:
                out[e] = c
                out[-e] = c
            elif e == 0:
                out[0] = c
        return LaurentPoly(out)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self.coeffs.items()))!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(f"{c}")
            else:
                mono = "v" if e == 1 else f"v^{e}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def _coerce(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly({0: x})
    raise TypeError(f"cannot coerce {type(x).__name__} to LaurentPoly")

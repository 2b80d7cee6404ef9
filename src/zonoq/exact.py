"""Exact arithmetic substrate.

Four value types, all exact over Python's arbitrary-precision integers:

* ``LaurentQ``  -- Laurent polynomials in q (exponents may be negative).
* ``PolyTQ``    -- polynomials in t whose coefficients are ``LaurentQ``.
* ``RatSeries`` -- a ``PolyTQ`` numerator over the fixed denominator
  (1-t)(1-tq)...(1-tq^order).
* ``BiPolyXY``  -- integer polynomials in two variables x and y.

There is no floating point anywhere.  Every constructor strips zero terms,
so ``==`` is structural equality of the underlying term maps.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass


class LaurentQ:
    """A Laurent polynomial in q with integer coefficients.

    Stored as a finitely-supported map ``exponent -> coefficient``; zero
    coefficients are never kept.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self.terms: dict[int, int] = {int(e): int(c) for e, c in items if c}

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentQ":
        return cls()

    @classmethod
    def one(cls) -> "LaurentQ":
        return cls({0: 1})

    @classmethod
    def const(cls, c: int) -> "LaurentQ":
        return cls({0: c})

    @classmethod
    def q_power(cls, e: int, c: int = 1) -> "LaurentQ":
        return cls({e: c})

    @classmethod
    def q_int(cls, m: int) -> "LaurentQ":
        """The q-integer [m]_q = 1 + q + ... + q^(m-1) for m >= 0."""
        if m < 0:
            raise ValueError("q_int requires m >= 0")
        return cls({e: 1 for e in range(m)})

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "LaurentQ | None":
        if isinstance(other, LaurentQ):
            return other
        if isinstance(other, int):
            return LaurentQ.const(other)
        return None

    def __add__(self, other) -> "LaurentQ":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentQ(out)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentQ":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            out[e] = out.get(e, 0) - c
        return LaurentQ(out)

    def __rsub__(self, other) -> "LaurentQ":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "LaurentQ":
        return LaurentQ({e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "LaurentQ":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.terms or not o.terms:
            return LaurentQ.zero()
        out: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentQ(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentQ":
        if n < 0:
            raise ValueError("negative powers are not defined for LaurentQ")
        result = LaurentQ.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    __hash__ = None  # mutable term map; value types are compared, not hashed

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries and transforms ---------------------------------------------

    def bar(self) -> "LaurentQ":
        """Apply q -> q^(-1): negate every exponent."""
        return LaurentQ({-e: c for e, c in self.terms.items()})

    def shift(self, k: int) -> "LaurentQ":
        """Multiply by q^k."""
        return LaurentQ({e + k: c for e, c in self.terms.items()})

    def coeff(self, e: int) -> int:
        return self.terms.get(e, 0)

    def eval_at_one(self) -> int:
        """Specialize q := 1."""
        return sum(self.terms.values())

    def is_polynomial(self) -> bool:
        """True iff no negative q-exponent appears (membership in Z[q])."""
        return all(e >= 0 for e in self.terms)

    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self.terms)

    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self.terms)

    def to_pairs(self) -> list[tuple[int, int]]:
        """Sorted (exponent, coefficient) pairs."""
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.to_pairs():
            if e == 0:
                parts.append(f"{c}")
            elif c == 1:
                parts.append(f"q^{e}" if e != 1 else "q")
            elif c == -1:
                parts.append(f"-q^{e}" if e != 1 else "-q")
            else:
                parts.append(f"{c}*q^{e}" if e != 1 else f"{c}*q")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def bar_q(p: LaurentQ) -> LaurentQ:
    """The involution q -> q^(-1) on Laurent polynomials."""
    return p.bar()


_QBINOM_CACHE: dict[tuple[int, int], LaurentQ] = {}


def qbinom(m: int, k: int) -> LaurentQ:
    """The Gaussian binomial coefficient binom(m, k)_q for m >= 0.

    Zero whenever k < 0 or k > m; otherwise a polynomial in q with
    non-negative coefficients, built by the q-Pascal recursion
    binom(m,k)_q = binom(m-1,k-1)_q + q^k binom(m-1,k)_q.
    """
    if m < 0:
        raise ValueError("qbinom requires m >= 0")
    if k < 0 or k > m:
        return LaurentQ.zero()
    key = (m, k)
    cached = _QBINOM_CACHE.get(key)
    if cached is not None:
        return cached
    if k == 0 or k == m:
        val = LaurentQ.one()
    else:
        val = qbinom(m - 1, k - 1) + qbinom(m - 1, k).shift(k)
    _QBINOM_CACHE[key] = val
    return val


class PolyTQ:
    """A polynomial in t with ``LaurentQ`` coefficients (t-exponents >= 0)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, LaurentQ] | Iterable[tuple[int, LaurentQ]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        self.coeffs: dict[int, LaurentQ] = {}
        for k, g in items:
            k = int(k)
            if k < 0:
                raise ValueError("t-exponents must be non-negative")
            if g:
                self.coeffs[k] = g

    @classmethod
    def zero(cls) -> "PolyTQ":
        return cls()

    @classmethod
    def one(cls) -> "PolyTQ":
        return cls({0: LaurentQ.one()})

    @classmethod
    def t_power(cls, k: int, coeff: LaurentQ | int = 1) -> "PolyTQ":
        c = coeff if isinstance(coeff, LaurentQ) else LaurentQ.const(coeff)
        return cls({k: c})

    def _coerce(self, other) -> "PolyTQ | None":
        if isinstance(other, PolyTQ):
            return other
        if isinstance(other, (LaurentQ, int)):
            return PolyTQ.t_power(0, other)
        return None

    def __add__(self, other) -> "PolyTQ":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.coeffs)
        for k, g in o.coeffs.items():
            out[k] = out.get(k, LaurentQ.zero()) + g
        return PolyTQ(out)

    __radd__ = __add__

    def __sub__(self, other) -> "PolyTQ":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.coeffs)
        for k, g in o.coeffs.items():
            out[k] = out.get(k, LaurentQ.zero()) - g
        return PolyTQ(out)

    def __neg__(self) -> "PolyTQ":
        return PolyTQ({k: -g for k, g in self.coeffs.items()})

    def __mul__(self, other) -> "PolyTQ":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[int, LaurentQ] = {}
        for k1, g1 in self.coeffs.items():
            for k2, g2 in o.coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, LaurentQ.zero()) + g1 * g2
        return PolyTQ(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, k: int) -> LaurentQ:
        return self.coeffs.get(k, LaurentQ.zero())

    def t_degree(self) -> int:
        """Degree in t; -1 for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else -1

    def eval_t(self, value: LaurentQ) -> LaurentQ:
        """Substitute t := value."""
        out = LaurentQ.zero()
        power = LaurentQ.one()
        prev = 0
        for k in sorted(self.coeffs):
            power = power * value ** (k - prev)
            prev = k
            out = out + self.coeffs[k] * power
        return out

    def t_reverse_bar(self, top: int) -> "PolyTQ":
        """Return t^top * self(1/t, 1/q); requires top >= t-degree."""
        if self.coeffs and top < self.t_degree():
            raise ValueError("top must be at least the t-degree")
        return PolyTQ({top - k: g.bar() for k, g in self.coeffs.items()})

    def to_triples(self) -> list[tuple[int, int, int]]:
        """Sorted (t_exponent, q_exponent, coefficient) triples."""
        out = []
        for k in sorted(self.coeffs):
            for e, c in self.coeffs[k].to_pairs():
                out.append((k, e, c))
        return out

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            g = repr(self.coeffs[k])
            if k == 0:
                parts.append(g)
            else:
                t = "t" if k == 1 else f"t^{k}"
                parts.append(f"({g})*{t}")
        return " + ".join(parts)


@dataclass(frozen=True)
class RatSeries:
    """A rational series: ``numerator`` over (1-t)(1-tq)...(1-t q^order).

    Interior-flavoured series carry ``interior=True`` and must have zero
    constant term; numerators may have t-degree up to order + 1.
    """

    numerator: PolyTQ
    order: int
    interior: bool = False

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be non-negative")
        if self.numerator.t_degree() > self.order + 1:
            raise ValueError("numerator t-degree exceeds order + 1")
        if self.interior and self.numerator.coeff(0):
            raise ValueError("interior series must have zero constant term")


def expand(series: RatSeries, up_to: int) -> list[LaurentQ]:
    """Coefficients of t^0 ... t^up_to in the power-series expansion."""
    if up_to < 0:
        raise ValueError("up_to must be non-negative")
    coeffs = [series.numerator.coeff(k) for k in range(up_to + 1)]
    for i in range(series.order + 1):
        # divide by (1 - t q^i):  out[j] = in[j] + q^i * out[j-1]
        acc = LaurentQ.zero()
        nxt = []
        for c in coeffs:
            acc = c + acc.shift(i)
            nxt.append(acc)
        coeffs = nxt
    return coeffs


class BiPolyXY:
    """An integer polynomial in two variables x and y."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | Iterable[tuple[tuple[int, int], int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self.terms: dict[tuple[int, int], int] = {}
        for (a, b), c in items:
            if a < 0 or b < 0:
                raise ValueError("exponents must be non-negative")
            if c:
                self.terms[(a, b)] = int(c)

    @classmethod
    def zero(cls) -> "BiPolyXY":
        return cls()

    @classmethod
    def one(cls) -> "BiPolyXY":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, a: int, b: int, c: int = 1) -> "BiPolyXY":
        return cls({(a, b): c})

    def __add__(self, other: "BiPolyXY") -> "BiPolyXY":
        if not isinstance(other, BiPolyXY):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return BiPolyXY(out)

    def __sub__(self, other: "BiPolyXY") -> "BiPolyXY":
        if not isinstance(other, BiPolyXY):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) - c
        return BiPolyXY(out)

    def __mul__(self, other) -> "BiPolyXY":
        if isinstance(other, int):
            return BiPolyXY({k: c * other for k, c in self.terms.items()})
        if not isinstance(other, BiPolyXY):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0) + c1 * c2
        return BiPolyXY(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPolyXY):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self.terms)

    def items(self) -> Iterator[tuple[tuple[int, int], int]]:
        return iter(self.terms.items())

    def coeff(self, a: int, b: int) -> int:
        return self.terms.get((a, b), 0)

    def x_degree(self) -> int:
        return max((a for a, _ in self.terms), default=0)

    def y_degree(self) -> int:
        return max((b for _, b in self.terms), default=0)

    def eval_int(self, x: int, y: int) -> int:
        return sum(c * x**a * y**b for (a, b), c in self.terms.items())

    def to_triples(self) -> list[tuple[int, int, int]]:
        return sorted((a, b, c) for (a, b), c in self.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for a, b, c in self.to_triples():
            mono = ""
            if a:
                mono += "x" if a == 1 else f"x^{a}"
            if b:
                mono += "y" if b == 1 else f"y^{b}"
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


# -- serialization (shared with the CLI) -------------------------------------


def laurent_to_json(p: LaurentQ) -> list[list]:
    """Sorted [q_exponent, coefficient-as-decimal-string] pairs."""
    return [[e, str(c)] for e, c in p.to_pairs()]


def laurent_from_json(data: Iterable) -> LaurentQ:
    return LaurentQ({int(e): int(c) for e, c in data})


def polytq_to_json(p: PolyTQ) -> list[list]:
    """Sorted [t_exponent, q_exponent, coefficient-as-decimal-string] triples."""
    return [[k, e, str(c)] for k, e, c in p.to_triples()]


def polytq_from_json(data: Iterable) -> PolyTQ:
    out: dict[int, dict[int, int]] = {}
    for k, e, c in data:
        out.setdefault(int(k), {})[int(e)] = int(c)
    return PolyTQ({k: LaurentQ(terms) for k, terms in out.items()})


def bipoly_to_json(p: BiPolyXY) -> list[list]:
    """Sorted [x_exponent, y_exponent, coefficient-as-decimal-string] triples."""
    return [[a, b, str(c)] for a, b, c in p.to_triples()]


def bipoly_from_json(data: Iterable) -> BiPolyXY:
    return BiPolyXY({(int(a), int(b)): int(c) for a, b, c in data})

"""Exact arithmetic substrate.

Four value types, all exact over Python's arbitrary-precision integers:

* ``LaurentQ``  -- Laurent polynomials in q (exponents may be negative).
* ``PolyTQ``    -- polynomials in t whose coefficients are ``LaurentQ``.
* ``RatSeries`` -- a ``PolyTQ`` numerator over the fixed denominator
  (1-t)(1-tq)...(1-tq^order).
* ``BiPolyXY``  -- integer polynomials in two variables x and y, held as
  polynomials in x whose coefficients are ``LaurentQ`` in y.

There is no floating point anywhere.  ``LaurentQ``, ``PolyTQ`` and
``BiPolyXY`` share one dense core: a lowest exponent and a tuple of
coefficients whose first and last entries are nonzero.  Every operation
returns that canonical form, so ``==`` is tuple equality, and values are
never changed after construction.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from itertools import accumulate
from operator import add, index, sub


def _signed_join(parts: list[str]) -> str:
    """Join monomials with " + ", writing a leading minus as " - "."""
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _integer(v, what: str) -> int:
    """v by ``operator.index``; ``ValueError`` naming a non-integral v."""
    try:
        return index(v)
    except TypeError:
        raise ValueError(f"{what} {v!r} is not an integer") from None


def _times_qint(c, k: int) -> list[int]:
    """The coefficient list c times [k]_q (k >= 0), at the same offset: the
    running sum of c - q^k c."""
    diff = list(c) + [0] * k
    diff[k:] = map(sub, diff[k:], c)
    return list(accumulate(diff))


def _add_row(a: tuple, b: tuple, k: int, op) -> tuple[int, list[int]]:
    """op(a, q^k b), op = add or sub, on (q-offset, integer list) rows; the
    list of a is reused in place unless b reaches below its offset, and b is
    never changed."""
    (alo, ac), blo, bc = a, b[0] + k, b[1]
    if not bc:
        return a
    if not ac:
        alo = blo
    elif blo < alo:
        ac, alo = [0] * (alo - blo) + ac, blo
    s = blo - alo
    ac += [0] * (s + len(bc) - len(ac))
    ac[s:s + len(bc)] = map(op, ac[s:s + len(bc)], bc)
    return alo, ac


class _Dense:
    """The polynomial sum_i c[i] * v^(lo + i) in one variable v.

    Each subclass names its coefficient ring in ``ring`` (``int`` or
    ``LaurentQ``); ``ring()`` is the ring's zero, kept as ``ring_zero``.
    ``c`` is a tuple whose first and last entries are nonzero; zero is
    ``lo = 0, c = ()``.  Gaps hold ``ring_zero``, never int ``0``.
    """

    __slots__ = ("lo", "c")

    def __init_subclass__(cls):
        cls.ring_zero = cls.ring()

    def __init__(self, terms: dict):
        """From a map exponent -> nonzero coefficient of the ring."""
        if terms:
            lo, z = min(terms), self.ring_zero
            self.lo = lo
            self.c = tuple([terms.get(e, z) for e in range(lo, max(terms) + 1)])
        else:
            self.lo, self.c = 0, ()

    @classmethod
    def _make(cls, lo: int, c) -> "_Dense":
        """The canonical value sum c[i] v^(lo+i): zeros trimmed at both ends."""
        i, j = 0, len(c)
        while j and not c[j - 1]:
            j -= 1
        while i < j and not c[i]:
            i += 1
        self = object.__new__(cls)
        self.lo = lo + i if j else 0
        self.c = tuple(c[i:j])
        return self

    @classmethod
    def _scalar(cls, x):
        """``x`` (an int or a ring element) as an element of the ring."""
        return x if isinstance(x, cls.ring) else cls.ring.const(x)

    @classmethod
    def zero(cls):
        return cls._make(0, ())

    @classmethod
    def one(cls):
        return cls._make(0, (cls._scalar(1),))

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, self.ring)):
            return self._make(0, (self._scalar(other),))
        return None

    def _terms(self) -> dict:
        """A fresh map exponent -> nonzero coefficient, in ascending order."""
        return {self.lo + i: x for i, x in enumerate(self.c) if x}

    def coeff(self, k: int):
        i = k - self.lo
        return self.c[i] if 0 <= i < len(self.c) else self.ring_zero

    # -- arithmetic --------------------------------------------------------

    def _combine(self, o: "_Dense", sign: int):
        """self + sign * o."""
        if not o.c:
            return self
        if not self.c:
            return o if sign > 0 else -o
        lo = min(self.lo, o.lo)
        out = [self.ring_zero] * (max(self.lo + len(self.c), o.lo + len(o.c)) - lo)
        out[self.lo - lo:self.lo - lo + len(self.c)] = self.c
        for j, y in enumerate(o.c, o.lo - lo):
            out[j] = out[j] + y if sign > 0 else out[j] - y
        return self._make(lo, out)

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._combine(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._combine(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o._combine(self, -1)

    def __neg__(self):
        return self._make(self.lo, tuple(-x for x in self.c))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.c, o.c
        if not a or not b:
            return self.zero()
        out = [self.ring_zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return self._make(self.lo + o.lo, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        return NotImplemented if o is None else self.lo == o.lo and self.c == o.c

    __hash__ = None  # compared by value, not hashed

    def __bool__(self) -> bool:
        return bool(self.c)


class LaurentQ(_Dense):
    """A Laurent polynomial in q with integer coefficients."""

    __slots__ = ()
    ring = int
    # own attributes: the benchmark tracer rebinds only a class's own __mul__/__rmul__
    __mul__ = __rmul__ = _Dense.__mul__

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        pairs = ((_integer(e, "exponent"), _integer(c, "coefficient")) for e, c in items)
        super().__init__({e: c for e, c in pairs if c})

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, c: int) -> "LaurentQ":
        return cls._make(0, (_integer(c, "coefficient"),))

    @classmethod
    def q_power(cls, e: int, c: int = 1) -> "LaurentQ":
        return cls._make(_integer(e, "exponent"), (_integer(c, "coefficient"),))

    @classmethod
    def q_int(cls, m: int) -> "LaurentQ":
        """The q-integer [m]_q = 1 + q + ... + q^(m-1) for m >= 0."""
        if m < 0:
            raise ValueError("q_int requires m >= 0")
        return cls._make(0, (1,) * m)

    def times_qint(self, k: int) -> "LaurentQ":
        """self * [k]_q by ``_times_qint``: linear time, where a product with
        ``q_int(k)`` takes len(self) * k term pairs."""
        if k < 0:
            raise ValueError("times_qint requires k >= 0")
        return self._make(self.lo, _times_qint(self.c, k))

    def over_qint(self, k: int) -> "LaurentQ":
        """self / [k]_q = self (1 - q) / (1 - q^k), exactly: running sums with
        stride k of the first differences of self, whose top k entries vanish
        iff [k]_q divides self; ``ArithmeticError`` if not, ``ValueError`` if k < 1."""
        if k < 1:
            raise ValueError("over_qint requires k >= 1")
        out = list(map(sub, self.c + (0,), (0,) + self.c))
        for r in range(k):
            out[r::k] = accumulate(out[r::k])
        if any(out[-k:]):
            raise ArithmeticError(f"[{k}]_q does not divide {self!r}")
        return self._make(self.lo, out)

    # -- queries and transforms ---------------------------------------------

    @property
    def terms(self) -> dict[int, int]:
        """A fresh map exponent -> nonzero coefficient."""
        return self._terms()

    def bar(self) -> "LaurentQ":
        """Apply q -> q^(-1): negate every exponent."""
        return self._make(1 - self.lo - len(self.c), self.c[::-1])

    def shift(self, k: int) -> "LaurentQ":
        """Multiply by q^k."""
        return self._make(self.lo + k, self.c)

    def eval_at_one(self) -> int:
        """Specialize q := 1."""
        return sum(self.c)

    def to_pairs(self) -> list[tuple[int, int]]:
        """Sorted (exponent, coefficient) pairs."""
        return list(self._terms().items())

    def __repr__(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for e, c in self._terms().items():
            if e == 0:
                parts.append(f"{c}")
            elif c == 1:
                parts.append(f"q^{e}" if e != 1 else "q")
            elif c == -1:
                parts.append(f"-q^{e}" if e != 1 else "-q")
            else:
                parts.append(f"{c}*q^{e}" if e != 1 else f"{c}*q")
        return _signed_join(parts)


class PolyTQ(_Dense):
    """A polynomial in t with ``LaurentQ`` coefficients (t-exponents >= 0)."""

    __slots__ = ()
    ring = LaurentQ
    __mul__ = __rmul__ = _Dense.__mul__

    def __init__(self, coeffs: Mapping[int, LaurentQ] | Iterable[tuple[int, LaurentQ]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        out: dict[int, LaurentQ] = {}
        for k, g in items:
            k, g = _integer(k, "t-exponent"), self._scalar(g)
            if k < 0:
                raise ValueError("t-exponents must be non-negative")
            if g:
                out[k] = g
        super().__init__(out)

    @property
    def coeffs(self) -> dict[int, LaurentQ]:
        """A fresh map t-exponent -> nonzero ``LaurentQ`` coefficient."""
        return self._terms()

    def t_degree(self) -> int:
        """Degree in t; -1 for the zero polynomial."""
        return self.lo + len(self.c) - 1 if self.c else -1

    def t_reverse_bar(self, top: int) -> "PolyTQ":
        """Return t^top * self(1/t, 1/q); requires top >= t-degree."""
        if self.c and top < self.t_degree():
            raise ValueError("top must be at least the t-degree")
        return self._make(top - self.t_degree(), tuple(g.bar() for g in reversed(self.c)))

    def to_triples(self) -> list[tuple[int, int, int]]:
        """Sorted (t_exponent, q_exponent, coefficient) triples."""
        return [(k, e, c) for k, g in self._terms().items() for e, c in g.to_pairs()]

    def __repr__(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for k, g in self._terms().items():
            if k == 0:
                parts.append(repr(g))
            else:
                t = "t" if k == 1 else f"t^{k}"
                parts.append(f"({g!r})*{t}")
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
    rows = [(g.lo, list(g.c)) for g in map(series.numerator.coeff, range(up_to + 1))]
    for i in range(series.order + 1):
        # divide by (1 - t q^i) on (q-offset, list) rows: out[j] = in[j] + q^i out[j-1]
        for j in range(1, up_to + 1):
            rows[j] = _add_row(rows[j], rows[j - 1], i, add)
    return [LaurentQ._make(lo, c) for lo, c in rows]


class BiPolyXY(_Dense):
    """An integer polynomial in two variables x and y, held as a polynomial
    in x over Z[y] (y-polynomials as ``LaurentQ``)."""

    __slots__ = ()
    ring = LaurentQ

    def __init__(self, terms: Mapping[tuple[int, int], int] | Iterable[tuple[tuple[int, int], int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        rows: dict[int, dict[int, int]] = {}
        for (a, b), c in items:
            a, b, c = _integer(a, "exponent"), _integer(b, "exponent"), _integer(c, "coefficient")
            if a < 0 or b < 0:
                raise ValueError("exponents must be non-negative")
            if c:
                rows.setdefault(a, {})[b] = c
        super().__init__({a: LaurentQ(row) for a, row in rows.items()})

    @classmethod
    def monomial(cls, a: int, b: int, c: int = 1) -> "BiPolyXY":
        return cls({(a, b): c})

    def items(self) -> Iterator[tuple[tuple[int, int], int]]:
        return (((a, b), c) for a, g in self._terms().items() for b, c in g.to_pairs())

    def coeff(self, a: int, b: int) -> int:
        return super().coeff(a).coeff(b)

    def x_coeffs(self, top: int, e: int) -> list[LaurentQ]:
        """The coefficients of x^0, ..., x^top in self(x, q^e), in q: y^b
        lands on q^(e b), every |e|-th slot of one list."""
        out = []
        for a in range(top + 1):
            g = _Dense.coeff(self, a)
            if not g or not e:
                out.append(LaurentQ.const(sum(g.c)))
                continue
            c = [0] * (abs(e) * (len(g.c) - 1) + 1)
            c[::abs(e)] = g.c if e > 0 else g.c[::-1]
            out.append(LaurentQ._make(e * (g.lo if e > 0 else g.lo + len(g.c) - 1), c))
        return out

    def q_eval(self, k, j: int, top: int, e: int):
        """[j]_q^top self([k]_q / [j]_q, q^e) for top >= the x-degree, or for
        a tuple k the tuple of these values, one per entry: a homogeneous
        Horner sum over the x-coefficients on (q-offset, integer list) rows
        by ``_times_qint`` and ``_add_row`` only.  The x-coefficients times
        their powers of [j]_q are built once, for every k."""
        if top < self.x_degree():
            raise ValueError("top must be at least the x-degree")
        rows = [(g.lo, g.c) for g in self.x_coeffs(top, e)]
        for a in range(top if j != 1 else 0):  # [1]_q = 1
            lo, c = rows[a]
            for _ in range(top - a):
                c = _times_qint(c, j)
            rows[a] = lo, c
        values = []
        for kk in (k,) if isinstance(k, int) else k:
            lo, out = rows[-1]
            for row in reversed(rows[:-1]):
                lo, out = _add_row((lo, _times_qint(out, kk)), row, 0, add)
            values.append(LaurentQ._make(lo, out))
        return values[0] if isinstance(k, int) else tuple(values)

    def x_degree(self) -> int:
        return self.lo + len(self.c) - 1 if self.c else 0

    def eval_int(self, x: int, y: int) -> int:
        return sum(c * x**a * y**b for (a, b), c in self.items())

    to_triples = PolyTQ.to_triples

    def __repr__(self) -> str:
        if not self.c:
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
        return _signed_join(parts)


# -- serialization (shared with the CLI) -------------------------------------


def laurent_to_json(p: LaurentQ) -> list[list]:
    """Sorted [q_exponent, coefficient-as-decimal-string] pairs."""
    return [[e, str(c)] for e, c in p.to_pairs()]


def polytq_to_json(p: PolyTQ) -> list[list]:
    """Sorted [t_exponent, q_exponent, coefficient-as-decimal-string] triples."""
    return [[k, e, str(c)] for k, e, c in p.to_triples()]


def bipoly_to_json(p: BiPolyXY) -> list[list]:
    """Sorted [x_exponent, y_exponent, coefficient-as-decimal-string] triples."""
    return [[a, b, str(c)] for a, b, c in p.to_triples()]

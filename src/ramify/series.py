"""Finite-precision Laurent series with exact precision bookkeeping.

A TruncatedSeries represents f + O(T^prec): its terms have exponents strictly
below `prec`, and anything at or above `prec` is unknown.  Every operation
computes the precision of its result from the valuations of its inputs.  A
result never claims a coefficient its inputs leave open.  It claims every one
they determine, but for f^0, compositions f(tau) with val(f) = 0 and no term
in T, and the powers f^n with p | n: in characteristic p, f^p = sum a_i^p
T^(ip) is determined to p times the relative precision of f, but f^n keeps
that of f.  Over F_2, (1 + T + O(T^2))^2 is 1 + T^2 +
O(T^4), and the rule gives 1 + O(T^2).  With v the valuation and r = prec - v
the relative precision of a nonzero series,

- a sum has precision min(p1, p2);
- a product has valuation v1 + v2 and relative precision min(r1, r2), so
  precision min(p1 + v2, p2 + v1);
- an inverse has valuation -v and relative precision r, so precision p - 2v;
- a power f^n, n >= 1, has valuation n v and relative precision r: f is
  T^v (u + O(T^r)) for a unit u, and so is every product of copies of it;
  f^-n is (1/f)^n, and f^0 is 1 + O(T^p), though 1 is exact;
- a constant multiple keeps valuation and precision, and `shift(k)`, the
  product with the exact monomial T^k, adds k to both;
- `compose(f, tau)`, for f = T^v P and vt = val(tau) >= 1, is the product
  tau^v P(tau), capped at cap = vt prec(f), the first term that the unknown
  tail of f can reach: with r = prec(tau) - vt, its precision is min(cap,
  v vt + r) for v != 0 and min(cap, prec(tau)) for v = 0.

Coefficients are exact finite-field elements; there is no rounding anywhere,
only honest truncation.

Storage is dense.  A series keeps a valuation `val` and one byte string
`data` of fixed-width records: record k, r bytes, is the coefficient of
T^(val + k).  Over F_4, F_8 and F_16 (p = 2, 1 < a <= 4; the bit layout)
r = 1, and bit i of the byte is digit i (the coefficient of z^i in the
power basis of gf).  Over every other field r = a d: digit i of record k
is the d bytes at (k a + i) d, little-endian, and d > 1 only for a prime
above 256.  The ring's codec (encode, decode, digits) alone reads digits.
A coefficient is zero when its record is, so valuation and trimming are an
lstrip and an rstrip of zero bytes.  `terms` is a read-only {exponent:
FieldElement} view, built on first use.

All coefficient arithmetic runs through one kernel, _Ring, on such strings:

- Every product is one _Ring.mul, a Kronecker substitution: each Newton
  step is two and each Horner step one.  The coefficients are widened into
  one strided buffer, every coefficient spread over 2a - 1 slots of w
  bytes, one per power of z in a product of two elements, with w large
  enough that no sum of slot products spills into its neighbour.  The two
  buffers are multiplied as Python ints by CPython's big-integer product.
  Byte b of slot s of the result, weighted by 256^b and folded from z^s
  into z^0 .. z^(a-1) by the field's modulus, is a multiplication by a
  constant mod p: one `bytes.translate` table.  The reducer sums the
  translated strings of each digit as ints (XOR for p = 2), takes one more
  translate mod p, and for a > 1 interleaves the a digit strings into
  records.  The bit layout needs no table per slot: one multiplication
  spreads each coefficient byte's bits to its first a slots, and after the
  product one AND keeps each slot's parity, one multiplication gathers a
  lane's 2a - 1 parities into one byte, and one translate folds that byte
  by the modulus (see _Ring).  Over a prime field with one-byte digits, a
  product whose slots fit one byte (the shorter factor's length times
  (p - 1)^2 below 256: up to 255 coefficients over F_2, 63 over F_3, 15
  over F_5) takes the records as they are for its slots: one int product,
  one to_bytes and one translate mod p (the one-slot product).
- A sum adds the two strings as ints and takes one translate (XOR for
  p = 2).  Negation is one translate for one-byte digits.  A constant
  multiple is one translate for one-byte records, and a product by the
  constant's record otherwise.
- Inverses are Newton iteration, doubling the number of known coefficients
  per step from the longest prefix known exactly: 1/u_0 and the zeros up to
  the first nonconstant term of u, or a longer inverse handed in.  A power
  of a series is a product of squares at the one length that the precision
  rule gives (see below); _Ring.power, square-and-multiply, serves the raw
  strings of step_unit.
- A substitution sum x_k (T^gap sigma)^k is Horner's rule.

Byte tables are exact while every byte of a sum of translated strings stays
below 256: always for p = 2 (XOR), otherwise while (p - 1) times the number
of residues summed is below 256, which every field of the tower workloads
meets.  Past that -- large primes, such as F_251 and F_65521 in the tests --
the reducer reads each slot as an integer and reduces it with Field.reduce,
and sums go through the same packing and reducer.
Each ring builds its tables on first use.

Series never change once built, so each keeps its inverse and every power
asked of it: a power is computed once per series.  Among those powers is a
ladder of squares, f^(2^i), each the square of the one below it, and every
other positive power is the product of the squares at the bits of its
exponent, so the powers asked of one series share its squares.  An inverse
known in
closed form is handed over by keep_inverse, and no Newton iteration runs for
it: the step unit's 1/s, and in the tower expansion 1/tau, 1/eta and the
inverse of a chart's image (see tower._expand_tower).  compose(T^v, tau) is
the power tau^v that tau keeps, and f^1 is f, so those share the inverses
kept on tau and f.  Each is exact because the truncation of an inverse is
the inverse of the truncation at the same relative precision: 1/f mod T^r
depends only on f mod T^r, so a closed form for 1/f, cut to the relative
precision of f, is what Newton iteration gives.
"""

from __future__ import annotations

import operator
from functools import cache
from itertools import chain
from types import MappingProxyType

from .errors import DomainError, PrecisionError
from .gf import Field, FieldElement, check_field, power


def _width(bound: int) -> int:
    """Bytes that hold every integer from 0 to bound."""
    return max(1, (bound.bit_length() + 7) >> 3)


# every big-integer product of two packed series goes through this one name,
# so that the kernel's products can be counted where they are formed
_product = operator.mul


class _Ring:
    """Arithmetic on record strings of one field.

    A byte string x of n records of r bytes stands for sum x_k T^k, k < n;
    coefficients past its end are zero.  Over F_(2^a) with 1 < a <= 4 (the
    bit layout) r = 1 and bit i of byte k is digit i of x_k.  Over every
    other field r = a d, and digit i of x_k is the d bytes at (k a + i) d.
    Every method returns exactly the number of records asked for.

    The bit layout packs a coefficient into a lane of m = 2a - 1 slots of w
    bytes.  Both moves between a byte and its lane are one multiplication by
    a sum of powers of two, and neither carries: every shifted bit lands on
    a position of its own.  The spread multiplies the bytes at the lane
    starts by sum_(i<a) 2^(i(8w-1)): bit i of lane k goes to 8 st k + i +
    j(8w-1) for j < a, and i - i' = (j' - j)(8w - 1) has no solution but
    i = i', j = j' while a - 1 < 8w - 1.  The highest copy, 8w(a - 1), stays
    in the lane, and the copy j = i is bit 0 of slot i, which the mask
    keeps.  The gather multiplies the slot parities (bit 0 of slot u = m k +
    s at 8wu) by sum_(t<m) 2^(K - t(8w-1)), K = 8w(m - 1): copy t lands on
    8w(u + m - 1) - t(8w - 1), and two copies meet only if 8w divides
    t - t', |t - t'| <= m - 1 < 8.  Bits 0 .. 7 of the last slot of lane k,
    8w(mk + m - 1) + b, take only the copies with 8w(u - mk - t) = b - t,
    that is u = mk + t and b = t: that byte holds the m parities of lane k.
    The masks are kept per w at the most lanes asked for (see _lanes), never
    per length, and mul spreads, multiplies and gathers in one pass.

    The one-slot product: over a prime field with one-byte digits (a = 1,
    d = 1) a product whose shorter factor has `short` coefficients needs
    slots of one byte while short * bound < 256 (short < 256 over F_2, 64
    over F_3, 16 over F_5, 8 over F_7).  Then the records are the slots,
    and mul takes one int product, one to_bytes and one translate mod p,
    with no pack and no reduce.

    mul is the one routine that multiplies two record strings; pack and
    reduce serve its general path and add's for large primes.  Powers of a
    series come from the ladder of squares that the series keeps
    (TruncatedSeries.__pow__), each rung one mul of the rung below by
    itself; power, square-and-multiply at one length, serves step_unit.
    """

    __slots__ = ("field", "p", "a", "m", "d", "r", "bound", "one", "mod",
                 "bits", "_digs", "_byte", "_fold", "_masks", "_tables",
                 "_plans", "_scalars")

    def __init__(self, field: Field):
        self.field = field
        p, a = field.p, field.a
        self.p, self.a, self.m = p, a, 2 * a - 1
        # a product slot sums at most a products of two digits per term
        self.bound = a * (p - 1) ** 2
        self.d = _width(p - 1)
        self.bits = p == 2 and 1 < a <= 4
        self.r = 1 if self.bits else a * self.d
        if self.bits:
            self._digs = [tuple(b >> i & 1 for i in range(a))
                          for b in range(1 << a)]
            self._byte = {c: b for b, c in enumerate(self._digs)}
            # slot parities z^s -> the byte of their sum folded by the modulus
            self._fold = self.encode(
                [field.reduce([b >> s & 1 for s in range(self.m)])
                 for b in range(1 << self.m)]).ljust(256, b"\0")
            self._masks = {}  # w -> _lanes(w, n)
            self._scalars = {}  # c -> the translate table x -> c x
        self.one = self.encode([field.one().coeffs])
        self._tables = {}  # c -> the translate table x -> c x mod p
        self.mod = self.table(1)
        self._plans = {}   # (w, st) -> reduction plan, None past the tables

    # -- the codec: coefficients as digit tuples ---------------------------------

    def encode(self, coeffs) -> bytes:
        """The records of a list of coefficients, each given by its digits."""
        if self.bits:
            return bytes(map(self._byte.__getitem__, coeffs))
        d = self.d
        if d == 1:
            return bytes(chain.from_iterable(coeffs))
        return b"".join([v.to_bytes(d, "little") for c in coeffs for v in c])

    def decode(self, x: bytes) -> list:
        """The digits of each coefficient of x."""
        if self.bits:
            return list(map(self._digs.__getitem__, x))
        d = self.d
        if d > 1:
            x = [int.from_bytes(x[k:k + d], "little")
                 for k in range(0, len(x), d)]
        return list(zip(*[iter(x)] * self.a))

    def digits(self, x: bytes, k: int) -> tuple:
        """The digits of coefficient k."""
        if self.bits:
            return self._digs[x[k]]
        r = self.r
        return self.decode(x[k * r:(k + 1) * r])[0]

    # -- the reducer -------------------------------------------------------------

    def table(self, c: int) -> bytes:
        t = self._tables.get(c)
        if t is None:
            p = self.p
            t = self._tables[c] = bytes(c * x % p for x in range(256))
        return t

    def exact(self, terms: int) -> bool:
        """Whether byte tables reduce a sum of this many residues: digits are
        single bytes and the sum stays below 256 (XOR never grows)."""
        return self.d == 1 and (self.p == 2 or terms * (self.p - 1) < 256)

    def combine(self, ints, picks, n: int) -> bytes:
        """The n one-byte digits of the sum mod p of the ints picked (their
        bytes are residues), for exact(len(picks))."""
        acc = 0
        if self.p == 2:
            for k in picks:
                acc ^= ints[k]
            return acc.to_bytes(n, "little")
        for k in picks:
            acc += ints[k]
        return acc.to_bytes(n, "little").translate(self.mod)

    def _plan(self, w: int, st: int):
        """How to reduce a block of st // w slots of w bytes, slot s standing
        for z^s: byte b of slot s enters digit j times 256^b (z^s reduced)[j].

        The plan holds the distinct tables, each (byte offset, table number)
        part once, and per digit j the parts it sums.  It is None when the
        tables are not exact for those sums."""
        key = (w, st)
        if key in self._plans:
            return self._plans[key]
        p, m = self.p, st // w
        folds = [self.field.reduce([int(t == s) for t in range(m)])
                 for s in range(m)]
        cols = [[(s * w + b, c) for s, z in enumerate(folds) for b in range(w)
                 if (c := z[j] * pow(256, b, p) % p)]
                for j in range(self.a)]
        plan = None
        if self.exact(max(map(len, cols))):
            parts = sorted(set().union(*cols))
            factors = sorted({c for _, c in parts})
            plan = ([self.table(c) for c in factors],
                    [(off, factors.index(c)) for off, c in parts],
                    [[parts.index(part) for part in col] for col in cols])
        self._plans[key] = plan
        return plan

    def _lanes(self, w: int, n: int) -> tuple:
        """For at least n lanes of m w-byte slots (bit layout): the number of
        lanes top, the multipliers of the spread and the gather, and over top
        lanes the masks of bit 0 of slots 0 .. a - 1 (the spread keeps) and
        of slots 0 .. m - 1 (the gather reads) of each lane.  Kept per w at
        the most lanes asked for: an AND keeps only the lanes of its shorter
        operand, and fewer lanes of the gather's mask are a right shift."""
        lanes = self._masks.get(w)
        if lanes is None or lanes[0] < n:
            top = n if lanes is None else max(n, 2 * lanes[0])
            a, m, k = self.a, self.m, 8 * w - 1
            slot = b"\1" + bytes(w - 1)
            lane = slot * a + bytes((m - a) * w)
            lanes = self._masks[w] = (
                top, sum(1 << i * k for i in range(a)),
                int.from_bytes(lane * top, "little"),
                sum(1 << 8 * w * (m - 1) - t * k for t in range(m)),
                int.from_bytes(slot * m * top, "little"))
        return lanes

    def reduce(self, v: int, w: int, st: int, n: int) -> bytes:
        """The first n coefficients of v, each a block of st bytes that holds
        st // w slots of w bytes, slot s standing for z^s."""
        size = n * st
        raw = v.to_bytes(max(size, (v.bit_length() + 7) >> 3), "little")
        plan = self._plans.get((w, st)) or self._plan(w, st)
        if plan:
            tables, parts, cols = plan
            if len(parts) == 1:  # one digit from one byte of one slot
                return raw[parts[0][0]:size:st].translate(tables[0])
            tr = [raw.translate(t) for t in tables]
            ints = [int.from_bytes(tr[i][off:size:st], "little")
                    for off, i in parts]
            digits = [self.combine(ints, col, n) for col in cols]
            a = self.a
            if a == 1:
                return digits[0]
            out = bytearray(a * n)  # digit i of each record
            for i, col in enumerate(digits):
                out[i::a] = col
            return bytes(out)
        # past the tables: each slot as an integer, each block mod the
        # modulus and p
        m, field = st // w, self.field
        slots = [int.from_bytes(raw[k:k + w], "little")
                 for k in range(0, size, w)]
        return self.encode([field.reduce(slots[k:k + m])
                            for k in range(0, len(slots), m)])

    def pack(self, x: bytes, w: int, st: int) -> int:
        """x as one int: digit i of coefficient k in the w-byte slot at byte
        k st + i w."""
        d, r = self.d, self.r
        buf = bytearray(len(x) // r * st)
        for i in range(self.a):
            for b in range(d):
                buf[i * w + b::st] = x[i * d + b::r]
        return int.from_bytes(buf, "little")

    # -- arithmetic --------------------------------------------------------------

    def mul(self, x: bytes, y: bytes, n: int) -> bytes:
        """The first n coefficients of x * y."""
        if n <= 0:
            return b""
        r = self.r
        size = n * r
        square = x is y
        x = x[:size]
        y = x if square else y[:size]
        short = min(len(x), len(y)) // r
        if short == 1 and r == 1:  # a constant factor: one translate
            if len(x) == 1:
                x, y = y, x
            return self.scale(x, self.digits(y, 0)).ljust(size, b"\0")
        w = _width(short * self.bound)
        if self.bits:  # the spread, the product and the gather
            st = self.m * w
            top, spread, keep, gather, parity = self._lanes(w, n)
            buf = bytearray(len(x) * st)
            buf[::st] = x
            px = int.from_bytes(buf, "little") * spread & keep
            if not square:
                buf = bytearray(len(y) * st)
                buf[::st] = y
            v = _product(px, px if square else
                         int.from_bytes(buf, "little") * spread & keep)
            v &= parity >> 8 * st * (top - n)
            return (v * gather).to_bytes((n + 1) * st, "little")[
                st - w:n * st:st].translate(self._fold)
        if w == r == 1:  # one one-byte slot per coefficient: the records
            v = int.from_bytes(x, "little")
            v = _product(v, v if square else int.from_bytes(y, "little"))
            return v.to_bytes(max(size, len(x) + len(y)), "little")[
                :size].translate(self.mod)
        st = self.m * w
        px = self.pack(x, w, st)
        return self.reduce(
            _product(px, px if square else self.pack(y, w, st)), w, st, n)

    def add(self, x: bytes, sx: int, y: bytes, sy: int, n: int) -> bytes:
        """The first n coefficients of T^sx x + T^sy y (sx, sy >= 0)."""
        r = self.r
        x, y = x[:max(n - sx, 0) * r], y[:max(n - sy, 0) * r]
        if not self.exact(2):
            w = _width(2 * (self.p - 1))
            st = self.a * w
            v = (self.pack(x, w, st) << 8 * st * sx) \
                + (self.pack(y, w, st) << 8 * st * sy)
            return self.reduce(v, w, st, n)
        return self.combine((int.from_bytes(x, "little") << 8 * r * sx,
                             int.from_bytes(y, "little") << 8 * r * sy),
                            (0, 1), n * r)

    def scale(self, x: bytes, c: tuple) -> bytes:
        """c * x for the element with digits c: one translate for one-byte
        records, a product by the record of c for longer ones.  In the bit
        layout the table maps b to c z^i summed over the bits i of b, and
        each c keeps its table."""
        if self.r > 1:
            return self.mul(x, self.encode([c]), len(x) // self.r)
        if not self.bits:
            return x.translate(self.table(c[0]))
        t = self._scalars.get(c)
        if t is None:
            t = bytearray(256)
            for i in range(self.a):
                ci = self._byte[self.field.reduce((0,) * i + c)]
                for b in range(1 << self.a):
                    if b >> i & 1:
                        t[b] ^= ci
            t = self._scalars[c] = bytes(t)
        return x.translate(t)

    def neg(self, x: bytes) -> bytes:
        """-x: one translate for one-byte digits."""
        if self.p == 2:
            return x
        if self.d == 1:
            return x.translate(self.table(self.p - 1))
        return self.scale(x, (self.p - 1,) + (0,) * (self.a - 1))

    def weigh(self, x: bytes, ks) -> bytes:
        """x with coefficient k times the integer ks[k % len(ks)]: one
        translate per byte of a record in each residue class, or per digit
        for digits wider than a byte.  In the bit layout an odd weight keeps
        its class and an even one zeros it."""
        p, r, span = self.p, self.r, len(ks) * self.r
        if self.d > 1:
            return self.encode([tuple(v * ks[k % len(ks)] % p for v in c)
                                for k, c in enumerate(self.decode(x))])
        buf = bytearray(len(x))
        for j in range(span):
            k = ks[j // r]
            if not self.bits:
                buf[j::span] = x[j::span].translate(self.table(k % p))
            elif k & 1:
                buf[j::span] = x[j::span]
        return bytes(buf)

    def tail_val(self, x: bytes, n: int) -> int:
        """The valuation of x - x_0, the index of the first nonzero
        coefficient past 0, or n when none is below n: one lstrip."""
        r = self.r
        rest = x[r:n * r]
        tail = rest.lstrip(b"\0")
        return 1 + (len(rest) - len(tail)) // r if tail else n

    def inverse(self, u: bytes, n: int, g: bytes | None = None) -> bytes:
        """The first n coefficients of 1/u, for u_0 != 0, by Newton; g, when
        given, is 1/u mod T^k for some k >= 1, and the steps start from it.

        With g = 1/u mod T^k, -u g = -1 + T^k e, and g + T^k g e = 1/u mod
        T^2k, so each step is two muls, each with a factor of at most k
        coefficients.

        The steps start from the longest prefix known exactly.  With v the
        index of the first nonzero coefficient of u past 0 (v = n for
        none), u = u_0 (1 + T^v w) and 1/u = 1/u_0 mod T^v, so with no g, or
        a g shorter than that, they start from 1/u_0 and min(v, n) - 1
        zeros: a constant u takes no product.  Newton from any exact prefix
        reaches the one truncation 1/u mod T^n.  While g is that constant,
        e is 1/u_0 times coefficients k to 2k of -u, and the first step is
        one constant multiple, by 1/u_0^2.
        """
        r = self.r
        v = self.tail_val(u, n)
        if g is None or len(g) < v * r:
            c = (self.digits(g, 0) if g is not None else
                 FieldElement(self.field, self.digits(u, 0)).inverse().coeffs)
            g = self.encode([c]).ljust(min(v, n) * r, b"\0")
        k = len(g) // r
        if k >= n:
            return g[:n * r]
        neg_u = self.neg(u[:n * r])
        if k <= v:  # g = 1/u_0 mod T^k
            c, k2 = FieldElement(self.field, self.digits(g, 0)), min(2 * k, n)
            g += self.scale(neg_u[k * r:k2 * r].ljust((k2 - k) * r, b"\0"),
                            (c * c).coeffs)
            k = k2
        while k < n:
            k2 = min(2 * k, n)
            e = self.mul(neg_u, g, k2)[k * r:]
            g += self.mul(g, e, k2 - k)
            k = k2
        return g

    def power(self, x: bytes, e: int, n: int) -> bytes:
        """The first n >= 1 coefficients of x^e for e >= 0 and x_0 != 0, by
        square-and-multiply at the fixed length n, started from the first
        factor."""
        size = n * self.r
        if e == 0:
            return self.one.ljust(size, b"\0")
        return power(x[:size], e, lambda u, v: self.mul(u, v, n)).ljust(
            size, b"\0")

    def subst(self, x: bytes, sigma: bytes, gap: int, n: int) -> bytes:
        """The first n >= 1 coefficients of sum x_k (T^gap sigma)^k, for x
        nonempty and gap >= 1, by Horner: the partial sum that
        (T^gap sigma)^k multiplies is needed only mod T^(n - gap k), so the
        step that multiplies it is one mul to n - gap (k + 1)
        coefficients."""
        r = self.r
        top = min(len(x) // r, -(-n // gap)) - 1
        acc = x[top * r:(top + 1) * r]
        fill = bytes((gap - 1) * r)
        for k in range(top - 1, -1, -1):
            acc = b"".join((x[k * r:(k + 1) * r], fill,
                            self.mul(sigma, acc, n - gap * (k + 1))))
        return acc.ljust(n * r, b"\0")


@cache
def _ring(field: Field) -> _Ring:
    """The kernel of a field, built on first use and kept for the process,
    like the fields that gf.field_create caches."""
    return _Ring(field)


class TruncatedSeries:
    __slots__ = ("field", "val", "data", "prec", "_ring", "_terms", "_pows",
                 "_inv")

    def __new__(cls, field: Field, terms, prec: int):
        prec = int(prec)
        clean = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                c = field.element(c)
                if e < prec and c:
                    clean[int(e)] = c.coeffs
        ring = _ring(field)
        val = min(clean, default=prec)
        coeffs = [field.zero().coeffs] * (max(clean, default=val - 1) - val + 1)
        for e, digits in clean.items():
            coeffs[e - val] = digits
        return cls._make(ring, val, ring.encode(coeffs), prec)

    @classmethod
    def _make(cls, ring: _Ring, val: int, data: bytes, prec: int):
        """The series of the records of data from T^val, to precision prec:
        zero records at both ends and everything at or past prec dropped.
        Every series is built here."""
        r = ring.r
        if len(data) > (prec - val) * r:
            data = data[:max(prec - val, 0) * r]
        if not (data and data[0] and data[-1]):  # an end record may be zero
            lo = (len(data) - len(data.lstrip(b"\0"))) // r
            hi = -(-len(data.rstrip(b"\0")) // r)
            val, data = ((prec, b"") if lo >= hi else
                         (val + lo, data[lo * r:hi * r]))
        obj = object.__new__(cls)
        obj.field, obj._ring = ring.field, ring
        obj.val, obj.data, obj.prec = val, data, prec
        obj._terms = obj._pows = obj._inv = None
        return obj

    @classmethod
    def zero(cls, field: Field, prec: int):
        ring = _ring(field)
        return cls._make(ring, prec, b"", prec)

    @classmethod
    def monomial(cls, field: Field, exp: int, prec: int, coeff=None):
        c = field.one() if coeff is None else field.element(coeff)
        ring = _ring(field)
        return cls._make(ring, exp, ring.encode([c.coeffs]), prec)

    # -- structure -------------------------------------------------------------

    @property
    def terms(self):
        """The nonzero terms as a read-only {exponent: FieldElement} map."""
        if self._terms is None:
            field, val = self.field, self.val
            self._terms = MappingProxyType(
                {val + k: FieldElement(field, c)
                 for k, c in enumerate(self._ring.decode(self.data))
                 if any(c)})
        return self._terms

    def valuation(self) -> int | None:
        """Exact valuation, or None when the series is 0 + O(T^prec)."""
        return self.val if self.data else None

    def is_zero_to_precision(self) -> bool:
        return not self.data

    def leading(self) -> FieldElement:
        """The coefficient of T^val, for a series not zero to precision."""
        return FieldElement(self.field, self._ring.digits(self.data, 0))

    # -- arithmetic --------------------------------------------------------------

    def _check(self, other):
        if other._ring is not self._ring:  # one ring per field (_ring)
            check_field(self.field, other.field)

    def _plus(self, other, negate: bool):
        """self + other, or self - other when negate: -other is one string
        for the sum, never a series of its own."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        ring = self._ring
        prec = min(self.prec, other.prec)
        val = min(self.val, other.val)
        data = ring.add(self.data, self.val - val,
                        ring.neg(other.data) if negate else other.data,
                        other.val - val, prec - val)
        return TruncatedSeries._make(ring, val, data, prec)

    def __add__(self, other):
        return self._plus(other, False)

    def __sub__(self, other):
        return self._plus(other, True)

    def __neg__(self):
        return TruncatedSeries._make(self._ring, self.val,
                                     self._ring.neg(self.data), self.prec)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        prec = min(self.prec + other.val, other.prec + self.val)
        val = self.val + other.val
        data = self._ring.mul(self.data, other.data, prec - val)
        return TruncatedSeries._make(self._ring, val, data, prec)

    def scale(self, c: FieldElement) -> "TruncatedSeries":
        """c self; self itself for c = 1, as self ** 1 is self."""
        if c.field is not self.field:
            check_field(self.field, c.field)
        if c.coeffs == self.field.one().coeffs:
            return self
        data = self._ring.scale(self.data, c.coeffs)
        return TruncatedSeries._make(self._ring, self.val, data, self.prec)

    def shift(self, k: int) -> "TruncatedSeries":
        """T^k self: an exact monomial factor moves valuation and precision
        by k and needs no product."""
        return TruncatedSeries._make(self._ring, self.val + k, self.data,
                                     self.prec + k)

    def inverse(self) -> "TruncatedSeries":
        """Series inverse; needs a determined valuation.  Computed once per
        series and kept on it.

        A unit known to relative precision R keeps R correct coefficients in
        its inverse, so the absolute precision drops from p to p - 2v.
        """
        if self._inv is None:
            v = self.valuation()
            if v is None:
                raise PrecisionError("cannot invert an (apparent) zero series")
            data = self._ring.inverse(self.data, self.prec - v)
            self._inv = TruncatedSeries._make(self._ring, -v, data,
                                              self.prec - 2 * v)
        return self._inv

    def truncate(self, prec: int) -> "TruncatedSeries":
        """self + O(T^prec): self when prec is not below its precision."""
        if prec >= self.prec:
            return self
        return TruncatedSeries._make(self._ring, self.val, self.data, prec)

    def keep_inverse(self, inv: "TruncatedSeries") -> "TruncatedSeries":
        """self, keeping inv, an inverse known in closed form, for inverse()
        to return with no Newton iteration.  Raises unless inv has the
        valuation -v and precision prec - 2v that inverse() gives; the
        module docstring says why a closed form cut to them is exact."""
        self._check(inv)
        v = self.valuation()
        if v is None or inv.valuation() != -v or inv.prec != self.prec - 2 * v:
            raise ValueError(
                f"an inverse of a series of valuation {v} and precision "
                f"{self.prec} needs valuation -v and precision prec - 2v, "
                f"not {inv.valuation()} and {inv.prec}")
        self._inv = inv
        return self

    def __pow__(self, n: int) -> "TruncatedSeries":
        """self^n.  A product keeps the smaller relative precision (prec -
        val) of its factors, and self = T^v (u + O(T^(prec - v))) for a unit
        u, so for n >= 1 the result has valuation n v and the same relative
        precision prec - v, whatever the sign of v.  self^0 is 1 +
        O(T^prec), self^1 is self, and self^-n is (1/self)^n.  Each power is
        computed once per series and kept on it.  The squares self^(2^i) are
        kept powers too, one ladder per series: a square is the square of
        the rung below it, and any other power the product of the squares
        at the bits of n, so the powers asked of a series share them."""
        if n == 1:
            return self
        if self._pows is None:
            self._pows = {}
        out = self._pows.get(n)
        if out is not None:
            return out
        ring = self._ring
        if n < 0:
            out = self.inverse() ** (-n)
        elif n == 0:
            out = TruncatedSeries._make(ring, 0, ring.one, self.prec)
        else:
            val = n * self.val
            rel = self.prec - self.val
            if n & (n - 1):
                data = None
                for i in range(n.bit_length()):
                    if n >> i & 1:
                        square = (self ** (1 << i)).data
                        data = square if data is None else \
                            ring.mul(data, square, rel)
            else:
                half = (self ** (n >> 1)).data
                data = ring.mul(half, half, rel)
            out = TruncatedSeries._make(ring, val, data, val + rel)
        self._pows[n] = out
        return out

    def step_unit(self, alpha: int, beta: int, cap: int) -> "TruncatedSeries":
        """The unit s mod T^cap solving one tower step (see tower._solve_unit).

        self has valuation -j; u(t) = t^j self(t) is a polynomial with u(0) =
        c != 0.  With tau = T^p s^beta, s is the root of

            F(s)  = s u(tau) + T^(j(p-1)) s^(alpha(p-1)) - 1,
            F'(s) = h(tau) + alpha(p-1) T^(j(p-1)) s^(alpha(p-1)-1),

        where h(t) = u(t) + beta t u'(t), since d tau/ds = beta tau/s.  F'(s)
        is c plus terms of positive valuation, a unit, so a Newton step s -
        F(s)/F'(s) takes s from n known coefficients to 2n: it needs F(s) mod
        T^2n, whose first n coefficients are zero, and F'(s) mod T^n.  The
        root mod T^cap is unique.  A pass adding m coefficients inverts
        F'(s) mod T^m, which depends only on s mod T^m, and no later pass
        changes that: the last pass's inverse is 1/F'(s) to its length, and
        one Newton step of the inverse (two products) extends it to the
        next pass's length.  For beta < 0 a pass inverts s as well, to the
        length of tau; the next pass's s agrees with it mod T^n, so the
        inverse cut to n starts the next one, and the last one starts the
        inverse of the unit returned, which keeps it (see keep_inverse).
        s^e and the s^(e-1) of F' come from one power.

        The passes start from the prefix of s known exactly, not from its
        first coefficient.  With u = c + g, v_g the index of the first
        nonzero coefficient of g (infinite for a constant u) and shift =
        j(p-1), s = 1/c makes s g(tau) = O(T^(p v_g)) and the middle term
        O(T^shift), so F(1/c) = O(T^n0), n0 = min(shift, p v_g), and the
        root is 1/c mod T^n0: the first pass starts at min(n0, cap).  For a
        constant u, u(tau) = c reads no tau, so no pass raises s to beta or
        inverts it, and the unit's 1/s starts from its own constant prefix
        (see _Ring.inverse).
        """
        ring, field = self._ring, self.field
        p, r, j = ring.p, ring.r, -self.val
        # coefficient i of u is that of t^i; terms with p*i >= cap cannot
        # reach T^cap through tau.
        top = -(-cap // p)
        u = self.data[:top * r]
        v_g = ring.tail_val(u, top)
        constant = v_g == top  # p v_g >= cap as well
        if constant:
            u = u[:r]
        h = ring.weigh(u, [1 + beta * i for i in range(min(p, len(u) // r))])
        shift, e = j * (p - 1), alpha * (p - 1)
        k = e % p  # the integer factor of the middle term of F'
        k_digits = field.element(k).coeffs
        n = min(shift, p * v_g, cap)
        s = ring.inverse(u[:r], n)  # 1/c mod T^n
        d_inv = None  # 1/F'(s) from the last pass, exact to its length
        s_inv = None  # 1/s from the last pass, exact mod T^n of this s
        while n < cap:
            n2 = min(2 * n, cap)
            m = n2 - n
            if constant:
                sigma = b""  # subst reads no sigma for a constant
            elif beta >= 0:
                sigma = ring.power(s, beta, n2 - p)
            elif n2 > p:
                s_inv = ring.inverse(s, n2 - p, s_inv)
                sigma = ring.power(s_inv, -beta, n2 - p)
            else:
                sigma = b""
            f_s = ring.mul(s, ring.subst(u, sigma, p, n2), n2)
            if n2 > shift:
                if k:  # s^e = s^(e-1) s
                    low = ring.power(s, e - 1, n2 - shift)
                    s_e = ring.mul(low, s, n2 - shift)
                else:
                    s_e = ring.power(s, e, n2 - shift)
                f_s = ring.add(f_s, 0, s_e, shift, n2)
            d_s = ring.subst(h, sigma, p, m)
            if k and m > shift:
                mid = ring.scale(low[:(m - shift) * r], k_digits)
                d_s = ring.add(d_s, 0, mid, shift, m)
            d_inv = ring.inverse(d_s, m, d_inv)
            s += ring.mul(ring.neg(f_s[n * r:]), d_inv, m)
            if s_inv is not None:
                s_inv = s_inv[:n * r]
            n = n2
        unit = TruncatedSeries._make(ring, 0, s, cap)
        return unit.keep_inverse(TruncatedSeries._make(
            ring, 0, ring.inverse(s, cap, s_inv), cap))

    def __repr__(self):
        if not self.data:
            return f"O(T^{self.prec})"
        bits = [f"({c!r})T^{e}" for e, c in sorted(self.terms.items())]
        return " + ".join(bits) + f" + O(T^{self.prec})"


def compose(f: TruncatedSeries, tau: TruncatedSeries) -> TruncatedSeries:
    """f(tau) for tau of positive valuation: tau^v P(tau) for f = T^v P,
    with P(tau) by one Horner substitution, known to prec(tau) and capped
    at val(tau) * prec(f), where the unknown tail of f enters (see the
    module docstring for the precision).  For f = T^v + O(T^prec(f)) that
    is tau^v itself, the power tau keeps, when the cap does not cut it."""
    f._check(tau)
    vt = tau.valuation()
    if vt is None or vt < 1:
        raise DomainError("composition needs a substitution of valuation >= 1")
    cap = vt * f.prec
    if f.is_zero_to_precision():
        return TruncatedSeries.zero(f.field, cap)
    ring, t_v = f._ring, tau ** f.val
    if t_v.prec <= cap and f.data == ring.one:
        return t_v
    rel = min(cap, t_v.prec) - t_v.val
    data = ring.mul(ring.subst(f.data, tau.data, vt, rel), t_v.data, rel)
    return TruncatedSeries._make(ring, t_v.val, data, t_v.val + rel)

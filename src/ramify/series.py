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

Storage is dense.  A series keeps a valuation `val` and a tuple `comps` of
byte strings of one length; byte k of each belongs to the coefficient of
T^(val + k).  Over F_4, F_8 and F_16 (p = 2, 1 < a <= 4; the bit layout)
`comps` is one string, and bit i of byte k is digit i (the coefficient of
z^i in the power basis of gf).  Over every other field it holds one string
per F_p component: byte k of comps[i] is digit i, and a prime above 256
needs d > 1 bytes per digit, little-endian.  The two layouts coincide over
a prime field.  The ring's codec (encode, decode, digits) alone reads
digits.  Valuation and trimming are lstrip and rstrip of zero bytes.
`terms` is a read-only {exponent: FieldElement} view, built on first use.

All coefficient arithmetic runs through one kernel, _Ring, on such tuples:

- A product is a Kronecker substitution.  The coefficients are widened into
  one strided buffer, every coefficient spread over 2a - 1 slots of w
  bytes, one per power of z in a product of two elements, with w large
  enough that no sum of slot products spills into its neighbour.  The two
  buffers are multiplied as Python ints by CPython's big-integer product.
  Byte b of slot s of the result, weighted by 256^b and folded from z^s
  into z^0 .. z^(a-1) by the field's modulus, is a multiplication by a
  constant mod p: one `bytes.translate` table.  The reducer sums the
  translated strings of each component as ints (XOR for p = 2) and takes
  one more translate mod p.  The bit layout needs no table per slot: one
  multiplication spreads each coefficient byte's bits to its first a slots,
  and after the product one AND keeps each slot's parity, one
  multiplication gathers a lane's 2a - 1 parities into one byte, and one
  translate folds that byte by the modulus (see _Ring).
- A sum adds the components as ints and takes one translate (XOR for p = 2).
  Negation is one translate per component, and a constant multiple one
  translate per pair of components and a sum; in the bit layout it is one
  translate.
- Inverses are Newton iteration on the product, doubling the number of known
  coefficients per step from the longest prefix known exactly: 1/u_0 and
  the zeros up to the first nonconstant term of u, or a longer inverse
  handed in.  Powers are square-and-multiply on it at the one length that
  the precision rule gives.

Byte tables are exact while every byte of a sum of translated strings stays
below 256: always for p = 2 (XOR), otherwise while (p - 1) times the number
of residues summed is below 256, which every field of the tower workloads
meets.  Past that -- large primes, such as F_251 and F_65521 in the tests --
the reducer reads each slot as an integer and reduces it with Field.reduce,
and sums and constant multiples go through the same packing and reducer.
Each ring builds its tables on first use.

Series never change once built, so each keeps its inverse and every power
asked of it: a power is computed once per series.  An inverse known in
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

from functools import cache
from types import MappingProxyType

from .errors import DomainError, PrecisionError
from .gf import Field, FieldElement, power


# scalar plans a ring keeps (see _Ring._scalar)
_SCALARS = 1 << 10


def _width(bound: int) -> int:
    """Bytes that hold every integer from 0 to bound."""
    return max(1, (bound.bit_length() + 7) >> 3)


class _Ring:
    """Arithmetic on component tuples of one field.

    A tuple x stands for sum x_k T^k; coefficients past its end are zero.
    Over F_(2^a) with 1 < a <= 4 (the bit layout) x is one byte string, and
    bit i of byte k is digit i of x_k.  Over every other field x holds a
    byte strings of n d-byte digits each, and digit k of x[i] is digit i of
    x_k.  Every method returns a tuple of exactly the length asked for.

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
    """

    __slots__ = ("field", "p", "a", "m", "d", "bound", "empty", "one", "mod",
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
        if self.bits:
            self._digs = [tuple(b >> i & 1 for i in range(a))
                          for b in range(1 << a)]
            self._byte = {c: b for b, c in enumerate(self._digs)}
            # slot parities z^s -> the byte of their sum folded by the modulus
            self._fold = self.encode(
                [field.reduce([b >> s & 1 for s in range(self.m)])
                 for b in range(1 << self.m)])[0].ljust(256, b"\0")
            self._masks = {}  # (w, slots) -> (lanes, multiplier, mask)
        self.empty = (b"",) if self.bits else (b"",) * a
        self.one = self.element(field.one().coeffs)
        self._tables = {}  # c -> the translate table x -> c x mod p
        self.mod = self.table(1)
        self._plans = {}   # (w, st) -> reduction plan, None past the tables
        self._scalars = {}  # c -> how a multiple c x sums the components

    # -- layout ------------------------------------------------------------------

    def length(self, x) -> int:
        return len(x[0]) // self.d

    def cut(self, x, lo: int, hi: int | None = None) -> tuple:
        """Coefficients lo up to hi (the end when hi is None)."""
        d = self.d
        if hi is None:
            return tuple([c[lo * d:] for c in x])
        return tuple([c[lo * d:hi * d] for c in x])

    def cat(self, *xs) -> tuple:
        return tuple(map(b"".join, zip(*xs)))

    def zeros(self, n: int) -> tuple:
        return (bytes(n * self.d),) * len(self.empty)

    def pad(self, x, n: int) -> tuple:
        """x with zeros appended up to n coefficients."""
        short = n * self.d - len(x[0])
        return tuple(c + bytes(short) for c in x) if short > 0 else x

    # -- the codec: coefficients as digit tuples ---------------------------------

    def encode(self, coeffs) -> tuple:
        """The tuple of a list of coefficients, each given by its digits."""
        if self.bits:
            return (bytes(map(self._byte.__getitem__, coeffs)),)
        if not coeffs:
            return self.empty
        cols, d = zip(*coeffs), self.d
        if d == 1:
            return tuple(map(bytes, cols))
        return tuple(b"".join(v.to_bytes(d, "little") for v in col)
                     for col in cols)

    def decode(self, x) -> list:
        """The digits of each coefficient of x."""
        if self.bits:
            return list(map(self._digs.__getitem__, x[0]))
        d = self.d
        if d > 1:
            x = [[int.from_bytes(c[k:k + d], "little")
                  for k in range(0, len(c), d)] for c in x]
        return list(zip(*x))

    def element(self, digits) -> tuple:
        """The one-coefficient tuple of an element's digits."""
        return self.encode([digits])

    def digits(self, x, k: int) -> tuple:
        """The digits of coefficient k."""
        if self.bits:
            return self._digs[x[0][k]]
        d = self.d
        return tuple(int.from_bytes(c[k * d:(k + 1) * d], "little") for c in x)

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
        """The n digits of the sum mod p of the ints picked (their bytes are
        residues), for exact(len(picks))."""
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

    def _lanes(self, w: int, slots: int, n: int) -> tuple:
        """For n lanes of m w-byte slots (bit layout): the multiplier of the
        spread (slots = a) or the gather (slots = m), and the mask of bit 0
        of slots 0 .. slots - 1 of each lane.  Kept per (w, slots) at the
        most lanes asked for, of which fewer are a right shift."""
        top, mult, mask = self._masks.get((w, slots), (0, 0, 0))
        if top < n:
            k, top, m = 8 * w - 1, max(n, 2 * top), self.m
            mult = sum(1 << i * k for i in range(slots)) if slots < m \
                else sum(1 << 8 * w * (m - 1) - t * k for t in range(m))
            lane = (b"\1" + bytes(w - 1)) * slots + bytes((self.m - slots) * w)
            mask = int.from_bytes(lane * top, "little")
            self._masks[w, slots] = top, mult, mask
        return mult, mask >> 8 * self.m * w * (top - n)

    def reduce(self, v: int, w: int, st: int, n: int, lo: int = 0) -> tuple:
        """Coefficients lo up to n of v, each a block of st bytes that holds
        st // w slots of w bytes, slot s standing for z^s."""
        if n <= lo:
            return self.empty
        if self.bits:  # the gather (see the class docstring), then the fold
            if lo:
                v >>= 8 * st * lo
            n -= lo
            mult, mask = self._lanes(w, self.m, n)
            raw = ((v & mask) * mult).to_bytes((n + 1) * st, "little")
            return (raw[st - w:n * st:st].translate(self._fold),)
        size, start = n * st, lo * st
        raw = v.to_bytes(max(size, (v.bit_length() + 7) >> 3), "little")
        plan = self._plans.get((w, st)) or self._plan(w, st)
        if plan:
            tables, parts, cols = plan
            if len(parts) == 1:  # one digit from one byte of one slot
                return (raw[start + parts[0][0]:size:st].translate(tables[0]),)
            tr = [raw.translate(t) for t in tables]
            ints = [int.from_bytes(tr[i][start + off:size:st], "little")
                    for off, i in parts]
            return tuple([self.combine(ints, col, n - lo) for col in cols])
        # past the tables: each slot as an integer, each block mod the
        # modulus and p
        m, field = st // w, self.field
        slots = [int.from_bytes(raw[k:k + w], "little")
                 for k in range(start, size, w)]
        return self.encode([field.reduce(slots[k:k + m])
                            for k in range(0, len(slots), m)])

    def pack(self, x, w: int, st: int) -> int:
        """x as one int: digit i of coefficient k in the w-byte slot at byte
        k st + i w; the bit layout takes st = (2a - 1) w."""
        d = self.d
        if self.bits:  # the bytes at the lane starts, then the spread
            n = len(x[0])
            buf = bytearray(n * st)
            buf[::st] = x[0]
            mult, mask = self._lanes(w, self.a, n)
            return int.from_bytes(buf, "little") * mult & mask
        if st == d:  # one slot of one digit: the component is the layout
            return int.from_bytes(x[0], "little")
        buf = bytearray(len(x[0]) // d * st)
        for i, c in enumerate(x):
            for b in range(d):
                buf[i * w + b::st] = c[b::d]
        return int.from_bytes(buf, "little")

    # -- arithmetic --------------------------------------------------------------

    def mul(self, x, y, n: int) -> tuple:
        """The first n coefficients of x * y."""
        if n <= 0:
            return self.empty
        d = self.d
        size = n * d
        square = x is y
        if len(x[0]) > size:
            x = tuple([c[:size] for c in x])
        if square:
            y = x
        elif len(y[0]) > size:
            y = tuple([c[:size] for c in y])
        short = min(len(x[0]), len(y[0])) // d
        if not short:
            return self.zeros(n)
        if short == 1 and self.exact(self.a):  # a constant factor: no product
            if len(x[0]) == d:
                x, y = y, x
            return self.pad(self.scale(x, self.digits(y, 0)), n)
        w = _width(short * self.bound)
        st = self.m * w
        px = self.pack(x, w, st)
        return self.reduce(px * (px if square else self.pack(y, w, st)),
                           w, st, n)

    def add(self, x, sx: int, y, sy: int, n: int) -> tuple:
        """The first n coefficients of T^sx x + T^sy y (sx, sy >= 0)."""
        x = self.cut(x, 0, max(n - sx, 0))
        y = self.cut(y, 0, max(n - sy, 0))
        if not self.exact(2):
            w = _width(2 * (self.p - 1))
            st = self.a * w
            v = (self.pack(x, w, st) << 8 * st * sx) \
                + (self.pack(y, w, st) << 8 * st * sy)
            return self.reduce(v, w, st, n)
        return tuple([self.combine((int.from_bytes(u, "little") << 8 * sx,
                                    int.from_bytes(v, "little") << 8 * sy),
                                   (0, 1), n)
                      for u, v in zip(x, y)])

    def _scalar(self, c: tuple):
        """For each digit j of c * x, the (component, table) pairs it sums:
        component i times digit j of c z^i, no table for a factor 1 since
        the digits of x are residues already; in the bit layout, the one
        table of c * x.  Kept per c; the memo is emptied when full, so a
        long run over a large field stays bounded."""
        plan = self._scalars.get(c)
        if plan is None:
            field, a = self.field, self.a
            cols = [field.reduce((0,) * i + c) for i in range(a)]
            if self.bits:  # b -> c b: c z^i summed over the bits i of b
                plan = bytearray(256)
                for i, col in enumerate(cols):
                    for b in range(1 << a):
                        if b >> i & 1:
                            plan[b] ^= self._byte[col]
            else:
                plan = [[(i, None if col[j] == 1 else self.table(col[j]))
                         for i, col in enumerate(cols) if col[j]]
                        for j in range(a)]
            if len(self._scalars) >= _SCALARS:
                self._scalars.clear()
            self._scalars[c] = plan
        return plan

    def scale(self, x, c: tuple) -> tuple:
        """c * x for the element with digits c."""
        if self.bits:
            return (x[0].translate(self._scalar(c)),)
        if not self.exact(self.a):
            return self.mul(x, self.element(c), self.length(x))
        out = []
        for col in self._scalar(c):
            strs = [x[i] if t is None else x[i].translate(t) for i, t in col]
            out.append(strs[0] if len(strs) == 1 else self.combine(
                [int.from_bytes(v, "little") for v in strs], range(len(strs)),
                len(x[0])))
        return tuple(out)

    def neg(self, x) -> tuple:
        if self.p == 2:
            return x
        return self.scale(x, (self.p - 1,) + (0,) * (self.a - 1))

    def weigh(self, x, ks) -> tuple:
        """x with coefficient k times the integer ks[k % len(ks)]: one
        translate per residue class, or per digit for digits wider than a
        byte.  In the bit layout an odd weight keeps its class and an even
        one zeros it."""
        p, r = self.p, len(ks)
        if self.d > 1:
            return self.encode([tuple(v * ks[k % r] % p for v in c)
                                for k, c in enumerate(self.decode(x))])
        out = []
        for c in x:
            buf = bytearray(len(c))
            for i, k in enumerate(ks):
                if not self.bits:
                    buf[i::r] = c[i::r].translate(self.table(k % p))
                elif k & 1:
                    buf[i::r] = c[i::r]
            out.append(bytes(buf))
        return tuple(out)

    def tail_val(self, x, n: int) -> int:
        """The valuation of x - x_0, the index of the first nonzero
        coefficient past 0, or n when none is below n: one lstrip per
        component."""
        d, v = self.d, n
        for c in x:
            rest = c[d:n * d]
            tail = rest.lstrip(b"\0")
            if tail:
                v = min(v, 1 + (len(rest) - len(tail)) // d)
        return v

    def inverse(self, u, n: int, g=None) -> tuple:
        """The first n coefficients of 1/u, for u_0 != 0, by Newton; g, when
        given, is 1/u mod T^k for some k >= 1, and the steps start from it.

        With g = 1/u mod T^k, -u g = -1 + T^k e, and g + T^k g e = 1/u mod
        T^2k, so each step is two products.  Both have a factor of at most k
        coefficients, which sets the slot width; -u is packed once per
        width, and g stays packed as it grows.

        The steps start from the longest prefix known exactly.  With v the
        index of the first nonzero coefficient of u past 0 (v = n for
        none), u = u_0 (1 + T^v w) and 1/u = 1/u_0 mod T^v, so with no g, or
        a g shorter than that, they start from 1/u_0 and min(v, n) - 1
        zeros: a constant u takes no product.  Newton from any exact prefix
        reaches the one truncation 1/u mod T^n.  While g is that constant,
        e is 1/u_0 times coefficients k to 2k of -u, and the first step is
        two constant multiples.
        """
        v = self.tail_val(u, n)
        if g is None or self.length(g) < v:
            c = (self.digits(g, 0) if g is not None else
                 FieldElement(self.field, self.digits(u, 0)).inverse().coeffs)
            g = self.pad(self.element(c), min(v, n))
        k = self.length(g)
        if k >= n:
            return self.cut(g, 0, n)
        neg_u = self.neg(self.cut(u, 0, n))
        if k <= v:  # g = 1/u_0 mod T^k
            c, k2 = self.digits(g, 0), min(2 * k, n)
            g = self.cat(g, self.scale(self.scale(
                self.pad(self.cut(neg_u, k, k2), k2 - k), c), c))
            k = k2
        w = 0
        while k < n:
            k2 = min(2 * k, n)
            if _width(k * self.bound) != w:  # both products have factors <= k
                w = _width(k * self.bound)
                st = self.m * w
                pu, pg = self.pack(neg_u, w, st), self.pack(g, w, st)
            e = self.reduce((pu & ((1 << 8 * st * k2) - 1)) * pg, w, st, k2, k)
            step = self.reduce(pg * self.pack(e, w, st), w, st, k2 - k)
            g = self.cat(g, step)
            pg += self.pack(step, w, st) << 8 * st * k
            k = k2
        return g

    def power(self, x, e: int, n: int) -> tuple:
        """The first n coefficients of x^e for e >= 0 and x_0 != 0, by
        square-and-multiply at the fixed length n, started from the first
        factor."""
        if n <= 0:
            return self.empty
        if e == 0:
            return self.pad(self.one, n)
        return self.pad(power(self.cut(x, 0, n), e,
                              lambda u, v: self.mul(u, v, n)), n)

    def subst(self, x, sigma, gap: int, n: int) -> tuple:
        """The first n >= 1 coefficients of sum x_k (T^gap sigma)^k, for x
        nonempty and gap >= 1, by Horner: the partial sum that
        (T^gap sigma)^k multiplies is needed only mod T^(n - gap k)."""
        top = min(self.length(x), -(-n // gap)) - 1
        acc = self.cut(x, top, top + 1)
        fill = self.zeros(gap - 1)
        for k in range(top - 1, -1, -1):
            acc = self.cat(self.cut(x, k, k + 1), fill,
                           self.mul(sigma, acc, n - gap * (k + 1)))
        return self.pad(acc, n)


@cache
def _ring(field: Field) -> _Ring:
    """The kernel of a field, built on first use and kept for the process,
    like the fields that gf.field_create caches."""
    return _Ring(field)


class TruncatedSeries:
    __slots__ = ("field", "val", "comps", "prec", "_ring", "_terms", "_pows",
                 "_inv")

    def __init__(self, field: Field, terms, prec: int):
        prec = int(prec)
        clean = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                if e < prec and c:
                    clean[int(e)] = c.coeffs
        ring = _ring(field)
        val = min(clean, default=prec)
        coeffs = [field.zero().coeffs] * (max(clean, default=val - 1) - val + 1)
        for e, digits in clean.items():
            coeffs[e - val] = digits
        self._set(ring, val, ring.encode(coeffs), prec)

    def _set(self, ring: _Ring, val: int, comps: tuple, prec: int):
        """Store comps from T^val, dropping zeros at both ends and
        everything at or past prec."""
        d = ring.d
        if len(comps[0]) > (prec - val) * d:
            comps = ring.cut(comps, 0, max(prec - val, 0))
        # a nonzero end byte in some component is a nonzero end digit
        x = comps[0]
        if len(comps) == 1:
            lead, tail = x and x[0], x and x[-1]
        else:
            lead = x and any([c[0] for c in comps])
            tail = x and any([c[-1] for c in comps])
        if lead:
            lo = 0
        else:
            lo = min([len(c) - len(c.lstrip(b"\0")) for c in comps]) // d
        if tail:
            hi = len(x) // d
        else:
            hi = -(-max([len(c.rstrip(b"\0")) for c in comps]) // d)
        self.field = ring.field
        self._ring = ring
        self.prec = prec
        if lo >= hi:
            self.val, self.comps = prec, ring.empty
        else:
            self.val = val + lo
            self.comps = (ring.cut(comps, lo, hi)
                          if lo or hi * d < len(comps[0]) else comps)
        self._terms = None
        self._pows = {}
        self._inv = None

    @classmethod
    def _make(cls, ring: _Ring, val: int, comps: tuple, prec: int):
        obj = cls.__new__(cls)
        obj._set(ring, val, comps, prec)
        return obj

    @classmethod
    def zero(cls, field: Field, prec: int):
        ring = _ring(field)
        return cls._make(ring, prec, ring.empty, prec)

    @classmethod
    def monomial(cls, field: Field, exp: int, prec: int, coeff=None):
        c = field.one() if coeff is None else coeff
        ring = _ring(field)
        return cls._make(ring, exp, ring.element(c.coeffs), prec)

    # -- structure -------------------------------------------------------------

    @property
    def terms(self):
        """The nonzero terms as a read-only {exponent: FieldElement} map."""
        if self._terms is None:
            field, val = self.field, self.val
            self._terms = MappingProxyType(
                {val + k: FieldElement(field, c)
                 for k, c in enumerate(self._ring.decode(self.comps))
                 if any(c)})
        return self._terms

    def valuation(self) -> int | None:
        """Exact valuation, or None when the series is 0 + O(T^prec)."""
        return self.val if self.comps[0] else None

    def is_zero_to_precision(self) -> bool:
        return not self.comps[0]

    def leading(self) -> FieldElement:
        """The coefficient of T^val, for a series not zero to precision."""
        return FieldElement(self.field, self._ring.digits(self.comps, 0))

    # -- arithmetic --------------------------------------------------------------

    def _check(self, other):
        if other._ring is not self._ring:
            raise DomainError("series over different fields")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        prec = min(self.prec, other.prec)
        val = min(self.val, other.val)
        comps = self._ring.add(self.comps, self.val - val,
                               other.comps, other.val - val, prec - val)
        return TruncatedSeries._make(self._ring, val, comps, prec)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TruncatedSeries._make(self._ring, self.val,
                                     self._ring.neg(self.comps), self.prec)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        prec = min(self.prec + other.val, other.prec + self.val)
        val = self.val + other.val
        comps = self._ring.mul(self.comps, other.comps, prec - val)
        return TruncatedSeries._make(self._ring, val, comps, prec)

    def scale(self, c: FieldElement) -> "TruncatedSeries":
        """c self; self itself for c = 1, as self ** 1 is self."""
        if c.field != self.field:
            raise DomainError("elements of different fields")
        if c.coeffs == self.field.one().coeffs:
            return self
        comps = self._ring.scale(self.comps, c.coeffs)
        return TruncatedSeries._make(self._ring, self.val, comps, self.prec)

    def shift(self, k: int) -> "TruncatedSeries":
        """T^k self: an exact monomial factor moves valuation and precision
        by k and needs no product."""
        return TruncatedSeries._make(self._ring, self.val + k, self.comps,
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
            comps = self._ring.inverse(self.comps, self.prec - v)
            self._inv = TruncatedSeries._make(self._ring, -v, comps,
                                              self.prec - 2 * v)
        return self._inv

    def truncate(self, prec: int) -> "TruncatedSeries":
        """self + O(T^prec): self when prec is not below its precision."""
        if prec >= self.prec:
            return self
        return TruncatedSeries._make(self._ring, self.val, self.comps, prec)

    def keep_inverse(self, inv: "TruncatedSeries") -> "TruncatedSeries":
        """self, keeping inv, an inverse known in closed form, for inverse()
        to return with no Newton iteration.  Raises unless inv has the
        valuation -v and precision prec - 2v that inverse() gives; the
        module docstring says why a closed form cut to them is exact."""
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
        computed once per series and kept on it."""
        if n == 1:
            return self
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
            comps = ring.power(self.comps, n, rel)
            out = TruncatedSeries._make(ring, val, comps, val + rel)
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
        p, j = ring.p, -self.val
        # coefficient i of u is that of t^i; terms with p*i >= cap cannot
        # reach T^cap through tau.
        top = -(-cap // p)
        u = ring.cut(self.comps, 0, top)
        v_g = ring.tail_val(u, top)
        constant = v_g == top  # p v_g >= cap as well
        if constant:
            u = ring.cut(u, 0, 1)
        h = ring.weigh(u, [1 + beta * i for i in range(min(p, ring.length(u)))])
        shift, e = j * (p - 1), alpha * (p - 1)
        k = e % p  # the integer factor of the middle term of F'
        k_digits = field.element(k).coeffs
        n = min(shift, p * v_g, cap)
        s = ring.inverse(ring.cut(u, 0, 1), n)  # 1/c mod T^n
        d_inv = None  # 1/F'(s) from the last pass, exact to its length
        s_inv = None  # 1/s from the last pass, exact mod T^n of this s
        while n < cap:
            n2 = min(2 * n, cap)
            m = n2 - n
            if constant:
                sigma = ring.empty  # subst reads no sigma for a constant
            elif beta >= 0:
                sigma = ring.power(s, beta, n2 - p)
            elif n2 > p:
                s_inv = ring.inverse(s, n2 - p, s_inv)
                sigma = ring.power(s_inv, -beta, n2 - p)
            else:
                sigma = ring.empty
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
                mid = ring.scale(ring.cut(low, 0, m - shift), k_digits)
                d_s = ring.add(d_s, 0, mid, shift, m)
            d_inv = ring.inverse(d_s, m, d_inv)
            s = ring.cat(s, ring.mul(ring.neg(ring.cut(f_s, n)), d_inv, m))
            if s_inv is not None:
                s_inv = ring.cut(s_inv, 0, n)
            n = n2
        unit = TruncatedSeries._make(ring, 0, s, cap)
        return unit.keep_inverse(TruncatedSeries._make(
            ring, 0, ring.inverse(s, cap, s_inv), cap))

    def __repr__(self):
        if not self.comps[0]:
            return f"O(T^{self.prec})"
        bits = [f"({c!r})T^{e}" for e, c in sorted(self.terms.items())]
        return " + ".join(bits) + f" + O(T^{self.prec})"


def compose(f: TruncatedSeries, tau: TruncatedSeries) -> TruncatedSeries:
    """f(tau) for tau of positive valuation: tau^v P(tau) for f = T^v P,
    with P(tau) by one Horner substitution, known to prec(tau) and capped
    at val(tau) * prec(f), where the unknown tail of f enters (see the
    module docstring for the precision).  For f = T^v + O(T^prec(f)) that
    is tau^v itself, the power tau keeps, when the cap does not cut it."""
    vt = tau.valuation()
    if vt is None or vt < 1:
        raise DomainError("composition needs a substitution of valuation >= 1")
    cap = vt * f.prec
    if f.is_zero_to_precision():
        return TruncatedSeries.zero(f.field, cap)
    ring, t_v = f._ring, tau ** f.val
    if t_v.prec <= cap and f.comps == ring.one:
        return t_v
    rel = min(cap, t_v.prec) - t_v.val
    comps = ring.mul(ring.subst(f.comps, tau.comps, vt, rel), t_v.comps, rel)
    return TruncatedSeries._make(ring, t_v.val, comps, t_v.val + rel)

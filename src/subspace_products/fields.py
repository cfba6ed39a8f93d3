"""Exact arithmetic in GF(p^n) over a fixed monic irreducible modulus.

Elements are plain ints in [0, p^n): the base-p packing of the coefficient
vector (c_0, ..., c_{n-1}) in the power basis 1, x, ..., x^{n-1}.  Table-free
arithmetic, the irreducibility test included, runs on polynomials packed into
one int, c_j in the j-th w-bit lane of `lane_layout(p, n + 1)` (n + 1 lanes,
so that the modulus fits; see LaneLayout).  A small field's exp/log tables:
see ExtensionField.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import gcd
from typing import Callable, NamedTuple

MAX_PRIME = 1 << 16
MAX_FIELD_SIZE = 1 << 63
_TABLE_LIMIT = 1 << 16

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for everything below 3.3e24."""
    if m < 2:
        return False
    for sp in _MR_WITNESSES:
        if m % sp == 0:
            return m == sp
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _pollard_rho(m: int, rng: random.Random) -> int:
    while True:
        c = rng.randrange(1, m)
        x = y = rng.randrange(2, m)
        d = 1
        while d == 1:
            x = (x * x + c) % m
            y = (y * y + c) % m
            y = (y * y + c) % m
            d = gcd(x - y, m)
        if d != m:
            return d


def prime_factors(m: int) -> tuple[int, ...]:
    """Sorted distinct prime factors: the witness primes by division, then Pollard rho."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    factors: set[int] = set()
    for sp in _MR_WITNESSES:
        while m % sp == 0:
            factors.add(sp)
            m //= sp
    stack, rng = ([m], random.Random(0xFAC70)) if m > 1 else ([], None)
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime(v):
            factors.add(v)
            continue
        d = _pollard_rho(v, rng)
        stack.append(d)
        stack.append(v // d)
    return tuple(sorted(factors))


# ----------------------------------------------------------------------------
# p = 2: elements and polynomials as bitmasks (bit i = coeff of x^i), for
# carry-less products and for echelon rows, each keyed by its lowest set bit.
# ----------------------------------------------------------------------------

def _clmul(a: int, b: int) -> int:
    acc = 0
    while b:
        low = b & -b
        acc ^= a << (low.bit_length() - 1)
        b ^= low
    return acc


def _gf2_reduce(x: int, mod_mask: int, n: int) -> int:
    xb = x.bit_length()
    while xb > n:
        x ^= mod_mask << (xb - 1 - n)
        xb = x.bit_length()
    return x


def _gcd_bits(a: int, b: int) -> int:
    while b:
        db = b.bit_length()
        while a.bit_length() >= db:
            a ^= b << a.bit_length() - db
        a, b = b, a
    return a


def _same(v: int) -> int:
    return v


def _insert_bits(basis: dict[int, int], v: int) -> int:
    while v:
        low = v & -v
        row = basis.get(low)
        if row is None:
            basis[low] = v
            return 1
        v ^= row
    return 0


def _extend_bits(basis: dict[int, int], exp: list[int], logs, ly: int, rank: int,
                 cap: int) -> int:
    # _insert_bits inline, on each product exp[lx + ly] until the rank reaches cap
    for lx in logs:
        if rank >= cap:
            break
        v = exp[lx + ly]
        while v:
            low = v & -v
            row = basis.get(low)
            if row is None:
                basis[low] = v
                rank += 1
                break
            v ^= row
    return rank


def _reduce_bits(basis: dict[int, int], v: int) -> int:
    for low, row in basis.items():
        if v & low:
            v ^= row
    return v


# ----------------------------------------------------------------------------
# Lane form: coefficient c_j of an element or polynomial in bits [j*w, (j+1)*w).
# ----------------------------------------------------------------------------

class LaneLayout(NamedTuple):
    """n lanes of w bits; GF(p^m) takes m + 1, so that its modulus fits, for
    its packed polynomials, table stepping and echelon rows alike.  An
    echelon basis over F_p is a dict from pivot to row, one int in this form;
    ExtensionField takes the row kernels as its own, so the fields of one
    (p, m) share them whatever their moduli.

    vector(e) is the row of the element index e and element(v) turns it
    back: the identity for p = 2, whose one-bit lanes make a row the
    bitmask; for odd p they spread and gather base-p digits.  When n > 2 and
    p^(n-1) <= 2^16, `vector` reads a table built with the layout and takes
    indices below p^(n-1) only, the elements of GF(p^(n-1)).  add(u, v) is
    the row of the sum, XOR for p = 2, for v = c times a row with c < p as
    well, so add(x, 0) reduces x.  insert(basis, v) stores v's remainder
    under its pivot and returns 1, or returns 0 when v lies in the span.
    reduce(basis, v) subtracts each row at its pivot, which fully reduces v
    against a fully reduced basis in any row order.  extend(basis, exp,
    logs, ly, rank, cap) inserts exp[lx + ly] for each lx in logs, in order,
    until rank reaches cap, and returns the rank.  For p = 2 these are the
    bit kernels above, for odd p `_lane_echelon`'s.  `gcd` is Euclid on
    packed polynomials; ring(f) is a*b mod a packed monic f of degree n - 1."""

    w: int
    element: Callable[[int], int]
    vector: Callable[[int], int]
    add: Callable[[int, int], int]
    insert: Callable[[dict, int], int]
    reduce: Callable[[dict, int], int]
    extend: Callable[[dict, list, list, int, int, int], int]
    gcd: Callable[[int, int], int]
    ring: Callable[[int], Callable[[int, int], int]]


def _lane_echelon(p: int, n: int, w: int, mask: int, red: Callable[[int], int]) -> tuple:
    """(insert, reduce) on the lane forms of n lanes of w bits, each row keyed
    by the shift of its lowest nonzero lane, which holds 1.  Subtracting c
    times a row is v + (p - c)*row, then one `red` of every lane at once."""
    steps = range(n)

    def insert(basis: dict[int, int], v: int) -> int:
        # each step clears v's lowest nonzero lane, so n steps, one per
        # lane, leave v = 0 unless `red` is wrong
        for _ in steps:
            if not v:
                return 0
            low = (v & -v).bit_length() - 1
            s = low - low % w
            c = v >> s & mask
            row = basis.get(s)
            if row is None:
                basis[s] = red(v * pow(c, -1, p))
                return 1
            v = red(v + (p - c) * row)
        if v:
            raise AssertionError("lane reduction left a nonzero vector after n steps")
        return 0

    def reduce(basis: dict[int, int], v: int) -> int:
        for s, row in basis.items():
            c = v >> s & mask
            if c:
                v = red(v + (p - c) * row)
        return v

    return insert, reduce


@lru_cache(maxsize=None)
def lane_layout(p: int, n: int) -> LaneLayout:
    """The layout of n lanes for the prime p, built once per (p, n): the one
    place that picks the kernels of a characteristic.

    For odd p a lane may grow to p*(p-1) = (p-1) + (p-1)^2, the largest lane
    of v + c*row for residue lanes and c < p, before `red` brings every lane
    back into [0, p) with one Barrett step: x*m >> k is x // p for each lane
    value x <= p*(p-1), since m = 2^k // p + 1 with 2^k > p*p*(p-1), and w
    leaves room for x*m, so no lane spills into the next; `quotients` keeps
    the w - k quotient bits of every lane.  `element` multiplies by
    gather = sum p^(n-1-j) 2^(jw), which gathers the index sum c_j p^j into
    lane n-1.  ring(f) (Horner) and `gcd` (Euclid, each step clearing a's top
    lane with a monic b) keep every lane within p*(p-1) before its `red` too."""
    if p == 2:
        return LaneLayout(1, _same, _same, int.__xor__, _insert_bits, _reduce_bits,
                          _extend_bits, _gcd_bits,
                          lambda f: lambda a, b: _gf2_reduce(_clmul(a, b), f, n - 1))
    top = p * (p - 1)
    k = (top * p).bit_length()
    m = (1 << k) // p + 1
    w = max(k + top.bit_length(), (p ** n).bit_length())
    shifts = tuple(range(0, n * w, w))
    quotients = sum(((1 << (w - k)) - 1) << s for s in shifts)
    gather = sum(p ** (n - 1 - j) << s for j, s in enumerate(shifts))
    at, mask = (n - 1) * w, (1 << w) - 1

    def red(x: int) -> int:
        return x - p * (x * m >> k & quotients)

    def element(v: int) -> int:
        return v * gather >> at & mask

    if n > 2 and p ** (n - 1) <= _TABLE_LIMIT:
        # index i*p + c holds c in lane 0 and i's lanes one lane up,
        # and index i*p^h + j holds j's lanes and i's lanes h lanes up
        h, tab = (n - 1) // 2, [0]
        for _ in range(n - 1 - h):
            tab = [c | x << w for x in tab for c in range(p)]
        vector = [x | y for x in [x << h * w for x in tab] for y in tab[:p ** h]].__getitem__
    else:
        def vector(e: int) -> int:
            v = 0
            for s in shifts:
                e, c = divmod(e, p)
                v |= c << s
            return v

    def add(u: int, v: int) -> int:
        return red(u + v)

    def gcd(a: int, b: int) -> int:
        while b:
            db = (b.bit_length() - 1) // w * w
            b = red(b * pow(b >> db & mask, -1, p))
            while a.bit_length() > db:
                da = (a.bit_length() - 1) // w * w
                a = red(a + (p - (a >> da & mask)) * (b << da - db))
            a, b = b, a
        return a

    def ring(f: int) -> Callable[[int, int], int]:
        def mulmod(a: int, b: int) -> int:
            acc = 0
            for s in range((b.bit_length() - 1) // w * w, -1, -w):
                acc <<= w
                t = acc >> at
                if t:                      # minus t*f: lane n-1 becomes p, `red` clears it
                    acc = red(acc + (p - t) * f)
                c = b >> s & mask
                if c:
                    acc = red(acc + c * a)
            return acc
        return mulmod

    insert, reduce = _lane_echelon(p, n, w, mask, red)

    def extend(basis: dict[int, int], exp: list[int], logs, ly: int, rank: int,
               cap: int) -> int:
        for lx in logs:
            if rank >= cap:
                break
            rank += insert(basis, vector(exp[lx + ly]))
        return rank

    return LaneLayout(w, element, vector, add, insert, reduce, extend, gcd, ring)


def _poly_pow(mulmod, a: int, e: int) -> int:
    result = 1
    while e:
        if e & 1:
            result = mulmod(a, result)
        e >>= 1
        if e:
            a = mulmod(a, a)
    return result


def is_irreducible(coeffs: tuple[int, ...] | list[int], p: int) -> bool:
    """Irreducibility of a monic polynomial f over F_p (Rabin's test): no
    factor of degree <= deg/2, i.e. gcd(f, x^(p^k) - x) = 1 for k <= deg/2,
    and x^(p^deg) = x mod f."""
    n = len(coeffs) - 1
    if n < 1 or coeffs[n] != 1 or not all(0 <= c < p for c in coeffs):
        raise ValueError("polynomial must be monic of degree >= 1, coefficients in [0, p)")
    if n == 1:
        return True
    lanes = lane_layout(p, n + 1)
    f, x = sum(c << i * lanes.w for i, c in enumerate(coeffs)), 1 << lanes.w
    mulmod, g = lanes.ring(f), x
    for k in range(n):
        g = _poly_pow(mulmod, g, p)
        if k < n // 2 and lanes.gcd(f, lanes.add(g, (p - 1) * x)) >> lanes.w:
            return False
    return g == x


@lru_cache(maxsize=None)
def find_irreducible(p: int, n: int) -> tuple[int, ...]:
    """First monic irreducible of degree n over F_p, candidates ordered by the
    base-p packed value of their low coefficients.  Memoised per (p, n);
    `ExtensionField` still validates p and n on every construction."""
    for v in range(p ** n):
        coeffs = [v // p ** i % p for i in range(n)] + [1]
        if is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("unreachable: an irreducible of every degree exists")


@lru_cache(maxsize=None)
def find_primitive(p: int, n: int, modulus: tuple[int, ...]) -> int:
    """Least element index of order p^n - 1 modulo the irreducible `modulus`,
    memoised per (p, n, modulus).  `ExtensionField` validates p, n and the
    modulus on every construction, and its table build checks the result."""
    qm1, lanes = p ** n - 1, lane_layout(p, n + 1)
    mulmod = lanes.ring(sum(c << i * lanes.w for i, c in enumerate(modulus)))
    checks = [qm1 // f for f in prime_factors(qm1)]
    # for n > 1 the indices below p are the prime field, of order dividing p - 1
    for g in range(p if n > 1 else 1, qm1 + 1):
        if all(lanes.element(_poly_pow(mulmod, lanes.vector(g), e)) != 1 for e in checks):
            return g
    raise AssertionError("unreachable: the unit group of a finite field is cyclic")


class ExtensionField:
    """GF(p^n).  All operations take and return element indices (ints in
    [0, p^n)).  The modulus, primitive element and conversions are fixed at
    construction, and the echelon rows and their kernels are the layout's
    (see LaneLayout).

    A field with at most 2^16 elements builds exp/log tables keyed to its
    primitive element g once they pay for themselves: at its (q // n)-th
    mul/inv/pow, as an entry costs one lane step and a table-free product
    about n, after which those run in O(1); or at its first log_tables(),
    which a run of many products such as a search scan calls.  So a
    construction that needs a few dozen products never builds them.  Each
    power of g is the last times g (see _step_tables).  The tables never
    change a result, nor do the generators subfield_generator keeps, or
    orbit_skips (see search._a_rows) and row_tables (see search._profiles),
    which hold what exhaustive scans keep on this field."""

    __slots__ = ("p", "n", "q", "modulus", "primitive", "vector", "element", "add",
                 "insert", "reduce", "extend", "orbit_skips", "row_tables", "_mulmod", "_exp",
                 "_log", "_untabled", "_subfields")

    def __init__(self, p: int, n: int, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if p > MAX_PRIME:
            raise ValueError(f"p={p} exceeds the supported bound {MAX_PRIME}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if n >= MAX_FIELD_SIZE.bit_length() or p ** n > MAX_FIELD_SIZE:  # n first: p^n >= 2^n
            raise ValueError(f"p^n = {p}^{n} exceeds the supported bound {MAX_FIELD_SIZE}")
        q = p ** n
        self.p, self.n, self.q = p, n, q
        if modulus is None:
            modulus = find_irreducible(p, n)
        else:
            modulus = tuple(int(c) for c in modulus)
            if len(modulus) != n + 1:
                raise ValueError(f"modulus must have {n + 1} coefficients, got {len(modulus)}")
            if any(c < 0 or c >= p for c in modulus):
                raise ValueError("modulus coefficients must lie in [0, p)")
            if not is_irreducible(modulus, p):
                raise ValueError("modulus is not irreducible over F_p")
        self.modulus = modulus
        # polynomials and echelon rows are the n + 1 lanes of `lanes`, lane n
        # zero for elements
        lanes = lane_layout(p, n + 1)
        self._mulmod = lanes.ring(sum(c << i * lanes.w for i, c in enumerate(modulus)))
        self.vector, self.element, self.add, self.insert, self.reduce, self.extend = (
            lanes.vector, lanes.element, lanes.add, lanes.insert, lanes.reduce, lanes.extend)
        self.primitive = find_primitive(p, n, modulus)
        # mul/inv/pow left before the tables are built; 0 never counts down
        self._exp = self._log = None
        self._untabled = max(q // n, 1) if q <= _TABLE_LIMIT else 0
        self.orbit_skips, self.row_tables, self._subfields = {}, {}, {}

    def _build_tables(self) -> None:
        """The exp/log tables of the primitive element g: exp[k] = g^k and
        log[g^k] = k, each power the last times g (see _step_tables)."""
        q, add, element = self.q, self.add, self.element
        half, lo, hi = self._step_tables(self.primitive)
        exp = [0] * (q - 1)
        log = [-1] * q
        x = 1
        for k in range(q - 1):
            exp[k] = x
            log[x] = k
            x = element(add(lo[x % half], hi[x // half]))
        # g^(q-1) = 1 for every unit g; only a generator leaves no unit unlogged
        if x != 1 or log.count(-1) != 1:
            raise AssertionError("primitive element failed to cycle the unit group")
        self._exp, self._log = exp, log

    def _count_untabled(self) -> None:
        """Count one table-free mul/inv/pow; the last one builds the tables."""
        self._untabled -= 1
        if not self._untabled:
            self._build_tables()

    def log_tables(self) -> tuple[list[int], list[int]] | None:
        """(exp, log), built now if not yet, or None when q > 2^16."""
        if self._log is None:
            if self.q > _TABLE_LIMIT:
                return None
            self._build_tables()
        return self._exp, self._log

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str, modulus_csv: str | None = None) -> "ExtensionField":
        """Build from a "p^n" string, e.g. "2^6"; bare "p" means n = 1, and
        a modulus_csv lists coefficients low degree first, e.g. "1,1,0,0,1"."""
        p, n = parse_field_spec(spec)
        modulus = parse_ints(modulus_csv, "modulus") if modulus_csv is not None else None
        return cls(p, n, modulus)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExtensionField)
                and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.n}; {self.modulus_str()})"

    def modulus_str(self) -> str:
        return poly_str(self.modulus)

    def spec_str(self) -> str:
        return f"{self.p}^{self.n}"

    # -- raw arithmetic (table-free; used to bootstrap the tables) ------------

    def _mul_raw(self, a: int, b: int) -> int:
        return self.element(self._mulmod(self.vector(a), self.vector(b)))

    def _pow_raw(self, a: int, e: int) -> int:
        return self.element(_poly_pow(self._mulmod, self.vector(a), e))

    def _step_tables(self, g: int) -> tuple[int, list[int], list[int]]:
        """(half, lo, hi) for x -> g*x, an F_p-linear map: lo[v] and hi[v]
        are the packed polynomials g*v and g*(v*half), half = p^(n//2), so
        g*x is element(add(lo[x % half], hi[x // half])).  By linearity each
        table grows one base-p digit of v at a time, digit j = c adding c
        times the image g*x^j, so the n images are the only raw products."""
        p, h, add = self.p, self.n // 2, self.add
        tabs = [[0], [0]]   # lo takes digits j < h of x, hi the digits above
        for j in range(self.n):
            row = self.vector(self._mul_raw(g, p ** j))
            tabs[j >= h] = [add(t, c * row) for c in range(p) for t in tabs[j >= h]]
        return p ** h, tabs[0], tabs[1]

    # -- element coordinates ---------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Power-basis coordinates (c_0, ..., c_{n-1}) of an element index."""
        p = self.p
        out = []
        for _ in range(self.n):
            a, c = divmod(a, p)
            out.append(c)
        return tuple(out)

    def from_coeffs(self, coeffs) -> int:
        cs = list(coeffs)
        if len(cs) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(cs)}")
        if any(c < 0 or c >= self.p for c in cs):
            raise ValueError(f"coordinates must lie in [0, {self.p})")
        return sum(c * self.p ** i for i, c in enumerate(cs))

    # -- field operations -------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        log = self._log
        if log is not None:
            if a == 0 or b == 0:
                return 0
            k = log[a] + log[b]
            qm1 = self.q - 1
            if k >= qm1:
                k -= qm1
            return self._exp[k]
        if self._untabled:
            self._count_untabled()
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self.pow(a, -1)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero in a finite field")
            return 0
        log = self._log
        if log is not None:
            return self._exp[log[a] * e % (self.q - 1)]
        if self._untabled:
            self._count_untabled()
        return self._pow_raw(a, e % (self.q - 1))

    def subfield_generator(self, d: int) -> int:
        """Generator g^((q-1)/(p^d-1)) of the subfield of order p^d (d | n),
        computed from `primitive` once per valid d and kept on the field."""
        if d not in self._subfields:
            if d < 1 or self.n % d != 0:
                raise ValueError(f"d={d} does not divide the extension degree n={self.n}")
            self._subfields[d] = self.pow(self.primitive, (self.q - 1) // (self.p ** d - 1))
        return self._subfields[d]


def parse_field_spec(spec: str) -> tuple[int, int]:
    """Parse "p^n" (or bare "p") into (p, n)."""
    left, hat, right = spec.strip().partition("^")
    try:
        return int(left), int(right) if hat else 1
    except ValueError:
        raise ValueError(f"bad field spec {spec!r}: expected p^n or p, "
                         f"with integers p and n") from None


def parse_ints(csv: str, what: str) -> tuple[int, ...]:
    """Comma-separated ints; a bad entry is named, with the `what` it was in."""
    out = []
    for tok in csv.split(","):
        try:
            out.append(int(tok))
        except ValueError:
            raise ValueError(f"bad {what} {csv!r}: {tok!r} is not an integer") from None
    return tuple(out)


def poly_str(coeffs) -> str:
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            xs = "x" if i == 1 else f"x^{i}"
            terms.append(xs if c == 1 else f"{c}{xs}")
    return "+".join(terms) if terms else "0"

"""Exact arithmetic in GF(p^n) over a fixed monic irreducible modulus.

Elements are plain ints in [0, p^n): the base-p packing of the coefficient
vector (c_0, ..., c_{n-1}) in the power basis 1, x, ..., x^{n-1}.  Table-free
arithmetic, the irreducibility test included, runs on polynomials packed into
one int: for p = 2 the coefficient bitmask, which is the index itself, with
carry-less products; for odd p the lane form of `LaneLayout`, c_j in the j-th
w-bit lane, with n + 1 lanes so that the modulus fits.  Fields with at most
2^16 elements get discrete log/antilog tables keyed to the primitive element
g, which make mul/inv/pow O(1) on the hot search paths; for n > 1 each power
of g is the last times g, an F_p-linear map that costs two table lookups and,
for odd p, one Barrett reduction and one gather.  For odd p, n > 1 and
q <= 2^16 the table `_coeff_cache` lists the n-lane form of every index.
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
    """Sorted distinct prime factors; trial division then Pollard rho."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    factors: set[int] = set()
    for sp in (2, 3, 5):
        while m % sp == 0:
            factors.add(sp)
            m //= sp
    d = 7
    while d * d <= m and d < 10_000:
        while m % d == 0:
            factors.add(d)
            m //= d
        d += 2
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
# Carry-less helpers for p = 2 (elements as bitmasks, bit i = coeff of x^i).
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


# ----------------------------------------------------------------------------
# Lane form for odd p: coordinate c_j of an element in bits [j*w, (j+1)*w).
# ----------------------------------------------------------------------------

class LaneLayout(NamedTuple):
    """The w-bit lane layout of GF(p^n) for odd p, shared by the echelon
    kernel in linalg and, with n + 1 lanes, by the packed polynomials below.

    A lane may grow to p*(p-1) = (p-1) + (p-1)^2, the largest lane of
    v + c*row for residue lanes and c < p, before `red` brings every lane
    back into [0, p) with one Barrett step: x*m >> k is x // p for each lane
    value x <= p*(p-1), since m = 2^k // p + 1 with 2^k > p*p*(p-1), and w
    leaves room for x*m, so no lane spills into the next; `quotients` keeps
    the w - k quotient bits of every lane.  `element` multiplies by
    gather = sum p^(n-1-j) 2^(jw), which gathers the index sum c_j p^j into
    lane n-1; `vector` spreads an index into lanes one base-p digit at a
    time."""

    p: int
    n: int
    w: int
    shifts: tuple[int, ...]
    mask: int
    m: int
    k: int
    quotients: int
    gather: int
    red: Callable[[int], int]
    element: Callable[[int], int]
    vector: Callable[[int], int]

    # one layout per (p, n), so hashing by identity keeps cache keys cheap
    __hash__ = object.__hash__


@lru_cache(maxsize=None)
def lane_layout(p: int, n: int) -> LaneLayout:
    """The lane layout of GF(p^n), built once per (p, n)."""
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

    def vector(e: int) -> int:
        v = 0
        for s in shifts:
            e, c = divmod(e, p)
            v |= c << s
        return v

    return LaneLayout(p, n, w, shifts, mask, m, k, quotients, gather, red, element, vector)


# ----------------------------------------------------------------------------
# Polynomials over F_p as one packed int, the coefficient of x^j in bits
# [j*w, (j+1)*w): the bitmask (w = 1) for p = 2, and for odd p the lane form
# of `lane_layout(p, n + 1)`, so that a modulus of degree n fits.
# ----------------------------------------------------------------------------

def _poly_ring(p: int, modulus) -> tuple:
    """(f, w, sub, mulmod, gcd): f is the packed monic `modulus` of degree n,
    w the width of a coefficient, sub(a, b) = a - b, mulmod(a, b) = a*b mod f
    by Horner over b's coefficients, and gcd(a, b) a gcd by Euclid, each step
    clearing a's leading lane with a monic b as the echelon kernel does, so
    no odd-p lane passes p*(p-1) before its `red`."""
    n = len(modulus) - 1
    w = 1 if p == 2 else lane_layout(p, n + 1).w
    f = sum(c << i * w for i, c in enumerate(modulus))
    if p == 2:
        def gcd(a: int, b: int) -> int:
            while b:
                db = b.bit_length()
                while a.bit_length() >= db:
                    a ^= b << a.bit_length() - db
                a, b = b, a
            return a

        return f, 1, int.__xor__, lambda a, b: _gf2_reduce(_clmul(a, b), f, n), gcd
    lanes = lane_layout(p, n + 1)
    mask, red, top = lanes.mask, lanes.red, n * w

    def mulmod(a: int, b: int) -> int:
        acc = 0
        for s in range((b.bit_length() - 1) // w * w, -1, -w):
            acc <<= w
            t = acc >> top
            if t:                      # minus t*f: lane n becomes p, `red` clears it
                acc = red(acc + (p - t) * f)
            c = b >> s & mask
            if c:
                acc = red(acc + c * a)
        return acc

    def gcd(a: int, b: int) -> int:
        while b:
            db = (b.bit_length() - 1) // w * w
            b = red(b * pow(b >> db & mask, -1, p))
            while a.bit_length() > db:
                da = (a.bit_length() - 1) // w * w
                a = red(a + (p - (a >> da & mask)) * (b << da - db))
            a, b = b, a
        return a

    return f, w, lambda a, b: red(a + (p - 1) * b), mulmod, gcd


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
    f, w, sub, mulmod, gcd = _poly_ring(p, coeffs)
    x = g = 1 << w
    for k in range(n):
        g = _poly_pow(mulmod, g, p)
        if k < n // 2 and gcd(f, sub(g, x)) >> w:
            return False
    return g == x


def find_irreducible(p: int, n: int) -> tuple[int, ...]:
    """First monic irreducible of degree n over F_p, candidates ordered by the
    base-p packed value of their low coefficients.  Deterministic."""
    for v in range(p ** n):
        coeffs = [v // p ** i % p for i in range(n)] + [1]
        if is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("unreachable: an irreducible of every degree exists")


class ExtensionField:
    """GF(p^n): immutable after construction.

    All operations take and return element indices (ints in [0, p^n)).
    """

    __slots__ = ("p", "n", "q", "modulus", "primitive", "lanes", "to_lanes",
                 "_mulmod", "_pack", "_unpack", "_exp", "_log", "_coeff_cache")

    def __init__(self, p: int, n: int, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if p > MAX_PRIME:
            raise ValueError(f"p={p} exceeds the supported bound {MAX_PRIME}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if n >= MAX_FIELD_SIZE.bit_length():   # p^n >= 2^n; refuse before the power
            raise ValueError(f"p^n = {p}^{n} exceeds the supported bound {MAX_FIELD_SIZE}")
        q = p ** n
        if q > MAX_FIELD_SIZE:
            raise ValueError(f"p^n = {p}^{n} exceeds the supported bound {MAX_FIELD_SIZE}")
        self.p = p
        self.n = n
        self.q = q
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
        self._mulmod = _poly_ring(p, modulus)[3]
        # p = 2 polynomials are their indices; odd-p ones are n + 1 lanes wide
        poly = lane_layout(p, n + 1) if p != 2 else None
        self._pack, self._unpack = (poly.vector, poly.element) if poly else (int, int)
        self._coeff_cache: list[int] | None = None
        self.lanes: LaneLayout | None = None
        self.to_lanes: Callable[[int], int] | None = None
        if p != 2:
            self.lanes = lane_layout(p, n)
            self.to_lanes = self.lanes.vector
            if n > 1 and q <= _TABLE_LIMIT:
                # index i*p + c holds c in lane 0 and i's lanes one lane up,
                # and index i*p^h + j holds j's lanes and i's lanes h lanes up
                h, tab = n // 2, [0]
                for _ in range(n - h):
                    tab = [c | x << self.lanes.w for x in tab for c in range(p)]
                low = tab[:p ** h]
                tab = [x | y for x in [x << h * self.lanes.w for x in tab] for y in low]
                self._coeff_cache = tab
                self.to_lanes = tab.__getitem__
        self.primitive = g = self._find_primitive()
        self._exp = self._log = None
        if q > _TABLE_LIMIT:
            return
        exp = self._exp = [0] * (q - 1)
        log = self._log = [-1] * q
        x = 1
        if n == 1:
            for k in range(q - 1):
                exp[k] = x
                log[x] = k
                x = x * g % p
        elif p == 2:
            half, lo, hi = self._step_tables(g)
            for k in range(q - 1):
                exp[k] = x
                log[x] = k
                x = lo[x % half] ^ hi[x // half]
        else:
            # x -> g*x with the `red` and `element` of `poly` written out
            half, lo, hi = self._step_tables(g)
            m, kb, quotients, gather, at, mask = (poly.m, poly.k, poly.quotients,
                                                  poly.gather, n * poly.w, poly.mask)
            for k in range(q - 1):
                exp[k] = x
                log[x] = k
                x = lo[x % half] + hi[x // half]
                x = (x - p * (x * m >> kb & quotients)) * gather >> at & mask
        if x != 1:
            raise AssertionError("primitive element failed to cycle the unit group")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str, modulus_csv: str | None = None) -> "ExtensionField":
        """Build from a "p^n" string, e.g. "2^6"; bare "p" means n = 1."""
        p, n = parse_field_spec(spec)
        modulus = parse_modulus(modulus_csv) if modulus_csv else None
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
        return self._unpack(self._mulmod(self._pack(a), self._pack(b)))

    def _pow_raw(self, a: int, e: int) -> int:
        return self._unpack(_poly_pow(self._mulmod, self._pack(a), e))

    def _step_tables(self, g: int) -> tuple[int, list[int], list[int]]:
        """(half, lo, hi) for x -> g*x, an F_p-linear map: lo[v] and hi[v]
        are the packed polynomials g*v and g*(v*half), half = p^(n//2), so
        g*x is lo[x % half] ^ hi[x // half] for p = 2, and for odd p the
        index of `red`(lo[x % half] + hi[x // half])."""
        half, mulmod, pack = self.p ** (self.n // 2), self._mulmod, self._pack
        g, gh = pack(g), pack(self._mul_raw(g, half))
        return (half, [mulmod(g, pack(v)) for v in range(half)],
                [mulmod(gh, pack(v)) for v in range(self.q // half)])

    def _find_primitive(self) -> int:
        qm1 = self.q - 1
        checks = [qm1 // f for f in prime_factors(qm1)] if qm1 > 1 else []
        # for n > 1 the indices below p are the prime field, of order dividing p - 1
        for g in range(self.p if self.n > 1 else 1, self.q):
            if all(self._pow_raw(g, e) != 1 for e in checks):
                return g
        raise AssertionError("unreachable: the unit group of a finite field is cyclic")

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
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        log = self._log
        if log is not None:
            qm1 = self.q - 1
            return self._exp[(qm1 - log[a]) % qm1]
        return self._pow_raw(a, self.q - 2)

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
        if e < 0:
            return self._pow_raw(self.inv(a), -e)
        return self._pow_raw(a, e)

    def subfield_generator(self, d: int) -> int:
        """Generator of the unique subfield of order p^d (requires d | n)."""
        if d < 1 or self.n % d != 0:
            raise ValueError(f"d={d} does not divide the extension degree n={self.n}")
        return self.pow(self.primitive, (self.q - 1) // (self.p ** d - 1))


def parse_field_spec(spec: str) -> tuple[int, int]:
    """Parse "p^n" (or bare "p") into (p, n)."""
    text = spec.strip()
    if "^" in text:
        left, _, right = text.partition("^")
        p, n = int(left), int(right)
    else:
        p, n = int(text), 1
    return p, n


def parse_modulus(csv: str) -> tuple[int, ...]:
    """Comma-separated coefficients, low degree first, e.g. "1,1,0,0,1"."""
    try:
        return tuple(int(tok) for tok in csv.split(","))
    except ValueError as exc:
        raise ValueError(f"bad modulus {csv!r}: {exc}") from None


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

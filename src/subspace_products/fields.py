"""Exact arithmetic in GF(p^n) over a fixed monic irreducible modulus.

Elements are plain ints in [0, p^n): the base-p packing of the coefficient
vector (c_0, ..., c_{n-1}) in the power basis 1, x, ..., x^{n-1}.  For p = 2
the packed index is literally the coefficient bitmask and multiplication is
carry-less; fields with at most 2^16 elements additionally get discrete
log/antilog tables keyed to the primitive element, which makes mul/inv/pow
O(1) on the hot search paths.  For odd p an element's coordinates also have a
lane form, one int with c_j in the j-th w-bit lane (`LaneLayout`); for n > 1
and q <= 2^16 the coordinate table `_coeff_cache` lists the lane form of every
index, built one base-p digit at a time, and each power of the primitive
element g is built from the last by multiplication by g as an F_p-linear map
on lanes (`_times`); for p = 2 and n = 1 it is one table-free product.
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
    rng = random.Random(0xFAC70)
    stack = [m] if m > 1 else []
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
# Dense polynomials over F_p: coefficient lists, low degree first.
# ----------------------------------------------------------------------------

def _poly_mul_mod(a: list[int], b: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    n = len(modulus) - 1
    res = [0] * max(len(a) + len(b) - 1, 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    res[i + j] = (res[i + j] + ai * bj) % p
    for i in range(len(res) - 1, n - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(n):
                if modulus[j]:
                    res[i - n + j] = (res[i - n + j] - c * modulus[j]) % p
    res = res[:n]
    res += [0] * (n - len(res))
    return res


def _poly_pow_mod(g: list[int], e: int, modulus: tuple[int, ...], p: int) -> list[int]:
    n = len(modulus) - 1
    result = [1] + [0] * (n - 1)
    base = list(g)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, modulus, p)
        e >>= 1
        if e:
            base = _poly_mul_mod(base, base, modulus, p)
    return result


def _poly_deg(a: list[int]) -> int:
    d = len(a) - 1
    while d >= 0 and a[d] == 0:
        d -= 1
    return d


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while True:
        db = _poly_deg(b)
        if db < 0:
            return a
        da = _poly_deg(a)
        if da < db:
            a, b = b, a
            continue
        inv = pow(b[db], -1, p)
        while da >= db:
            c = a[da] * inv % p
            if c:
                for j in range(db + 1):
                    a[da - db + j] = (a[da - db + j] - c * b[j]) % p
            da = _poly_deg(a)
        a, b = b, a


def is_irreducible(coeffs: tuple[int, ...] | list[int], p: int) -> bool:
    """Irreducibility of a monic polynomial over F_p.

    Uses the Frobenius chain: no factor of degree <= deg/2, and x^(p^deg) = x.
    """
    n = len(coeffs) - 1
    if n < 1 or coeffs[n] != 1:
        raise ValueError("polynomial must be monic of degree >= 1")
    if n == 1:
        return True
    modulus = tuple(coeffs)
    x = [0, 1] + [0] * (n - 2)
    g = list(x)
    for _ in range(n // 2):
        g = _poly_pow_mod(g, p, modulus, p)
        diff = [(gi - xi) % p for gi, xi in zip(g, x)]
        if _poly_deg(_poly_gcd(list(modulus), diff, p)) != 0:
            return False
    for _ in range(n // 2, n):
        g = _poly_pow_mod(g, p, modulus, p)
    return g == x


def find_irreducible(p: int, n: int) -> tuple[int, ...]:
    """First monic irreducible of degree n over F_p, candidates ordered by the
    base-p packed value of their low coefficients.  Deterministic."""
    for v in range(p ** n):
        coeffs = []
        w = v
        for _ in range(n):
            w, c = divmod(w, p)
            coeffs.append(c)
        coeffs.append(1)
        if is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("unreachable: an irreducible of every degree exists")


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
    """The w-bit lane layout of GF(p^n) for odd p, shared by `_times` and the
    echelon kernel in linalg.

    A lane may grow to p*(p-1) = (p-1) + (p-1)^2, the largest lane of
    v + c*row for residue lanes and c < p, before `red` brings every lane
    back into [0, p) with one Barrett step: x*m >> k is x // p for each lane value x <= p*(p-1), since
    m = 2^k // p + 1 with 2^k > p*p*(p-1), and w leaves room for x*m, so no
    lane spills into the next.  `element` multiplies by sum p^(n-1-j) 2^(jw),
    which gathers the index sum c_j p^j into lane n-1; `vector` spreads an
    index into lanes one base-p digit at a time."""

    p: int
    n: int
    w: int
    shifts: tuple[int, ...]
    mask: int
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

    return LaneLayout(p, n, w, shifts, mask, red, element, vector)


class ExtensionField:
    """GF(p^n): immutable after construction.

    All operations take and return element indices (ints in [0, p^n)).
    """

    __slots__ = ("p", "n", "q", "modulus", "primitive", "lanes", "to_lanes",
                 "_mod_mask", "_exp", "_log", "_coeff_cache", "_ppows")

    def __init__(self, p: int, n: int, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if p > MAX_PRIME:
            raise ValueError(f"p={p} exceeds the supported bound {MAX_PRIME}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        q = p ** n
        if q > MAX_FIELD_SIZE:
            raise ValueError(f"p^n = {q} exceeds the supported bound {MAX_FIELD_SIZE}")
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
        self._mod_mask = sum(1 << i for i, c in enumerate(modulus) if c) if p == 2 else 0
        self._ppows = tuple(p ** i for i in range(n))
        self._coeff_cache: list[int] | None = None
        self.lanes: LaneLayout | None = None
        self.to_lanes: Callable[[int], int] | None = None
        if p != 2:
            self.lanes = lane_layout(p, n)
            self.to_lanes = self.lanes.vector
            if n > 1 and q <= _TABLE_LIMIT:
                # index i*p + c holds c in lane 0 and index i's lanes one lane up
                tab = [0]
                for _ in range(n):
                    tab = [c | x << self.lanes.w for x in tab for c in range(p)]
                self._coeff_cache = tab
                self.to_lanes = tab.__getitem__
        self.primitive = self._find_primitive()
        if q <= _TABLE_LIMIT:
            step = (self._times(self.primitive) if self._coeff_cache is not None
                    else lambda x: self._mul_raw(x, self.primitive))
            exp = [0] * (q - 1)
            log = [-1] * q
            g = 1
            for k in range(q - 1):
                exp[k] = g
                log[g] = k
                g = step(g)
            if g != 1:
                raise AssertionError("primitive element failed to cycle the unit group")
            self._exp: list[int] | None = exp
            self._log: list[int] | None = log
        else:
            self._exp = None
            self._log = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str, modulus_csv: str | None = None) -> "ExtensionField":
        """Build from a "p^n" string, e.g. "2^6"; bare "p" means n = 1."""
        p, n = parse_field_spec(spec)
        modulus = parse_modulus(modulus_csv) if modulus_csv else None
        return cls(p, n, modulus)

    def __reduce__(self):
        return (ExtensionField, (self.p, self.n, self.modulus))

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
        if self.n == 1:
            return a * b % self.p
        if self.p == 2:
            return _gf2_reduce(_clmul(a, b), self._mod_mask, self.n)
        return self.from_coeffs_unchecked(
            _poly_mul_mod(list(self.coeffs(a)), list(self.coeffs(b)), self.modulus, self.p))

    def _times(self, g: int):
        """x -> g*x for odd p, an F_p-linear map on lane forms: lo[v] holds
        the lanes of g*v and hi[v] those of g*(v*half), half = p^(n//2), so
        g*x is two lookups, one sum, one `red` and one gather."""
        half, to_lanes, mul_raw = self.p ** (self.n // 2), self.to_lanes, self._mul_raw
        lo = [to_lanes(mul_raw(g, v)) for v in range(half)]
        hi = [to_lanes(mul_raw(g, v * half)) for v in range(self.q // half)]
        red, element = self.lanes.red, self.lanes.element

        def times(x: int) -> int:
            high, low = divmod(x, half)
            return element(red(lo[low] + hi[high]))

        return times

    def _pow_raw(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e:
            if e & 1:
                result = self._mul_raw(result, base)
            e >>= 1
            if e:
                base = self._mul_raw(base, base)
        return result

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
        if self._coeff_cache is not None:
            v, mask = self._coeff_cache[a], self.lanes.mask
            return tuple(v >> s & mask for s in self.lanes.shifts)
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
        return self.from_coeffs_unchecked(cs)

    def from_coeffs_unchecked(self, coeffs) -> int:
        acc = 0
        for c, w in zip(coeffs, self._ppows):
            if c:
                acc += c * w
        return acc

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

"""Canonical subspaces of GF(p^n) as F_p-row spaces in reduced row echelon form.

Basis rows are stored as element indices of the ambient field, so a row is
simultaneously a field element and its coordinate vector.  Over F_2 a row is
a machine-word bitmask and elimination is XOR; over odd p rows are unpacked
to residue vectors and eliminated with modular inverses.  Both paths produce
the same canonical RREF, so two subspaces are equal as sets iff their row
tuples are identical.
"""

from __future__ import annotations

from bisect import insort

from .fields import ExtensionField


# ----------------------------------------------------------------------------
# F_2 kernel: rows are ints, pivot = lowest set bit.
# ----------------------------------------------------------------------------

def _ech_insert_bits(basis: list[int], v: int) -> int:
    """Reduce v against an ascending-pivot echelon basis; insert the remainder
    if nonzero.  Returns 1 if the dimension grew, else 0."""
    for r in basis:
        if v & (r & -r):
            v ^= r
    if not v:
        return 0
    insort(basis, v, key=lambda row: row & -row)
    return 1


def _rref_bits(vectors) -> tuple[int, ...]:
    basis: list[int] = []
    for v in vectors:
        _ech_insert_bits(basis, v)
    for i in range(len(basis) - 1, 0, -1):
        piv = basis[i] & -basis[i]
        for j in range(i):
            if basis[j] & piv:
                basis[j] ^= basis[i]
    return tuple(basis)


def _reduce_bits(rows, v: int) -> int:
    for r in rows:
        if v & (r & -r):
            v ^= r
    return v


# ----------------------------------------------------------------------------
# F_p kernel: rows are lists of residues; pivot entries normalized to 1.
# ----------------------------------------------------------------------------

def _ech_insert_modp(basis: list[list[int]], pivots: list[int], v: list[int], p: int) -> int:
    for row, piv in zip(basis, pivots):
        c = v[piv]
        if c:
            v = [(x - c * y) % p for x, y in zip(v, row)]
    piv = next((j for j, c in enumerate(v) if c), -1)
    if piv < 0:
        return 0
    inv = pow(v[piv], -1, p)
    v = [x * inv % p for x in v]
    at = next((k for k, q in enumerate(pivots) if q > piv), len(pivots))
    basis.insert(at, v)
    pivots.insert(at, piv)
    return 1


def _rref_modp(vectors, p: int) -> list[list[int]]:
    basis: list[list[int]] = []
    pivots: list[int] = []
    for v in vectors:
        _ech_insert_modp(basis, pivots, list(v), p)
    for i in range(len(basis) - 1, 0, -1):
        piv = pivots[i]
        for j in range(i):
            c = basis[j][piv]
            if c:
                basis[j] = [(x - c * y) % p for x, y in zip(basis[j], basis[i])]
    return basis


def _reduce_modp(rows_coeffs, pivots, v: list[int], p: int) -> list[int]:
    for row, piv in zip(rows_coeffs, pivots):
        c = v[piv]
        if c:
            v = [(x - c * y) % p for x, y in zip(v, row)]
    return v


class Subspace:
    """An F_p-subspace of GF(p^n) held by its canonical RREF basis.

    Immutable value type: construction goes through span(); rows are element
    indices sorted by ascending pivot column.
    """

    __slots__ = ("field", "rows", "_pivots")

    def __init__(self, field: ExtensionField, rows: tuple[int, ...], pivots: tuple[int, ...]):
        self.field = field
        self.rows = rows
        self._pivots = pivots

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def basis_coeffs(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.field.coeffs(r) for r in self.rows)

    def reduce(self, elem: int) -> int:
        """Remainder of an element after reduction against the basis."""
        f = self.field
        if f.p == 2:
            return _reduce_bits(self.rows, elem)
        v = _reduce_modp([list(f.coeffs(r)) for r in self.rows], self._pivots,
                         list(f.coeffs(elem)), f.p)
        return f.from_coeffs_unchecked(v)

    def contains(self, elem: int) -> bool:
        return self.reduce(elem) == 0

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains(r) for r in other.rows)

    def sum_with(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return span(self.field, self.rows + other.rows)

    def to_text(self) -> str:
        return "\n".join(",".join(str(c) for c in row) for row in self.basis_coeffs())

    @classmethod
    def from_text(cls, field: ExtensionField, text: str) -> "Subspace":
        elems = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            elems.append(field.from_coeffs(int(tok) for tok in line.split(",")))
        return span(field, elems)

    def _check_ambient(self, other: "Subspace") -> None:
        if self.field != other.field:
            raise ValueError("subspaces live in different ambient fields")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.field == other.field and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.field, self.rows))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim} of {self.field!r})"


def _pivots_of(field: ExtensionField, rows) -> tuple[int, ...]:
    if field.p == 2:
        return tuple((r & -r).bit_length() - 1 for r in rows)
    out = []
    for r in rows:
        cs = field.coeffs(r)
        out.append(next(j for j, c in enumerate(cs) if c))
    return tuple(out)


def span(field: ExtensionField, elements) -> Subspace:
    """Canonical RREF span of arbitrary field elements (possibly dependent)."""
    if field.p == 2:
        rows = _rref_bits(elements)
    else:
        reduced = _rref_modp([list(field.coeffs(e)) for e in elements], field.p)
        rows = tuple(field.from_coeffs_unchecked(v) for v in reduced)
    return Subspace(field, rows, _pivots_of(field, rows))


def whole_space(field: ExtensionField) -> Subspace:
    return span(field, [field.p ** i for i in range(field.n)])


def one_subspace(field: ExtensionField) -> Subspace:
    return span(field, [1])

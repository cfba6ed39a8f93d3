"""Canonical subspaces of GF(p^n) as F_p-row spaces in reduced row echelon form.

Basis rows are stored as element indices of the ambient field, so a row is
simultaneously a field element and its coordinate vector.  Elimination keeps
an echelon basis as a dict from pivot (first nonzero coordinate, scaled to 1)
to row.  Over F_2 a row is held as the element's bitmask, keyed by its lowest
set bit; over odd p as its residue vector, keyed by column.  The canonical
RREF is finished from either the same way, so two subspaces are equal as sets
iff their row tuples are identical.
"""

from __future__ import annotations

from functools import lru_cache

from .fields import ExtensionField


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


def _reduce_bits(basis: dict[int, int], v: int) -> int:
    for low, row in basis.items():
        if v & low:
            v ^= row
    return v


@lru_cache(maxsize=None)
def _modp_kernel(p: int):
    def insert(basis: dict, v) -> int:
        for j in range(len(v)):
            c = v[j]
            if c:
                row = basis.get(j)
                if row is None:
                    inv = pow(c, -1, p)
                    basis[j] = [x * inv % p for x in v]
                    return 1
                v = [(x - c * y) % p for x, y in zip(v, row)]
        return 0

    def reduce(basis: dict, v):
        for j, row in basis.items():
            c = v[j]
            if c:
                v = [(x - c * y) % p for x, y in zip(v, row)]
        return v

    return insert, reduce


def echelon_ops(field: ExtensionField) -> tuple:
    """(vector, element, insert, reduce) for the field's characteristic.

    vector(e) is the form in which a basis holds the element e, and element(v)
    turns it back.  insert(basis, v) stores v's remainder under its pivot and
    returns 1, or returns 0 when v lies in the span.  reduce(basis, v)
    subtracts each row at its pivot, which fully reduces v against a fully
    reduced basis in any row order."""
    if field.p == 2:
        return _same, _same, _insert_bits, _reduce_bits
    return (field.coeffs, field.from_coeffs_unchecked) + _modp_kernel(field.p)


class Subspace:
    """An F_p-subspace of GF(p^n) held by its canonical RREF basis.

    Immutable value type: construction goes through span(); rows are element
    indices sorted by ascending pivot column.  The pivot-indexed basis that
    reduce() works on is built on first use.
    """

    __slots__ = ("field", "rows", "_basis")

    def __init__(self, field: ExtensionField, rows: tuple[int, ...]):
        self.field = field
        self.rows = rows
        self._basis = None

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def basis_coeffs(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.field.coeffs(r) for r in self.rows)

    def reduce(self, elem: int) -> int:
        """Remainder of an element after reduction against the basis."""
        vector, element, insert, reduce = echelon_ops(self.field)
        basis = self._basis
        if basis is None:
            basis = self._basis = {}
            for r in self.rows:
                insert(basis, vector(r))
        return element(reduce(basis, vector(elem)))

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


def span(field: ExtensionField, elements) -> Subspace:
    """Canonical RREF span of arbitrary field elements (possibly dependent).

    The echelon basis is finished into RREF by reducing each row against the
    rows already finished, in descending pivot order; the rows are then
    emitted by ascending pivot."""
    vector, element, insert, reduce = echelon_ops(field)
    basis: dict = {}
    for e in elements:
        insert(basis, vector(e))
    done: dict = {}
    for piv in sorted(basis, reverse=True):
        done[piv] = reduce(done, basis[piv])
    return Subspace(field, tuple(element(done[piv]) for piv in sorted(done)))


def whole_space(field: ExtensionField) -> Subspace:
    return span(field, [field.p ** i for i in range(field.n)])


def one_subspace(field: ExtensionField) -> Subspace:
    return span(field, [1])

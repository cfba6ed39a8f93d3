"""Canonical subspaces of GF(p^n) as F_p-row spaces in reduced row echelon form.

Basis rows are stored as element indices of the ambient field, so a row is
simultaneously a field element and its coordinate vector.  Elimination runs
on the field's echelon bases and row kernels (see fields.LaneLayout), and
the canonical RREF is finished from them (see rref), so two subspaces are
equal as sets iff their row tuples are identical.
"""

from __future__ import annotations

from .fields import ExtensionField, parse_ints


class Subspace:
    """An F_p-subspace of GF(p^n) held by its canonical RREF basis.

    Immutable value type: span() builds one from any elements, and rref,
    mu_exact, enumerate_subspaces and optimal_pair build one directly from
    canonical RREF rows, element indices sorted by ascending pivot column.
    The pivot-indexed basis that reduce() works on is built on first use.
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

    def reduce(self, elem: int) -> int:
        """Remainder of an element index in [0, q) after reduction against the
        basis; 0 with no elimination when the subspace is the whole field."""
        field, basis = self.field, self._basis
        if len(self.rows) == field.n:
            return 0
        vector = field.vector
        if basis is None:
            basis = self._basis = {}
            for r in self.rows:
                field.insert(basis, vector(r))
        return field.element(field.reduce(basis, vector(elem)))

    def contains(self, elem: int) -> bool:
        return self.reduce(elem) == 0

    def to_text(self) -> str:
        coeffs = self.field.coeffs
        return "\n".join(",".join(str(c) for c in coeffs(r)) for r in self.rows)

    @classmethod
    def from_text(cls, field: ExtensionField, text: str) -> "Subspace":
        elems = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            coeffs = parse_ints(line, "subspace row")
            try:
                elems.append(field.from_coeffs(coeffs))
            except ValueError as exc:
                raise ValueError(f"bad subspace row {line!r}: {exc}") from None
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
    """Canonical RREF span of arbitrary field elements (possibly dependent);
    drawing from the iterable stops once the basis has rank n, the whole field."""
    vector, insert, n = field.vector, field.insert, field.n
    basis: dict = {}
    for e in elements:
        if insert(basis, vector(e)) and len(basis) == n:
            break
    return rref(field, basis)


def rref(field: ExtensionField, basis: dict) -> Subspace:
    """The subspace of `basis`, a pivot-indexed echelon basis built with the
    field's `insert`, in canonical RREF: each row is reduced against the rows
    already finished, in descending pivot order, and the rows are emitted by
    ascending pivot, the reverse of that order."""
    reduce = field.reduce
    done: dict = {}
    for piv in sorted(basis, reverse=True):
        done[piv] = reduce(done, basis[piv])
    return Subspace(field, tuple(map(field.element, reversed(done.values()))))

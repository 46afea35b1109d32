"""Linear codes over F_q as row spaces.

A LinearCode is canonicalized at construction to the reduced row echelon
form of its generator matrix, so two codes are equal exactly when their
rref rows are identical.  Reed-Solomon codes, duals, star products and
coordinate permutations are built on top of that canonical form.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property, reduce

from .gf import Field, FieldElement
from .poly import EvaluationSet, _indices

Row = tuple[FieldElement, ...]


def rref(field: Field, rows: Iterable[Sequence[FieldElement]]) -> tuple[Row, ...]:
    """Reduced row echelon form over F_q; zero rows are dropped.

    The entries are checked to be elements of the field, the elimination
    runs on their indices (_reduced), and the rows come back as interned
    elements.
    """
    rows = [_indices(field, r, "entry") for r in rows]
    els = field.ops.elements
    return tuple(tuple(els[x] for x in r) for r in _reduced(field, rows))


def _reduced(field: Field, rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The rref of rows of element indices, with the field's index
    operations; zero rows are dropped and the input is not modified."""
    work = list(rows)
    if not work:
        return ()
    n = len(work[0])
    for r in work:
        if len(r) != n:
            raise ValueError("ragged generator matrix")
    ops = field.ops
    sub, scale = ops.sub, ops.scale
    pivot_row = 0
    for col in range(n):
        pivot = None
        for r in range(pivot_row, len(work)):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
        top = work[pivot_row] = scale(ops.inv(work[pivot_row][col]), work[pivot_row])
        for r, row in enumerate(work):
            if r != pivot_row and row[col]:
                work[r] = list(map(sub, row, scale(row[col], top)))
        pivot_row += 1
        if pivot_row == len(work):
            break
    return tuple(tuple(r) for r in work[:pivot_row] if any(r))


class LinearCode:
    """A k-dimensional subspace of F_q^n, stored as its rref basis on
    element indices (index_rows)."""

    def __init__(
        self,
        field: Field,
        rows: Iterable[Sequence[FieldElement]],
        n: int | None = None,
    ):
        rows = [_indices(field, r, "entry") for r in rows]
        self._canonical(field, _reduced(field, rows), n)

    @classmethod
    def _from_indices(
        cls, field: Field, rows: Sequence[Sequence[int]], n: int
    ) -> "LinearCode":
        """Internal constructor from rows of indices of the field's elements,
        which are not checked."""
        code = object.__new__(cls)
        code._canonical(field, _reduced(field, rows), n)
        return code

    def _canonical(
        self, field: Field, canon: tuple[tuple[int, ...], ...], n: int | None
    ) -> None:
        if canon:
            length = len(canon[0])
            if n is not None and n != length:
                raise ValueError(f"declared length {n} but rows have length {length}")
            n = length
        elif n is None:
            raise ValueError("zero code needs an explicit length")
        self.field = field
        self.n = n
        self.k = len(canon)
        self.index_rows = canon

    @cached_property
    def rref(self) -> tuple[Row, ...]:
        """The rref basis as rows of interned elements."""
        els = self.field.ops.elements
        return tuple(tuple(els[x] for x in row) for row in self.index_rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return (
            self.field == other.field
            and self.n == other.n
            and self.index_rows == other.index_rows
        )

    def __hash__(self) -> int:
        return hash((self.field, self.n, self.index_rows))

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, k={self.k}, field={self.field})"

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each rref row: its first nonzero entry."""
        return tuple(next(j for j, x in enumerate(r) if x) for r in self.index_rows)

    @cached_property
    def free(self) -> tuple[int, ...]:
        """The columns holding no pivot, ascending."""
        return tuple(j for j in range(self.n) if j not in self.pivots)

    @cached_property
    def dual(self) -> "LinearCode":
        """The (n-k)-dimensional code orthogonal to every codeword."""
        field, n = self.field, self.n
        neg = field.ops.neg
        rows, pivots = self.index_rows, self.pivots
        dual_rows = []
        for f in self.free:
            w = [0] * n
            w[f] = 1
            for r, p in zip(rows, pivots):
                w[p] = neg(r[f])
            dual_rows.append(w)
        return LinearCode._from_indices(field, dual_rows, n)

    def contains(self, vector: Sequence) -> bool:
        """Membership via the parity check H * v^T = 0."""
        v = [self.field.element(x).index for x in vector]
        if len(v) != self.n:
            raise ValueError(f"vector length {len(v)} != code length {self.n}")
        ops = self.field.ops
        checks = (reduce(ops.add, map(ops.mul, h, v), 0) for h in self.dual.index_rows)
        return not any(checks)

    def permuted(self, images: Sequence[int]) -> "LinearCode":
        """The code {pi(c)} with pi(c)_i = c_{images[i]} (0-based pull-back)."""
        images = list(images)
        if sorted(images) != list(range(self.n)):
            raise ValueError(f"not a permutation of 0..{self.n - 1}: {images}")
        rows = [[row[i] for i in images] for row in self.index_rows]
        return LinearCode._from_indices(self.field, rows, self.n)

    def star(self, multiplier: Sequence[FieldElement]) -> "LinearCode":
        """Componentwise rescaling {v * c : c in C}; v must have no zero entry."""
        v = [self.field.element(x).index for x in multiplier]
        if len(v) != self.n:
            raise ValueError(f"multiplier length {len(v)} != code length {self.n}")
        if not all(v):
            raise ValueError("star multiplier must have no zero entries")
        mul = self.field.ops.mul
        rows = [list(map(mul, v, row)) for row in self.index_rows]
        return LinearCode._from_indices(self.field, rows, self.n)

    def frobenius_image(self) -> "LinearCode":
        """The code generated by applying y -> y**p to every entry.

        Only defined for extension fields.
        """
        if self.field.m == 1:
            raise ValueError("prime fields have no nontrivial field automorphism")
        p = self.field.p
        rows = [tuple(x**p for x in row) for row in self.rref]
        return LinearCode(self.field, rows, n=self.n)


def rs_code(points: EvaluationSet, k: int) -> LinearCode:
    """The Reed-Solomon code {f(A) : deg f < k} for the ordered point set.

    Row i is the monomial x^i evaluated on the points, each row the one
    before times the points, on indices.
    """
    if not 1 <= k <= points.n:
        raise ValueError(f"dimension k must be in 1..{points.n}, got {k}")
    mul = points.field.ops.mul
    row = [1] * points.n
    rows = []
    for _ in range(k):
        rows.append(row)
        row = list(map(mul, row, points.index_points))
    return LinearCode._from_indices(points.field, rows, points.n)


def rs_dual_multiplier(points: EvaluationSet) -> tuple[FieldElement, ...]:
    """The column multipliers turning RS(A, n-k) into the dual of RS(A, k).

    Entry j is the inverse of prod_{i != j} (a_j - a_i), the leading
    coefficient of the indicator L_j; all entries are nonzero, and
    star-multiplying RS(A, n-k) by this vector yields dual(RS(A, k)) for
    every k.
    """
    return tuple(L.coeffs[-1] for L in points.indicators)


def format_matrix(rows: Iterable[Sequence[FieldElement]]) -> str:
    """Rows of space-separated element literals."""
    return "\n".join(" ".join(str(x) for x in row) for row in rows)

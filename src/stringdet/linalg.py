"""Exact linear algebra over the rationals for small dense systems.

Everything here works on `fractions.Fraction` entries.  The systems that come
up (intertwining constraints, kernels, quotients) rarely exceed a few dozen
unknowns, so plain Gaussian elimination is both fast enough and exactly
verifiable.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

F0 = Fraction(0)
F1 = Fraction(1)

Vector = tuple[Fraction, ...]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Mat:
    """Immutable dense matrix.  Zero-row and zero-column shapes are legal."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable], ncols: int | None = None):
        rs = tuple(tuple(_frac(x) for x in row) for row in rows)
        if rs:
            width = len(rs[0])
            if any(len(r) != width for r in rs):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs explicit ncols")
        object.__setattr__(self, "rows", rs)
        object.__setattr__(self, "nrows", len(rs))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Mat":
        return Mat([[F0] * ncols for _ in range(nrows)], ncols=ncols)

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[F1 if i == j else F0 for j in range(n)] for i in range(n)], ncols=n)

    @staticmethod
    def from_columns(cols: Sequence[Sequence], nrows: int) -> "Mat":
        return Mat([[_frac(col[i]) for col in cols] for i in range(nrows)], ncols=len(cols))

    @staticmethod
    def row_major(values: Sequence, start: int, nrows: int, ncols: int) -> "Mat":
        """The nrows x ncols matrix stored row-major in values from index start."""
        return Mat([values[start + r * ncols:start + (r + 1) * ncols] for r in range(nrows)],
                   ncols=ncols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.shape == other.shape and self.rows == other.rows

    def __hash__(self):
        return hash((self.shape, self.rows))

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols}, {[[str(x) for x in r] for r in self.rows]})"

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        ot = list(zip(*other.rows)) if other.rows and other.ncols else []
        out = []
        for row in self.rows:
            if other.ncols and self.ncols:
                out.append([sum(a * b for a, b in zip(row, col)) for col in ot])
            else:
                out.append([F0] * other.ncols)
        return Mat(out, ncols=other.ncols)

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Mat([[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
                   ncols=self.ncols)

    def __sub__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Mat([[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
                   ncols=self.ncols)

    def scale(self, c) -> "Mat":
        c = _frac(c)
        return Mat([[c * x for x in r] for r in self.rows], ncols=self.ncols)

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.ncols)]

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    def rank(self) -> int:
        return len(_eliminate([list(r) for r in self.rows])[1])

    def hstack(self, other: "Mat") -> "Mat":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return Mat([list(a) + list(b) for a, b in zip(self.rows, other.rows)],
                   ncols=self.ncols + other.ncols)


def _eliminate(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column list)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def nullspace(m: Mat) -> list[Vector]:
    """Basis of {x : m @ x = 0}, one vector per free column."""
    rows, pivots = _eliminate([list(r) for r in m.rows])
    pivot_set = set(pivots)
    basis = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        vec = [F0] * m.ncols
        vec[free] = F1
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][free]
        basis.append(tuple(vec))
    return basis


def solve(a: Mat, b: Mat) -> Mat:
    """Solve a @ x = b exactly.  Raises ValueError if inconsistent or
    underdetermined (a must have full column rank)."""
    if a.nrows != b.nrows:
        raise ValueError("row count mismatch")
    aug = a.hstack(b)
    rows, pivots = _eliminate([list(r) for r in aug.rows])
    if any(p >= a.ncols for p in pivots):
        raise ValueError("inconsistent system")
    if len(pivots) != a.ncols:
        raise ValueError("matrix does not have full column rank")
    out = [[F0] * b.ncols for _ in range(a.ncols)]
    for r, pc in enumerate(pivots):
        out[pc] = rows[r][a.ncols:]
    return Mat(out, ncols=b.ncols)


class SpanBuilder:
    """Incremental row space: add vectors, reduce against the span, query
    membership and dimension.  Rows are kept in reduced echelon form."""

    def __init__(self, length: int):
        self.length = length
        self._rows: dict[int, list[Fraction]] = {}  # pivot column -> normalized row

    @property
    def dim(self) -> int:
        return len(self._rows)

    def reduce(self, vec: Sequence) -> list[Fraction]:
        v = [_frac(x) for x in vec]
        if len(v) != self.length:
            raise ValueError("length mismatch")
        for piv, row in self._rows.items():
            c = v[piv]
            if c != 0:
                v = [x - c * y for x, y in zip(v, row)]
        return v

    def contains(self, vec: Sequence) -> bool:
        return all(x == 0 for x in self.reduce(vec))

    def add(self, vec: Sequence) -> bool:
        """Insert vec into the span; True if the dimension grew."""
        v = self.reduce(vec)
        piv = next((i for i, x in enumerate(v) if x != 0), None)
        if piv is None:
            return False
        inv = F1 / v[piv]
        v = [x * inv for x in v]
        for p, row in self._rows.items():
            if row[piv] != 0:
                c = row[piv]
                self._rows[p] = [x - c * y for x, y in zip(row, v)]
        self._rows[piv] = v
        return True

    def contains_all(self, vecs: Iterable[Sequence]) -> bool:
        return all(self.contains(v) for v in vecs)


def quotient_projection(sub_basis: list[Vector], ambient_dim: int) -> tuple[Mat, Mat]:
    """Projection K^n -> K^(n-r) whose kernel is exactly span(sub_basis), and
    its section through the free coordinates: the embedding of the free-
    coordinate unit vectors, so that projection @ section is the identity.
    """
    span = SpanBuilder(ambient_dim)
    for v in sub_basis:
        span.add(v)
    free_cols = [c for c in range(ambient_dim) if c not in span._rows]
    # projection of e_i = coordinates of (e_i reduced mod span) on the free columns
    cols = []
    for i in range(ambient_dim):
        unit = [F0] * ambient_dim
        unit[i] = F1
        red = span.reduce(unit)
        cols.append([red[c] for c in free_cols])
    section = Mat.from_columns([[F1 if i == c else F0 for i in range(ambient_dim)]
                                for c in free_cols], nrows=ambient_dim)
    return Mat.from_columns(cols, nrows=len(free_cols)), section

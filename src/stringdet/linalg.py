"""Exact matrices over the rationals for the thin modules of a tree algebra.

Entries are stored as given and must be exact: Python ints and
`fractions.Fraction`s, which mix exactly.  Zero and unit entries are the
ints 0 and 1, so integer products stay in int arithmetic.  No floating point
anywhere, and no elimination: over a tree every module the oracle meets is
thin, one basis vector per support vertex, so each block it reads is 1 x 1
or empty, and a kernel, cokernel, socle or rank is read off scalars (see
`modules`).  The general echelon routines live in the tests, as the
reference those scalar paths are checked against.

Most blocks of a module map over a tree are empty (0 x k or k x 0): a string
module lives on a path, its support.  Empty blocks cost no arithmetic:
`Mat.zeros` hands out one shared instance per empty shape, a product with an
empty result or an empty inner dimension is that zero matrix, and an empty
shape has rank 0.  Shapes are still checked first.  The other blocks of thin
modules are 1 x 1: `Mat.identity(1)` is one shared [1], a 1 x 1 product is one
multiplication (the shared [1] when it is the int 1), and a 1 x 1 rank reads
the entry.  A rank of any other shape is refused.  The public
`Mat(rows, ncols)` checks that the rows have one width, equal to ncols if
given; every caller outside this module uses it.  `Mat._trusted` takes a
tuple of row tuples as they are; only this module calls it, on rows it built
to one width.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable


class Mat:
    """Immutable dense matrix.  Zero-row and zero-column shapes are legal."""

    __slots__ = ("rows", "nrows", "ncols", "shape")

    def __new__(cls, rows: Iterable[Iterable], ncols: int | None = None):
        rs = tuple(tuple(row) for row in rows)
        if rs:
            width = len(rs[0])
            if any(len(r) != width for r in rs):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs explicit ncols")
        return cls._trusted(rs, ncols)

    @classmethod
    def _trusted(cls, rows: tuple[tuple, ...], ncols: int) -> "Mat":
        """Unchecked: rows is a tuple of row tuples, each ncols long."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "nrows", len(rows))
        object.__setattr__(m, "ncols", ncols)
        object.__setattr__(m, "shape", (len(rows), ncols))
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Mat":
        if nrows and ncols:
            return Mat._trusted(((0,) * ncols,) * nrows, ncols)
        m = _EMPTY.get((nrows, ncols))
        if m is None:
            m = _EMPTY[nrows, ncols] = Mat._trusted(((),) * nrows, ncols)
        return m

    @staticmethod
    def identity(n: int) -> "Mat":
        return _ONE if n == 1 else Mat._trusted(
            tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Mat) and self.shape == other.shape
                                 and self.rows == other.rows)

    def __hash__(self):
        return hash((self.shape, self.rows))

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols}, {[[str(x) for x in r] for r in self.rows]})"

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        if not (self.nrows and self.ncols and other.ncols):
            return Mat.zeros(self.nrows, other.ncols)
        if self.nrows == self.ncols == other.ncols == 1:
            x = self.rows[0][0] * other.rows[0][0]
            return _ONE if x == 1 and type(x) is int else Mat._trusted(((x,),), 1)
        cols = list(zip(*other.rows))
        return Mat._trusted(tuple(tuple(sum(map(mul, row, col)) for col in cols)
                                  for row in self.rows), other.ncols)

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.rows)

    def rank(self) -> int:
        """Rank of a 1 x 1 or empty matrix; any other shape is refused."""
        if self.shape == (1, 1):
            return 1 if self.rows[0][0] else 0
        if self.nrows and self.ncols:
            raise ValueError(f"rank of a {self.nrows} x {self.ncols} matrix")
        return 0


#: The shared instance of each empty shape, handed out by Mat.zeros.
_EMPTY: dict[tuple[int, int], Mat] = {}


#: The shared [1], handed out by Mat.identity(1) and by 1 x 1 products equal to the int 1.
_ONE = Mat._trusted(((1,),), 1)

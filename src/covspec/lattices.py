"""Integer lattices as row-echelon bases over Z.

Membership tests here must be exact: they back both the abelianization
tier of the word oracle and the sublattice filtration of flat tori.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0 when a,b not both 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


class IntLattice:
    """Sublattice of Z^n kept in row echelon form, one row per pivot column.

    Rows are reduced with extended-gcd pivoting, so `contains` is an exact
    divisibility walk down the pivot columns.
    """

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError(f"ambient dimension must be positive, got {n}")
        self.n = n
        self.rows: dict[int, list[int]] = {}

    def copy(self) -> "IntLattice":
        other = IntLattice(self.n)
        other.rows = {p: row[:] for p, row in self.rows.items()}
        return other

    def add(self, vec: Sequence[int]) -> None:
        """Insert a vector."""
        if len(vec) != self.n:
            raise ValueError("vector length does not match ambient dimension")
        v = [int(x) for x in vec]
        for j in range(self.n):
            if v[j] == 0:
                continue
            row = self.rows.get(j)
            if row is None:
                if v[j] < 0:
                    v = [-t for t in v]
                self.rows[j] = v
                return
            a, b = row[j], v[j]
            if b % a == 0:
                q = b // a
                for k in range(j, self.n):
                    v[k] -= q * row[k]
            else:
                x, y, g = xgcd(a, b)
                new_row = [x * row[k] + y * v[k] for k in range(self.n)]
                new_v = [(a // g) * v[k] - (b // g) * row[k] for k in range(self.n)]
                self.rows[j] = new_row
                v = new_v

    def contains(self, vec: Sequence[int]) -> bool:
        if len(vec) != self.n:
            raise ValueError("vector length does not match ambient dimension")
        v = [int(x) for x in vec]
        for j in range(self.n):
            if v[j] == 0:
                continue
            row = self.rows.get(j)
            if row is None or v[j] % row[j] != 0:
                return False
            q = v[j] // row[j]
            for k in range(j, self.n):
                v[k] -= q * row[k]
        return True

    def contains_all(self, vecs: Iterable[Sequence[int]]) -> bool:
        return all(self.contains(v) for v in vecs)

    def rank(self) -> int:
        return len(self.rows)

    def basis(self) -> list[list[int]]:
        return [self.rows[p][:] for p in sorted(self.rows)]

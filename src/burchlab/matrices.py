"""Free-module elements and sparse matrices over the polynomial ring.

A FreeModuleElement is a sparse coordinate vector with Polynomial entries.
A PolyMatrix is a sparse column-major matrix carrying integer degree labels
for its target (rows) and source (columns); a homogeneous matrix satisfies
deg(entry[i][j]) = col_degrees[j] - row_degrees[i] on nonzero entries.
"""

from __future__ import annotations

import operator

from .ring import Polynomial, PolyRing, mono_deg


def add_into(acc: dict, key, f: Polynomial) -> None:
    """acc[key] += f, with key dropped when the sum cancels.

    A dropped key that comes back is appended at the end of acc, like a new
    one; callers' positions and pivots follow this insertion order.
    """
    cur = acc.get(key)
    s = f if cur is None else cur + f
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


class FreeModuleElement:
    """Sparse element of a free module Q^r: coords maps index -> nonzero Polynomial."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring: PolyRing, coords: dict):
        self.ring = ring
        self.coords = coords

    @classmethod
    def basis(cls, ring, i):
        return cls(ring, {i: ring.one()})

    def __bool__(self):
        return bool(self.coords)

    def __eq__(self, other):
        return isinstance(other, FreeModuleElement) and self.coords == other.coords

    def __add__(self, other):
        res = dict(self.coords)
        for i, f in other.coords.items():
            add_into(res, i, f)
        return FreeModuleElement(self.ring, res)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FreeModuleElement(self.ring, {i: -f for i, f in self.coords.items()})

    def mul_poly(self, g: Polynomial):
        if not g:
            return FreeModuleElement(self.ring, {})
        res = {}
        for i, f in self.coords.items():
            prod = f * g
            if prod:
                res[i] = prod
        return FreeModuleElement(self.ring, res)

    def map_coords(self, fn):
        res = {}
        for i, f in self.coords.items():
            g = fn(f)
            if g:
                res[i] = g
        return FreeModuleElement(self.ring, res)

    def degree(self, basis_degrees) -> int:
        """Degree of a homogeneous element given the basis degree labels; -1 if zero."""
        degs = set()
        for i, f in self.coords.items():
            degs.update(mono_deg(m) + basis_degrees[i] for m in f.terms)
        if not degs:
            return -1
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous element, degrees {sorted(degs)}")
        return degs.pop()

    def is_reduced_nonzero_mod_max_ideal(self) -> bool:
        """True iff some coordinate has a nonzero constant term (element is a basis part)."""
        return any(f.constant_coeff() for f in self.coords.values())

    def __repr__(self):
        if not self.coords:
            return "0"
        return " + ".join(f"({f})*e{i}" for i, f in sorted(self.coords.items()))


class PolyMatrix:
    """Sparse matrix over Q, column-major, with degree labels on both sides."""

    __slots__ = ("ring", "rows", "cols", "row_degrees", "col_degrees", "columns")

    def __init__(self, ring, row_degrees, col_degrees):
        self.ring = ring
        self.row_degrees = list(row_degrees)
        self.col_degrees = list(col_degrees)
        self.rows = len(self.row_degrees)
        self.cols = len(self.col_degrees)
        self.columns = {}  # j -> {i -> Polynomial}

    @classmethod
    def from_columns(cls, ring, row_degrees, columns, col_degrees):
        """columns: list of FreeModuleElement (or coord dicts)."""
        m = cls(ring, row_degrees, col_degrees)
        for j, col in enumerate(columns):
            coords = col.coords if isinstance(col, FreeModuleElement) else col
            if coords:
                m.columns[j] = dict(coords)
        return m

    def set_entry(self, i, j, f: Polynomial):
        if f:
            self.columns.setdefault(j, {})[i] = f
        else:
            col = self.columns.get(j)
            if col is not None:
                col.pop(i, None)
                if not col:
                    del self.columns[j]

    def column(self, j) -> FreeModuleElement:
        return FreeModuleElement(self.ring, dict(self.columns.get(j, {})))

    def is_zero(self) -> bool:
        return not self.columns

    def apply(self, v: FreeModuleElement) -> FreeModuleElement:
        """Matrix-vector product; v lives in the source free module."""
        res = {}
        for j, f in v.coords.items():
            if j >= self.cols:
                raise ValueError(f"coordinate {j} outside source rank {self.cols}")
            col = self.columns.get(j)
            if col is None:
                continue
            for i, g in col.items():
                add_into(res, i, g * f)
        return FreeModuleElement(self.ring, res)

    def compose(self, other: "PolyMatrix", table=None) -> "PolyMatrix":
        """self o other (self applied after other).

        With table (the RTable of R = Q/I) the entries are multiplied in R:
        table.mul(g, f) replaces g * f, so the result is already in normal
        form (a sum of normal forms is one), and no term pair of degree
        above table.top is formed.
        """
        if self.cols != other.rows:
            raise ValueError(f"rank mismatch: {self.cols} vs {other.rows}")
        mul = operator.mul if table is None else table.mul
        out = PolyMatrix(self.ring, self.row_degrees, other.col_degrees)
        for j, col in other.columns.items():
            acc = {}
            for k, f in col.items():
                mycol = self.columns.get(k)
                if mycol is None:
                    continue
                for i, g in mycol.items():
                    add_into(acc, i, mul(g, f))
            if acc:
                out.columns[j] = acc
        return out

    def __eq__(self, other):
        """Same degree labels and the same nonzero entries; entries are
        compared as stored, so both sides must be in the same normal form."""
        return (isinstance(other, PolyMatrix) and self.row_degrees == other.row_degrees
                and self.col_degrees == other.col_degrees and self.columns == other.columns)

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols}, nnz={sum(map(len, self.columns.values()))})"

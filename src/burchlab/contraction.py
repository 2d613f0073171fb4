"""Minimalization of graded free complexes with full contraction data.

minimalize() runs iterated Gaussian elimination on scalar (degree-zero)
unit entries of the differentials.  Each elimination removes one basis pair
(e_c in degree n, e_r in degree n-1) and performs a Schur update; the
inclusion i, projection p and homotopy h onto the shrinking complex are
accumulated so that p i = id, id - i p = dh + hd, and the side conditions
h i = 0, p h = 0, h h = 0 hold on the nose.

Eliminations run lowest homological degree first; inside a degree the
first unit in column-major (column, then row) order wins, which makes the
output deterministic.  A heap of the unit entries per degree finds that
unit without rescanning the matrix after each elimination (_UnitQueue).
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass

from .complexes import GradedFreeComplex, keyed_complex
from .errors import InternalCheckError
from .matrices import PolyMatrix, add_into


@dataclass
class Contraction:
    """Deformation retract datum between a complex and its minimal summand."""

    big: GradedFreeComplex
    small: GradedFreeComplex
    incl: dict    # n -> PolyMatrix small_n -> big_n
    proj: dict    # n -> PolyMatrix big_n -> small_n
    htpy: dict    # n -> PolyMatrix big_n -> big_{n+1}
    alive: dict   # n -> list of retained original basis indices

    def incl_at(self, n):
        return self.incl.get(n) or PolyMatrix(
            self.big.ring, self.big.basis_degrees(n), self.small.basis_degrees(n))

    def proj_at(self, n):
        return self.proj.get(n) or PolyMatrix(
            self.big.ring, self.small.basis_degrees(n), self.big.basis_degrees(n))

    def htpy_at(self, n):
        return self.htpy.get(n) or PolyMatrix(
            self.big.ring, self.big.basis_degrees(n + 1), self.big.basis_degrees(n))

    def truncated(self, through: int) -> "Contraction":
        """Drop small-complex data above a degree (for feeding consumers that
        must not see the minimal model of the truncation tail)."""
        small = GradedFreeComplex(
            self.small.ring,
            {n: ds for n, ds in self.small.degrees.items() if n <= through},
            {n: m for n, m in self.small.diffs.items() if n <= through},
            quotient=self.small.quotient,
        )
        return Contraction(
            big=self.big,
            small=small,
            incl={n: m for n, m in self.incl.items() if n <= through},
            proj={n: m for n, m in self.proj.items() if n <= through},
            htpy=self.htpy,
            alive={n: idxs for n, idxs in self.alive.items() if n <= through},
        )

    def verify(self, through: int | None = None):
        """Check every contraction identity mechanically."""
        table = self.big.rtable()
        top = self.big.top() if through is None else through
        ring = self.big.ring
        # compose(..., table) multiplies in R and add keeps normal forms, so
        # the two sides of each identity compare entry by entry
        for n in range(top + 1):
            i_n, p_n, h_n = self.incl_at(n), self.proj_at(n), self.htpy_at(n)
            # p i = id
            if p_n.compose(i_n, table) != PolyMatrix.identity(ring, self.small.basis_degrees(n)):
                raise InternalCheckError(f"p i != id at degree {n}")
            # id - i p = d h + h d, checked as i p + d h + h d = id
            ip = i_n.compose(p_n, table)
            dh = self.big.diff(n + 1).compose(h_n, table)
            hd = self.htpy_at(n - 1).compose(self.big.diff(n), table)
            if ip.add(dh).add(hd) != PolyMatrix.identity(ring, self.big.basis_degrees(n)):
                raise InternalCheckError(f"id - ip != dh + hd at degree {n}")
            # side conditions
            if not h_n.compose(i_n, table).is_zero():
                raise InternalCheckError(f"h i != 0 at degree {n}")
            if not self.proj_at(n + 1).compose(h_n, table).is_zero():
                raise InternalCheckError(f"p h != 0 at degree {n}")
            if not self.htpy_at(n + 1).compose(h_n, table).is_zero():
                raise InternalCheckError(f"h h != 0 at degree {n}")
            # chain maps
            if n >= 1:
                if (self.big.diff(n).compose(i_n, table)
                        != self.incl_at(n - 1).compose(self.small.diff(n), table)):
                    raise InternalCheckError(f"i is not a chain map at degree {n}")
                if (self.small.diff(n).compose(p_n, table)
                        != self.proj_at(n - 1).compose(self.big.diff(n), table)):
                    raise InternalCheckError(f"p is not a chain map at degree {n}")
        if not self.small.is_minimal(through=top):
            raise InternalCheckError("small complex is not minimal")
        return True


def _unit_value(f):
    """Nonzero scalar of a degree-zero entry, else None; f is in normal form."""
    c = f.constant_coeff()
    if c and len(f.terms) == 1:
        return c
    return None


class _UnitQueue:
    """The unit entries of one differential D = {column: {row: entry}},
    least (column, row) first.

    Every entry that is a unit when the queue is built, or becomes one in
    an update (push), is in the heap; an entry that has changed or gone
    since is dropped when it comes to the top, because pop reads it again
    from D.  So pop returns the least (column, row) among the current
    units: the pair that a scan of the sorted columns and their sorted rows
    would find first.
    """

    __slots__ = ("D", "heap")

    def __init__(self, D: dict):
        self.D = D
        self.heap = [(j, i) for j, col in D.items() for i, f in col.items()
                     if _unit_value(f) is not None]
        heapq.heapify(self.heap)

    def push(self, j, i):
        heapq.heappush(self.heap, (j, i))

    def pop(self):
        """(column, row, unit) of the least current unit entry, or None."""
        heap, D = self.heap, self.D
        while heap:
            j, i = heapq.heappop(heap)
            f = D.get(j, {}).get(i)
            u = None if f is None else _unit_value(f)
            if u is not None:
                return j, i, u
        return None


def minimalize(complex_: GradedFreeComplex) -> Contraction:
    """Contract a complex onto a minimal one (all differential entries in n).

    Works over Q or over R.  Over R the entries are normal-formed once on
    entry and every update adds a reduced product `RTable.mul`, so they stay
    in normal form (a sum of normal forms is one) and a unit is read off the
    stored entry.
    """
    ring = complex_.ring
    red = complex_.reduce_poly
    table = complex_.rtable()
    times = operator.mul if table is None else table.mul
    top = complex_.top()

    # mutable copies: D[n][col][row], with row index rows_of[n][row] = set of cols
    D, rows_of = {}, {}
    for n in range(1, top + 1):
        mat = complex_.diff(n)
        D[n] = {}
        rows_of[n] = {}
        for j, col in mat.columns.items():
            newcol = {}
            for i, f in col.items():
                g = red(f)
                if g:
                    newcol[i] = g
                    rows_of[n].setdefault(i, set()).add(j)
            if newcol:
                D[n][j] = newcol

    alive = {n: set(range(complex_.rank(n))) for n in complex_.degrees}
    # contraction data over original indices
    i_cols = {n: {j: {j: ring.one()} for j in alive[n]} for n in alive}
    p_rows = {n: {i: {i: ring.one()} for i in alive[n]} for n in alive}
    h_cols = {n: {} for n in alive}  # degree n -> {col (deg n): {row (deg n+1): poly}}

    def eliminate(n, c, r, u, units):
        inv = ring.inv(u)
        col_c = D[n].pop(c)
        col_c.pop(r)
        gamma = col_c  # remaining rows of column c
        for i in gamma:
            rows_of[n][i].discard(c)
        row_r = rows_of[n].pop(r)
        delta = {}
        for j in row_r:
            if j == c:
                continue
            delta[j] = D[n][j].pop(r)

        # h_{n-1} += inv * i_col(c) (x) p_row(r)   [old i, p]
        ic = i_cols[n][c]
        pr = p_rows[n - 1][r]
        if ic and pr:
            hc = h_cols.setdefault(n - 1, {})
            for v, pv in pr.items():
                dest = hc.setdefault(v, {})
                for w, iw in ic.items():
                    add_into(dest, w, times(pv, iw).scale(inv))
                if not dest:
                    hc.pop(v, None)

        # i update at degree n: col(c') -= inv*delta[c'] * col(c); drop c
        for j, dj in delta.items():
            target = i_cols[n][j]
            coeff = dj.scale(-inv)
            for w, iw in ic.items():
                add_into(target, w, times(coeff, iw))
        del i_cols[n][c]
        # p update at degree n-1: row(r') -= inv*gamma[r'] * row(r); drop r
        for i2, gi in gamma.items():
            target = p_rows[n - 1][i2]
            coeff = gi.scale(-inv)
            for v, pv in pr.items():
                add_into(target, v, times(coeff, pv))
        del p_rows[n - 1][r]
        # i at degree n-1 drops column r; p at degree n drops row c
        del i_cols[n - 1][r]
        del p_rows[n][c]

        # Schur update on D[n]
        for j, dj in delta.items():
            coeff = dj.scale(inv)
            colj = D[n].setdefault(j, {})
            for i2, gi in gamma.items():
                val = colj.get(i2, ring.zero()) - times(gi, coeff)
                if val:
                    colj[i2] = val
                    rows_of[n].setdefault(i2, set()).add(j)
                    if _unit_value(val) is not None:
                        units.push(j, i2)
                else:
                    if i2 in colj:
                        del colj[i2]
                        rows_of[n][i2].discard(j)
            if not colj:
                D[n].pop(j, None)

        # delete row c from D[n+1], column r from D[n-1]
        up = D.get(n + 1)
        if up is not None:
            for j in list(rows_of.get(n + 1, {}).get(c, ())):
                up[j].pop(c, None)
                if not up[j]:
                    del up[j]
            rows_of.get(n + 1, {}).pop(c, None)
        down = D.get(n - 1)
        if down is not None and r in down:
            for i2 in down.pop(r):
                rows_of[n - 1][i2].discard(r)

        alive[n].discard(c)
        alive[n - 1].discard(r)

    for n in range(1, top + 1):
        units = _UnitQueue(D[n])
        while (hit := units.pop()) is not None:
            eliminate(n, *hit, units)

    # assemble the small complex and the contraction matrices
    alive_sorted = {n: sorted(alive.get(n, ())) for n in complex_.degrees if alive.get(n)}
    small, _ = keyed_complex(ring, alive_sorted, lambda n, i: complex_.basis_degrees(n)[i],
                             lambda n, j: D[n].get(j, {}), quotient=complex_.quotient)

    incl, proj, htpy = {}, {}, {}
    for n, idxs in alive_sorted.items():
        im = PolyMatrix(ring, complex_.basis_degrees(n), small.basis_degrees(n))
        for t, orig in enumerate(idxs):
            for w, f in i_cols[n][orig].items():
                im.set_entry(w, t, f)
        incl[n] = im
        pm = PolyMatrix(ring, small.basis_degrees(n), complex_.basis_degrees(n))
        for t, orig in enumerate(idxs):
            for v, f in p_rows[n][orig].items():
                pm.set_entry(t, v, f)
        proj[n] = pm

    for n, hc in h_cols.items():
        if not hc:
            continue
        hm = PolyMatrix(ring, complex_.basis_degrees(n + 1), complex_.basis_degrees(n))
        for v, dest in hc.items():
            for w, f in dest.items():
                hm.set_entry(w, v, f)
        htpy[n] = hm

    return Contraction(big=complex_, small=small, incl=incl, proj=proj, htpy=htpy, alive=alive_sorted)

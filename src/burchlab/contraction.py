"""Minimalization of graded free complexes with full contraction data.

minimalize() runs iterated Gaussian elimination on scalar (degree-zero)
unit entries of the differentials.  Each elimination removes one basis pair
(e_c in degree n, e_r in degree n-1) and performs a Schur update.  The
projection p onto the shrinking complex is updated at each elimination;
the inclusion i and the homotopy h are not: each elimination is logged,
and i_n and h_{n-1} are replayed from the log of degree n when first read
(most readers want only the small complex and p).  Together they satisfy
p i = id, id - i p = dh + hd, and the side conditions h i = 0, p h = 0,
h h = 0 on the nose.  No command checks these identities; the tests do
(verify_contraction in tests/support/checks.py), on the contractions the
pipelines build.

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
from .matrices import PolyMatrix, add_into


class _Eliminations:
    """The eliminations minimalize made, per degree, and the inclusion and
    homotopy replayed from them on first read.

    log[n] lists (c, inv, delta, pr) for each elimination at degree n in
    order: the pivot column c, the inverse of the unit at (c, r), the rest
    of row r of d_n as it was popped ({column: entry}) and row r of p_{n-1}
    as it stood then ({column: entry}; dropped by that elimination, so never
    changed after).  i_n and h_{n-1} change only at the eliminations of
    degree n, so `at(n)` replays log[n] once, in elimination order, keeps
    the two matrices and drops log[n].  The replay reads only the i columns
    of the degree's pivots and survivors, so delta keeps only those columns:
    an i column that an elimination one degree up drops is never read.
    """

    __slots__ = ("big", "small", "alive", "times", "log", "built")

    def __init__(self, big, small, alive, times, log):
        for n, entries in log.items():
            reads = {c for c, *_ in entries}.union(alive.get(n, ()))
            entries[:] = [(c, inv, {j: f for j, f in delta.items() if j in reads}, pr)
                          for c, inv, delta, pr in entries]
        self.big, self.small, self.alive, self.times, self.log = big, small, alive, times, log
        self.built = {}  # n -> (i_n, h_{n-1} or None where it is zero)

    def at(self, n):
        if n not in self.built:
            self.built[n] = self.replay(n)
        return self.built[n]

    def replay(self, n):
        """(i_n, h_{n-1}) from the eliminations at degree n; drops log[n]."""
        big, times = self.big, self.times
        ring = big.ring
        i_cols = {j: {j: ring.one()} for j in range(big.rank(n))}
        h_cols = {}  # {col (deg n-1): {row (deg n): poly}}
        for c, inv, delta, pr in self.log.pop(n, ()):
            # h_{n-1} += inv * i_col(c) (x) p_row(r)   [old i, p]
            ic = i_cols.pop(c)
            if ic and pr:
                for v, pv in pr.items():
                    dest = h_cols.setdefault(v, {})
                    for w, iw in ic.items():
                        add_into(dest, w, times(pv, iw).scale(inv))
                    if not dest:
                        h_cols.pop(v, None)
            # col(c') -= inv*delta[c'] * col(c)
            for j, dj in delta.items():
                target = i_cols[j]
                coeff = dj.scale(-inv)
                for w, iw in ic.items():
                    add_into(target, w, times(coeff, iw))

        im = PolyMatrix(ring, big.basis_degrees(n), self.small.basis_degrees(n))
        for t, orig in enumerate(self.alive.get(n, ())):
            for w, f in i_cols[orig].items():
                im.set_entry(w, t, f)
        hm = None
        if h_cols:
            hm = PolyMatrix(ring, big.basis_degrees(n), big.basis_degrees(n - 1))
            for v, dest in h_cols.items():
                for w, f in dest.items():
                    hm.set_entry(w, v, f)
        return im, hm


@dataclass
class Contraction:
    """Deformation retract datum between a complex and its minimal summand.

    minimalize builds p; i and h are replayed per degree on first read from
    its elimination log (`_Eliminations`), and kept.
    """

    big: GradedFreeComplex
    small: GradedFreeComplex
    proj: dict    # n -> PolyMatrix big_n -> small_n
    alive: dict   # n -> list of retained original basis indices
    steps: _Eliminations

    @property
    def incl(self):
        """n -> PolyMatrix small_n -> big_n, over the degrees of alive."""
        return {n: self.steps.at(n)[0] for n in self.alive}

    @property
    def htpy(self):
        """n -> PolyMatrix big_n -> big_{n+1}, over the degrees where h != 0."""
        steps = self.steps
        return {n - 1: h for n in sorted({*steps.log, *steps.built}) if (h := steps.at(n)[1])}

    def incl_at(self, n):
        if n in self.alive:
            return self.steps.at(n)[0]
        return PolyMatrix(self.big.ring, self.big.basis_degrees(n), self.small.basis_degrees(n))

    def proj_at(self, n):
        return self.proj.get(n) or PolyMatrix(
            self.big.ring, self.small.basis_degrees(n), self.big.basis_degrees(n))

    def htpy_at(self, n):
        return self.steps.at(n + 1)[1] or PolyMatrix(
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
            proj={n: m for n, m in self.proj.items() if n <= through},
            alive={n: idxs for n, idxs in self.alive.items() if n <= through},
            steps=self.steps,
        )


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

    Works over Q or over R.  Over R the entries come in as stored, nonzero
    normal forms (every builder of a complex over R stores them so), and
    every update adds a reduced product `RTable.mul`, so they stay in normal
    form (a sum of normal forms is one) and a unit is read off the stored
    entry.
    """
    ring = complex_.ring
    table = complex_.rtable()
    times = operator.mul if table is None else table.mul
    top = complex_.top()

    # mutable copies: D[n][col][row], with row index rows_of[n][row] = set of cols
    D, rows_of = {}, {}
    for n in range(1, top + 1):
        D[n] = {j: dict(col) for j, col in complex_.diff(n).columns.items()}
        rows_of[n] = {}
        for j, col in D[n].items():
            for i in col:
                rows_of[n].setdefault(i, set()).add(j)

    alive = {n: set(range(complex_.rank(n))) for n in complex_.degrees}
    # p over original indices; i and h are replayed from log (_Eliminations)
    p_rows = {n: {i: {i: ring.one()} for i in alive[n]} for n in alive}
    log = {}  # n -> [(c, inv, delta, pr)] in elimination order

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

        pr = p_rows[n - 1][r]
        log.setdefault(n, []).append((c, inv, delta, pr))
        # p update at degree n-1: row(r') -= inv*gamma[r'] * row(r); drop r
        for i2, gi in gamma.items():
            target = p_rows[n - 1][i2]
            coeff = gi.scale(-inv)
            for v, pv in pr.items():
                add_into(target, v, times(coeff, pv))
        del p_rows[n - 1][r]
        # p at degree n drops row c
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

    # assemble the small complex and the projection
    alive_sorted = {n: sorted(alive.get(n, ())) for n in complex_.degrees if alive.get(n)}
    small, _ = keyed_complex(ring, alive_sorted, lambda n, i: complex_.basis_degrees(n)[i],
                             lambda n, j: D[n].get(j, {}), quotient=complex_.quotient)

    proj = {}
    for n, idxs in alive_sorted.items():
        pm = PolyMatrix(ring, small.basis_degrees(n), complex_.basis_degrees(n))
        for t, orig in enumerate(idxs):
            for v, f in p_rows[n][orig].items():
                pm.set_entry(t, v, f)
        proj[n] = pm

    steps = _Eliminations(complex_, small, alive_sorted, times, log)
    return Contraction(big=complex_, small=small, proj=proj, alive=alive_sorted, steps=steps)

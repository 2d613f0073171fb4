"""The relative bar resolution B(R, X, Y) of M over R.

Words r[x_1|...|x_p]y index the basis: x_t runs over basis elements of
X_(>=1) (shifted degrees |x_t| + 1), y over basis elements of Y; the
homological degree is sum(|x_t| + 1) + |y|.  Coefficients live in R, so
every polynomial that migrates out of a slot is reduced modulo I; in
particular interior differentials of degree-1 slots land in I and vanish.

X and Y are read through one interface, alg.op(i, refs) and
mod.op(i, xrefs, yref): a dg pair (DgAlgebra, DgModule) gives the
differential at arity 1, the product or action at arity 2 and 0 above; a
transferred A-infinity pair (AInfAlgebra, AInfModule) gives all its
operations.  The differential applies every operation to every block of
consecutive slots, the sign of an arity-i operation on the block after
slot j being (-1)^eps_j, eps_j the sum of shifted degrees before it, times
the suspension sign (-1)^(sum_{u<i} (i-u) |a_u|) of removing i shifts.  On
a dg pair this is

  sum_t (-1)^eps_{t-1} r[..|dx_t|..]y  +  (-1)^eps_p r[..]dy
  + sum_t (-1)^eps_{t-1} r[..|x_t x_{t+1}|..]y
  + (-1)^eps_{p-1} r[x_1|..|x_{p-1}] (x_p y).

d^2 = 0, exactness below the cap and the composition rank formula are all
checked mechanically after assembly.
"""

from __future__ import annotations

from .complexes import GradedFreeComplex
from .errors import InternalCheckError
from .groebner import Ideal
from .matrices import PolyMatrix, add_into


def poincare_bound_series(px, py, cap):
    """Coefficients of P_Y(t) / (1 - t(P_X(t) - 1)) through degree cap, from
    the rank lists px of X and py of Y."""
    g = [0] * (cap + 1)
    for d, r in enumerate(px):
        if 1 <= d and d + 1 <= cap:
            g[d + 1] = r
    out = [0] * (cap + 1)
    for n in range(cap + 1):
        acc = py[n] if n < len(py) else 0
        for k in range(2, n + 1):
            acc += g[k] * out[n - k]
        out[n] = acc
    return out


class BarWord:
    """Immutable word (xs, y): xs a tuple of (degree, index) into X, y into Y."""

    __slots__ = ("xs", "y")

    def __init__(self, xs, y):
        self.xs = tuple(xs)
        self.y = y

    def degree(self) -> int:
        return sum(d + 1 for d, _ in self.xs) + self.y[0]

    def sort_key(self):
        return (
            len(self.xs),
            tuple(d for d, _ in self.xs),
            self.y[0],
            tuple(i for _, i in self.xs),
            self.y[1],
        )

    def __eq__(self, other):
        return self.xs == other.xs and self.y == other.y

    def __hash__(self):
        return hash((self.xs, self.y))

    def __repr__(self):
        inner = "|".join(f"x({d},{i})" for d, i in self.xs)
        return f"[{inner}]y({self.y[0]},{self.y[1]})"


class BarComplex:
    """B(R, X, Y) to a homological cap, with differential matrices over R."""

    def __init__(self, alg, mod, quotient: Ideal, cap: int):
        self.alg = alg
        self.mod = mod
        self.quotient = quotient
        self.ring = alg.complex.ring
        self.cap = cap
        self.words = {}      # n -> list of BarWord
        self.pos = {}        # n -> {word: index}
        self._enumerate()
        self.complex = self._assemble()
        self.complex.check_dd_zero()

    # -- basis ------------------------------------------------------------

    def _enumerate(self):
        X, Y = self.alg.complex, self.mod.complex
        # both in ascending degree, so each loop stops at the first overflow;
        # the words are sorted by BarWord.sort_key afterwards
        xrefs_by_deg = {d: [(d, i) for i in range(X.rank(d))]
                        for d in range(1, X.top() + 1)}
        yranks = [(d, Y.rank(d)) for d in range(Y.top() + 1)]
        words_by_degree = {n: [] for n in range(self.cap + 1)}

        def extend(xs, used):
            for yd, rank in yranks:
                n = used + yd
                if n > self.cap:
                    break
                words_by_degree[n].extend(BarWord(xs, (yd, yi)) for yi in range(rank))
            for d, refs in xrefs_by_deg.items():
                if used + d + 1 > self.cap:
                    break
                for ref in refs:
                    extend(xs + [ref], used + d + 1)

        extend([], 0)
        for n, ws in words_by_degree.items():
            ws.sort(key=BarWord.sort_key)
            self.words[n] = ws
            self.pos[n] = {w: t for t, w in enumerate(ws)}

    def rank(self, n) -> int:
        return len(self.words.get(n, []))

    def word_internal_degree(self, w: BarWord) -> int:
        X, Y = self.alg.complex, self.mod.complex
        total = Y.basis_degrees(w.y[0])[w.y[1]]
        for d, i in w.xs:
            total += X.basis_degrees(d)[i]
        return total

    # -- differential -------------------------------------------------------

    def differential_of_word(self, w: BarWord) -> dict:
        """Boundary of a word: dict BarWord -> Polynomial (reduced mod I)."""
        red = self.quotient.normal_form
        out = {}   # a sum of normal forms is one

        xs = w.xs
        p = len(xs)
        shifted = [d + 1 for d, _ in xs]

        # interior operations m_i on blocks xs[j:j+i]
        for j in range(p):
            eps = sum(shifted[:j]) % 2
            for i in range(1, p - j + 1):
                block = xs[j:j + i]
                if i == 1 and block[0][0] == 1:
                    continue  # boundary lands in I R = 0
                val = self.alg.op(i, block)
                if not val.coords:
                    continue
                sign = -1 if eps else 1
                # de-suspension Koszul sign of the consumed block
                susp = sum((i - 1 - u) * block[u][0] for u in range(i - 1)) % 2
                if susp:
                    sign = -sign
                out_deg = sum(d for d, _ in block) + i - 2
                if out_deg < 1:
                    continue
                for idx, f in val.coords.items():
                    new_xs = xs[:j] + ((out_deg, idx),) + xs[j + i:]
                    add_into(out, BarWord(new_xs, w.y), red(f if sign > 0 else -f))

        # tail operations mu_i on (xs[p-i+1:], y)
        for i in range(1, p + 2):
            take = i - 1
            if i == 1 and w.y[0] == 0:
                continue
            xblock = xs[p - take:]
            eps = sum(shifted[:p - take]) % 2
            val = self.mod.op(i, xblock, w.y)
            if not val.coords:
                continue
            sign = -1 if eps else 1
            # same de-suspension rule, with the y slot as the last factor
            susp = sum((take - u) * xblock[u][0] for u in range(take)) % 2
            if susp:
                sign = -sign
            out_deg = sum(d for d, _ in xblock) + w.y[0] + i - 2
            for idx, f in val.coords.items():
                add_into(out, BarWord(xs[:p - take], (out_deg, idx)), red(f if sign > 0 else -f))

        return out

    def _assemble(self) -> GradedFreeComplex:
        degrees = {n: [self.word_internal_degree(w) for w in ws]
                   for n, ws in self.words.items() if ws}
        diffs = {}
        for n in range(1, self.cap + 1):
            if not self.words.get(n):
                continue
            mat = PolyMatrix(self.ring, degrees.get(n - 1, []), degrees[n])
            tgt = self.pos.get(n - 1, {})
            for a, w in enumerate(self.words[n]):
                for word, coeff in self.differential_of_word(w).items():
                    b = tgt.get(word)
                    if b is None:
                        raise InternalCheckError(f"boundary word {word} missing at degree {n-1}")
                    mat.set_entry(b, a, coeff)
            diffs[n] = mat
        return GradedFreeComplex(self.ring, degrees, diffs, quotient=self.quotient)

    # -- structural checks ----------------------------------------------------

    def rank_formula_check(self):
        """Ranks must match the generating-function expansion
        P_Y(t) / (1 - t (P_X(t) - 1)) coefficientwise."""
        X, Y = self.alg.complex, self.mod.complex
        series = poincare_bound_series([X.rank(d) for d in range(X.top() + 1)],
                                       [Y.rank(n) for n in range(Y.top() + 1)], self.cap)
        actual = [self.rank(n) for n in range(self.cap + 1)]
        if series != actual:
            raise InternalCheckError(f"bar rank formula mismatch: {actual} vs {series}")
        return actual

    def exactness_check(self, through: int | None = None):
        """H_n(B) = 0 for 1 <= n <= through (default cap - 1), each strand
        ranked once per call.  Nothing is cached on the complex, so a change
        made to a differential after assembly is seen."""
        top = (self.cap - 1) if through is None else through
        if top >= self.cap:
            raise ValueError(f"exactness is checked below the cap {self.cap} only, "
                             f"got degree {top}: B_{top + 1} is not built")
        ranks = {}  # (n, d) -> (dim, rank) of the strand, shared between degrees
        for n in range(1, top + 1):
            dims = self.complex.homology_dims(n, ranks)
            if dims:
                raise InternalCheckError(f"bar homology at degree {n}: {dims}")
        return True

    def h0_dims(self, through: int):
        """Graded dimensions of H_0(B) = coker(d_1), to compare against M."""
        dims = self.complex.homology_dims(0)
        return [dims.get(d, 0) for d in range(through + 1)]

    def minimality_report(self):
        """Degrees of differential entries with unit parts (empty iff minimal)."""
        bad = []
        for n in range(1, self.cap + 1):
            mat = self.complex.diff(n)
            for j, col in mat.columns.items():
                for i, f in col.items():
                    if f.constant_coeff():
                        bad.append((n, i, j))
        return bad


"""The relative bar resolution B(R, X, Y) of M over R.

Words r[x_1|...|x_p]y index the basis: x_t runs over basis elements of
X_(>=1) (shifted degrees |x_t| + 1), y over basis elements of Y; the
homological degree is sum(|x_t| + 1) + |y|.  A word is the plain tuple
((|x_1|, i_1), ..., (|x_p|, i_p), (|y|, j)) of basis refs, y last.
Coefficients live in R, so every polynomial that migrates out of a slot is
reduced modulo I; in particular differentials of degree-1 x slots land in
I and vanish.

X and Y are read through one interface, op(i, refs) with a module's y slot
last: a dg pair (DgAlgebra, DgModule) gives the differential at arity 1,
the product or action at arity 2 and 0 above; a transferred A-infinity pair
(AInfAlgebra, AInfModule) gives all its operations.  The differential
applies every operation to every block w[j:j+i] of consecutive slots, Y's
on a block that ends in the y slot and X's on any other, with the sign
(-1)^eps_j, eps_j the sum of shifted degrees before the block, times the
suspension sign (-1)^(sum_{u<i-1} (i-1-u) |a_u|) of removing the shifts.
The block becomes one slot of degree sum |a_u| + i - 2.  On a dg pair,
with eps_t = sum_{s<=t} (|x_s| + 1), this is

  sum_t (-1)^eps_{t-1} r[..|dx_t|..]y  +  (-1)^eps_p r[..]dy
  - sum_t (-1)^eps_t r[..|x_t x_{t+1}|..]y
  - (-1)^eps_p r[x_1|..|x_{p-1}] (x_p y),

the arity-2 suspension sign (-1)^|x_t| turning eps_{t-1} into eps_t - 1.

Assembly evaluates each distinct block once (_block_image) and reuses its
image in every word that contains it.  This is exact: during assembly op is
a pure function of the block (a transferred op memoizes arity >= 2 and
reads fixed contraction matrices, a dg op reads fixed matrices); the sign
factors as (-1)^susp(block) (-1)^eps(prefix), so the image stores the
suspension sign and the word picks it or its negation by the parity of
eps; and normal forms are linear, so red(-f) = -red(f).  Entries of
different words may share one image polynomial, as no Polynomial is changed
in place.  The images are dropped when assembly returns, so a
differential_of_word call made later reads op afresh.

Before any word is listed, the rank guard is checked on the bound series;
keyed_complex then fills d_n from differential_of_word, words sorted by
_word_key.

Construction checks d^2 = 0, the composition rank formula and, given
exact_through = t, H_n(B) = 0 for 1 <= n <= t.  d^2 = 0 and exactness read
one set of F_p strands (complexes.Strands): d_(n-1) d_n = 0 is tested on
the columns of the words, each multiplied by d_(n-1)'s strand at the
word's degree, and Strands.homology reuses those strands' ranks and builds
the missing (n, d) strands once each.  The strands are dropped when
__init__ returns, so nothing built from the differentials outlives the
checks; a check made after construction builds a new Strands.
"""

from __future__ import annotations

from .complexes import Strands, keyed_complex
from .errors import InternalCheckError, check_rank
from .groebner import Ideal
from .matrices import add_into


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


def _word_key(w):
    """Order of the words in each degree: (length, x degrees, y degree,
    x indices, y index), w a tuple of (degree, index) refs ending in y."""
    xs, (yd, yi) = w[:-1], w[-1]
    return (len(w), tuple(d for d, _ in xs), yd, tuple(i for _, i in xs), yi)


class BarComplex:
    """B(R, X, Y) to a homological cap, with differential matrices over R.

    exact_through, when given, is the depth t < cap through which
    construction also checks H_n(B) = 0 (1 <= n <= t)."""

    def __init__(self, alg, mod, quotient: Ideal, cap: int, exact_through: int | None = None):
        self.alg = alg
        self.mod = mod
        self.quotient = quotient
        self.ring = alg.complex.ring
        self.cap = cap
        if exact_through is not None and exact_through >= cap:
            raise ValueError(f"exactness is checked below the cap {cap} only, got degree "
                             f"{exact_through}: B_{exact_through + 1} is not built")
        check_rank(sum(self._bound_series()), "BarComplex")
        self.words = self._enumerate()   # n -> words, tuples of (degree, index) refs ending in y
        self._images = {}    # (on_y, block) -> _block_image
        self.complex, self.pos = keyed_complex(   # pos: n -> {word: index}
            self.ring, self.words, lambda _n, w: self.word_internal_degree(w),
            lambda _n, w: self.differential_of_word(w), self.quotient)
        self._images = {}
        strands = Strands(self.complex, exact_through)
        strands.check_dd_zero()
        self.ranks = self.rank_formula_check()   # n -> rank of B_n, n = 0..cap
        for n in range(1, (exact_through or 0) + 1):
            dims = strands.homology(n)
            if dims:
                raise InternalCheckError(f"bar homology at degree {n}: {dims}")

    # -- basis ------------------------------------------------------------

    def _enumerate(self) -> dict:
        X, Y = self.alg.complex, self.mod.complex
        # both in ascending degree, so each loop stops at the first overflow;
        # the words are sorted by _word_key afterwards
        xrefs_by_deg = {d: [(d, i) for i in range(X.rank(d))]
                        for d in range(1, X.top() + 1)}
        yranks = [(d, Y.rank(d)) for d in range(Y.top() + 1)]
        words_by_degree = {n: [] for n in range(self.cap + 1)}

        def extend(xs, used):
            for yd, rank in yranks:
                n = used + yd
                if n > self.cap:
                    break
                words_by_degree[n].extend(xs + ((yd, yi),) for yi in range(rank))
            for d, refs in xrefs_by_deg.items():
                if used + d + 1 > self.cap:
                    break
                for ref in refs:
                    extend(xs + (ref,), used + d + 1)

        extend((), 0)
        for ws in words_by_degree.values():
            ws.sort(key=_word_key)
        return words_by_degree

    def rank(self, n) -> int:
        return len(self.words.get(n, []))

    def word_internal_degree(self, w: tuple) -> int:
        X, Y = self.alg.complex, self.mod.complex
        yd, yi = w[-1]
        return Y.basis_degrees(yd)[yi] + sum(X.basis_degrees(d)[i] for d, i in w[:-1])

    # -- differential -------------------------------------------------------

    def _block_image(self, on_y: bool, block: tuple) -> tuple:
        """((out_deg, idx), pos, neg) per term of the operation on a block:
        pos is the normal form of the coefficient times the block's
        suspension sign, neg = -pos; () when the out-degree filter drops the
        block.  Kept in self._images, which is cleared once assembly returns."""
        image = self._images.get((on_y, block))
        if image is not None:
            return image
        i = len(block)
        out_deg = sum(d for d, _ in block) + i - 2
        image = ()
        # d of a degree-1 x slot lies in I X_0 = 0; d of y in Y_0 is 0
        if out_deg >= (0 if on_y else 1):
            red = self.quotient.normal_form
            val = (self.mod if on_y else self.alg).op(i, block)
            # de-suspension Koszul sign of the consumed block
            flip = sum((i - 1 - u) * block[u][0] for u in range(i - 1)) % 2
            terms = []
            for idx, g in val.coords.items():
                f = red(-g if flip else g)
                if f:
                    terms.append(((out_deg, idx), f, -f))
            image = tuple(terms)
        self._images[on_y, block] = image
        return image

    def differential_of_word(self, w: tuple) -> dict:
        """Boundary of a word: dict word -> Polynomial (reduced mod I).

        Every operation acts on every block w[j:j+i] of consecutive slots:
        mod.op on a block that ends in the y slot, alg.op on any other."""
        out = {}   # a sum of normal forms is one
        last = len(w)
        eps = 0    # shifted degrees of the x slots before j
        for j in range(last):
            for i in range(1, last - j + 1):
                for ref, pos, neg in self._block_image(j + i == last, w[j:j + i]):
                    add_into(out, w[:j] + (ref,) + w[j + i:], neg if eps % 2 else pos)
            eps += w[j][0] + 1
        return out

    # -- structural checks ----------------------------------------------------

    def _bound_series(self):
        """The bar's ranks, P_Y(t) / (1 - t (P_X(t) - 1)) through the cap."""
        return poincare_bound_series(self.alg.complex.poincare_coeffs(),
                                     self.mod.complex.poincare_coeffs(), self.cap)

    def rank_formula_check(self):
        """Ranks must match the generating-function expansion
        P_Y(t) / (1 - t (P_X(t) - 1)) coefficientwise."""
        series = self._bound_series()
        actual = [self.rank(n) for n in range(self.cap + 1)]
        if series != actual:
            raise InternalCheckError(f"bar rank formula mismatch: {actual} vs {series}")
        return actual

    def h0_dims(self, through: int):
        """Graded dimensions of H_0(B) = coker(d_1), to compare against M."""
        dims = Strands(self.complex).homology(0)
        return [dims.get(d, 0) for d in range(through + 1)]

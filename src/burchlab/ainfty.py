"""Homotopy transfer of dg structures to minimal complexes, as A-infinity
operations.

An A-infinity module is A-infinity algebra data whose last slot, the y
slot, holds an element of M.  AInfAlgebra and AInfModule therefore share
one op core and one transfer recursion over tuples of basis refs
(deg, index) of the small complexes; a module's tuples end in the y slot.

Transfer uses the two-branch tree recursion over slot intervals: on
elements of the big dg structures define lambda_2 = product and

  lambda_n = sum_{s=1}^{n-1} sigma(n,s) * m2( H lambda_s (x) H lambda_{n-s} )

with H lambda_1 = -id and H = homotopy h otherwise; then
m_n = p o lambda_n o i^(x)n.  An interval holding the y slot (only a right
branch can) uses Y's inclusion, homotopy and action in place of X's
inclusion, homotopy and product.  The Koszul sign of applying the right
branch (an operator of degree (length - 1)) past the left arguments is
computed explicitly; sigma is a fixed convention whose correctness is not
trusted: the tests evaluate the Stasheff identities and minimality (Tier-1
criterion 6, tests/test_ainfty.py) on the structures the pipelines build,
with the checkers in tests/support/checks.py.  A structure is bounded by
its arity cap only (caps.degree is echoed in the report and read by
nothing).

All operations are strictly unital and evaluated lazily with memoization
keyed by small-complex basis tuples.
"""

from __future__ import annotations

from .contraction import Contraction
from .errors import ArityCapError
from .matrices import FreeModuleElement, add_into
from .ring import PolyRing
from .taylor import bilinear


def _sigma(n: int, s: int) -> int:
    # one convention for both branches, validated mechanically;
    # sigma(2,1) = +1 so m_2 = p o m2 o (i,i)
    return -1 if (s + 1) % 2 else 1


class _Transferred:
    """The op core of AInfAlgebra and AInfModule.

    self.alg is the algebra whose operations act on the x slots (the
    structure itself for an algebra); self.ctr and self._times are the
    contraction and the big dg structure's action rule (an algebra's is
    its product rule) of the slot intervals that end in the last slot.
    """

    has_y_slot = False

    def __init__(self, ctr: Contraction, big, arity_cap: int):
        self.ctr = ctr
        self._times = big.action_terms
        self.complex = ctr.small
        self.arity_cap = arity_cap
        self._cache = {}

    @property
    def ring(self) -> PolyRing:
        return self.complex.ring

    def _op(self, n: int, refs: tuple) -> FreeModuleElement:
        """The n-ary operation on a slot tuple; an element of self.complex."""
        if n == 1:
            d, i = refs[-1]
            return self.complex.diff(d).column(i)
        unit = self.alg.unit_ref()
        if unit in (refs[:-1] if self.has_y_slot else refs):
            # strict unitality
            if n > 2:
                return FreeModuleElement(self.ring, {})
            return FreeModuleElement.basis(self.ring, refs[1][1] if refs[0] == unit else refs[0][1])
        if sum(d for d, _ in refs) + n - 2 > self.complex.top():
            return FreeModuleElement(self.ring, {})  # vanishes by degree
        if n > self.arity_cap:
            raise ArityCapError(n, self.arity_cap)
        key = (n, refs)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        elt, d = self._transfer(refs)
        out = self.ctr.proj_at(d).apply(elt)
        self._cache[key] = out
        return out

    def _transfer(self, refs):
        """lambda on i(refs), memoized over slot intervals [lo, hi); returns
        (element, degree) of the full interval."""
        n = len(refs)

        def owner(hi):
            # the structure an interval ending at hi lives in
            return self if hi == n else self.alg

        args = [owner(k + 1).ctr.incl_at(d).column(i) for k, (d, i) in enumerate(refs)]
        degs = [d for d, _ in refs]
        memo = {}

        def H(lo, hi):
            # H lambda over [lo, hi): -arg for singletons, h(lambda) otherwise
            if hi - lo == 1:
                return -args[lo], degs[lo]
            elt, d = lam(lo, hi)
            return owner(hi).ctr.htpy_at(d).apply(elt), d + 1

        def lam(lo, hi):
            key = (lo, hi)
            if key in memo:
                return memo[key]
            k = hi - lo
            times = owner(hi)._times
            total = {}
            for s in range(1, k):
                left, dl = H(lo, lo + s)
                right, dr = H(lo + s, hi)
                if not left.coords or not right.coords:
                    continue
                sign = _sigma(k, s)
                # Koszul: right branch operator degree is (k - s) - 1
                if ((k - s - 1) * sum(degs[lo:lo + s])) % 2:
                    sign = -sign
                for i, f in bilinear(times, dl, left, dr, right).coords.items():
                    add_into(total, i, f if sign > 0 else -f)
            memo[key] = (FreeModuleElement(self.ring, total), sum(degs[lo:hi]) + k - 2)
            return memo[key]

        return lam(0, n)


class AInfAlgebra(_Transferred):
    """A-infinity operations on the minimal complex of a contraction onto a dg algebra."""

    def __init__(self, ctr: Contraction, big_algebra, arity_cap: int = 4):
        super().__init__(ctr, big_algebra, arity_cap)
        self.alg = self

    def unit_ref(self):
        return (0, 0)

    def op(self, n: int, refs) -> FreeModuleElement:
        """m_n on small basis refs ((deg, index), ...); element of the small complex."""
        return self._op(n, tuple(refs))


class AInfModule(_Transferred):
    """A-infinity module operations on the minimal complex of a dg module."""

    has_y_slot = True

    def __init__(self, alg: AInfAlgebra, ctr_y: Contraction, big_module, arity_cap: int = 4):
        super().__init__(ctr_y, big_module, arity_cap)
        self.alg = alg

    def op(self, n: int, refs) -> FreeModuleElement:
        """mu_n(x_1,...,x_{n-1}, y) on small basis refs, the y slot last."""
        return self._op(n, tuple(refs))

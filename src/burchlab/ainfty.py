"""Homotopy transfer of dg structures to minimal complexes, as A-infinity
operations, with mechanical Stasheff verification.

Transfer uses the two-branch tree recursion: on elements of the big dg
algebra define lambda_2 = product and

  lambda_n = sum_{s=1}^{n-1} sigma(n,s) * m2( H lambda_s (x) H lambda_{n-s} )

with H lambda_1 = -id and H = homotopy h otherwise; then
m_n = p o lambda_n o i^(x)n.  The module side replaces the right branch by
the action and the module homotopy.  The Koszul sign of applying the right
branch (an operator of degree (length - 1)) past the left arguments is
computed explicitly; sigma is a fixed convention whose correctness is not
trusted but enforced by the Stasheff checker on every structure built.

All operations are strictly unital and evaluated lazily with memoization
keyed by small-complex basis tuples.
"""

from __future__ import annotations

from .contraction import Contraction
from .errors import ArityCapError, InternalCheckError
from .matrices import FreeModuleElement
from .ring import PolyRing


def _sigma(n: int, s: int) -> int:
    # one convention for both branches, validated mechanically;
    # sigma(2,1) = +1 so m_2 = p o m2 o (i,i)
    return -1 if (s + 1) % 2 else 1


class AInfAlgebra:
    """A-infinity operations on the minimal complex of a contraction onto a dg algebra."""

    def __init__(self, ctr: Contraction, big_algebra, arity_cap: int = 4, degree_cap: int = 10):
        self.ctr = ctr
        self.big = big_algebra
        self.complex = ctr.small
        self.arity_cap = arity_cap
        self.degree_cap = degree_cap
        self._cache = {}

    @property
    def ring(self) -> PolyRing:
        return self.complex.ring

    def unit_ref(self):
        return (0, 0)

    # -- raw transfer ---------------------------------------------------------

    def _incl(self, ref) -> FreeModuleElement:
        d, i = ref
        return self.ctr.incl_at(d).column(i)

    def _lambda(self, refs):
        """lambda evaluated on i(refs); returns dict (lo,hi) -> (element, degree)
        via interval memoization; the full interval is the answer."""
        args = [self._incl(r) for r in refs]
        degs = [r[0] for r in refs]
        n = len(refs)
        memo = {}

        def H(lo, hi):
            # H lambda over [lo, hi): -arg for singletons, h(lambda) otherwise
            if hi - lo == 1:
                return -args[lo], degs[lo]
            elt, d = lam(lo, hi)
            return self.ctr.htpy_at(d).apply(elt), d + 1

        def lam(lo, hi):
            key = (lo, hi)
            if key in memo:
                return memo[key]
            k = hi - lo
            assert k >= 2
            total = FreeModuleElement(self.ring, {})
            deg_out = sum(degs[lo:hi]) + k - 2
            for s in range(1, k):
                left, dl = H(lo, lo + s)
                right, dr = H(lo + s, hi)
                if not left.coords or not right.coords:
                    continue
                sign = _sigma(k, s)
                # Koszul: right branch operator degree is (k - s) - 1
                if ((k - s - 1) * sum(degs[lo:lo + s])) % 2:
                    sign = -sign
                term = self.big.product_elements(dl, left, dr, right)
                if term.coords:
                    total = total + (term if sign > 0 else -term)
            memo[key] = (total, deg_out)
            return memo[key]

        return lam(0, n)

    def op(self, n: int, refs) -> FreeModuleElement:
        """m_n on small basis refs ((deg, index), ...); element of the small complex."""
        if n == 1:
            d, i = refs[0]
            return self.complex.diff(d).column(i)
        refs = tuple(refs)
        # strict unitality
        if n == 2:
            if refs[0] == self.unit_ref():
                return FreeModuleElement.basis(self.ring, refs[1][1])
            if refs[1] == self.unit_ref():
                return FreeModuleElement.basis(self.ring, refs[0][1])
        elif self.unit_ref() in refs:
            return FreeModuleElement(self.ring, {})
        if sum(r[0] for r in refs) + n - 2 > self.complex.top():
            return FreeModuleElement(self.ring, {})  # vanishes by degree
        if n > self.arity_cap:
            raise ArityCapError(n, self.arity_cap)
        key = (n, refs)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        elt, d = self._lambda(refs)
        out = self.ctr.proj_at(d).apply(elt)
        self._cache[key] = out
        return out

    def op_degree(self, n: int, refs) -> int:
        return sum(r[0] for r in refs) + n - 2

    def op_on_elements(self, n: int, slots) -> FreeModuleElement:
        """Multilinear extension: slots = list of (deg, FreeModuleElement)."""
        out = FreeModuleElement(self.ring, {})
        for refs, coeff in _expand(slots):
            val = self.op(n, refs)
            if val.coords:
                out = out + val.mul_poly(coeff)
        return out


def _expand(slots):
    """Tensor expansion of (deg, element) slots into (basis refs, coefficient)."""
    ring = slots[0][1].ring
    combos = [((), ring.one())]
    for d, v in slots:
        nxt = []
        for refs, coeff in combos:
            for i, f in v.coords.items():
                nxt.append((refs + ((d, i),), coeff * f))
        combos = nxt
    return [(refs, c) for refs, c in combos if c]


class AInfModule:
    """A-infinity module operations on the minimal complex of a dg module."""

    def __init__(self, alg: AInfAlgebra, ctr_y: Contraction, big_module,
                 arity_cap: int = 4, degree_cap: int = 10):
        self.alg = alg
        self.ctr_y = ctr_y
        self.big = big_module
        self.complex = ctr_y.small
        self.arity_cap = arity_cap
        self.degree_cap = degree_cap
        self._cache = {}

    @property
    def ring(self):
        return self.complex.ring

    def _omega(self, xrefs, yref):
        ctr_x = self.alg.ctr
        xargs = [self.alg._incl(r) for r in xrefs]
        xdegs = [r[0] for r in xrefs]
        yelt = self.ctr_y.incl_at(yref[0]).column(yref[1])
        k_total = len(xrefs) + 1
        memo = {}

        def HX(lo, hi):
            if hi - lo == 1:
                return -xargs[lo], xdegs[lo]
            elt, d = self.alg._lambda(tuple(xrefs[lo:hi]))
            # _lambda memoizes per call; fine at these sizes
            return ctr_x.htpy_at(d).apply(elt), d + 1

        def HY(lo):
            # omega over x-interval [lo, end) with the y slot
            if lo == len(xrefs):
                return -yelt, yref[0]
            elt, d = om(lo)
            return self.ctr_y.htpy_at(d).apply(elt), d + 1

        def om(lo):
            if lo in memo:
                return memo[lo]
            k = (len(xrefs) - lo) + 1
            assert k >= 2
            total = FreeModuleElement(self.ring, {})
            deg_out = sum(xdegs[lo:]) + yref[0] + k - 2
            for s in range(1, k):
                left, dl = HX(lo, lo + s)
                right, dr = HY(lo + s)
                if not left.coords or not right.coords:
                    continue
                sign = _sigma(k, s)
                if ((k - s - 1) * sum(xdegs[lo:lo + s])) % 2:
                    sign = -sign
                term = self.big.action_elements(dl, left, dr, right)
                if term.coords:
                    total = total + (term if sign > 0 else -term)
            memo[lo] = (total, deg_out)
            return memo[lo]

        return om(0)

    def op(self, n: int, xrefs, yref) -> FreeModuleElement:
        """mu_n(x_1,...,x_{n-1}, y) on small basis refs."""
        if n == 1:
            d, i = yref
            return self.complex.diff(d).column(i)
        xrefs = tuple(xrefs)
        if n == 2 and xrefs[0] == self.alg.unit_ref():
            return FreeModuleElement.basis(self.ring, yref[1])
        if n >= 3 and self.alg.unit_ref() in xrefs:
            return FreeModuleElement(self.ring, {})
        if sum(r[0] for r in xrefs) + yref[0] + n - 2 > self.complex.top():
            return FreeModuleElement(self.ring, {})  # vanishes by degree
        if n > self.arity_cap:
            raise ArityCapError(n, self.arity_cap)
        key = (n, xrefs, yref)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        elt, d = self._omega(xrefs, yref)
        out = self.ctr_y.proj_at(d).apply(elt)
        self._cache[key] = out
        return out

    def op_on_elements(self, n: int, xslots, yslot) -> FreeModuleElement:
        out = FreeModuleElement(self.ring, {})
        ydeg, yv = yslot
        if not xslots:
            for iy, fy in yv.coords.items():
                val = self.op(n, (), (ydeg, iy))
                if val.coords:
                    out = out + val.mul_poly(fy)
            return out
        for refs, coeff in _expand(xslots):
            for iy, fy in yv.coords.items():
                val = self.op(n, refs, (ydeg, iy))
                if val.coords:
                    out = out + val.mul_poly(coeff * fy)
        return out


# ---------------------------------------------------------------------------
# Stasheff checkers
# ---------------------------------------------------------------------------


def _tuples_within(complex_, count, degree_cap, positive_only=False):
    """All basis-ref tuples of the given length with bounded total degree."""
    degrees = []
    for d in range(complex_.top() + 1):
        for i in range(complex_.rank(d)):
            if positive_only and d == 0:
                continue
            degrees.append((d, i))

    out = []

    def rec(prefix, remaining, used):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for ref in degrees:
            if used + ref[0] <= degree_cap:
                prefix.append(ref)
                rec(prefix, remaining - 1, used + ref[0])
                prefix.pop()

    rec([], count, 0)
    return out


def stasheff_identity_algebra(alg: AInfAlgebra, n: int, refs) -> FreeModuleElement:
    """Value of the n-th Stasheff identity sum on one basis tuple: should be 0.

    sum over r+s+t = n of (-1)^(r+st) m_(r+1+t)(1^r (x) m_s (x) 1^t), with
    the Koszul application sign (-1)^(|m_s| * deg(first r args)).
    """
    ring = alg.ring
    total = FreeModuleElement(ring, {})
    for s in range(1, n + 1):
        for r in range(0, n - s + 1):
            t = n - s - r
            inner = alg.op(s, refs[r:r + s])
            if not inner.coords:
                continue
            inner_deg = alg.op_degree(s, refs[r:r + s])
            sign = -1 if (r + s * t) % 2 else 1
            if (s * sum(rr[0] for rr in refs[:r])) % 2:
                sign = -sign
            slots = ([(rr[0], FreeModuleElement.basis(ring, rr[1])) for rr in refs[:r]]
                     + [(inner_deg, inner)]
                     + [(rr[0], FreeModuleElement.basis(ring, rr[1])) for rr in refs[r + s:]])
            term = alg.op_on_elements(r + 1 + t, slots)
            if term.coords:
                total = total + (term if sign > 0 else -term)
    return total


def stasheff_identity_module(mod: AInfModule, n: int, xrefs, yref) -> FreeModuleElement:
    """Module Stasheff identity on (x_1..x_{n-1}, y): should vanish."""
    ring = mod.ring
    alg = mod.alg
    total = FreeModuleElement(ring, {})
    nx = len(xrefs)
    # inner operation on x-slots only (t >= 1 keeps the y slot outside)
    for s in range(1, nx + 1):
        for r in range(0, nx - s + 1):
            t = n - s - r
            if t < 1:
                continue
            inner = alg.op(s, xrefs[r:r + s])
            if not inner.coords:
                continue
            inner_deg = alg.op_degree(s, xrefs[r:r + s])
            sign = -1 if (r + s * t) % 2 else 1
            if (s * sum(rr[0] for rr in xrefs[:r])) % 2:
                sign = -sign
            xslots = ([(rr[0], FreeModuleElement.basis(ring, rr[1])) for rr in xrefs[:r]]
                      + [(inner_deg, inner)]
                      + [(rr[0], FreeModuleElement.basis(ring, rr[1])) for rr in xrefs[r + s:]])
            term = mod.op_on_elements(r + 1 + t, xslots,
                                      (yref[0], FreeModuleElement.basis(ring, yref[1])))
            if term.coords:
                total = total + (term if sign > 0 else -term)
    # inner operation swallowing the y slot (t = 0)
    for s in range(1, n + 1):
        r = n - s
        if r > nx:
            continue
        inner = mod.op(s, xrefs[r:], yref)
        if not inner.coords:
            continue
        inner_deg = sum(rr[0] for rr in xrefs[r:]) + yref[0] + s - 2
        sign = -1 if r % 2 else 1
        if (s * sum(rr[0] for rr in xrefs[:r])) % 2:
            sign = -sign
        term = mod.op_on_elements(r + 1, [(rr[0], FreeModuleElement.basis(ring, rr[1]))
                                          for rr in xrefs[:r]], (inner_deg, inner))
        if term.coords:
            total = total + (term if sign > 0 else -term)
    return total


def stasheff_check_algebra(alg: AInfAlgebra, n: int, degree_cap: int | None = None):
    """Evaluate the n-th identity on every basis tuple within the degree cap."""
    cap = alg.degree_cap if degree_cap is None else degree_cap
    for refs in _tuples_within(alg.complex, n, cap):
        val = stasheff_identity_algebra(alg, n, refs)
        if val.coords:
            raise InternalCheckError(f"Stasheff identity {n} fails on {refs}: {val}")
    return True


def stasheff_check_module(mod: AInfModule, n: int, degree_cap: int | None = None):
    cap = mod.degree_cap if degree_cap is None else degree_cap
    for xrefs in _tuples_within(mod.alg.complex, n - 1, cap):
        used = sum(r[0] for r in xrefs)
        for yd in range(mod.complex.top() + 1):
            if used + yd > cap:
                continue
            for iy in range(mod.complex.rank(yd)):
                val = stasheff_identity_module(mod, n, xrefs, (yd, iy))
                if val.coords:
                    raise InternalCheckError(
                        f"module Stasheff identity {n} fails on {xrefs}, y=({yd},{iy}): {val}")
    return True


def check_minimality(alg: AInfAlgebra, arities=None):
    """m_n of positive-degree inputs lands in n * X for minimal X."""
    for n in arities or range(2, alg.arity_cap + 1):
        for refs in _tuples_within(alg.complex, n, alg.degree_cap, positive_only=True):
            val = alg.op(n, refs)
            for f in val.coords.values():
                if f.constant_coeff():
                    raise InternalCheckError(f"m_{n}{refs} has a unit coordinate")
    return True


def check_module_minimality(mod: AInfModule, arities=None):
    for n in arities or range(2, mod.arity_cap + 1):
        for xrefs in _tuples_within(mod.alg.complex, n - 1, mod.degree_cap, positive_only=True):
            for yd in range(mod.complex.top() + 1):
                for iy in range(mod.complex.rank(yd)):
                    val = mod.op(n, xrefs, (yd, iy))
                    for f in val.coords.values():
                        if f.constant_coeff():
                            raise InternalCheckError(
                                f"mu_{n}{xrefs} on ({yd},{iy}) has a unit coordinate")
    return True

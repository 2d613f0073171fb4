"""Exact arithmetic in Q = F_p[x_1,...,x_n] with the standard grading.

Monomials are plain exponent tuples; polynomials are sparse dicts mapping
exponent tuples to nonzero residues mod p.  The monomial order is graded
reverse lexicographic throughout, which fixes leading terms, printing and
every tie-break in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from operator import add

Mono = tuple  # exponent tuple, one entry per variable


def mono_deg(m: Mono) -> int:
    return sum(m)


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    """a / b, assuming b divides a."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_gcd(a: Mono, b: Mono) -> Mono:
    return tuple(min(x, y) for x, y in zip(a, b))


def grevlex_key(m: Mono):
    """Sort key: ascending order of this key is ascending grevlex order.

    Within a degree, a >_grevlex b iff the last nonzero entry of a-b is
    negative, i.e. iff reversed(a) precedes reversed(b) lexicographically.
    """
    return (sum(m), tuple(-e for e in reversed(m)))


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first twelve prime bases, which decides every
    n < 3.3 * 10^24 (above that it is a strong probable-prime test)."""
    if n < 2 or any(n % q == 0 for q in _PRIME_BASES):
        return n in _PRIME_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def monomials_of_degree(nvars: int, d: int):
    """All exponent tuples of total degree d, in ascending grevlex order."""
    if d < 0:
        return []
    if nvars == 0:
        return [()] if d == 0 else []
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    out.sort(key=grevlex_key)
    return out


@dataclass(frozen=True)
class PolyRing:
    """The ambient graded polynomial ring over the prime field F_p."""

    p: int
    variables: tuple

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: 1})

    def var(self, i) -> "Polynomial":
        if isinstance(i, str):
            i = self.variables.index(i)
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): 1})

    def monomial(self, exps, coeff: int = 1) -> "Polynomial":
        coeff %= self.p
        return Polynomial(self, {tuple(exps): coeff} if coeff else {})

    def inv(self, c: int) -> int:
        return pow(c, self.p - 2, self.p)

    def maximal_ideal_gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(self, text)


class Polynomial:
    """Sparse multivariate polynomial over F_p; terms maps Mono -> nonzero coeff."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- structure ---------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms and self.ring is other.ring

    def __hash__(self):
        return hash((id(self.ring), frozenset(self.terms.items())))

    def is_homogeneous(self) -> bool:
        degs = {mono_deg(m) for m in self.terms}
        return len(degs) <= 1

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((mono_deg(m) for m in self.terms), default=-1)

    def constant_coeff(self) -> int:
        return self.terms.get((0,) * self.ring.nvars, 0)

    # -- grevlex leading data ----------------------------------------------

    def lead_monomial(self) -> Mono:
        return max(self.terms, key=grevlex_key)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        p = self.ring.p
        res = dict(self.terms)
        for m, c in other.terms.items():
            v = (res.get(m, 0) + c) % p
            if v:
                res[m] = v
            else:
                res.pop(m, None)
        return Polynomial(self.ring, res)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        p = self.ring.p
        res = dict(self.terms)
        for m, c in other.terms.items():
            v = (res.get(m, 0) - c) % p
            if v:
                res[m] = v
            else:
                res.pop(m, None)
        return Polynomial(self.ring, res)

    def __neg__(self) -> "Polynomial":
        p = self.ring.p
        return Polynomial(self.ring, {m: p - c for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        p = self.ring.p
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                v = (res.get(m, 0) + c1 * c2) % p
                if v:
                    res[m] = v
                else:
                    res.pop(m, None)
        return Polynomial(self.ring, res)

    def scale(self, c: int) -> "Polynomial":
        p = self.ring.p
        c %= p
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        return Polynomial(self.ring, {m: (v * c) % p for m, v in self.terms.items()})

    def mul_term(self, mono: Mono, coeff: int) -> "Polynomial":
        p = self.ring.p
        coeff %= p
        if coeff == 0:
            return self.ring.zero()
        return Polynomial(self.ring, {mono_mul(m, mono): (v * coeff) % p for m, v in self.terms.items()})

    # -- printing ------------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.ring.variables
        parts = []
        for m, c in reversed(self.sorted_terms()):
            factors = []
            if c != 1 or mono_deg(m) == 0:
                factors.append(str(c))
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def poly_sort_key(f: Polynomial):
    """Ascending grevlex on leading monomials, ties by the full term list."""
    if not f.terms:
        return ((-1, ()), ())
    return (grevlex_key(f.lead_monomial()), tuple(sorted(f.terms.items())))


class ParseError(ValueError):
    pass


def _ascii_int(s: str) -> int | None:
    """s as an int if it is a nonempty run of ASCII digits, else None.

    str.isdigit and int() also take other Unicode digits ("٣", "¹"), and
    int() takes "_" separators and signs; none of those is a number here.
    """
    if not s or not all("0" <= ch <= "9" for ch in s):
        return None
    try:
        return int(s)
    except ValueError:   # beyond the interpreter's limit on int digits
        raise ParseError(f"number with {len(s)} digits is too long") from None


def parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    """Parse 'c*x^2*y - 3*z + 1' style polynomial strings.

    Multiplication must be explicit (*), powers use ^, terms are joined by
    + and -.  Variable names must match the ring's declared variables.
    """
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial string")
    # split into signed terms
    terms = []
    sign, cur = 1, ""
    for ch in s:
        if ch in "+-" and cur != "" and not cur.endswith("^"):
            terms.append((sign, cur))
            sign = 1 if ch == "+" else -1
            cur = ""
        elif ch in "+-" and cur == "":
            sign *= 1 if ch == "+" else -1
        else:
            cur += ch
    if cur == "":
        raise ParseError(f"dangling sign in {text!r}")
    terms.append((sign, cur))

    result = ring.zero()
    for sign, term in terms:
        coeff = sign % ring.p
        exps = [0] * ring.nvars
        for factor in term.split("*"):
            if factor == "":
                raise ParseError(f"empty factor in term {term!r} of {text!r}")
            if "^" in factor:
                base, _, power = factor.partition("^")
                if power.startswith("-") and _ascii_int(power[1:]) is not None:
                    raise ParseError(f"negative exponent in {text!r}")
                e = _ascii_int(power)
                if e is None:
                    raise ParseError(f"bad exponent {power!r} in {text!r}")
            else:
                base, e = factor, 1
            c = _ascii_int(base)
            if c is not None:
                coeff = coeff * pow(c, e, ring.p) % ring.p
            elif base in ring.variables:
                exps[ring.variables.index(base)] += e
            else:
                raise ParseError(f"unknown variable {base!r} in {text!r}")
        result = result + ring.monomial(exps, coeff)
    return result

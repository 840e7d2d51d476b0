"""Two families of Hamiltonian-type modular Lie algebras on divided powers.

GradedHamiltonian is the algebra spanned by all height-bounded monomials
except the constant and the top monomial xbar*ybar (dimension p^(n1+n2) - 2);
AlbertZassenhaus keeps every monomial (dimension p^(n1+n2)) and deviates from
the plain Poisson rule only on brackets of two pure y-monomials, which pick up
a factor xbar.  Structure constants live in the prime field and are memoized
per descriptor.  Also defines the distinguished nilpotent-or-semisimple
derivation (ad y)^(p^s) with its closed form when n1 = s + 1.
"""

from __future__ import annotations

import enum

from .dpalgebra import AlgebraElement, Heights, Monomial
from .ffield import FieldParams, lucas_binomial


class Family(enum.Enum):
    GRADED_HAMILTONIAN = "graded-hamiltonian"
    ALBERT_ZASSENHAUS = "albert-zassenhaus"


def poisson_coeff(p: int, i: int, j: int, k: int, l: int) -> int:
    """Structure constant of {x^(i)y^(j), x^(k)y^(l)} on x^(i+k-1)y^(j+l-1)."""
    return (
        lucas_binomial(i + k - 1, i, p) * lucas_binomial(j + l - 1, j - 1, p)
        - lucas_binomial(i + k - 1, i - 1, p) * lucas_binomial(j + l - 1, j, p)
    ) % p


class AlgebraDescriptor:
    """One algebra: family, coefficient field and exponent heights."""

    def __init__(self, family: Family, field: FieldParams, heights: Heights):
        if field.p != heights.p:
            raise ValueError("field and heights disagree on p")
        self.family = family
        self.field = field
        self.heights = heights
        if family is Family.GRADED_HAMILTONIAN:
            self.excluded = frozenset({heights.unit, heights.top})
        else:
            self.excluded = frozenset()
        self.basis = [m for m in heights.monomials() if m not in self.excluded]
        self._index = {m: k for k, m in enumerate(self.basis)}
        self._table: dict[tuple[Monomial, Monomial], tuple[int, Monomial] | None] = {}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def zero(self) -> AlgebraElement:
        return AlgebraElement.zero(self.field, self.heights)

    def basis_element(self, mono, coeff=1) -> AlgebraElement:
        mono = Monomial(*mono)
        if mono not in self._index:
            raise ValueError(f"{mono} is not a basis monomial of this algebra")
        return AlgebraElement.from_monomial(self.field, self.heights, mono, coeff)

    def bracket_mono(self, a: Monomial, b: Monomial):
        """Bracket of two basis monomials: (int coefficient, Monomial) or None."""
        key = (a, b)
        try:
            return self._table[key]
        except KeyError:
            out = self._bracket_mono_raw(a, b)
            self._table[key] = out
            return out

    def _bracket_mono_raw(self, a: Monomial, b: Monomial):
        h = self.heights
        p = h.p
        if self.family is Family.ALBERT_ZASSENHAUS and a.i == 0 and b.i == 0:
            # exceptional rule on pure y-monomials, lands on xbar*y^(j+l-1)
            jy = a.j + b.j - 1
            if jy < 0:
                return None
            c = (lucas_binomial(jy, b.j, p) - lucas_binomial(jy, a.j, p)) % p
            if jy >= h.ybound:
                if c != 0:
                    raise ArithmeticError(
                        f"overflowing bracket {a},{b} has coefficient {c}")
                return None
            if c == 0:
                return None
            return c, Monomial(h.xbound - 1, jy)
        ix = a.i + b.i - 1
        jy = a.j + b.j - 1
        if ix < 0 or jy < 0:
            return None
        c = poisson_coeff(p, a.i, a.j, b.i, b.j)
        if ix >= h.xbound or jy >= h.ybound:
            if c != 0:
                raise ArithmeticError(
                    f"overflowing bracket {a},{b} has coefficient {c}")
            return None
        if c == 0:
            return None
        mono = Monomial(ix, jy)
        if self.family is Family.GRADED_HAMILTONIAN:
            if mono == h.unit:
                return None  # constants act as zero
            if mono == h.top:
                raise ArithmeticError(
                    f"bracket {a},{b} produced the excluded top monomial")
        return c, mono

    def bracket(self, u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
        """Lie bracket, bilinear over the monomial structure constants."""
        for w in (u, v):
            if w.field != self.field or w.heights != self.heights:
                raise ValueError("element does not live in this algebra")
            for m in w.terms:
                if m not in self._index:
                    raise ValueError(f"element supported outside the basis: {m}")
        out = {}
        for m1, c1 in u.terms.items():
            for m2, c2 in v.terms.items():
                hit = self.bracket_mono(m1, m2)
                if hit is None:
                    continue
                k, mono = hit
                c = c1 * c2 * k
                acc = out.get(mono)
                c = c if acc is None else acc + c
                if c.is_zero():
                    out.pop(mono, None)
                else:
                    out[mono] = c
        return AlgebraElement._make(self.field, self.heights, out)

    def project(self, v: AlgebraElement) -> AlgebraElement:
        """Restrict an ambient element onto the basis span.

        For GradedHamiltonian the constant term is dropped (constants act as
        zero); a top-monomial term cannot be silently discarded and errors.
        """
        if not self.excluded:
            return v
        terms = dict(v.terms)
        terms.pop(self.heights.unit, None)
        if self.heights.top in terms:
            raise ValueError("projection would discard a top-monomial term")
        return AlgebraElement._make(self.field, self.heights, terms)

    def __repr__(self):
        h = self.heights
        return f"<{self.family.value} p={h.p} heights=({h.n1},{h.n2}) dim={self.dim}>"


class Derivation:
    """The derivation (ad y)^(p^s), ad y = bracket with y on the left.

    For n1 = s + 1 a closed form is available: writing a monomial as
    x^(a p^s + r) y^(j+1) with 0 <= r < p^s, the image keeps (r, j) and either
    lowers a by one (a > 0, coefficient 1) or, in AlbertZassenhaus, wraps a to
    p - 1 with coefficient -j (a = 0; zero in GradedHamiltonian).  Both
    realizations are exposed so they can be checked against each other.
    """

    def __init__(self, descriptor: AlgebraDescriptor, s: int):
        if s < 0:
            raise ValueError("s must be >= 0")
        self.descriptor = descriptor
        self.s = s
        self.has_closed_form = descriptor.heights.n1 == s + 1
        self._y = descriptor.basis_element(Monomial(0, 1))

    def apply_mono(self, m: Monomial):
        """Closed-form image of a basis monomial: (int, Monomial) or None."""
        if not self.has_closed_form:
            raise ValueError("closed form needs n1 = s + 1")
        h = self.descriptor.heights
        p = h.p
        ps = p ** self.s
        a, r = divmod(m.i, ps)
        if a > 0:
            tgt = Monomial(m.i - ps, m.j)
            if tgt in self.descriptor.excluded:
                return None
            return 1, tgt
        if self.descriptor.family is Family.GRADED_HAMILTONIAN:
            return None
        c = -(m.j - 1) % p
        if c == 0:
            return None
        return c, Monomial((p - 1) * ps + r, m.j)

    def apply(self, v: AlgebraElement) -> AlgebraElement:
        if not self.has_closed_form:
            return self.apply_iterated(v)
        out = {}
        for mono, coeff in v.terms.items():
            hit = self.apply_mono(mono)
            if hit is None:
                continue
            k, tgt = hit
            c = coeff * k
            acc = out.get(tgt)
            c = c if acc is None else acc + c
            if c.is_zero():
                out.pop(tgt, None)
            else:
                out[tgt] = c
        return AlgebraElement._make(v.field, v.heights, out)

    def apply_iterated(self, v: AlgebraElement) -> AlgebraElement:
        """p^s-fold bracket with y; independent of the closed form."""
        for _ in range(self.descriptor.heights.p ** self.s):
            v = self.descriptor.bracket(self._y, v)
        return v

    def apply_power(self, v: AlgebraElement, k: int) -> AlgebraElement:
        for _ in range(k):
            v = self.apply(v)
        return v


# ---------------------------------------------------------------------------
# exhaustive law checks over the integer structure-constant tables

def anticommutativity_violations(desc: AlgebraDescriptor) -> list:
    """[u,v] = -[v,u] and [u,u] = 0 over all basis monomial pairs."""
    p = desc.heights.p
    bad = []
    basis = desc.basis
    for a in basis:
        if desc.bracket_mono(a, a) is not None:
            bad.append((a, a))
    for idx, a in enumerate(basis):
        for b in basis[idx + 1:]:
            ab = desc.bracket_mono(a, b)
            ba = desc.bracket_mono(b, a)
            if ab is None and ba is None:
                continue
            if (
                ab is None
                or ba is None
                or ab[1] != ba[1]
                or (ab[0] + ba[0]) % p != 0
            ):
                bad.append((a, b))
    return bad


def jacobi_violations(desc: AlgebraDescriptor) -> list:
    """Jacobi identity over all strictly sorted basis monomial triples.

    Together with bilinearity and the anticommutativity check this covers
    every triple: permutations only flip the sign of the cyclic sum and
    repeated entries vanish identically.
    """
    p = desc.heights.p
    basis = desc.basis
    table = desc.bracket_mono
    bad = []

    def step(u, v, w, acc):
        uv = table(u, v)
        if uv is None:
            return
        c, m = uv
        mw = table(m, w)
        if mw is None:
            return
        c2, m2 = mw
        acc[m2] = (acc.get(m2, 0) + c * c2) % p

    n = len(basis)
    for ia in range(n):
        a = basis[ia]
        for ib in range(ia + 1, n):
            b = basis[ib]
            for ic in range(ib + 1, n):
                c = basis[ic]
                acc: dict = {}
                step(a, b, c, acc)
                step(b, c, a, acc)
                step(c, a, b, acc)
                if any(v % p for v in acc.values()):
                    bad.append((a, b, c))
    return bad


def closure_violations(desc: AlgebraDescriptor) -> list:
    """Every bracket of basis monomials is supported on the basis.

    For GradedHamiltonian this also certifies that the unprojected Poisson
    rule never produces the excluded top monomial with nonzero coefficient.
    """
    h = desc.heights
    p = h.p
    bad = []
    for a in desc.basis:
        for b in desc.basis:
            if desc.family is Family.GRADED_HAMILTONIAN:
                ix, jy = a.i + b.i - 1, a.j + b.j - 1
                if (ix, jy) == h.top and poisson_coeff(p, a.i, a.j, b.i, b.j) != 0:
                    bad.append((a, b))
                    continue
            hit = desc.bracket_mono(a, b)
            if hit is not None and hit[1] not in desc._index:
                bad.append((a, b))
    return bad


def leibniz_violations(deriv: Derivation) -> list:
    """D[u,v] = [Du,v] + [u,Dv] over all basis monomial pairs."""
    desc = deriv.descriptor
    bad = []
    elems = {m: desc.basis_element(m) for m in desc.basis}
    images = {m: deriv.apply(elems[m]) for m in desc.basis}
    for a in desc.basis:
        for b in desc.basis:
            lhs = deriv.apply(desc.bracket(elems[a], elems[b]))
            rhs = desc.bracket(images[a], elems[b]) + desc.bracket(elems[a], images[b])
            if lhs != rhs:
                bad.append((a, b))
    return bad


def derivation_power_violations(deriv: Derivation) -> list:
    """Family-specific power laws of D on every basis monomial.

    GradedHamiltonian with n1 = s+1: D^p = 0.  AlbertZassenhaus with
    n1 = s+1: D^p is diagonal with eigenvalue -j on y-exponent j+1, and
    consequently D^(p^2) = D^p.  Other (s, n1) carry no claimed power law,
    so the check is vacuous there.
    """
    desc = deriv.descriptor
    if not deriv.has_closed_form:
        return []
    p = desc.heights.p
    bad = []
    for m in desc.basis:
        v = desc.basis_element(m)
        dp = deriv.apply_power(v, p)
        if desc.family is Family.GRADED_HAMILTONIAN:
            if not dp.is_zero():
                bad.append((m, "D^p != 0"))
            continue
        expected = v.scale(-(m.j - 1))
        if dp != expected:
            bad.append((m, "D^p eigenvalue"))
        if deriv.apply_power(dp, p * p - p) != dp:
            bad.append((m, "D^(p^2) != D^p"))
    return bad


def realization_violations(deriv: Derivation) -> list:
    """Closed-form vs iterated-ad realization on every basis monomial."""
    if not deriv.has_closed_form:
        return []
    desc = deriv.descriptor
    bad = []
    for m in desc.basis:
        v = desc.basis_element(m)
        if deriv.apply(v) != deriv.apply_iterated(v):
            bad.append(m)
    return bad

"""Finite groups, 2-cocycles, length functions, and twisted group algebras.

Groups are multiplication tables over element indices 0..n-1.  The twisted
group algebra is realized concretely by the twisted left regular
representation; the right regular representation is carried alongside for
spectral triples over the opposite algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import (
    ConcreteAlgebra,
    LinearFunctional,
    TraceFunctional,
    as_trace,
    build_algebra,
)
from .channels import ChannelMap
from .errors import (
    InvalidCocycle,
    InvalidGroup,
    InvalidLength,
    NotPositiveDefinite,
)
from .geometry import CommutatorSeminorm
from .linalg import EPS_PSD, EPS_STRUCT, complex_samples, hermitian_part


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A group is its table: mult[a, b] is the index of ab, and inverse[a]
    (set on construction) that of a^-1; its order is the table's size.
    `==` is identity, as for every class here that holds arrays: groups
    compare with `same_as`."""

    mult: np.ndarray                 # (n, n) index table
    identity: int
    name: str = ""
    generators: tuple = ()           # canonical generating set, may be empty

    def __post_init__(self):
        # np.asarray(..., dtype=int) would truncate a fractional entry
        try:
            table = np.asarray(self.mult)
        except ValueError:
            raise InvalidGroup("table rows differ in length") from None
        if table.dtype.kind not in "iu":
            raise InvalidGroup(f"table entries of type {table.dtype}: not integers")
        object.__setattr__(self, "mult", table.astype(int))
        _validate_group(self)
        # every row is a permutation: the identity sits once in each
        object.__setattr__(self, "inverse",
                           np.argmax(self.mult == self.identity, axis=1))

    @property
    def order(self) -> int:
        return len(self.mult)

    def same_as(self, other: "FiniteGroup") -> bool:
        return (self is other
                or (self.identity == other.identity
                    and np.array_equal(self.mult, other.mult)))


def _is_index(a, n: int) -> bool:
    """Whether `a` is an element index: an integer, not a bool, in [0, n)."""
    return (not isinstance(a, bool) and isinstance(a, (int, np.integer))
            and 0 <= a < n)


def _validate_group(g: FiniteGroup):
    t = g.mult
    if t.ndim != 2 or t.shape[0] != t.shape[1] or not t.size:
        raise InvalidGroup(f"table of shape {t.shape}: not a nonempty square table")
    n = len(t)
    if t.min() < 0 or t.max() >= n:
        raise InvalidGroup("table entries out of range")
    e = g.identity
    if not _is_index(e, n):
        raise InvalidGroup(f"identity {e!r} is not an element index in [0, {n})")
    if not (np.array_equal(t[e], np.arange(n)) and np.array_equal(t[:, e], np.arange(n))):
        raise InvalidGroup("identity law fails")
    # associativity over the full table
    left = t[t, :]                  # left[a, b, c] = (ab)c
    right = t[:, t]                 # right[a, b, c] = a(bc)
    if not np.array_equal(left, right):
        raise InvalidGroup("associativity fails")
    for a in range(n):
        if len(set(t[a])) != n:
            raise InvalidGroup(f"row {a} is not a permutation")
    for a in g.generators:
        if not _is_index(a, n):
            raise InvalidGroup(f"generator {a!r} is not an element index in [0, {n})")


# -- constructors ------------------------------------------------------------

def cyclic_group(n: int) -> FiniteGroup:
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    gens = (1,) if n > 1 else ()
    return FiniteGroup(table, 0, name=f"Z{n}", generators=gens)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    n, m = g.order, h.order
    # table[(a1, a2), (b1, b2)] = (a1 b1) * m + (a2 b2)
    table = (g.mult[:, None, :, None] * m + h.mult[None, :, None, :]).reshape(n * m, n * m)
    gens = tuple(a * m + h.identity for a in g.generators) + \
        tuple(g.identity * m + b for b in h.generators)
    return FiniteGroup(table, g.identity * m + h.identity,
                       name=f"{g.name}x{h.name}", generators=gens)


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; elements r^k (0..n-1) then s r^k (n..2n-1)."""
    order = 2 * n

    def mul(a, b):
        # elements written s^f r^k with s r^k s = r^-k
        fa, ka = divmod(a, n)
        fb, kb = divmod(b, n)
        if fb == 0:
            return fa * n + (ka + kb) % n
        return (1 - fa) * n + (kb - ka) % n

    table = np.array([[mul(a, b) for b in range(order)] for a in range(order)])
    return FiniteGroup(table, 0, name=f"D{n}", generators=(1, n))


def symmetric_group_3() -> FiniteGroup:
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    table = np.array([[index[compose(p, q)] for q in perms] for p in perms])
    e = index[(0, 1, 2)]
    transpositions = tuple(index[p] for p in perms
                           if sum(p[i] != i for i in range(3)) == 2)
    return FiniteGroup(table, e, name="S3", generators=transpositions)


# -- length functions ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LengthFunction:
    group: FiniteGroup
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        g = self.group
        if vals.shape != (g.order,):
            raise InvalidLength("length vector size mismatch")
        if not (np.isfinite(vals) & (vals >= 0)).all():
            raise InvalidLength("lengths must be finite and non-negative")
        if abs(vals[g.identity]) > EPS_STRUCT:
            raise InvalidLength("l(e) != 0")
        asym = np.flatnonzero(np.abs(vals - vals[g.inverse]) > EPS_STRUCT)
        if asym.size:
            raise InvalidLength(f"l({asym[0]}) != l({asym[0]}^-1)")
        prod = g.mult
        bound = vals[:, None] + vals[None, :]
        if (vals[prod] - bound).max() > EPS_STRUCT:
            a, b = np.unravel_index(int(np.argmax(vals[prod] - bound)), prod.shape)
            raise InvalidLength(
                f"subadditivity fails: l({a}{b}) = {vals[prod[a, b]]} > "
                f"{vals[a]} + {vals[b]}")


def word_length(g: FiniteGroup) -> LengthFunction:
    """Word length over the symmetric closure of the group's generators (of
    every non-identity element when it names none), by breadth-first search
    from the identity."""
    gens = list(g.generators) or [a for a in range(g.order) if a != g.identity]
    gens = sorted({*gens, *g.inverse[gens]})
    dist = np.full(g.order, np.inf)
    dist[g.identity] = 0.0
    frontier = [g.identity]
    while frontier:
        reached = []
        for x in frontier:
            for a in gens:
                y = g.mult[a, x]
                if np.isinf(dist[y]):
                    dist[y] = dist[x] + 1.0
                    reached.append(y)
        frontier = reached
    if np.isinf(dist).any():
        raise InvalidLength("the generators do not generate the group")
    return LengthFunction(g, dist)


# -- cocycles -------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Cocycle:
    group: FiniteGroup
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=complex)
        object.__setattr__(self, "table", t)
        g = self.group
        n = g.order
        if t.shape != (n, n):
            raise InvalidCocycle("cocycle table shape mismatch")
        # written so that NaN, which fails every comparison, fails it too
        if not (np.abs(np.abs(t) - 1.0) <= EPS_STRUCT).all():
            raise InvalidCocycle("cocycle values must be finite, of unit modulus")
        e = g.identity
        if np.abs(t[e, :] - 1.0).max() > EPS_STRUCT or np.abs(t[:, e] - 1.0).max() > EPS_STRUCT:
            raise InvalidCocycle("cocycle is not normalized")
        prod = g.mult
        lhs = t[:, :, None] * t[prod, :]                 # sigma(g,h) sigma(gh,k)
        rhs = t[:, prod] * t[None, :, :]                 # sigma(g,hk) sigma(h,k)
        if np.abs(lhs - rhs).max() > 1e-10:
            raise InvalidCocycle("cocycle identity fails")


def trivial_cocycle(g: FiniteGroup) -> Cocycle:
    return Cocycle(g, np.ones((g.order, g.order), dtype=complex))


def klein_twist_cocycle(g: FiniteGroup) -> Cocycle:
    """The bilinear twist sigma((a1,a2),(b1,b2)) = (-1)^(a2 b1) on Z2 x Z2,
    using the direct-product element coding (a1, a2) -> 2 a1 + a2."""
    if g.order != 4:
        raise InvalidCocycle("the Klein twist needs a group of order 4")
    table = np.ones((4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            a2, b1 = a % 2, b // 2
            table[a, b] = (-1.0) ** (a2 * b1)
    return Cocycle(g, table)


# -- the twisted algebra ---------------------------------------------------------

@dataclass(eq=False)
class GroupAlgebra:
    """Twisted group algebra with its right regular representation; the
    left one is `algebra.basis`."""

    group: FiniteGroup
    algebra: ConcreteAlgebra
    right_rep: np.ndarray            # (n, n, n); rho_g matrices


def twisted_group_algebra(g: FiniteGroup, sigma: Cocycle | None = None) -> GroupAlgebra:
    """Span of the twisted left translations lambda^sigma_g on l2(G).

    (lambda_g)[x, y] = sigma(g, y) [x = g y];  (rho_g)[x, y] = sigma(y, g) [x = y g].
    The product law lambda_g lambda_h = sigma(g, h) lambda_{gh} holds exactly.
    """
    if sigma is None:
        sigma = trivial_cocycle(g)
    if sigma.group is not g:
        raise InvalidCocycle("cocycle defined over another group")
    n = g.order
    a, y = np.indices((n, n))
    left = np.zeros((n, n, n), dtype=complex)
    right = np.zeros((n, n, n), dtype=complex)
    left[a, g.mult, y] = sigma.table
    right[a, g.mult.T, y] = sigma.table.T
    tag = "" if np.abs(sigma.table - 1.0).max() < 1e-14 else ",sigma"
    alg = build_algebra(left, name=f"C*({g.name}{tag})")
    return GroupAlgebra(g, alg, right)


def canonical_trace(ga: GroupAlgebra) -> TraceFunctional:
    """tau_sigma(lambda(f)) = f(e): 1 on lambda_e, 0 elsewhere; faithful."""
    vals = np.zeros(ga.group.order, dtype=complex)
    vals[ga.group.identity] = 1.0
    return as_trace(LinearFunctional(ga.algebra, vals))


# -- positive definite functions and multipliers ----------------------------------

@dataclass(frozen=True, eq=False)
class PositiveDefiniteFunction:
    group: FiniteGroup
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if not np.isfinite(vals).all():
            raise NotPositiveDefinite("values must be finite")
        mat = self.test_matrix()
        lam = np.linalg.eigvalsh(hermitian_part(mat))
        scale = max(1.0, float(np.abs(lam).max(initial=0.0)))
        herm_dev = float(np.abs(mat - mat.conj().T).max())
        if herm_dev > 1e-8 * scale or lam[0] < -EPS_PSD * scale:
            raise NotPositiveDefinite(
                f"positivity test matrix has eigenvalue {lam[0]:.3e}",
                witness_eigenvalue=float(lam[0]))

    def test_matrix(self) -> np.ndarray:
        """The matrix [phi(j^-1 i)]_{ij}."""
        g = self.group
        return self.values[g.mult[g.inverse].T]

    def is_normalized(self) -> bool:
        return abs(self.values[self.group.identity] - 1.0) <= EPS_STRUCT

    def circ(self) -> "PositiveDefiniteFunction":
        """phi°(g) = phi(g^-1); positive definite together with phi."""
        vals = self.values[self.group.inverse]
        return PositiveDefiniteFunction(self.group, vals)


def multiplier_channel(phi: PositiveDefiniteFunction, ga: GroupAlgebra) -> ChannelMap:
    """M_phi(lambda_g) = phi(g) lambda_g; completely positive, unital iff
    phi(e) = 1."""
    if not phi.group.same_as(ga.group):
        raise InvalidGroup("positive definite function on another group")
    return ChannelMap(ga.algebra, ga.algebra, np.diag(phi.values))


def multiplier_contraction_check(phi: PositiveDefiniteFunction, triple,
                                 samples: int, rng: np.random.Generator
                                 ) -> tuple[int, float]:
    """Check L(M_phi(x)) <= L(x) on random elements for a normalized phi,
    up to the relative slack EPS_STRUCT.  Returns the number of violations
    and the largest ratio L(M_phi(x)) / L(x) over the x with L(x) > 0."""
    if not phi.is_normalized():
        raise NotPositiveDefinite("contraction check needs phi(e) = 1")
    lip = CommutatorSeminorm(triple)
    coords = complex_samples(rng, samples, triple.algebra.dim)
    lx = lip.eval_coords(coords)
    lmx = lip.eval_coords(phi.values * coords)
    nonzero = lx > 1e-12
    violations = int(np.count_nonzero(lmx - lx > EPS_STRUCT * np.maximum(1.0, lx)))
    return violations, float((lmx[nonzero] / lx[nonzero]).max(initial=0.0))

"""Finite-dimensional concrete C*-algebras given as matrix spans.

An algebra is an ordered basis of ambient N x N complex matrices whose span
is closed under products and adjoints, together with derived data: structure
constants, adjoint coordinates, and the coordinates of the two-sided unit.
Elements and linear functionals are coordinate vectors over that basis.
A tensor product or an opposite forms its basis, structure constants and
adjoint coordinates the first time each is read; its dimensions, unit and
factors are known at once.  Everything is immutable after construction.
`matrix_algebra` returns one shared object per size, and `tensor_algebra`
and `opposite_algebra` one per operand tuple for as long as it is in use,
so nothing may mutate an algebra once it is built.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cache, cached_property, reduce

import numpy as np

from . import linalg
from .errors import (
    AlgebraMismatch,
    FactorMismatch,
    LinearlyDependentBasis,
    NoUnit,
    NotATensorAlgebra,
    NotATrace,
    NotClosedUnderAdjoint,
    NotClosedUnderProduct,
    NotFaithful,
)
from .linalg import EPS_PSD, EPS_STRUCT


class ConcreteAlgebra:
    """A *-closed span of complex matrices with cached structure data.

    Attributes
    ----------
    basis : (d, N, N) array; the ordered basis.
    structure : (d, d, d) array; B_i B_j = sum_k structure[i, j, k] B_k.
    adjoint_coords : (d, d) array; row i holds the coordinates of B_i^*.
        For each of these three the constructor also takes a function of no
        arguments that returns it, called the first time the array is read;
        a function basis needs `ambient_dim` = N.
    unit_coords : (d,) array; coordinates of the two-sided identity.
    dim, ambient_dim : d and N.
    factors : tuple of atomic tensor factors when built by tensor_algebra.
    op_of : the underlying algebra when built by opposite_algebra.
    """

    # the two operands (a, b) when built by tensor_algebra(a, b)
    _operands = None

    def __init__(self, basis, structure, adjoint_coords, unit_coords,
                 name="", factors=(), op_of=None, ambient_dim=None):
        self._basis, self._structure, self._adjoint_coords = (
            x if callable(x) else np.asarray(x, dtype=complex)
            for x in (basis, structure, adjoint_coords))
        self.unit_coords = np.asarray(unit_coords, dtype=complex)
        self.dim = len(self.unit_coords)
        self.ambient_dim = self.basis.shape[1] if ambient_dim is None else ambient_dim
        self.name = name
        self.factors = tuple(factors)
        self.op_of = op_of

    def _formed(self, slot: str) -> np.ndarray:
        value = getattr(self, slot)
        if callable(value):
            value = np.asarray(value(), dtype=complex)
            setattr(self, slot, value)
        return value

    basis = property(lambda self: self._formed("_basis"))
    structure = property(lambda self: self._formed("_structure"))
    adjoint_coords = property(lambda self: self._formed("_adjoint_coords"))

    @cached_property
    def _pinv(self) -> np.ndarray:
        d, n, _ = self.basis.shape
        return np.linalg.pinv(self.basis.reshape(d, n * n).T)

    def __repr__(self):
        label = self.name or "algebra"
        return f"<{label}: dim {self.dim} in M_{self.ambient_dim}>"

    # -- coordinates <-> ambient matrices ---------------------------------

    def realize(self, coords: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(coords, dtype=complex), self.basis, axes=1)

    def coords_of(self, mat: np.ndarray) -> np.ndarray:
        return self._pinv @ np.asarray(mat, dtype=complex).ravel()

    # -- coordinate arithmetic ---------------------------------------------

    def multiply_coords(self, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", c1, c2, self.structure)

    def pairing(self, values: np.ndarray) -> np.ndarray:
        """The matrix [v(B_i B_j)]_{ij} of the functional with basis values v.

        A tensor product a (x) b contracts v with the operands' structure
        tensors, one matrix product each, and never builds its own."""
        if self._operands is None:
            return self.structure @ values
        a, b = self._operands
        da, db = a.dim, b.dim
        # half[(i, j), l] = sum_k a.structure[i, j, k] v[(k, l)]
        half = a.structure.reshape(da * da, da) @ values.reshape(da, db)
        # full[(p, q), (i, j)] = v(B_(i, p) B_(j, q))
        full = b.structure.reshape(db * db, db) @ half.T
        return full.reshape(db, db, da, da).transpose(2, 0, 3, 1).reshape(da * db, da * db)

    def apply_adjoint(self, mat: np.ndarray) -> np.ndarray:
        """adjoint_coords @ mat.  A tensor product a (x) b, whose adjoint
        coordinates are the Kronecker product of its operands', applies
        them one factor at a time: O(d^2 (d_a + d_b)) flops, not O(d^3)."""
        if self._operands is None:
            return self.adjoint_coords @ mat
        a, b = self._operands
        half = (a.adjoint_coords @ mat.reshape(a.dim, -1)).reshape(a.dim, b.dim, -1)
        return (b.adjoint_coords @ half).reshape(mat.shape)

    def adjoint_of_coords(self, c: np.ndarray) -> np.ndarray:
        return self.adjoint_coords.T @ np.conj(c)

    def same_as(self, other: "ConcreteAlgebra") -> bool:
        """Structural equality: identical ambient basis and unit, to 1e-10."""
        if self is other:
            return True
        if (self.dim, self.ambient_dim) != (other.dim, other.ambient_dim):
            return False
        return (np.abs(self.basis - other.basis).max() <= 1e-10
                and np.abs(self.unit_coords - other.unit_coords).max() <= 1e-10)

    def factor_dims(self) -> tuple[int, ...]:
        if not self.factors:
            raise NotATensorAlgebra(f"{self!r} records no tensor factor structure")
        return tuple(f.dim for f in self.factors)


@dataclass(frozen=True, eq=False)
class LinearFunctional:
    """A functional stored by its values on the basis elements."""

    algebra: ConcreteAlgebra
    values: np.ndarray

    def gns_gram(self) -> np.ndarray:
        """The matrix [phi(B_i^* B_j)]_{ij}; PSD exactly when phi is positive."""
        cached = getattr(self, "_gns_cache", None)
        if cached is not None:
            return cached
        alg = self.algebra
        gram = alg.apply_adjoint(alg.pairing(self.values))
        object.__setattr__(self, "_gns_cache", gram)
        return gram

    def is_positive(self) -> bool:
        return linalg.is_psd(self.gns_gram())

    def positivity_witness(self):
        """Most negative Gram eigenvalue and the coordinates of an element
        x (of the algebra) with phi(x^* x) equal to that eigenvalue."""
        gram = linalg.hermitian_part(self.gns_gram())
        lam, vec = np.linalg.eigh(gram)
        return float(lam[0]), vec[:, 0]

    def unit_value(self) -> complex:
        return complex(self.values @ self.algebra.unit_coords)

    def is_state(self) -> bool:
        return self.is_positive() and abs(self.unit_value() - 1.0) <= EPS_STRUCT


class TraceFunctional(LinearFunctional):
    """A positive tracial functional; construct via as_trace()."""

    def bilinear_gram(self) -> np.ndarray:
        """The matrix [tau(B_i B_j)]_{ij} (no adjoints)."""
        cached = getattr(self, "_bilinear_cache", None)
        if cached is None:
            cached = self.algebra.pairing(self.values)
            object.__setattr__(self, "_bilinear_cache", cached)
        return cached

    @cached_property
    def faithful(self) -> bool:
        return linalg.psd_margin(self.gns_gram()) > EPS_PSD


def as_trace(phi: LinearFunctional) -> TraceFunctional:
    """Validate traciality and positivity, returning a TraceFunctional."""
    tau = TraceFunctional(phi.algebra, np.asarray(phi.values, dtype=complex))
    prods = tau.bilinear_gram()
    scale = max(1.0, float(np.abs(prods).max(initial=0.0)))
    if float(np.abs(prods - prods.T).max()) > EPS_STRUCT * scale:
        raise NotATrace("values do not vanish on commutators")
    if float(np.abs(phi.values).max(initial=0.0)) == 0.0:
        raise NotATrace("zero functional")
    if not tau.is_positive():
        raise NotATrace("GNS Gram matrix is not PSD")
    return tau


def require_faithful(tau: TraceFunctional):
    if not isinstance(tau, TraceFunctional):
        raise NotATrace("expected a TraceFunctional")
    if not tau.faithful:
        raise NotFaithful("trace has a singular GNS Gram matrix")


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_algebra(basis, name="") -> ConcreteAlgebra:
    """Validate a matrix span and derive its structure data.

    Raises LinearlyDependentBasis, NotClosedUnderProduct,
    NotClosedUnderAdjoint or NoUnit when the span fails to be a unital
    *-closed algebra.
    """
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
        raise ValueError("basis must be a list of square matrices of equal size")
    d, n, _ = basis.shape
    if d == 0:
        raise ValueError("empty basis: the zero algebra is rejected")

    flat = basis.reshape(d, n * n)
    svals = np.linalg.svd(flat, compute_uv=False)
    if svals[-1] <= EPS_STRUCT * max(svals[0], 1.0):
        raise LinearlyDependentBasis(
            f"smallest singular value {svals[-1]:.2e} of the basis Gram system")
    pinv = np.linalg.pinv(flat.T)

    def project(mat, err, what):
        coords = pinv @ mat.ravel()
        resid = np.linalg.norm(flat.T @ coords - mat.ravel())
        if resid > EPS_STRUCT * max(1.0, np.linalg.norm(mat)):
            raise err(f"{what} lies outside the span (residual {resid:.2e})")
        return coords

    structure = np.empty((d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            structure[i, j] = project(basis[i] @ basis[j],
                                      NotClosedUnderProduct, f"B_{i} B_{j}")

    adjoint_coords = np.empty((d, d), dtype=complex)
    for i in range(d):
        adjoint_coords[i] = project(basis[i].conj().T,
                                    NotClosedUnderAdjoint, f"B_{i}^*")

    unit_coords = _solve_unit(structure)
    return ConcreteAlgebra(basis, structure, adjoint_coords, unit_coords, name=name)


def _solve_unit(structure):
    d = structure.shape[0]
    # e with e . B_j = B_j and B_j . e = B_j for all j, solved jointly.
    left = structure.transpose(1, 2, 0).reshape(d * d, d)    # rows (j, r), cols k
    right = structure.transpose(0, 2, 1).reshape(d * d, d)
    target = np.eye(d, dtype=complex).reshape(d * d)          # delta_{jr}
    big = np.vstack([left, right])
    rhs = np.concatenate([target, target])
    e, *_ = np.linalg.lstsq(big, rhs, rcond=None)
    resid = np.linalg.norm(big @ e - rhs)
    if resid > EPS_STRUCT * d:
        raise NoUnit(f"no two-sided identity in the span (residual {resid:.2e})")
    return e


@cache
def matrix_algebra(n: int) -> ConcreteAlgebra:
    """Full matrix algebra M_n with the standard matrix-unit basis, ordered
    row-major: e_11, e_12, ..., e_nn.  One object per n, shared by every
    caller."""
    basis = np.zeros((n * n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            basis[i * n + j, i, j] = 1.0
    return build_algebra(basis, name=f"M{n}")


def diagonal_algebra(n: int) -> ConcreteAlgebra:
    """Commutative algebra of diagonal n x n matrices (functions on n points)."""
    basis = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        basis[i, i, i] = 1.0
    return build_algebra(basis, name=f"diag{n}")


def standard_matrix_trace(alg: ConcreteAlgebra) -> TraceFunctional:
    """Ambient matrix trace restricted to the algebra."""
    return as_trace(LinearFunctional(alg, np.trace(alg.basis, axis1=1, axis2=2)))


# ---------------------------------------------------------------------------
# tensor products, opposites, swaps
# ---------------------------------------------------------------------------

# Tensor products and opposites already built, keyed by the ids of their
# operands.  Weak values: an entry lives only while its algebra is in use,
# and an algebra holds its operands, so their ids cannot be reused meanwhile.
# Caching on the operand instead would tie operand and product in a cycle
# that lives until a full garbage collection.
_BUILT = weakref.WeakValueDictionary()


def tensor_algebra(a: ConcreteAlgebra, b: ConcreteAlgebra) -> ConcreteAlgebra:
    """Kronecker realization of a (x) b with basis pairs in row-major order;
    the same object for the same operands while it is in use.

    Structure data is assembled exactly from the factors; at finite dimension
    the C*-norm on the algebraic tensor product is unique, so the Kronecker
    realization is the tensor product.
    """
    key = ("tensor", id(a), id(b))
    out = _BUILT.get(key)
    if out is not None:
        return out
    d = a.dim * b.dim
    factors = (a.factors or (a,)) + (b.factors or (b,))
    # most products only label coordinates and never read their basis,
    # structure or adjoint coordinates: each is formed the first time it is
    # read, by functions that hold the operands, never the product
    out = ConcreteAlgebra(
        lambda: linalg.kron_stack(a.basis, b.basis),
        lambda: np.einsum("ace,bdf->abcdef", a.structure, b.structure).reshape(d, d, d),
        lambda: np.einsum("ac,bd->abcd", a.adjoint_coords, b.adjoint_coords).reshape(d, d),
        np.outer(a.unit_coords, b.unit_coords).reshape(d),
        name=f"({a.name})@({b.name})", factors=factors,
        ambient_dim=a.ambient_dim * b.ambient_dim)
    out._operands = (a, b)
    _BUILT[key] = out
    return out


def opposite_algebra(a: ConcreteAlgebra) -> ConcreteAlgebra:
    """Opposite algebra realized by entrywise transposition of the basis;
    the same object for the same operand while it is in use.

    The coordinate map b -> b^op is the identity; products reverse through
    the structure constants.  Applying it twice returns the original object.
    """
    if a.op_of is not None:
        return a.op_of
    key = ("op", id(a))
    out = _BUILT.get(key)
    if out is not None:
        return out
    factors = tuple(opposite_algebra(f) for f in a.factors) if a.factors else ()
    out = ConcreteAlgebra(lambda: a.basis.transpose(0, 2, 1),
                          lambda: a.structure.transpose(1, 0, 2),
                          lambda: a.adjoint_coords.copy(), a.unit_coords.copy(),
                          name=f"{a.name}^op", factors=factors, op_of=a,
                          ambient_dim=a.ambient_dim)
    _BUILT[key] = out
    return out


def _swap_factors(a: ConcreteAlgebra, i: int, j: int) -> list:
    """The tensor factors of `a`, once i and j are known to index two of them."""
    factors = list(a.factors)
    if not factors:
        raise NotATensorAlgebra("swap requires a tensor algebra")
    if not (0 <= i < len(factors) and 0 <= j < len(factors)):
        raise FactorMismatch(f"factor indices ({i}, {j}) out of range")
    return factors


def _swap_coords(a: ConcreteAlgebra, coords: np.ndarray, i: int, j: int) -> np.ndarray:
    """Coordinates over `a`, or a stack of them along the last axis, with
    the indices of factors i and j exchanged: the flip Sigma_[ij]."""
    dims = a.factor_dims()
    return coords.reshape(coords.shape[:-1] + dims).swapaxes(
        i - len(dims), j - len(dims)).reshape(coords.shape)


def swap_algebra(a: ConcreteAlgebra, i: int, j: int) -> ConcreteAlgebra:
    """Target algebra of the flip of tensor factors i and j (0-based)."""
    factors = _swap_factors(a, i, j)
    factors[i], factors[j] = factors[j], factors[i]
    return reduce(tensor_algebra, factors)


def swap_functional(phi: LinearFunctional, i: int, j: int) -> LinearFunctional:
    """Pushforward of a functional under Sigma_[ij]; since the flip is an
    involution this also computes pullbacks (apply it to a functional living
    on the swapped algebra)."""
    return LinearFunctional(swap_algebra(phi.algebra, i, j),
                            _swap_coords(phi.algebra, phi.values, i, j))


def tensor_functional(phi: LinearFunctional, psi: LinearFunctional) -> LinearFunctional:
    """(phi (x) psi) on the tensor algebra of the two carriers."""
    values = np.outer(phi.values, psi.values).reshape(-1)
    return LinearFunctional(tensor_algebra(phi.algebra, psi.algebra), values)


def tensor_trace(tau: TraceFunctional, sigma: TraceFunctional) -> TraceFunctional:
    phi = tensor_functional(tau, sigma)
    return TraceFunctional(phi.algebra, phi.values)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def density_from_functional(phi: LinearFunctional, tau: TraceFunctional):
    """Solve phi(x) = tau(b x) for b; returns (coordinates of b, in_D_tau).

    in_D_tau reports whether b has positive ambient realization (positive
    in the algebra, since the span is a C*-subalgebra) and tau(b) = 1, i.e.
    whether phi is a tau-density state.
    """
    require_faithful(tau)
    alg = phi.algebra
    if not tau.algebra.same_as(alg):
        raise AlgebraMismatch("functional and trace live on different algebras")
    gram = tau.bilinear_gram()            # gram[k, j] = tau(B_k B_j)
    coords = np.linalg.solve(gram.T, phi.values)
    member = (linalg.is_psd(alg.realize(coords))
              and abs(complex(tau.values @ coords) - 1.0) <= 1e-8)
    return coords, member


def selfadjoint_basis(alg: ConcreteAlgebra,
                      keep: np.ndarray | None = None) -> np.ndarray:
    """Real basis of the self-adjoint part, as rows of complex coordinates,
    orthonormal in the real inner product Re <r_i, r_j>.

    With `keep` (indices of coordinates that span a *-closed subspace) the
    basis parametrizes only self-adjoint elements supported on them; the
    self-adjoint parts of B_i and i B_i over i in `keep` span exactly those.
    Raises AlgebraMismatch when the adjoint of a kept basis element has
    coordinates outside `keep`.
    """
    d = alg.dim
    keep = np.arange(d) if keep is None else np.asarray(keep)
    adj = alg.adjoint_coords[keep]          # row i: coords(B_i^*)
    if float(np.abs(np.delete(adj, keep, axis=1)).max(initial=0.0)) > EPS_STRUCT:
        raise AlgebraMismatch("kept coordinates do not span a *-closed subspace")
    k, adj = len(keep), adj[:, keep]
    # 2 (x + x^*)/2 for x = B_i and x = i B_i, on the kept coordinates
    gens = np.vstack([np.eye(k) + adj, 1j * (np.eye(k) - adj)])
    frame = linalg.row_and_null_space_real(np.hstack([gens.real, gens.imag]))[0]
    rows = np.zeros((frame.shape[1], d), dtype=complex)
    rows[:, keep] = frame[:k].T + 1j * frame[k:].T
    return rows

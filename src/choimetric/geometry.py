"""Spectral triples, commutator seminorms, and Kasparov exterior products.

At finite dimension every commutator is bounded and the compact-resolvent
condition is vacuous, so a triple is a faithful unital *-representation
together with a Hermitian Dirac matrix and an optional grading.  Seminorm
domains are the whole algebra.

`SpectralTriple.validate` is the one full check, for every triple built
from raw matrices: the operator laws on the Hilbert space (Hermitian Dirac;
a grading that is a Hermitian involution anticommuting with it), then the
laws of the representation (unital, multiplicative, *-preserving, faithful,
commuting with the grading).  A Kasparov product is checked through its
factors: both pass the full check, the product passes the operator laws,
and its faithfulness is read from the factors' singular values; its other
representation laws follow from the factors' (see `kasparov_product`).
`KasparovSeminorm` is the product's commutator seminorm kept as the
factors' commutators, under the same check: neither its representation
nor its commutator stack is formed, only the rows a ball reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import ConcreteAlgebra, matrix_algebra, tensor_algebra
from .errors import AlgebraMismatch, InvalidSpectralTriple
from .linalg import EPS_STRUCT, kron_stack, operator_norm


@dataclass(frozen=True, eq=False)
class SpectralTriple:
    algebra: ConcreteAlgebra
    rep: np.ndarray                  # (d, H, H)
    dirac: np.ndarray                # (H, H) Hermitian
    grading: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "rep", np.asarray(self.rep, dtype=complex))
        object.__setattr__(self, "dirac", np.asarray(self.dirac, dtype=complex))
        if self.grading is not None:
            object.__setattr__(self, "grading", np.asarray(self.grading, dtype=complex))

    @property
    def hilbert_dim(self) -> int:
        return self.dirac.shape[0]

    @property
    def even(self) -> bool:
        return self.grading is not None

    def commutator_matrices(self) -> np.ndarray:
        """[D, pi(B_i)] stacked; the coordinate-linear commutator map."""
        return self.dirac @ self.rep - self.rep @ self.dirac

    def validate(self):
        """Raise InvalidSpectralTriple unless this is a faithful unital
        *-representation with a Hermitian Dirac (and a grading), to EPS_STRUCT:
        the shapes, the operator laws, then the representation laws."""
        d, h, _ = self.rep.shape
        if d != self.algebra.dim or self.dirac.shape != (h, h):
            raise InvalidSpectralTriple("shape mismatch between rep and dirac")
        if self.grading is not None and self.grading.shape != (h, h):
            raise InvalidSpectralTriple(f"grading of shape {self.grading.shape} "
                                        f"on a Hilbert space of dimension {h}")
        _check_operator_laws(self.dirac, self.grading)
        self._check_representation()
        return self

    def _check_representation(self):
        """The laws of the representation: unital, multiplicative,
        *-preserving, faithful, and commuting with the grading."""
        tol = EPS_STRUCT
        alg, rep = self.algebra, self.rep
        d, h, _ = rep.shape
        unit_img = np.tensordot(alg.unit_coords, rep, axes=1)
        if linalg.frobenius(unit_img - np.eye(h)) > tol * h:
            raise InvalidSpectralTriple("representation is not unital")
        # multiplicative: exhaustive on basis pairs while affordable, random
        # coordinate pairs beyond that (linearity makes sampling decisive)
        rscale = max(1.0, float(np.abs(rep).max(initial=0.0)) ** 2)
        if d * d * h ** 3 <= 5e8:
            for i in range(d):
                prods = rep[i] @ rep
                recon = np.tensordot(alg.structure[i], rep, axes=1)
                if float(np.abs(prods - recon).max()) > 1e3 * tol * rscale:
                    raise InvalidSpectralTriple("representation fails the product law")
        else:
            rng = np.random.default_rng(0)
            for _ in range(8):
                u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                lhs = np.tensordot(u, rep, axes=1) @ np.tensordot(v, rep, axes=1)
                uv = alg.coords_of(alg.realize(u) @ alg.realize(v))
                rhs = np.tensordot(uv, rep, axes=1)
                sc = rscale * float(np.linalg.norm(u) * np.linalg.norm(v))
                if float(np.abs(lhs - rhs).max()) > 1e3 * tol * sc:
                    raise InvalidSpectralTriple("representation fails the product law")
        flat = rep.reshape(d, h * h)
        adj = (alg.adjoint_coords @ flat).reshape(d, h, h)
        if float(np.abs(rep.conj().transpose(0, 2, 1) - adj).max()) > 1e3 * tol * rscale:
            raise InvalidSpectralTriple("representation fails the adjoint law")
        if _rank(flat, _FAITHFUL_TOL * rscale) < d:
            raise InvalidSpectralTriple("representation is not faithful")
        if self.grading is not None:
            g = self.grading
            if float(np.abs(g @ rep - rep @ g).max()) > 1e3 * tol * rscale:
                raise InvalidSpectralTriple("grading does not commute with the representation")


def _check_operator_laws(dirac: np.ndarray, grading: np.ndarray | None):
    """The laws on the Hilbert space alone, O(h^3): raise
    InvalidSpectralTriple unless the Dirac is Hermitian and a grading is a
    Hermitian involution that anticommutes with it, to EPS_STRUCT."""
    tol = EPS_STRUCT
    h = dirac.shape[0]
    if not linalg.is_hermitian(dirac):
        raise InvalidSpectralTriple("Dirac matrix is not Hermitian")
    if grading is not None:
        g = grading
        if linalg.frobenius(g - linalg.dagger(g)) > tol * h:
            raise InvalidSpectralTriple("grading is not Hermitian")
        if linalg.frobenius(g @ g - np.eye(h)) > tol * h:
            raise InvalidSpectralTriple("grading does not square to one")
        scale = max(1.0, float(np.abs(dirac).max(initial=0.0)))
        if float(np.abs(g @ dirac + dirac @ g).max()) > 1e3 * tol * scale:
            raise InvalidSpectralTriple("grading does not anticommute with the Dirac matrix")


# a representation is faithful when every singular value of its flattened
# stack exceeds this multiple of its scale max(1, max |pi(B_i)_jk|^2)
_FAITHFUL_TOL = 1e-10


def _rank(flat: np.ndarray, tol: float) -> int:
    """Rank of a wide (d, m) matrix at absolute singular-value tolerance
    `tol`, from the R factor of its transpose (the same singular values)."""
    return int(np.linalg.matrix_rank(np.linalg.qr(flat.T, mode="r"), tol=tol))


def _tensor_rank(ta: SpectralTriple, tb: SpectralTriple) -> int:
    """The rank `_rank` gives the flattened pi_A (x) pi_B at the threshold
    of the product triple, read from the factors' singular values.

    Up to a permutation of columns the flattened pi_A (x) pi_B is
    kron(flat_A, flat_B), whose singular values are the products
    sigma_A,i sigma_B,j.  Its largest entry is the product of the factors'."""
    sa, sb = (np.linalg.svd(t.rep.reshape(t.rep.shape[0], -1), compute_uv=False)
              for t in (ta, tb))
    amax = float(np.abs(ta.rep).max()) * float(np.abs(tb.rep).max())
    tol = _FAITHFUL_TOL * max(1.0, amax ** 2)
    return int(np.count_nonzero(np.multiply.outer(sa, sb) > tol))


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------

class Seminorm:
    """A seminorm over a fixed algebra in the one form the Monge-Kantorovich
    solver reads: L(x) = || sum_i x_i M[i] || for a complex stack M of shape
    (d, p, q), read through `rows` and `pattern`.  This class holds M as
    `matrices`; `KasparovSeminorm` keeps it factored."""

    def __init__(self, algebra: ConcreteAlgebra, matrices: np.ndarray):
        self.algebra = algebra
        self.matrices = matrices

    def rows(self, idx: np.ndarray | None = None) -> np.ndarray:
        """The stack M[idx] of the coordinates `idx`, all of M when None."""
        return self.matrices if idx is None else self.matrices[idx]

    def pattern(self) -> np.ndarray:
        """A Boolean (d, p, q) superset of the entries where M is nonzero."""
        return self.matrices != 0

    def eval_coords(self, coords: np.ndarray):
        """L at one coordinate vector, as a float, or at each row of a (k, d)
        stack, as an array of k, by one contraction and one batched SVD."""
        return operator_norm(np.tensordot(coords, self.matrices, axes=1))


class CommutatorSeminorm(Seminorm):
    """L(a) = || [D, pi(a)] || from a spectral triple."""

    def __init__(self, triple: SpectralTriple):
        super().__init__(triple.algebra, triple.commutator_matrices())
        self.triple = triple


def left_tensor_seminorm(triple_a: SpectralTriple, algebra_b: ConcreteAlgebra,
                         rep_b: np.ndarray) -> Seminorm:
    """(L_A (x) 1) on A (x) B: the commutator seminorm of the Dirac D_A (x) 1
    on the tensor representation (the two agree as Lipschitz seminorms),
    whose stack is [D_A, pi_A] (x) pi_B for pi_B = `rep_b`, since
    [D_A (x) 1, pi_A(a) (x) pi_B(b)] = [D_A, pi_A(a)] (x) pi_B(b)."""
    return Seminorm(tensor_algebra(triple_a.algebra, algebra_b),
                    kron_stack(triple_a.commutator_matrices(), rep_b))


def right_tensor_seminorm(algebra_a: ConcreteAlgebra, triple_b: SpectralTriple,
                          rep_a: np.ndarray) -> Seminorm:
    """(1 (x) L_B) on A (x) B, the mirror of `left_tensor_seminorm`: the
    stack pi_A (x) [D_B, pi_B], for pi_A = `rep_a`, of the Dirac 1 (x) D_B."""
    return Seminorm(tensor_algebra(algebra_a, triple_b.algebra),
                    kron_stack(rep_a, triple_b.commutator_matrices()))


# ---------------------------------------------------------------------------
# Kasparov exterior products
# ---------------------------------------------------------------------------

# the doubling of an odd triple: Dirac sigma_x (x) D, grading -sigma_y (x) 1
_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_MINUS_SIGMA_Y = np.array([[0, 1j], [-1j, 0]])


def _checked_product(ta: SpectralTriple, tb: SpectralTriple):
    """The one parity rule of the exterior Kasparov product: its Dirac is
    D = D_A (x) R + L (x) D_B, with L = gamma_A and R = 1 for an even first
    factor, L = 1 and R = gamma_B for an odd one before an even `tb`.  When
    both are odd, the first factor is `ta` doubled to the even triple
    (C^2 (x) H_A, sigma_x (x) D_A, -sigma_y (x) 1, 1 (x) pi_A) and the
    grading is diag(1, -1) (x) 1.  Returns the first factor, L, R, the
    Dirac and the grading, after the one check of a product (see
    `kasparov_product`): both factors pass the full `validate`, the Dirac
    and grading pass the operator laws, and `_tensor_rank` finds the
    product faithful."""
    ta.validate()
    tb.validate()
    first, grading = ta, None
    if not (ta.even or tb.even):
        ha = ta.hilbert_dim
        first = SpectralTriple(ta.algebra, kron_stack(np.eye(2)[None], ta.rep),
                               np.kron(_SIGMA_X, ta.dirac), np.kron(_MINUS_SIGMA_Y, np.eye(ha)))
        grading = np.kron(np.diag([1.0, -1.0]),
                          np.eye(ha * tb.hilbert_dim)).astype(complex)
    if first.even:
        left, right = first.grading, np.eye(tb.hilbert_dim)
        if tb.even:
            grading = np.kron(first.grading, tb.grading)
    else:
        left, right = np.eye(ta.hilbert_dim), tb.grading
    dirac = np.kron(first.dirac, right) + np.kron(left, tb.dirac)
    _check_operator_laws(dirac, grading)
    if _tensor_rank(first, tb) < ta.algebra.dim * tb.algebra.dim:
        raise InvalidSpectralTriple("representation is not faithful")
    return first, left, right, dirac, grading


def kasparov_product(ta: SpectralTriple, tb: SpectralTriple) -> SpectralTriple:
    """Exterior Kasparov product over the tensor algebra, in all four parity
    combinations; raises InvalidSpectralTriple unless it is a spectral triple.

    even x even : D_A (x) 1 + gamma_A (x) D_B, grading gamma_A (x) gamma_B
    odd  x odd  : doubled space, off-diagonal blocks D_A (x) 1 +- i 1 (x) D_B,
                  grading diag(1, -1)
    odd  x even : D_A (x) gamma_B + 1 (x) D_B, no grading
    even x odd  : D_A (x) 1 + gamma_A (x) D_B, no grading

    Every case is D_A (x) R + L (x) D_B of `_checked_product`, odd x odd
    through the doubled first factor.  The check costs what the factors
    cost, not the product: both factors pass the full `validate`, the
    product passes the operator laws, and its faithfulness is decided from
    the factors (`_tensor_rank`).  The other representation laws follow
    from the factors': the carrier's unit, structure constants and adjoint
    are the tensor products of the factors', so pi_A (x) pi_B (on each
    diagonal copy of the doubled space) is unital, multiplicative and
    *-preserving when pi_A and pi_B are, and the grading gamma_A (x)
    gamma_B, or diag(1, -1) (x) 1, commutes with it when the factor
    gradings commute with their representations.
    """
    first, _, _, dirac, grading = _checked_product(ta, tb)
    return SpectralTriple(tensor_algebra(ta.algebra, tb.algebra),
                          kron_stack(first.rep, tb.rep), dirac, grading)


class KasparovSeminorm(Seminorm):
    """The commutator seminorm of `kasparov_product(ta, tb)` over `algebra`,
    whose coordinate k is the product's coordinate `order[k]` (identity
    order when None), the pair (a, b) in row-major order.  The checks are
    `kasparov_product`'s, and the stack is never formed.

    A grading commutes with its factor's representation, so for the
    D_A (x) R + L (x) D_B of `_checked_product` (odd x odd on the doubled
    first factor) row (a, b) of the stack is the sum of two Kronecker terms,
    [D_A, pi_A(a)] (x) R pi_B(b) + L pi_A(a) (x) [D_B, pi_B(b)].  `rows`
    forms only the rows it is asked for, `pattern` ORs the terms' Boolean
    Kronecker patterns (a superset of the stack's: a cancellation between
    the terms is not seen), and `eval_coords` contracts the factors."""

    def __init__(self, algebra: ConcreteAlgebra, ta: SpectralTriple, tb: SpectralTriple,
                 order: np.ndarray | None = None):
        first, left, right, _, _ = _checked_product(ta, tb)
        d = ta.algebra.dim * tb.algebra.dim
        self.order = np.arange(d) if order is None else np.asarray(order)
        if algebra.dim != d or not np.array_equal(np.sort(self.order), np.arange(d)):
            raise AlgebraMismatch("order is not a permutation of the product's coordinates")
        self.algebra = algebra
        # the (first, second) factor stacks of the two Kronecker terms
        self.terms = ((first.commutator_matrices(), right @ tb.rep),
                      (left @ first.rep, tb.commutator_matrices()))

    def _kron_rows(self, idx, entries) -> np.ndarray:
        """Sum over the terms of entries(A[a]) (x) entries(B[b]) at the
        product coordinates (a, b) of `idx`, all when None."""
        (_, rb), _ = self.terms
        a, b = np.divmod(self.order if idx is None else self.order[idx], len(rb))
        out = None
        for fa, fb in self.terms:
            term = np.einsum("kij,kpq->kipjq", entries(fa[a]), entries(fb[b]))
            if out is None:
                out = term
            else:
                out += term
        k, p, r, q, s = out.shape
        return out.reshape(k, p * r, q * s)

    def rows(self, idx: np.ndarray | None = None) -> np.ndarray:
        return self._kron_rows(idx, lambda m: m)

    def pattern(self) -> np.ndarray:
        return self._kron_rows(None, lambda m: m != 0)

    def eval_coords(self, coords: np.ndarray):
        """L as `Seminorm.eval_coords` gives it, with the sum over (a, b)
        taken as two matrix products per term: sum_b x_ab B[b], then
        sum_a A[a] (x) (that sum)."""
        x = np.asarray(coords)
        flat = x.reshape(-1, x.shape[-1])
        k = len(flat)
        (ca, rb), _ = self.terms
        (da, pa, _), (db, pb, _) = ca.shape, rb.shape
        y = np.zeros((k, da * db), dtype=complex)
        y[:, self.order] = flat
        y = y.reshape(k * da, db)
        total = 0.0
        for fa, fb in self.terms:
            inner = (y @ fb.reshape(db, pb * pb)).reshape(k, da, pb * pb)
            total = total + fa.reshape(da, pa * pa).T @ inner
        m = total.reshape(k, pa, pa, pb, pb).transpose(0, 1, 3, 2, 4).reshape(
            k, pa * pb, pa * pb)
        return operator_norm(m if x.ndim > 1 else m[0])


def gradient_dirac_triple(l_mats, algebra: ConcreteAlgebra | None = None) -> SpectralTriple:
    """Odd triple over M_n whose seminorm is the stacked-commutator norm
    || ( [L_1, a]; ...; [L_N, a] ) ||, the constraint norm dual to the
    trace-norm minimization of the matricial Wasserstein-1 distance.

    H = C^n (+) (C^n (x) C^N) with the Dirac [[0, V*], [V, 0]] for the
    column map V = sum_i L_i (x) |i>.  For N = 1 this has the same seminorm
    as the diagonal Dirac L_1 (x) e_11.
    """
    l_mats = [np.asarray(l, dtype=complex) for l in l_mats]
    n = l_mats[0].shape[0]
    nn = len(l_mats)
    if algebra is None:
        algebra = matrix_algebra(n)
    h = n + n * nn
    v = np.zeros((n * nn, n), dtype=complex)
    for i, l in enumerate(l_mats):
        v[i * n:(i + 1) * n, :] = l
    dirac = np.zeros((h, h), dtype=complex)
    dirac[n:, :n] = v
    dirac[:n, n:] = v.conj().T
    rep = np.array([np.kron(np.eye(1 + nn), b) for b in algebra.basis])
    # reorder: our H is C^n (+) (C^N (x) C^n); kron(I_{N+1}, b) matches that
    return SpectralTriple(algebra, rep, dirac).validate()


def seminorm_domination_check(ta: SpectralTriple, tb: SpectralTriple,
                              samples: int, rng: np.random.Generator
                              ) -> tuple[int, float]:
    """Check (1 (x) L_B) <= L_{A x B} and (L_A (x) 1) <= L_{A x B} on random
    elements of the tensor algebra, up to the relative slack EPS_STRUCT.
    Returns the number of violations and the largest excess of a factor
    seminorm over L_{A x B} (0 when none exceeds it)."""
    big = KasparovSeminorm(tensor_algebra(ta.algebra, tb.algebra), ta, tb)
    left = left_tensor_seminorm(ta, tb.algebra, rep_b=tb.rep)
    right = right_tensor_seminorm(ta.algebra, tb, rep_a=ta.rep)
    coords = linalg.complex_samples(rng, samples, big.algebra.dim)
    lprod = big.eval_coords(coords)
    gaps = np.stack([left.eval_coords(coords), right.eval_coords(coords)]) - lprod
    violations = int(np.count_nonzero(gaps > EPS_STRUCT * np.maximum(1.0, lprod)))
    return violations, float(gaps.max(initial=0.0))

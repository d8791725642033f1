"""Linear and completely positive maps between concrete algebras.

A channel is stored as its action on coordinates.  Complete positivity is
decided through positivity of the associated functional on A (x) B^op; the
classical Choi matrix is available for full matrix-algebra sources and an
independent block-Gram oracle cross-checks the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import (
    ConcreteAlgebra,
    LinearFunctional,
    TraceFunctional,
    matrix_algebra,
    opposite_algebra,
    require_faithful,
    tensor_algebra,
)
from .errors import (
    AlgebraMismatch,
    NotMatrixUnitsBasis,
    NotTraceChannel,
    TraceMismatch,
)
from .linalg import EPS_PSD, EPS_STRUCT


@dataclass(frozen=True, eq=False)
class ChannelMap:
    """A linear map between algebras given by its coordinate matrix.

    matrix has shape (target.dim, source.dim): coords(F(a)) = matrix @ coords(a).
    """

    source: ConcreteAlgebra
    target: ConcreteAlgebra
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.target.dim, self.source.dim):
            raise AlgebraMismatch(
                f"coordinate matrix {m.shape} incompatible with "
                f"{self.source.dim} -> {self.target.dim}")
        object.__setattr__(self, "matrix", m)


def identity_channel(alg: ConcreteAlgebra) -> ChannelMap:
    return ChannelMap(alg, alg, np.eye(alg.dim, dtype=complex))


def _omega_value_matrix(f: ChannelMap, tau: TraceFunctional) -> np.ndarray:
    """Matrix W[i, j] = tau(F(A_i) B_j)."""
    tb = tau.bilinear_gram()
    return f.matrix.T @ tb


def omega_tau(f: ChannelMap, tau: TraceFunctional) -> LinearFunctional:
    """Choi-Jamiolkowski functional a (x) b^op -> tau(F(a) b) of a channel
    with respect to a trace on its target, on source (x) target^op."""
    if not isinstance(tau, TraceFunctional):
        raise TraceMismatch("omega_tau requires a validated trace")
    if not tau.algebra.same_as(f.target):
        raise TraceMismatch("trace does not live on the channel target")
    values = _omega_value_matrix(f, tau).reshape(-1)
    return LinearFunctional(tensor_algebra(f.source, opposite_algebra(f.target)), values)


def channel_from_omega(values, source: ConcreteAlgebra, target: ConcreteAlgebra,
                       tau: TraceFunctional) -> ChannelMap:
    """Invert the embedding: recover F from the values tau(F(A_i) B_j)."""
    require_faithful(tau)
    w = np.asarray(values, dtype=complex).reshape(source.dim, target.dim)
    tb = tau.bilinear_gram()
    # F.matrix.T @ tb = w  =>  tb.T @ F.matrix = w.T
    mat = np.linalg.solve(tb.T, w.T)
    return ChannelMap(source, target, mat)


# ---------------------------------------------------------------------------
# classification predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CPVerdict:
    is_cp: bool
    min_eigenvalue: float
    witness: np.ndarray | None       # coordinates on functional.algebra
    functional: LinearFunctional


def is_completely_positive(f: ChannelMap, tau: TraceFunctional) -> CPVerdict:
    """Complete positivity via positivity of the associated functional.

    Returns the verdict together with the most negative eigenvalue of the
    GNS Gram matrix and, on failure, the coordinates of a witness x with
    omega(x^* x) < 0.
    """
    require_faithful(tau)
    om = omega_tau(f, tau)
    eig, vec = om.positivity_witness()
    gram_scale = max(1.0, float(np.abs(om.gns_gram()).max(initial=0.0)))
    ok = eig >= -EPS_PSD * gram_scale
    return CPVerdict(ok, eig, None if ok else vec, om)


def cp_oracle_npositivity(f: ChannelMap) -> bool:
    """Independent complete-positivity oracle.

    Tests positivity of the block matrix [F(b_i^* b_j)]_{ij} realized
    ambiently; arbitrary k-tuples reduce to the basis tuple, so at finite
    dimension this single PSD test decides complete positivity.  It never
    consults a trace or the associated functional.
    """
    src, tgt = f.source, f.target
    d, n = src.dim, tgt.ambient_dim
    prod = np.einsum("im,mjk->ijk", src.adjoint_coords, src.structure)
    fp = np.einsum("ijk,bk->ijb", prod, f.matrix)
    gram = np.einsum("ijb,bxy->ixjy", fp, tgt.basis).reshape(d * n, d * n)
    min_eig = float(np.linalg.eigvalsh(linalg.hermitian_part(gram))[0])
    return min_eig >= -EPS_PSD * max(1.0, float(np.abs(gram).max(initial=0.0)))


def trace_of_unit_image(f: ChannelMap, tau: TraceFunctional) -> complex:
    return complex(tau.values @ (f.matrix @ f.source.unit_coords))


def check_trace_channel(f: ChannelMap, tau: TraceFunctional,
                        label="channel") -> LinearFunctional:
    """Raise NotTraceChannel naming the failed predicate; otherwise return
    omega_tau(F), the functional whose positivity was tested: F is CP
    exactly when it is positive, and tau(F(1)) = 1."""
    require_faithful(tau)
    om = omega_tau(f, tau)
    failures = []
    if not om.is_positive():
        failures.append("not completely positive")
    normal = trace_of_unit_image(f, tau)
    if abs(normal - 1.0) > EPS_STRUCT:
        failures.append(f"tau(F(1)) = {normal:.6g} != 1")
    if failures:
        raise NotTraceChannel(f"{label}: " + "; ".join(failures))
    return om


def is_trace_channel(f: ChannelMap, tau: TraceFunctional) -> bool:
    """Whether check_trace_channel passes."""
    try:
        check_trace_channel(f, tau)
    except NotTraceChannel:
        return False
    return True


def is_unital(f: ChannelMap) -> bool:
    image = f.matrix @ f.source.unit_coords
    return float(np.abs(image - f.target.unit_coords).max()) <= EPS_STRUCT


def is_trace_preserving(f: ChannelMap, tau_src: TraceFunctional,
                        tau_tgt: TraceFunctional) -> bool:
    lhs = f.matrix.T @ tau_tgt.values
    return float(np.abs(lhs - tau_src.values).max()) <= EPS_STRUCT


# ---------------------------------------------------------------------------
# composition, tensoring, amplification, adjoints
# ---------------------------------------------------------------------------

def compose(g: ChannelMap, f: ChannelMap) -> ChannelMap:
    """g o f."""
    if not f.target.same_as(g.source):
        raise AlgebraMismatch("compose: target of F is not the source of G")
    return ChannelMap(f.source, g.target, g.matrix @ f.matrix)


def tensor_channel(f: ChannelMap, g: ChannelMap) -> ChannelMap:
    return ChannelMap(tensor_algebra(f.source, g.source),
                      tensor_algebra(f.target, g.target), np.kron(f.matrix, g.matrix))


def amplify(n: int, f: ChannelMap) -> ChannelMap:
    """id_n (x) F on M_n (x) A; amplify(1, F) is F itself."""
    if n < 1:
        raise ValueError("amplification order must be >= 1")
    if n == 1:
        return f
    return tensor_channel(identity_channel(matrix_algebra(n)), f)


def trace_adjoint(f: ChannelMap, tau_src: TraceFunctional,
                  tau_tgt: TraceFunctional) -> ChannelMap:
    """The map F# with tau_tgt(F(a) b) = tau_src(a F#(b))."""
    require_faithful(tau_src)
    require_faithful(tau_tgt)
    if not tau_src.algebra.same_as(f.source):
        raise TraceMismatch("source trace lives elsewhere")
    if not tau_tgt.algebra.same_as(f.target):
        raise TraceMismatch("target trace lives elsewhere")
    ta = tau_src.bilinear_gram()
    w = _omega_value_matrix(f, tau_tgt)          # w[i, j] = tau_tgt(F(A_i) B_j)
    sharp = np.linalg.solve(ta, w)               # (d_A, d_B)
    return ChannelMap(f.target, f.source, sharp)


# ---------------------------------------------------------------------------
# Choi matrices
# ---------------------------------------------------------------------------

def _check_matrix_units(alg: ConcreteAlgebra):
    n2 = alg.dim
    n = int(round(np.sqrt(n2)))
    if n * n != n2 or alg.ambient_dim != n:
        raise NotMatrixUnitsBasis("source is not a full matrix algebra")
    units = np.zeros_like(alg.basis)
    for i in range(n):
        for j in range(n):
            units[i * n + j, i, j] = 1.0
    if float(np.abs(alg.basis - units).max()) > 1e-12:
        raise NotMatrixUnitsBasis("source basis is not the standard matrix units")
    return n


def choi_matrix(f: ChannelMap) -> np.ndarray:
    """C_F = sum_ij e_ij (x) F(e_ij), for matrix-unit sources."""
    n = _check_matrix_units(f.source)
    m = f.target.ambient_dim
    out = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(n):
            img = f.target.realize(f.matrix[:, i * n + j])
            out[i * m:(i + 1) * m, j * m:(j + 1) * m] = img
    return out


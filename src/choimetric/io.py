"""JSON file formats for algebras, functionals, channels, triples, groups,
positive definite functions and Wasserstein problems.

Complex numbers are two-element arrays [re, im]; matrices are nested lists
of rows.  Every number must be finite: `NaN`, `Infinity` and numbers beyond
the float range (1e400) are rejected.  Loading always re-validates: a
corrupt file fails before any computation starts.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

from .algebra import (
    ConcreteAlgebra,
    LinearFunctional,
    TraceFunctional,
    as_trace,
    build_algebra,
)
from .channels import ChannelMap
from .errors import ChoimetricError
from .geometry import SpectralTriple
from .groups import (
    Cocycle,
    FiniteGroup,
    LengthFunction,
    PositiveDefiniteFunction,
)
from .linalg import is_hermitian


def complex_to_json(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_json(m: np.ndarray):
    return [[complex_to_json(z) for z in row] for row in np.asarray(m, complex)]


def vector_to_json(v: np.ndarray):
    return [complex_to_json(z) for z in np.asarray(v, complex)]


def _as_complex(pair, where):
    if (not isinstance(pair, (list, tuple))) or len(pair) != 2:
        raise ChoimetricError(f"{where}: complex numbers are [re, im] pairs")
    try:
        z = complex(float(pair[0]), float(pair[1]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ChoimetricError(f"{where}: {pair!r} is not a pair of numbers") from exc
    if not cmath.isfinite(z):
        raise ChoimetricError(f"{where}: {pair!r} is not a pair of finite numbers")
    return z


_KINDS = {list: "a list", str: "a string", int: "an integer"}


def _field(data, key, where, kind=None):
    """data[key], or a ChoimetricError naming the missing key or, when
    `kind` is given, a value that is not a list, a string or an integer (a
    bool, or a float such as 0.7 or 2.0, is not an integer)."""
    if not isinstance(data, dict) or key not in data:
        raise ChoimetricError(f"{where}: missing key {key!r}")
    value = data[key]
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ChoimetricError(f"{where}: {key!r} must be {_KINDS[kind]}")
    return value


def _algebra_ref(data, key, registry, where) -> ConcreteAlgebra:
    name = _field(data, key, where, str)
    if name not in registry:
        raise ChoimetricError(f"unknown algebra reference {name!r}")
    return registry[name]


def _numbers(values, dtype, where) -> np.ndarray:
    try:
        out = np.asarray(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ChoimetricError(
            f"{where}: entries must be numbers, in rows of equal length") from exc
    if not np.isfinite(out).all():
        raise ChoimetricError(f"{where}: entries must be finite")
    return out


def matrix_from_json(rows, where="matrix") -> np.ndarray:
    if not isinstance(rows, list):
        raise ChoimetricError(f"{where}: a matrix is a list of rows")
    return _numbers([vector_from_json(r, where) for r in rows], complex, where)


def vector_from_json(entries, where="vector") -> np.ndarray:
    if not isinstance(entries, list):
        raise ChoimetricError(f"{where}: expected a list of [re, im] pairs")
    return np.array([_as_complex(z, where) for z in entries], dtype=complex)


def _matrices(data, key, where) -> np.ndarray:
    """The list of matrices data[key], stacked."""
    return _numbers([matrix_from_json(m, key) for m in _field(data, key, where, list)],
                    complex, key)


# -- algebras ---------------------------------------------------------------

def algebra_to_dict(alg: ConcreteAlgebra) -> dict:
    return {
        "ambient_dim": alg.ambient_dim,
        "basis": [matrix_to_json(b) for b in alg.basis],
        "name": alg.name,
    }


def algebra_from_dict(data: dict) -> ConcreteAlgebra:
    n = _field(data, "ambient_dim", "algebra", int)
    basis = _matrices(data, "basis", "algebra")
    if basis.shape[1:] != (n, n):
        raise ChoimetricError(f"basis matrices are not {n}x{n}")
    return build_algebra(basis, name=str(data.get("name", "")))


# -- functionals ---------------------------------------------------------------

def functional_from_dict(data: dict, registry: dict) -> LinearFunctional:
    alg = _algebra_ref(data, "algebra", registry, "functional")
    values = vector_from_json(_field(data, "values", "functional"), "values")
    if values.shape != (alg.dim,):
        raise ChoimetricError("functional length does not match the algebra dimension")
    return LinearFunctional(alg, values)


def trace_from_dict(data: dict, registry: dict) -> TraceFunctional:
    return as_trace(functional_from_dict(data, registry))


# -- channels --------------------------------------------------------------------

def channel_from_dict(data: dict, registry: dict) -> ChannelMap:
    src = _algebra_ref(data, "source", registry, "channel")
    tgt = _algebra_ref(data, "target", registry, "channel")
    mat = matrix_from_json(_field(data, "matrix", "channel"), "matrix")
    return ChannelMap(src, tgt, mat)


# -- spectral triples ---------------------------------------------------------------

def triple_to_dict(t: SpectralTriple) -> dict:
    return {
        "algebra": t.algebra.name,
        "hilbert_dim": t.hilbert_dim,
        "rep": [matrix_to_json(r) for r in t.rep],
        "dirac": matrix_to_json(t.dirac),
        "grading": matrix_to_json(t.grading) if t.grading is not None else None,
    }


def triple_from_dict(data: dict, registry: dict) -> SpectralTriple:
    alg = _algebra_ref(data, "algebra", registry, "triple")
    h = _field(data, "hilbert_dim", "triple", int)
    rep = _matrices(data, "rep", "triple")
    dirac = matrix_from_json(_field(data, "dirac", "triple"), "dirac")
    grading = (matrix_from_json(data["grading"], "grading")
               if data.get("grading") is not None else None)
    if rep.shape != (alg.dim, h, h) or dirac.shape != (h, h):
        raise ChoimetricError("triple shapes are inconsistent with hilbert_dim")
    return SpectralTriple(alg, rep, dirac, grading).validate()


# -- groups ------------------------------------------------------------------------

def group_to_dict(g: FiniteGroup, cocycle: Cocycle | None = None,
                  length: LengthFunction | None = None) -> dict:
    return {
        "order": g.order,
        "mult_table": g.mult.tolist(),
        "identity": g.identity,
        "name": g.name,
        "generators": list(g.generators),
        "cocycle": matrix_to_json(cocycle.table) if cocycle is not None else None,
        "length": [float(v) for v in length.values] if length is not None else None,
    }


def group_from_dict(data: dict):
    rows = _field(data, "mult_table", "group", list)
    # np.asarray(..., int) would truncate 0.7 and read False as 0
    entries = [v for r in rows for v in (r if isinstance(r, list) else [r])]
    if any(isinstance(v, bool) or not isinstance(v, int) for v in entries):
        raise ChoimetricError("group: 'mult_table' entries must be integers")
    table = _numbers(rows, int, "mult_table")
    identity = _field(data, "identity", "group", int)
    # optional, but when given it must count the table's rows
    if "order" in data and _field(data, "order", "group", int) != len(table):
        raise ChoimetricError(f"group: 'order' {data['order']} does not match "
                              f"the {len(table)}-row mult_table")
    generators = (_field(data, "generators", "group", list)
                  if "generators" in data else ())
    g = FiniteGroup(table, identity, name=str(data.get("name", "G")),
                    generators=tuple(generators))
    cocycle = None
    if data.get("cocycle") is not None:
        cocycle = Cocycle(g, matrix_from_json(data["cocycle"], "cocycle"))
    length = None
    if data.get("length") is not None:
        length = LengthFunction(g, _numbers(_field(data, "length", "group", list),
                                            float, "length"))
    return g, cocycle, length


def pdf_from_dict(data: dict, group: FiniteGroup) -> PositiveDefiniteFunction:
    values = vector_from_json(_field(data, "values", "pdf"), "values")
    if values.shape != (group.order,):
        raise ChoimetricError("positive definite function length mismatch")
    return PositiveDefiniteFunction(group, values)


# -- Wasserstein problems --------------------------------------------------------

def problem_from_dict(data: dict):
    """(l_matrices, rho1, rho2) of a matricial Wasserstein-1 problem, all
    square matrices of one size, with rho1 and rho2 Hermitian."""
    ls = _matrices(data, "l_matrices", "problem")
    rho1 = matrix_from_json(_field(data, "rho1", "problem"), "rho1")
    rho2 = matrix_from_json(_field(data, "rho2", "problem"), "rho2")
    if ls.ndim != 3 or ls.shape[1] != ls.shape[2] or not (
            rho1.shape == rho2.shape == ls.shape[1:]):
        raise ChoimetricError("problem: l_matrices, rho1 and rho2 must be "
                              "square matrices of one size")
    for name, rho in (("rho1", rho1), ("rho2", rho2)):
        if not is_hermitian(rho):
            raise ChoimetricError(f"problem: {name} is not Hermitian")
    return ls, rho1, rho2


# -- files -----------------------------------------------------------------------

def save_json(obj: dict, path: str):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def _finite(text: str) -> float:
    """A JSON number or constant (NaN, Infinity, -Infinity) as a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=_finite, parse_constant=_finite)
    except ValueError as exc:               # JSONDecodeError included
        raise ChoimetricError(f"{path}: malformed JSON ({exc})") from exc

"""Finite-dimensional Lie algebra kernel with a faithful matrix representation.

A `LieAlgebraDescriptor` packages everything downstream code needs about the
fibre type: structure constants, a faithful complex matrix representation,
an invariant pairing, and the block structure of the associated matrix group.
Built-ins cover su(2) in the basis e_a = sigma_a/(2i) (so [e1,e2] = e3 and the
-2*trace pairing is the identity matrix), u(1) with generator [[i]], and their
direct sum.

Elements are plain coefficient vectors; the bracket, the adjoint matrices and the pairing
act on them. All heavy lifting is plain numpy with no product big enough to wake a BLAS
worker thread: `group_exp` takes each variety block by a 1x1 or 2x2 closed form, and Ad_g
is a real quadratic map of g's block entries g_ik conj(g_jl), fixed by the descriptor,
behind a watchdog that g is block-unitary (the elementwise gap of `variety_residual`).

The kernel broadcasts over leading axes: (..., dim) coefficient stacks in `rep_of`,
`group_exp`, `bracket_c`, `ad_matrix_c`; (..., r, r) matrix stacks in `expm`,
`expand_in_rep`, `ad_matrix_of_group`, `variety_residual`, `on_variety`. One vector or
matrix is the one-row case, and a stack gives each row as a call on it alone would.
Watchdogs check every row: a finite row beyond its bound raises, a non-finite one passes
through as NaN.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .forms import ScenarioError, _int_field, _object

__all__ = [
    "LieAlgebraDescriptor",
    "StructureError",
    "VarietyError",
    "ReexpansionError",
    "su2",
    "u1",
    "u1_su2",
    "direct_sum",
    "jacobi_tensor",
    "algebra_from_name",
    "algebra_from_dict",
    "algebra_to_dict",
    "bracket_c",
    "ad_matrix_c",
    "ad_matrix_of_group",
    "ad_twist",
    "dagger",
    "expand_in_rep",
    "expm",
    "group_exp",
    "on_variety",
    "require_within",
]

# Pauli matrices
SIGMA = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)

JACOBI_TOL = 1e-12
REP_TOL = 1e-12
KAPPA_TOL = 1e-10
VARIETY_TOL = 1e-10
REEXPANSION_TOL = 1e-10


class StructureError(ValueError):
    """Raised when descriptor data fails a structural identity."""


class VarietyError(ValueError):
    """Raised when a matrix does not lie on the declared group variety."""


class ReexpansionError(ValueError):
    """Raised when a matrix expected to lie in the representation span does not."""


@dataclass
class LieAlgebraDescriptor:
    """Structure constants, representation, pairing and group variety data.

    Attributes:
      dim: number of basis elements.
      basis_labels: names for the basis, length dim.
      structure_constants: array c[a, b, k] with [e_a, e_b] = sum_k c[a,b,k] e_k.
      rep_dim: size of the representation matrices.
      rep_matrices: complex (dim, rep_dim, rep_dim), rep of each basis element.
      kappa: symmetric invariant pairing on the algebra, (dim, dim) real.
      center_mask: boolean (dim,), True exactly where ad(e_a) == 0.
      variety_blocks: tuple of ("u"|"su", offset, size) describing the diagonal
        block structure of group-variety matrices.
      name: optional human-readable tag ("su2", ...).

    The descriptor keeps read-only copies of the arrays it is given.
    """

    dim: int
    basis_labels: tuple
    structure_constants: np.ndarray
    rep_dim: int
    rep_matrices: np.ndarray
    kappa: np.ndarray
    center_mask: np.ndarray
    variety_blocks: tuple
    name: str = ""

    def __post_init__(self):
        # own read-only copies, so a shared descriptor cannot be corrupted; the
        # private tables below serve the hot re-expansion, Ad and variety paths
        for name, dtype in (("structure_constants", float), ("rep_matrices", complex),
                            ("kappa", float), ("center_mask", bool)):
            setattr(self, name, _frozen(np.array(getattr(self, name), dtype=dtype)))
        off_blocks = np.ones((self.rep_dim,) * 2, dtype=bool)
        for _, off, size in self.variety_blocks:
            off_blocks[off:off + size, off:off + size] = False
        self._off_blocks = _frozen(off_blocks)
        self._validate()
        reps = self.rep_matrices.reshape(self.dim, -1)
        gram = (reps.conj() @ reps.T).real
        self._gram_inv = _frozen(np.linalg.inv(gram))
        # Ad of the variety keeps the span iff [u(blocks), span] lies in it; E_jk on blocks
        units = np.eye(self.rep_dim ** 2).reshape((self.rep_dim,) * 4)[~off_blocks]
        u = np.concatenate([units - dagger(units), 1j * (units + dagger(units))])[:, None]
        if expand_in_rep(self, u @ self.rep_matrices - self.rep_matrices @ u)[1].max() > REP_TOL:
            raise StructureError("[u(blocks), span] leaves the representation span: the "
                                 "variety blocks are not the group of the span")
        # Ad's map: K[(i,k), (j,l), (a,b)] = sum_c G^-1_ac conj(T_c)_ij (T_b)_kl on blocks
        inb = ~off_blocks.ravel()
        k = np.einsum('ac,cij,bkl->ikjlab', self._gram_inv, self.rep_matrices.conj(),
                      self.rep_matrices).reshape((self.rep_dim ** 2,) * 2 + (-1,))[inb][:, inb]
        self._ad_map = _frozen(np.stack([k.real, -k.imag], axis=2).reshape(-1, self.dim ** 2))

    # -- validation ---------------------------------------------------------

    def _validate(self):
        c = self.structure_constants
        d = self.dim
        if c.shape != (d, d, d):
            raise StructureError(f"structure constants must be ({d},{d},{d}), got {c.shape}")
        # every tolerance test below passes NaN, so non-finite data stops here
        if not all(np.isfinite(a).all() for a in (c, self.rep_matrices, self.kappa)):
            raise StructureError("structure constants, representation matrices "
                                 "and kappa must be finite")
        if len(self.basis_labels) != d:
            raise StructureError("basis_labels length must equal dim")
        if np.abs(c + np.swapaxes(c, 0, 1)).max() > JACOBI_TOL:
            raise StructureError("structure constants are not antisymmetric in (a, b)")

        # Jacobi, on the triples a < b < e (the sum is alternating in them)
        jacobi = np.abs(jacobi_tensor(c)).max(axis=-1, initial=0.0)
        ordered = np.triu(np.ones((d, d), dtype=bool), 1)
        bad = np.argwhere(ordered[:, :, None] & ordered[None] & (jacobi > JACOBI_TOL))
        if len(bad):
            a, b, e = bad[0]
            raise StructureError(
                f"Jacobi identity fails on basis triple ({a}, {b}, {e}): "
                f"max residual {jacobi[a, b, e]:.3e}")

        reps = self.rep_matrices
        if reps.shape != (d, self.rep_dim, self.rep_dim):
            raise StructureError("rep_matrices shape mismatch")
        comm = reps[:, None] @ reps[None] - reps[None] @ reps[:, None]
        gap = np.abs(comm - np.einsum('abk,kij->abij', c, reps)).max(axis=(2, 3), initial=0.0)
        bad = np.argwhere(gap > REP_TOL)
        if len(bad):
            raise StructureError("representation does not reproduce the bracket "
                                 f"on ({bad[0][0]}, {bad[0][1]})")

        if self.kappa.shape != (d, d) or np.abs(self.kappa - self.kappa.T).max() > KAPPA_TOL:
            raise StructureError("kappa must be a symmetric (dim, dim) matrix")
        if np.linalg.svd(self.kappa, compute_uv=False).min() < 1e-8:
            raise StructureError("kappa is degenerate")
        # ad-invariance: kappa([x, y], z) + kappa(y, [x, z]) = 0 on the basis
        inv = np.einsum('abk,kc->abc', c, self.kappa) \
            + np.einsum('ack,bk->abc', c, self.kappa)
        if np.abs(inv).max() > KAPPA_TOL:
            raise StructureError("kappa is not ad-invariant")

        ad_norms = np.abs(c).max(axis=(1, 2))
        central = ad_norms <= JACOBI_TOL
        if self.center_mask.shape != (d,) or not np.array_equal(central, self.center_mask):
            raise StructureError("center_mask disagrees with ad(e_a) == 0")

        covered = sorted(i for _, off, size in self.variety_blocks
                         for i in range(off, off + size))
        if covered != list(range(self.rep_dim)):
            raise StructureError("variety_blocks must tile the representation space")
        if reps[:, self._off_blocks].any():
            raise StructureError("representation matrices have entries off the variety blocks")

    # -- helpers ------------------------------------------------------------

    def rep_of(self, coeffs) -> np.ndarray:
        """Representation matrices of (..., dim) coefficients, (..., r, r)."""
        return np.einsum('...a,aij->...ij', np.asarray(coeffs, dtype=float), self.rep_matrices)


def variety_residual(alg: LieAlgebraDescriptor, matrix: np.ndarray):
    """Distance of each matrix of a (..., r, r) stack from the declared group
    variety: a (...) array, a scalar for one matrix, NaN where not finite.

    Off-block entries must vanish, each block must be unitary, and "su"
    blocks must additionally have unit determinant.
    """
    return _block_gap(alg, np.asarray(matrix), unit_det=True)[()]


def _block_gap(alg: LieAlgebraDescriptor, matrix: np.ndarray, unit_det: bool) -> np.ndarray:
    """Per matrix of a (..., r, r) stack: the largest |g^dagger g - I| over the variety blocks,
    |g| off them and, with `unit_det`, |det - 1| of an "su" block (ad - bc for 2x2); NaN if g
    is not finite. Elementwise products on a rows-last copy: long loops and no matmul."""
    t = np.ascontiguousarray(matrix.reshape((-1,) + matrix.shape[-2:]).transpose(1, 2, 0))
    gap = np.abs(t[alg._off_blocks]).max(axis=0, initial=0.0)
    for kind, off, size in alg.variety_blocks:
        b = t[off:off + size, off:off + size]
        gram = (b.conj()[:, :, None] * b[:, None, :]).sum(axis=0) - np.eye(size)[..., None]
        gap = np.maximum(gap, np.abs(gram).max(axis=(0, 1)))
        if unit_det and kind == "su":
            with np.errstate(invalid="ignore"):  # a NaN block has a NaN det
                det = (b[0, 0] if size == 1 else b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
                       if size == 2 else np.linalg.det(np.moveaxis(b, -1, 0)))
            gap = np.maximum(gap, np.abs(det - 1.0))
    return np.where(np.isfinite(gap), gap, np.nan).reshape(matrix.shape[:-2])


def require_within(resid, bound, error, message: str) -> None:
    """Raise `error(message.format(worst))` if a finite entry of `resid`
    exceeds `bound`; a non-finite entry passes, to show as a NaN residual."""
    resid = np.asarray(resid, dtype=float)
    over = resid[np.isfinite(resid) & (resid > bound)]
    if over.size:
        raise error(message.format(over.max()))


def on_variety(alg: LieAlgebraDescriptor, matrices: np.ndarray) -> np.ndarray:
    """`matrices`, after VarietyError for a finite row off the variety."""
    require_within(variety_residual(alg, matrices), VARIETY_TOL, VarietyError,
                   "matrix off the group variety by {:.3e}")
    return matrices


def jacobi_tensor(c) -> np.ndarray:
    """The cyclic sum [[e_a,e_b],e_e] + [[e_b,e_e],e_a] + [[e_e,e_a],e_b] of
    structure constants c[a, b, k], as a (d, d, d, d) array J[a, b, e, m]."""
    t1 = np.einsum('abk,kem->abem', c, c)
    t2 = np.einsum('bek,kam->beam', c, c).transpose(2, 0, 1, 3)
    t3 = np.einsum('eak,kbm->eabm', c, c).transpose(1, 2, 0, 3)
    return t1 + t2 + t3


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# ---------------------------------------------------------------------------
# built-in descriptors: each is built and validated once per process, and
# `algebra_from_name` hands out that one read-only instance
# ---------------------------------------------------------------------------

@functools.cache
def su2() -> LieAlgebraDescriptor:
    """su(2) in the basis e_a = sigma_a/(2i): [e1,e2]=e3 cyclic, kappa = -2tr = id."""
    reps = SIGMA / 2j
    c = np.zeros((3, 3, 3))
    for a, b, k in itertools.permutations(range(3)):
        c[a, b, k] = _eps3(a, b, k)
    kappa = np.array([[-2 * np.trace(x @ y).real for y in reps] for x in reps])
    return LieAlgebraDescriptor(
        dim=3, basis_labels=("e1", "e2", "e3"), structure_constants=c,
        rep_dim=2, rep_matrices=reps, kappa=kappa,
        center_mask=np.zeros(3, dtype=bool), variety_blocks=(("su", 0, 2),),
        name="su2")


@functools.cache
def u1() -> LieAlgebraDescriptor:
    """u(1) with generator [[i]]; exp(t) is the phase e^{it}. kappa = [[1]]."""
    return LieAlgebraDescriptor(
        dim=1, basis_labels=("t",), structure_constants=np.zeros((1, 1, 1)),
        rep_dim=1, rep_matrices=np.array([[[1j]]]), kappa=np.array([[1.0]]),
        center_mask=np.ones(1, dtype=bool), variety_blocks=(("u", 0, 1),),
        name="u1")


def direct_sum(a: LieAlgebraDescriptor, b: LieAlgebraDescriptor,
               name: str = "") -> LieAlgebraDescriptor:
    """Block direct sum of two descriptors (algebra, rep, pairing, variety)."""
    d = a.dim + b.dim
    c = np.zeros((d, d, d))
    c[:a.dim, :a.dim, :a.dim] = a.structure_constants
    c[a.dim:, a.dim:, a.dim:] = b.structure_constants
    rd = a.rep_dim + b.rep_dim
    reps = np.zeros((d, rd, rd), dtype=complex)
    reps[:a.dim, :a.rep_dim, :a.rep_dim] = a.rep_matrices
    reps[a.dim:, a.rep_dim:, a.rep_dim:] = b.rep_matrices
    kappa = np.zeros((d, d))
    kappa[:a.dim, :a.dim] = a.kappa
    kappa[a.dim:, a.dim:] = b.kappa
    mask = np.concatenate([a.center_mask, b.center_mask])
    blocks = tuple((k, off, s) for k, off, s in a.variety_blocks) + tuple(
        (k, off + a.rep_dim, s) for k, off, s in b.variety_blocks)
    return LieAlgebraDescriptor(
        dim=d, basis_labels=tuple(a.basis_labels) + tuple(b.basis_labels),
        structure_constants=c, rep_dim=rd, rep_matrices=reps, kappa=kappa,
        center_mask=mask, variety_blocks=blocks,
        name=name or f"{a.name}+{b.name}")


@functools.cache
def u1_su2() -> LieAlgebraDescriptor:
    return direct_sum(u1(), su2(), name="u1+su2")


_BUILTINS = {"su2": su2, "u1": u1, "u1+su2": u1_su2}


def algebra_from_name(name: str) -> LieAlgebraDescriptor:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise StructureError(f"unknown built-in algebra {name!r}; "
                             f"choose from {sorted(_BUILTINS)}") from None


def _eps3(a, b, k):
    return float(np.sign(np.linalg.det(np.eye(3)[[a, b, k]])))


# ---------------------------------------------------------------------------
# serialization (complex entries as [re, im] pairs)
# ---------------------------------------------------------------------------

def algebra_to_dict(alg: LieAlgebraDescriptor) -> dict:
    if alg.name in _BUILTINS:
        return {"name": alg.name}
    reps = np.stack([alg.rep_matrices.real, alg.rep_matrices.imag], axis=-1)
    return {
        "dim": alg.dim,
        "basis_labels": list(alg.basis_labels),
        "structure_constants": alg.structure_constants.tolist(),
        "rep_matrices": reps.tolist(),
        "kappa": alg.kappa.tolist(),
        "variety_blocks": [list(b) for b in alg.variety_blocks],
    }


def algebra_from_dict(data) -> LieAlgebraDescriptor:
    """The descriptor of a built-in name, or of a full blob as
    `algebra_to_dict` writes it. A blob that is not an object or a name, that
    lacks a key or has one that names no field, or whose `dim` or
    variety-block entry is not an integer raises ScenarioError naming the
    field (`algebra.<key>`)."""
    if isinstance(data, str):
        return algebra_from_name(data)
    if not isinstance(data, dict):
        raise ScenarioError(f"algebra: must be a name or an object, got {data!r}")
    if set(data) == {"name"}:
        return algebra_from_name(data["name"])
    fields = ("dim", "basis_labels", "structure_constants", "rep_matrices", "kappa",
              "variety_blocks")
    _object("algebra", data, fields + ("label",))
    for key in fields:
        if key not in data:
            raise ScenarioError(f"algebra.{key}: missing")
    raw = np.asarray(data["rep_matrices"], dtype=float)
    reps = raw[..., 0] + 1j * raw[..., 1]
    c = np.asarray(data["structure_constants"], dtype=float)
    ad_norms = np.abs(c).max(axis=(1, 2))
    return LieAlgebraDescriptor(
        dim=_int_field("algebra.dim", data["dim"]),
        basis_labels=tuple(data["basis_labels"]),
        structure_constants=c,
        rep_dim=reps.shape[-1],
        rep_matrices=reps,
        kappa=np.asarray(data["kappa"], dtype=float),
        center_mask=ad_norms <= JACOBI_TOL,
        variety_blocks=tuple((str(k), _int_field("algebra.variety_blocks", o),
                              _int_field("algebra.variety_blocks", s))
                             for k, o, s in data["variety_blocks"]),
        name=str(data.get("label", "")))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def bracket_c(alg: LieAlgebraDescriptor, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Lie bracket [u, v] of coefficient vectors, by structure-constant
    contraction; (..., dim) stacks broadcast."""
    return np.einsum('...a,...b,abk->...k', u, v, alg.structure_constants)


def expand_in_rep(alg: LieAlgebraDescriptor, matrix: np.ndarray):
    """Project (..., r, r) rep-space matrices onto span{rep_matrices}.

    Returns (coeffs, residual): (..., dim) coefficients and the Frobenius
    norm of each out-of-span component (a scalar for one matrix). Real
    coefficients are assumed (the span is a real form); the imaginary part
    of the Gram data is discarded accordingly.
    """
    matrix = np.asarray(matrix)
    flat = matrix.reshape(matrix.shape[:-2] + (-1,))
    reps = alg.rep_matrices.reshape(alg.dim, -1)
    proj = (flat @ reps.conj().T).real
    coeffs = proj @ alg._gram_inv.T
    resid = np.linalg.norm(flat - coeffs @ reps, axis=-1)
    return coeffs, resid


def ad_matrix_of_group(alg: LieAlgebraDescriptor, g_matrix: np.ndarray) -> np.ndarray:
    """Matrices of Ad_g on basis coefficients (columns are Ad_g(e_b)), (..., r, r) ->
    (..., dim, dim), as the descriptor's real quadratic map of g_ik conj(g_jl) on block
    entries. A finite row off its unitary blocks (its g T_b g^dagger may leave the span)
    raises ReexpansionError; a row that is not finite comes out NaN."""
    g = np.asarray(g_matrix)
    if alg.center_mask.all():
        # abelian: conjugation is the identity, exactly
        return np.broadcast_to(np.eye(alg.dim), g.shape[:-2] + (alg.dim,) * 2).copy()
    g = g.reshape((-1,) + g.shape[-2:])
    gap = _block_gap(alg, g, unit_det=False)
    require_within(gap, REEXPANSION_TOL, ReexpansionError,
                   "Ad image of a basis element off span: g off its unitary blocks by {:.3e}")
    v = g[:, ~alg._off_blocks]
    gg = np.multiply(v[:, :, None], v[:, None, :].conj(), order="C", dtype=complex)
    ad = gg.view(float).reshape(len(g), 1, -1) @ alg._ad_map  # (1, n) rows: no BLAS threads
    ad[np.isnan(gap)] = np.nan
    return ad.reshape(np.shape(g_matrix)[:-2] + (alg.dim,) * 2)


# Pade(13) coefficients over b_0 (so exp(0) is I exactly) and the 1-norm up to
# which that approximant is exact in double precision (Higham 2005, Table 2.3)
PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0))
THETA13 = 5.371920351148152


def expm(a) -> np.ndarray:
    """exp of each matrix of a (..., n, n) stack: `np.exp` for n = 1, the Cayley-Hamilton
    closed form for n = 2 (Bernstein and So, IEEE TAC 38(8), 1993), else Pade(13) scaling
    and squaring (N. J. Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005). Each row comes
    out bit for bit as a call on it alone would, exp(0) is I exactly and a real row stays
    real. A row that is not finite, or whose exponential overflows, comes out NaN."""
    shape = np.shape(a)
    a = np.reshape(a, (-1,) + shape[-2:])
    finite = np.isfinite(a).all(axis=(1, 2))
    a = np.where(finite[:, None, None], a, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.exp(a) if shape[-1] == 1 else _expm2(a) if shape[-1] == 2 else _pade13(a)
    r[~(finite & np.isfinite(r).all(axis=(1, 2)))] = np.nan
    return r.reshape(shape)


def _expm2(a) -> np.ndarray:
    """exp(m I + b) = e^m (cosh(q) I + sinh(q)/q b) for m = tr(a)/2 and the traceless b,
    b^2 = delta I = q^2 I; both factors are even in q. p r is summed from real parts, so an
    anti-Hermitian b keeps delta real, as a fused complex product would not."""
    m, b0 = (a[:, 0, 0] + a[:, 1, 1]) / 2, (a[:, 0, 0] - a[:, 1, 1]) / 2
    p, r = a[:, 0, 1], a[:, 1, 0]
    pr = (p.real * r.real - p.imag * r.imag) + 1j * (p.real * r.imag + p.imag * r.real)
    delta = b0 * b0 + pr
    q = np.sqrt(delta + 0j)
    small = np.abs(delta) < 1e-8
    sinhc = np.where(small, 1 + delta / 6 + delta**2 / 120, np.sinh(q) / np.where(small, 1, q))
    c, s = (np.exp(m) * (f if np.iscomplexobj(a) else f.real) for f in (np.cosh(q), sinhc))
    return np.stack([c + s * b0, s * p, s * r, c - s * b0], axis=-1).reshape(-1, 2, 2)


def _pade13(a) -> np.ndarray:
    """Pade(13), each row scaled by 2^-s for its own 1-norm and squared back s times."""
    norm = np.minimum(np.abs(a).sum(axis=1).max(axis=1), np.finfo(float).max)  # sums may overflow
    s = np.maximum(np.frexp(norm / THETA13)[1], 0)
    a = a * np.ldexp(1.0, -s)[:, None, None]
    b, eye = PADE13, np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for i in range(s.max(initial=0)):
        r = np.where((i < s)[:, None, None], r @ r, r)
    return r


def group_exp(alg: LieAlgebraDescriptor, coeffs) -> np.ndarray:
    """exp(rep_of(coeffs)) of a (..., dim) coefficient stack, (..., r, r): one
    `expm` call per variety block, in place; off the blocks rep_of is zero,
    as the descriptor admits no representation entry there."""
    rep = alg.rep_of(coeffs)
    for _, off, size in alg.variety_blocks:
        blk = (..., slice(off, off + size), slice(off, off + size))
        rep[blk] = expm(rep[blk])
    return rep


def dagger(m) -> np.ndarray:
    """Conjugate transpose of each matrix of a (..., r, r) stack: the
    inverse of a group matrix on a unitary variety."""
    return np.conj(np.swapaxes(m, -1, -2))


def ad_twist(alg: LieAlgebraDescriptor, g, table) -> np.ndarray:
    """Ad_g of every entry of a (..., P, C, dim) coefficient table, for a
    (..., P, r, r) stack g of group matrices."""
    return (ad_matrix_of_group(alg, g)[..., None, :, :] @ table[..., None])[..., 0]


def ad_matrix_c(alg: LieAlgebraDescriptor, coeffs: np.ndarray) -> np.ndarray:
    """ad(x) as a (dim, dim) matrix on coefficients: ad(x)[k,b] = sum_a x^a c[a,b,k].
    Leading axes of `coeffs` broadcast: (..., dim) gives (..., dim, dim). The
    result is C-ordered, as a stacked table of such matrices is, so products
    with it round the same way at one point and over a batch."""
    return np.ascontiguousarray(np.einsum(
        '...a,abk->...kb', np.asarray(coeffs, dtype=float), alg.structure_constants))

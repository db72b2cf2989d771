"""Lie-algebra kernel checks against directly computed matrix facts.

Elements are coefficient vectors, exponentiated through their representation
matrix, as in the residual suites."""
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import mark
from scipy.linalg import expm as scipy_expm

import cym.algebra as alg


SU2 = alg.su2()
U1 = alg.u1()
MIX = alg.u1_su2()
E = np.eye(3)

bounded = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def exp_group(a, coeffs):
    """exp of the element with these coefficients, on the group variety."""
    return alg.on_variety(a, scipy_expm(a.rep_of(coeffs)))


def test_su2_bracket_matches_matrix_commutator():
    # expected values recomputed here from the representation itself
    for a in range(3):
        for b in range(3):
            direct = alg.bracket_c(SU2, E[a], E[b])
            comm = SU2.rep_matrices[a] @ SU2.rep_matrices[b] \
                - SU2.rep_matrices[b] @ SU2.rep_matrices[a]
            via_rep, resid = alg.expand_in_rep(SU2, comm)
            assert resid < 1e-13
            np.testing.assert_allclose(direct, via_rep, atol=1e-13)
    np.testing.assert_allclose(
        alg.bracket_c(SU2, E[0], E[1]),
        [0.0, 0.0, 1.0], atol=1e-14)


def test_su2_kappa_is_identity():
    np.testing.assert_allclose(SU2.kappa, np.eye(3), atol=1e-14)
    for a in range(3):
        for b in range(3):
            want = -2 * np.trace(SU2.rep_matrices[a] @ SU2.rep_matrices[b]).real
            got = float(E[a] @ SU2.kappa @ E[b])
            assert abs(got - want) < 1e-14


def test_exp_full_turn_is_minus_identity():
    g = exp_group(SU2, [0.0, 0.0, 2 * np.pi])
    np.testing.assert_allclose(g, -np.eye(2), atol=1e-12)
    # and the phases are e^{-i pi}, e^{+i pi}
    w = np.linalg.eigvals(g)
    np.testing.assert_allclose(sorted(w.real), [-1.0, -1.0], atol=1e-12)


@mark.parametrize("t", (0.0, 0.3, 1.0, 2.5, -1.7))
def test_adjoint_rotates_e1_toward_e2(t):
    g = exp_group(SU2, [0.0, 0.0, t])
    got = alg.ad_matrix_of_group(SU2, g) @ E[0]
    np.testing.assert_allclose(got, [np.cos(t), np.sin(t), 0.0], atol=1e-12)


def test_ad_of_e3_matrix():
    m = alg.ad_matrix_c(SU2, E[2])
    np.testing.assert_allclose(m, [[0, -1, 0], [1, 0, 0], [0, 0, 0]], atol=1e-14)


@given(st.lists(bounded, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_exp_ad_equals_ad_exp(coeffs):
    lhs = scipy_expm(alg.ad_matrix_c(SU2, coeffs))
    rhs = alg.ad_matrix_of_group(SU2, exp_group(SU2, coeffs))
    assert np.abs(lhs - rhs).max() < 1e-9


@given(st.lists(bounded, min_size=4, max_size=4),
       st.lists(bounded, min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_adjoint_is_group_homomorphism(cg, ch):
    g = exp_group(MIX, cg)
    h = exp_group(MIX, ch)
    lhs = alg.ad_matrix_of_group(MIX, g @ h)
    rhs = alg.ad_matrix_of_group(MIX, g) @ alg.ad_matrix_of_group(MIX, h)
    assert np.abs(lhs - rhs).max() < 1e-10


@given(st.lists(bounded, min_size=4, max_size=4),
       st.lists(bounded, min_size=4, max_size=4),
       st.lists(bounded, min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_kappa_ad_invariance(cx, cy, cz):
    x, y, z = (np.asarray(c) for c in (cx, cy, cz))
    lhs = float(alg.bracket_c(MIX, x, y) @ MIX.kappa @ z)
    rhs = -float(y @ MIX.kappa @ alg.bracket_c(MIX, x, z))
    assert abs(lhs - rhs) < 1e-10


@given(st.lists(bounded, min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_exp_inverse(coeffs):
    x = np.asarray(coeffs)
    g = exp_group(MIX, x)
    h = exp_group(MIX, -1.0 * x)
    assert np.abs(g @ h - np.eye(3)).max() < 1e-12


def test_u1_exponential_is_phase():
    for t in (0.5, np.pi, -2.0):
        g = exp_group(U1, [t])
        assert abs(g[0, 0] - np.exp(1j * t)) < 1e-14


def test_u1_is_central_and_commutes_in_sum():
    assert MIX.center_mask.tolist() == [True, False, False, False]
    x = np.array([1.0, 0, 0, 0])
    y = np.array([0, 0.3, -0.7, 0.2])
    assert np.linalg.norm(alg.bracket_c(MIX, x, y)) == 0.0


def test_variety_rejects_non_unitary():
    with pytest.raises(alg.VarietyError):
        alg.on_variety(SU2, np.array([[1.0, 0.1], [0.0, 1.0]]))
    # unitary but det = -1 is off the su variety
    with pytest.raises(alg.VarietyError):
        alg.on_variety(SU2, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    # off-block entries are rejected for the direct sum
    m = np.eye(3, dtype=complex)
    m[0, 1] = 0.5
    with pytest.raises(alg.VarietyError):
        alg.on_variety(MIX, m)
    # a NaN matrix is off the variety, not at distance 0 from it
    assert np.isnan(alg.variety_residual(SU2, np.full((2, 2), np.nan, dtype=complex)))


def test_expansion_residual_detects_out_of_span():
    # the identity matrix is orthogonal to the traceless su(2) span
    coeffs, resid = alg.expand_in_rep(SU2, np.eye(2, dtype=complex))
    assert resid > 1.0
    np.testing.assert_allclose(coeffs, 0.0, atol=1e-14)


def test_jacobi_violation_names_the_triple():
    c = np.zeros((3, 3, 3))
    # [e1,e2]=e3, [e2,e3]=e1, but [e3,e1]=e1: antisymmetric yet non-Jacobi
    c[0, 1, 2], c[1, 0, 2] = 1, -1
    c[1, 2, 0], c[2, 1, 0] = 1, -1
    c[2, 0, 0], c[0, 2, 0] = 1, -1
    with pytest.raises(alg.StructureError, match=r"triple \(0, 1, 2\)"):
        alg.LieAlgebraDescriptor(
            dim=3, basis_labels=("a", "b", "c"), structure_constants=c,
            rep_dim=2, rep_matrices=alg.su2().rep_matrices, kappa=np.eye(3),
            center_mask=np.zeros(3, bool), variety_blocks=(("su", 0, 2),))


def test_center_mask_consistency_enforced():
    base = alg.su2()
    with pytest.raises(alg.StructureError, match="center_mask"):
        alg.LieAlgebraDescriptor(
            dim=3, basis_labels=base.basis_labels,
            structure_constants=base.structure_constants,
            rep_dim=2, rep_matrices=base.rep_matrices, kappa=base.kappa,
            center_mask=np.array([True, False, False]),
            variety_blocks=(("su", 0, 2),))


def test_non_finite_descriptor_data_rejected():
    base = alg.su2()
    c = base.structure_constants.copy()
    c[0, 1, 2] = np.nan
    with pytest.raises(alg.StructureError, match="must be finite"):
        alg.LieAlgebraDescriptor(
            dim=3, basis_labels=base.basis_labels, structure_constants=c,
            rep_dim=2, rep_matrices=base.rep_matrices, kappa=base.kappa,
            center_mask=np.zeros(3, bool), variety_blocks=(("su", 0, 2),))


def test_custom_descriptor_round_trip():
    blob = alg.algebra_to_dict(MIX)
    assert blob == {"name": "u1+su2"}
    # a non-builtin copy survives the dict round trip with identical data
    custom = alg.LieAlgebraDescriptor(
        dim=MIX.dim, basis_labels=MIX.basis_labels,
        structure_constants=MIX.structure_constants, rep_dim=MIX.rep_dim,
        rep_matrices=MIX.rep_matrices, kappa=MIX.kappa,
        center_mask=MIX.center_mask, variety_blocks=MIX.variety_blocks,
        name="custom-mix")
    blob = alg.algebra_to_dict(custom)
    back = alg.algebra_from_dict(blob)
    np.testing.assert_allclose(back.structure_constants, MIX.structure_constants)
    np.testing.assert_allclose(back.rep_matrices, MIX.rep_matrices)
    np.testing.assert_allclose(back.kappa, MIX.kappa)
    assert back.variety_blocks == MIX.variety_blocks


def test_builtin_descriptors_are_one_shared_instance_per_process():
    for name, build in (("su2", alg.su2), ("u1", alg.u1), ("u1+su2", alg.u1_su2)):
        assert alg.algebra_from_name(name) is alg.algebra_from_name(name)
        assert alg.algebra_from_name(name) is build()


@mark.parametrize("field", ["structure_constants", "rep_matrices", "kappa", "center_mask"])
def test_builtin_descriptor_arrays_are_read_only(field):
    with pytest.raises(ValueError, match="read-only"):
        getattr(alg.su2(), field)[0] = 0
    assert np.array_equal(alg.su2().kappa, np.eye(3))


def test_descriptor_owns_copies_of_its_arrays():
    kappa = np.eye(3)
    own = alg.LieAlgebraDescriptor(
        dim=3, basis_labels=SU2.basis_labels, structure_constants=SU2.structure_constants,
        rep_dim=2, rep_matrices=SU2.rep_matrices, kappa=kappa,
        center_mask=SU2.center_mask, variety_blocks=SU2.variety_blocks)
    kappa[0, 0] = 5.0
    assert own.kappa[0, 0] == 1.0


def test_replace_validates_a_new_descriptor():
    scaled = dataclasses.replace(alg.su2(), kappa=2 * np.eye(3))
    assert scaled is not alg.su2()
    assert np.array_equal(scaled.kappa, 2 * np.eye(3))
    assert not scaled.kappa.flags.writeable
    assert np.array_equal(alg.su2().kappa, np.eye(3))
    with pytest.raises(alg.StructureError, match="not ad-invariant"):
        dataclasses.replace(alg.su2(), kappa=np.diag([1.0, 2.0, 3.0]))


def test_representation_violation_names_the_first_pair():
    with pytest.raises(alg.StructureError, match=r"bracket on \(0, 1\)"):
        dataclasses.replace(alg.su2(), rep_matrices=2 * SU2.rep_matrices)


# -- the kernel broadcasts over stacks ----------------------------------------

def rotated_su2():
    """su(2) in an orthonormally rotated basis, loaded from a descriptor."""
    q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(3, 3)))
    q[:, 0] *= np.sign(np.linalg.det(q))
    reps = np.einsum('ba,bij->aij', q, SU2.rep_matrices)
    c = np.einsum('ia,jb,ijk,kc->abc', q, q, SU2.structure_constants, q)
    return alg.algebra_from_dict({
        "dim": 3, "basis_labels": ["f1", "f2", "f3"],
        "structure_constants": c.tolist(),
        "rep_matrices": np.stack([reps.real, reps.imag], axis=-1).tolist(),
        "kappa": (q.T @ SU2.kappa @ q).tolist(), "variety_blocks": [["su", 0, 2]]})


KERNEL_ALGEBRAS = {"su2": alg.su2, "u1": alg.u1, "u1+su2": alg.u1_su2,
                   "rotated-su2": rotated_su2}


@pytest.mark.parametrize("name", sorted(KERNEL_ALGEBRAS))
def test_stacked_kernel_matches_a_loop_of_one_row_calls(name):
    a = KERNEL_ALGEBRAS[name]()
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=(5, 2, a.dim))
    g = alg.expm(a.rep_of(coeffs))
    ad = alg.ad_matrix_of_group(a, g)
    variety = alg.variety_residual(a, g)
    m = g @ a.rep_of(rng.normal(size=(5, 2, a.dim)))
    expanded, off_span = alg.expand_in_rep(a, m)
    assert g.shape == (5, 2, a.rep_dim, a.rep_dim) and ad.shape == (5, 2, a.dim, a.dim)
    assert variety.shape == off_span.shape == (5, 2)
    for i, j in np.ndindex(5, 2):
        assert np.array_equal(g[i, j], alg.expm(a.rep_of(coeffs[i, j])))
        assert np.abs(ad[i, j] - alg.ad_matrix_of_group(a, g[i, j])).max() <= 1e-15
        assert abs(variety[i, j] - alg.variety_residual(a, g[i, j])) <= 1e-15
        one, resid = alg.expand_in_rep(a, m[i, j])
        assert np.abs(expanded[i, j] - one).max() <= 1e-15
        assert abs(off_span[i, j] - resid) <= 1e-15
    assert np.all(variety <= alg.VARIETY_TOL)
    assert alg.on_variety(a, g) is g


def test_stacked_watchdogs_raise_on_a_finite_bad_row_only():
    g = scipy_expm(SU2.rep_of(np.random.default_rng(2).normal(size=(4, 3))))
    off = g.copy()
    off[2] = np.diag([2.0, 1.0])  # finite, not unitary: Ad leaves the span
    with pytest.raises(alg.ReexpansionError, match="off span"):
        alg.ad_matrix_of_group(SU2, off)
    with pytest.raises(alg.VarietyError, match="off the group variety"):
        alg.on_variety(SU2, off)
    poisoned = g.copy()
    poisoned[2] = np.nan
    ad = alg.ad_matrix_of_group(SU2, poisoned)
    assert np.isnan(ad[2]).all() and np.isfinite(np.delete(ad, 2, axis=0)).all()
    assert alg.on_variety(SU2, poisoned) is poisoned
    variety = alg.variety_residual(SU2, poisoned)
    assert np.isnan(variety[2]) and np.isfinite(np.delete(variety, 2)).all()


# -- Ad as a quadratic map, the variety check in closed form ----------------------

def su3():
    """su(3) on the Gell-Mann matrices over 2i, one "su" block of size 3
    (Pade(13) and numpy's det), loaded from a descriptor; kappa = -2 tr = id."""
    lam = []
    for j, k in ((0, 1), (0, 2), (1, 2)):
        sym = np.zeros((3, 3))
        sym[j, k] = sym[k, j] = 1.0
        lam += [sym, 1j * (np.tril(sym) - np.triu(sym))]
    reps = np.array(lam + [np.diag([1.0, -1.0, 0.0]), np.diag([1.0, 1.0, -2.0]) / np.sqrt(3)]) / 2j
    comm = reps[:, None] @ reps[None] - reps[None] @ reps[:, None]
    return alg.algebra_from_dict({
        "dim": 8, "basis_labels": [f"e{a}" for a in range(1, 9)],
        "structure_constants": (-2 * np.einsum('abij,kji->abk', comm, reps).real).tolist(),
        "rep_matrices": np.stack([reps.real, reps.imag], axis=-1).tolist(),
        "kappa": np.eye(8).tolist(), "variety_blocks": [["su", 0, 3]]})


def reference_ad(a, g):
    """Ad_g by conjugating each basis matrix, g T_b g^dagger, and re-expanding
    the images in the representation span."""
    g = g[..., None, :, :]
    coeffs, _ = alg.expand_in_rep(a, g @ a.rep_matrices @ alg.dagger(g))
    return np.swapaxes(coeffs, -1, -2)


def reference_variety(a, g):
    """The variety residual by a stacked matmul per block and numpy's det."""
    gaps = [np.abs(g[..., a._off_blocks]).max(axis=-1, initial=0.0)]
    for kind, off, size in a.variety_blocks:
        blk = g[..., off:off + size, off:off + size]
        gaps.append(np.abs(alg.dagger(blk) @ blk - np.eye(size)).max(axis=(-2, -1)))
        if kind == "su":
            with np.errstate(invalid="ignore"):
                gaps.append(np.abs(np.linalg.det(blk) - 1.0))
    return np.max(gaps, axis=0)


ROUTE_ALGEBRAS = dict(KERNEL_ALGEBRAS, su3=su3)


@pytest.mark.parametrize("shape", ((), (5,), (5, 2)), ids=str)
@pytest.mark.parametrize("name", sorted(ROUTE_ALGEBRAS))
def test_quadratic_ad_and_elementwise_variety_match_the_matmul_routes(name, shape):
    a = ROUTE_ALGEBRAS[name]()
    g = alg.group_exp(a, np.random.default_rng(9).normal(scale=2.0, size=shape + (a.dim,)))
    ad = alg.ad_matrix_of_group(a, g)
    assert ad.shape == shape + (a.dim, a.dim)
    assert np.abs(ad - reference_ad(a, g)).max() <= 1e-15
    variety = alg.variety_residual(a, g)
    assert np.shape(variety) == shape
    assert np.abs(variety - reference_variety(a, g)).max() <= 1e-15
    if shape:
        g[(0,) * len(shape)] = np.nan
        variety = alg.variety_residual(a, g)
        want = np.isnan(reference_variety(a, g))
        assert want.any() and np.array_equal(np.isnan(variety), want)
        assert np.abs(variety - reference_variety(a, g))[~want].max() <= 1e-15


def test_ad_watchdog_is_block_unitarity():
    g = alg.group_exp(SU2, np.random.default_rng(4).normal(size=(3, 3)))
    scaled = g.copy()
    scaled[1] *= 1.5  # finite, not unitary, though g T g^dagger stays in the span
    with pytest.raises(alg.ReexpansionError, match="off span"):
        alg.ad_matrix_of_group(SU2, scaled)
    mixed = alg.group_exp(MIX, np.random.default_rng(5).normal(size=(3, 4)))
    assert alg.variety_residual(MIX, mixed).max() <= 1e-15
    mixed[1, 0, 2] = 1e-6  # each block still unitary, an entry off the blocks
    with pytest.raises(alg.ReexpansionError, match="off span"):
        alg.ad_matrix_of_group(MIX, mixed)
    infinite = g.copy()
    infinite[1, 0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        ad = alg.ad_matrix_of_group(SU2, infinite)
    assert np.isnan(ad[1]).all() and np.isfinite(ad[[0, 2]]).all()
    phased = np.exp(0.3j) * g  # in U(2), det e^{0.6i}: Ad stays in the span
    assert np.abs(alg.ad_matrix_of_group(SU2, phased) - alg.ad_matrix_of_group(SU2, g)).max() \
        <= 1e-15
    with pytest.raises(alg.VarietyError, match="off the group variety"):
        alg.on_variety(SU2, phased)


@pytest.mark.parametrize("name", ["su2", "u1+su2"])
def test_ad_and_variety_stay_exact_at_huge_coefficients(name):
    # the products that are real in exact arithmetic come from matrix entries of
    # modulus at most 1, so a fused complex product leaves no more than an ulp
    a = KERNEL_ALGEBRAS[name]()
    coeffs = np.random.default_rng(8).normal(size=(3, 50, a.dim)) * np.array(
        [1.0, 1e8, 1e15])[:, None, None]
    g = alg.group_exp(a, coeffs)
    ad = alg.ad_matrix_of_group(a, g)
    orthogonality = np.swapaxes(ad, -1, -2) @ a.kappa @ ad - a.kappa
    assert np.abs(orthogonality).max() <= 8 * np.finfo(float).eps
    assert alg.variety_residual(a, g).max() <= 8 * np.finfo(float).eps


@pytest.mark.parametrize("name", ["su2", "u1", "u1+su2"])
def test_ad_and_variety_call_neither_expand_in_rep_nor_det(monkeypatch, name):
    def refused(*args, **kwargs):
        raise AssertionError("old route reached")

    monkeypatch.setattr(alg, "expand_in_rep", refused)
    monkeypatch.setattr(np.linalg, "det", refused)
    a = KERNEL_ALGEBRAS[name]()
    g = alg.group_exp(a, np.random.default_rng(6).normal(size=(7, 2, a.dim)))
    assert alg.ad_matrix_of_group(a, g).shape == (7, 2, a.dim, a.dim)
    assert alg.variety_residual(a, g).shape == (7, 2)


# -- the matrix exponential -----------------------------------------------------

def unit_vectors(count, seed):
    u = np.random.default_rng(seed).normal(size=(count, 3))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


@pytest.mark.parametrize("theta", (1e-6, 1e-3, 0.1, 1.0, 3.0, 10.0))
def test_expm_matches_the_su2_and_so3_closed_forms(theta):
    u = theta * unit_vectors(8, seed=11)
    m = SU2.rep_of(u)  # m @ m = -(theta/2)^2 on the representation
    want = np.cos(theta / 2) * np.eye(2) + np.sin(theta / 2) / (theta / 2) * m
    assert np.abs(alg.expm(m) - want).max() <= 1e-14
    k = alg.ad_matrix_c(SU2, u)  # k @ v = u x v on so(3): Rodrigues' formula
    rodrigues = (np.eye(3) + np.sin(theta) / theta * k
                 + 2 * (np.sin(theta / 2) / theta) ** 2 * (k @ k))
    assert np.abs(alg.expm(k) - rodrigues).max() <= 1e-14


@pytest.mark.parametrize("name", ["u1", "u1+su2", "rotated-su2"])
def test_expm_matches_scipy_on_the_representation_and_the_adjoint(name):
    a = KERNEL_ALGEBRAS[name]()
    coeffs = np.random.default_rng(3).normal(scale=1.5, size=(6, 4, a.dim))
    for m in (a.rep_of(coeffs), alg.ad_matrix_c(a, coeffs)):
        got = alg.expm(m)
        assert got.shape == m.shape and got.dtype == m.dtype
        assert np.abs(got - scipy_expm(m)).max() <= 1e-12


@pytest.mark.parametrize("matrices", [SU2.rep_of, lambda u: alg.ad_matrix_c(SU2, u)],
                         ids=["rep", "ad"])
def test_expm_rows_of_a_mixed_stack_match_one_row_calls(matrices):
    # row 6 is finite, but its exponential overflows
    scales = np.array([0.0, 1e-300, 1e-12, 1.0, 40.0, 1e3, 1e308, 1.0, 1.0, 1.0])
    m = matrices(scales[:, None] * unit_vectors(len(scales), seed=2))
    m[7, 0, 1], m[8, 1, 0], m[9, 0, 0] = np.nan, np.inf, -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = alg.expm(m.reshape(2, 5, *m.shape[1:])).reshape(m.shape)
        for i in range(len(m)):
            assert np.array_equal(got[i], alg.expm(m[i]), equal_nan=True)
    assert np.isfinite(m[6]).all()
    assert np.isnan(got[6:]).all() and np.isfinite(got[:6]).all()
    eye = np.eye(len(m[0]))
    assert np.array_equal(got[0], eye)
    assert np.abs(got[:6] @ alg.dagger(got[:6]) - eye).max() <= 1e-13  # unitary


@pytest.mark.parametrize("theta", (0.0, 1e-12, 1e-6, 1e-3, 0.5, 3.0, 40.0, 1e3, 1e6))
def test_expm_2x2_closed_form_matches_su2_cos_sin(theta):
    # exp(theta u.e) = cos(theta/2) I + 2 sin(theta/2) u.e for a unit u; scipy
    # is no reference at large theta, its own error reaches 1.3e-10 at 1e6
    u = unit_vectors(8, seed=11)
    want = np.cos(theta / 2) * np.eye(2) + 2 * np.sin(theta / 2) * SU2.rep_of(u)
    got = alg.expm(SU2.rep_of(theta * u))
    assert np.abs(got - want).max() <= 2 * np.finfo(float).eps * max(1.0, theta)


def test_expm_2x2_closed_form_matches_scipy_on_random_complex_matrices():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(50, 2, 2)) + 1j * rng.normal(size=(50, 2, 2))
    want = scipy_expm(m)
    gap = np.abs(alg.expm(m) - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
    assert gap.max() <= 1e-14


def test_expm_of_a_nilpotent_2x2_is_one_plus_it():
    n = np.array([[0.0, 3.5], [0.0, 0.0]])
    for m in (n, n.T, 1j * n):
        assert np.array_equal(alg.expm(m), np.eye(2) + m)
    assert np.array_equal(alg.expm(2 * np.eye(2) + n), np.exp(2.0) * (np.eye(2) + n))


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("dtype", (float, complex))
def test_expm_of_zero_is_the_identity_and_every_result_keeps_the_dtype(n, dtype):
    got = alg.expm(np.zeros((4, n, n), dtype=dtype))
    assert got.dtype == dtype and np.array_equal(got, np.broadcast_to(np.eye(n), got.shape))
    m = np.random.default_rng(n).normal(size=(4, n, n)).astype(dtype)
    assert alg.expm(m).dtype == dtype


def test_descriptor_rejects_representation_entries_off_the_variety_blocks():
    # i I and the rotation commute, so the bracket holds; but the rotation
    # couples the two declared u(1) blocks, which `group_exp` would drop
    reps = np.array([1j * np.eye(2), [[0, 1], [-1, 0]]])
    with pytest.raises(alg.StructureError, match="off the variety blocks"):
        alg.LieAlgebraDescriptor(
            dim=2, basis_labels=("a", "b"), structure_constants=np.zeros((2, 2, 2)),
            rep_dim=2, rep_matrices=reps, kappa=np.eye(2), center_mask=np.ones(2, dtype=bool),
            variety_blocks=(("u", 0, 1), ("u", 1, 1)))


@pytest.mark.parametrize("name", sorted(KERNEL_ALGEBRAS))
def test_group_exp_is_the_exponential_of_the_representation(name):
    a = KERNEL_ALGEBRAS[name]()
    coeffs = np.random.default_rng(6).normal(scale=1.5, size=(5, 2, a.dim))
    got = alg.group_exp(a, coeffs)
    assert got.shape == (5, 2, a.rep_dim, a.rep_dim)
    assert np.abs(got - scipy_expm(a.rep_of(coeffs))).max() <= 1e-13
    assert np.array_equal(alg.group_exp(a, np.zeros(a.dim)), np.eye(a.rep_dim))
    for i, j in np.ndindex(5, 2):
        assert np.array_equal(got[i, j], alg.group_exp(a, coeffs[i, j]))


@pytest.mark.parametrize("name", ["su2", "u1", "u1+su2"])
def test_group_exp_stays_on_the_variety_at_huge_coefficients(name):
    # delta is summed from real parts, so an anti-Hermitian block keeps a real
    # delta: a fused complex product would leave about 1e-10 of gap at 1e8
    a = KERNEL_ALGEBRAS[name]()
    coeffs = np.random.default_rng(8).normal(size=(3, 50, a.dim)) * np.array(
        [1e8, 1e15, 1e100])[:, None, None]
    assert alg.variety_residual(a, alg.group_exp(a, coeffs)).max() <= 4 * np.finfo(float).eps


def test_group_exp_makes_one_closed_form_call_per_block(monkeypatch):
    sizes = []
    expm = alg.expm

    def counted(m):
        sizes.append(np.shape(m)[-2:])
        return expm(m)

    def no_solve(*args):
        raise AssertionError("Pade(13) reached")

    monkeypatch.setattr(alg, "expm", counted)
    monkeypatch.setattr(np.linalg, "solve", no_solve)
    rng = np.random.default_rng(1)
    for shape in ((MIX.dim,), (7, MIX.dim), (3, 5, MIX.dim)):
        sizes.clear()
        g = alg.group_exp(MIX, rng.normal(size=shape))
        assert sizes == [(1, 1), (2, 2)] and g.shape == shape[:-1] + (3, 3)
        assert not g[..., 0, 1:].any() and not g[..., 1:, 0].any()

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
    scales = np.array([0.0, 1e-300, 1e-12, 1.0, 40.0, 1e3, 1.0, 1.0, 1.0])
    m = matrices(scales[:, None] * unit_vectors(len(scales), seed=2))
    m[6, 0, 1], m[7, 1, 0], m[8, 0, 0] = np.nan, np.inf, -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = alg.expm(m.reshape(3, 3, *m.shape[1:])).reshape(m.shape)
        for i in range(6):
            assert np.array_equal(got[i], alg.expm(m[i]))
    assert np.isnan(got[6:]).all() and np.isfinite(got[:6]).all()
    eye = np.eye(len(m[0]))
    assert np.array_equal(got[0], eye)
    assert np.abs(got[:6] @ alg.dagger(got[:6]) - eye).max() <= 1e-13  # unitary

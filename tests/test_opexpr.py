import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vqpde.opexpr import (
    OpAtom,
    OpExpr,
    OpTerm,
    adjoint,
    apply_expr,
    compile_monomials,
    diag,
    expand_product,
    grad_op,
    laplacian_op,
    shift,
    shiftdag,
)
from vqpde.statevec import RegisterLayout, SimulationError, layout_1d

from reference import dense_reference


def random_state(rng, n):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return amps / np.linalg.norm(amps)


def random_expr(rng, axes, n_terms=4, with_diag=True):
    terms = []
    for _ in range(n_terms):
        atoms = []
        for _ in range(int(rng.integers(0, 3))):
            choice = rng.integers(0, 3 if with_diag else 2)
            ax = axes[int(rng.integers(len(axes)))]
            if choice == 0:
                atoms.append(shift(ax))
            elif choice == 1:
                atoms.append(shiftdag(ax))
            else:
                atoms.append(diag("f"))
        terms.append(OpTerm(rng.normal() + 1j * rng.normal(), tuple(atoms)))
    return OpExpr(tuple(terms))


# -- atoms and canonical form ----------------------------------------------

def test_atom_validation():
    with pytest.raises(ValueError):
        OpAtom("shift")
    with pytest.raises(ValueError):
        OpAtom("diag")
    with pytest.raises(ValueError):
        OpAtom("banana", axis="x")


def test_canonical_merges_identical_terms():
    e = OpExpr((OpTerm(1.0, (shift("x"),)), OpTerm(2.0, (shift("x"),))))
    assert len(e.terms) == 1
    assert e.terms[0].coeff == 3.0


def test_canonical_drops_zero_terms():
    e = OpExpr((OpTerm(1.0, (shift("x"),)), OpTerm(-1.0, (shift("x"),))))
    assert e.terms == ()


def test_cross_axis_shifts_sorted_but_diag_order_kept():
    lay = RegisterLayout((("x", 2, 1.0), ("y", 2, 1.0)))
    a = OpExpr((OpTerm(1.0, (shift("y"), shift("x"))),))
    b = OpExpr((OpTerm(1.0, (shift("x"), shift("y"))),))
    assert a.terms == b.terms
    rng = np.random.default_rng(0)
    binds = {"f": rng.normal(size=16)}
    # Diag does not commute with a same-register shift: order must survive
    dg = OpExpr((OpTerm(1.0, (diag("f"), shift("x"))),))
    gd = OpExpr((OpTerm(1.0, (shift("x"), diag("f"))),))
    assert np.max(np.abs(dense_reference(dg, lay, binds)
                         - dense_reference(gd, lay, binds))) > 1e-3


# -- derivative builders ----------------------------------------------------

def test_grad_of_constant_is_zero():
    lay = layout_1d(3, 0.5)
    out = apply_expr(grad_op("x", 0.5), np.full(8, 2.0), lay)
    assert np.max(np.abs(out)) < 1e-12


def test_grad_on_basis_vector():
    lay = layout_1d(2, 1.0)
    e1 = np.zeros(4)
    e1[1] = 1.0
    out = apply_expr(grad_op("x", 1.0), e1, lay)
    assert np.allclose(out, [0, -1, 1, 0])


def test_grad_matches_dense_matrix_on_sine():
    lay = layout_1d(4, 1.0)
    xs = np.arange(16.0)
    f = np.sin(2 * np.pi * xs / 16)
    dm = dense_reference(grad_op("x", 1.0), lay)
    out = apply_expr(grad_op("x", 1.0), f, lay)
    assert np.max(np.abs(out - dm @ f)) < 1e-12


def test_grad_rejects_bad_spacing():
    with pytest.raises(ValueError):
        grad_op("x", 0.0)
    with pytest.raises(ValueError):
        laplacian_op("x", -1.0)


def test_laplacian_stencil_on_delta():
    lay = layout_1d(2, 1.0)
    e0 = np.zeros(4)
    e0[0] = 1.0
    out = apply_expr(laplacian_op("x", 1.0), e0, lay)
    assert np.allclose(out, [-2, 1, 0, 1])


def test_laplacian_eigenvalue_on_sine():
    n = 32
    lay = layout_1d(5, 1.0)
    k = 2 * np.pi * 3 / n
    f = np.sin(k * np.arange(n))
    out = apply_expr(laplacian_op("x", 1.0), f, lay)
    ev = -2.0 * (1 - np.cos(k))
    assert np.max(np.abs(out - ev * f)) < 1e-12


def test_laplacian_is_self_adjoint_canonically():
    lap = laplacian_op("x", 0.25)
    assert adjoint(lap).terms == lap.terms


# -- expansion --------------------------------------------------------------

def test_expand_binomial():
    d = OpExpr((OpTerm(1.0, (shift("x"),)), OpTerm(-1.0)))
    sq = expand_product([d, d])
    by_label = {t.label(): t.coeff for t in sq.terms}
    assert by_label == {"A[x]*A[x]": 1.0, "A[x]": -2.0, "1": 1.0}


def test_forward_forward_differs_from_laplacian():
    g = grad_op("x", 1.0)
    ff = expand_product([g, g])
    assert ff.terms != laplacian_op("x", 1.0).terms


def test_expand_empty_factor_list_rejected():
    with pytest.raises(ValueError):
        expand_product([])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_expand_is_linear_in_each_factor(seed):
    rng = np.random.default_rng(seed)
    lay = layout_1d(3, 1.0)
    binds = {"f": rng.normal(size=8)}
    a = random_expr(rng, ("x",))
    b = random_expr(rng, ("x",))
    c = random_expr(rng, ("x",))
    left = dense_reference(expand_product([a + b.scale(2.5), c]), lay, binds)
    right = (dense_reference(expand_product([a, c]), lay, binds)
             + 2.5 * dense_reference(expand_product([b, c]), lay, binds))
    assert np.max(np.abs(left - right)) < 1e-10


# -- adjoint ----------------------------------------------------------------

def test_adjoint_of_scaled_shift():
    e = OpExpr((OpTerm(2.0 + 1.0j, (shift("x"),)),))
    adj = adjoint(e)
    assert adj.terms[0].coeff == 2.0 - 1.0j
    assert adj.terms[0].atoms[0].kind == "shiftdag"


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_adjoint_is_involution(seed):
    rng = np.random.default_rng(seed)
    e = random_expr(rng, ("x", "y"))
    assert adjoint(adjoint(e)).terms == e.terms


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_adjoint_inner_product_identity(seed):
    rng = np.random.default_rng(seed)
    lay = RegisterLayout((("x", 2, 1.0), ("y", 1, 0.5)))
    binds = {"f": rng.normal(size=8)}
    e = random_expr(rng, ("x", "y"))
    phi, psi = random_state(rng, 3), random_state(rng, 3)
    lhs = np.vdot(phi, apply_expr(e, psi, lay, binds))
    rhs = np.vdot(apply_expr(adjoint(e), phi, lay, binds), psi)
    assert abs(lhs - rhs) < 1e-12


# -- application ------------------------------------------------------------

def test_identity_expression_returns_input():
    rng = np.random.default_rng(1)
    s = random_state(rng, 3)
    out = apply_expr(OpExpr.identity(), s, layout_1d(3, 1.0))
    assert np.allclose(out, s)


def test_shift_minus_identity_kills_uniform():
    lay = layout_1d(3, 1.0)
    s = np.full(8, 1 / np.sqrt(8))
    e = OpExpr((OpTerm(1.0, (shift("x"),)), OpTerm(-1.0)))
    assert np.max(np.abs(apply_expr(e, s, lay))) < 1e-12


def test_unresolved_diag_reference():
    with pytest.raises(SimulationError):
        apply_expr(OpExpr.single(diag("missing")), np.ones(4),
                   layout_1d(2, 1.0))


def test_diagonal_length_mismatch():
    for n in (3, 5):
        with pytest.raises(SimulationError):
            compile_monomials(OpExpr.single(diag("f")), layout_1d(2, 1.0),
                              {"f": np.ones(n)})


def test_apply_rejects_wrong_length():
    for amps in (np.ones(2), np.ones(8), np.ones((2, 4))):
        with pytest.raises(SimulationError):
            apply_expr(OpExpr.identity(), amps, layout_1d(2, 1.0))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_apply_matches_dense_matrix(seed):
    rng = np.random.default_rng(seed)
    lay = RegisterLayout((("x", 2, 1.0), ("y", 2, 0.5)))
    binds = {"f": rng.normal(size=16)}
    e = random_expr(rng, ("x", "y"))
    s = random_state(rng, 4)
    direct = apply_expr(e, s, lay, binds)
    dense = dense_reference(e, lay, binds) @ s
    assert np.max(np.abs(direct - dense)) < 1e-12


# -- canonical order ----------------------------------------------------------

def test_serialization_is_deterministic_and_canonical():
    """Terms given in any order, with their atoms in any order, come out as
    the same canonical terms and labels."""
    e1 = OpExpr((OpTerm(0.5, (shift("y"), shift("x"))), OpTerm(1.0)))
    e2 = OpExpr((OpTerm(1.0), OpTerm(0.5, (shift("x"), shift("y")))))
    assert e1.terms == e2.terms
    assert [t.label() for t in e1.terms] == ["1", "A[x]*A[y]"]

"""Truncated Fock-space numerics and closed-form cross-checks."""

import cmath
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from genstar import (
    DimensionMismatchError,
    FockOp,
    Polynomial2,
    SingularParameterError,
    ValidationError,
    coherent_momentum_overlap,
    coherent_projector,
    coherent_vector,
    hs_inner,
    ladder_ops,
    make_params,
    momentum_state_op,
    overlap_vs_closedform,
    preset_params,
    quantum_ops,
    star_poly,
)
from genstar.fockspace import _even_odd_svd
from genstar.suites import random_interior_state


def test_ladder_matrix_n2():
    b, bd = ladder_ops(2)
    assert np.array_equal(b.matrix, np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.array_equal(bd.matrix, b.matrix.conj().T)


def test_ladder_commutator_truncation():
    b, bd = ladder_ops(16)
    comm = b.commutator(bd).matrix
    assert np.allclose(np.diag(comm)[:15], 1.0)
    assert comm[15, 15] == pytest.approx(1 - 16)
    off = comm - np.diag(np.diag(comm))
    assert np.max(np.abs(off)) == 0


def test_ladder_requires_dim_at_least_two():
    with pytest.raises(ValidationError):
        ladder_ops(1)


@pytest.mark.parametrize(
    "build",
    [
        ladder_ops,
        lambda dim: coherent_vector(0.5, dim),
        lambda dim: momentum_state_op(0.5, 1.0, dim),
        lambda dim: quantum_ops(make_params(1.0), dim),
    ],
    ids=["ladder_ops", "coherent_vector", "momentum_state_op", "quantum_ops"],
)
def test_dims_past_the_array_bound_are_refused_before_allocating(build):
    # 2048^2 entries is the bound; 100000^2 complex entries would be 149 GiB
    with pytest.raises(ValidationError, match="truncation dimension 2049"):
        build(2049)
    with pytest.raises(ValidationError, match="truncation dimension 100000"):
        build(100000)


@pytest.mark.parametrize("dim", [4.0, 4.5, "4", None, np.float64(4.0)],
                         ids=["float", "fraction", "str", "None", "numpy_float"])
@pytest.mark.parametrize(
    "build",
    [
        ladder_ops,
        lambda dim: coherent_vector(0.5, dim),
        lambda dim: coherent_projector(0.5, dim),
        lambda dim: momentum_state_op(0.5, 1.0, dim),
        lambda dim: quantum_ops(make_params(1.0), dim),
        lambda dim: overlap_vs_closedform(0.3, 0.5, 1.0, dim),
        lambda dim: FockOp(dim, np.eye(4)),
    ],
    ids=["ladder_ops", "coherent_vector", "coherent_projector", "momentum_state_op",
         "quantum_ops", "overlap_vs_closedform", "FockOp"],
)
def test_non_integer_dims_are_refused(build, dim):
    # 4.0 would share 4's cache entries, since hash(4.0) == hash(4)
    with pytest.raises(ValidationError, match="must be an integer"):
        build(dim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        build(np.int32(4))  # numpy integers are integers


def test_fockop_dim_mismatch():
    a, _ = ladder_ops(4)
    b, _ = ladder_ops(8)
    with pytest.raises(DimensionMismatchError):
        a @ b
    with pytest.raises(DimensionMismatchError):
        hs_inner(a, b)


# -- coherent states --------------------------------------------------------


def test_coherent_vector_vacuum():
    v = coherent_vector(0, 8)
    assert v[0] == 1.0
    assert np.allclose(v[1:], 0.0)


@pytest.mark.parametrize("z", [math.inf, complex(0, math.nan), "x"])
def test_coherent_vector_rejects_nonfinite_z(z):
    with pytest.raises(ValidationError, match="z must be"):
        coherent_vector(z, 8)


def test_coherent_projector_vacuum():
    p = coherent_projector(0, 8)
    want = np.zeros((8, 8), dtype=complex)
    want[0, 0] = 1.0
    assert np.array_equal(p.matrix, want)


def test_coherent_vector_is_b_eigenvector():
    b, _ = ladder_ops(64)
    for z in (0.5, 0.1 + 0.3j, -0.9j):
        v = coherent_vector(z, 64)
        got = b.matrix @ v
        assert np.max(np.abs(got - z * v)) < 1e-10


def test_coherent_projector_normalized_idempotent_hermitian():
    for z in (0.3, 0.8 - 0.4j):
        p = coherent_projector(z, 64)
        assert np.trace(p.matrix) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs((p @ p).matrix - p.matrix)) < 1e-10
        assert np.max(np.abs(p.dagger().matrix - p.matrix)) < 1e-12


def test_coherent_truncation_warning():
    with pytest.warns(RuntimeWarning, match="poorly truncated"):
        coherent_vector(3.0, 8)


def test_coherent_overlap_gaussian():
    z, zp = 0.5, 0.1 + 0.3j
    got = hs_inner(coherent_projector(zp, 64), coherent_projector(z, 64))
    assert abs(got - cmath.exp(-abs(z - zp) ** 2)) < 1e-10


def test_fockop_keeps_its_own_copy_of_a_caller_array():
    m = np.eye(4, dtype=complex)
    psi = FockOp(4, m)
    m[0, 0] = 7.0
    assert psi.matrix[0, 0] == 1.0
    assert m.flags.writeable and not psi.matrix.flags.writeable
    # engine results are checked like any other, and are read-only too
    b, bd = ladder_ops(16)
    for op in (b, bd, b.dagger(), b @ bd, b + bd, b - bd, 2 * b, b.commutator(bd),
               coherent_projector(0.5, 16), momentum_state_op(0.5, 1.0, 16),
               quantum_ops(make_params(1.0), 16).P(b)):
        assert not op.matrix.flags.writeable
    with pytest.raises(ValidationError, match="finite"), np.errstate(invalid="ignore"):
        b * math.inf
    with pytest.raises(ValidationError, match="shape"):
        FockOp(4, np.eye(3))


# -- Hilbert-Schmidt inner product ------------------------------------------


def test_hs_inner_positive_definite():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    psi = FockOp(6, m)
    val = hs_inner(psi, psi)
    assert val.imag == pytest.approx(0.0, abs=1e-12)
    assert val.real > 0
    zero = FockOp(6, np.zeros((6, 6)))
    assert hs_inner(zero, zero) == 0


def test_hs_inner_orthogonal_projectors():
    e0 = np.zeros((4, 4), dtype=complex)
    e0[0, 0] = 1.0
    e1 = np.zeros((4, 4), dtype=complex)
    e1[1, 1] = 1.0
    assert hs_inner(FockOp(4, e0), FockOp(4, e1)) == 0


def test_hs_inner_sesquilinear():
    rng = np.random.default_rng(1)
    a = FockOp(5, rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    b = FockOp(5, rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    c = FockOp(5, rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    lam = 0.7 - 0.2j
    assert abs(hs_inner(a, b) - hs_inner(b, a).conjugate()) < 1e-12
    lhs = hs_inner(a, b * lam + c)
    rhs = lam * hs_inner(a, b) + hs_inner(a, c)
    assert abs(lhs - rhs) < 1e-12


# -- quantum operators -------------------------------------------------------


def test_quantum_ops_require_positive_theta():
    with pytest.raises(SingularParameterError):
        quantum_ops(make_params(0.0), 8)


def test_heisenberg_commutators_interior():
    rng = np.random.default_rng(2)
    dim = 64
    for theta in (0.5, 1.0, 2.0):
        ops = quantum_ops(make_params(theta), dim)
        psi = random_interior_state(rng, dim)

        def comm(a, b):
            return (a(b(psi)) - b(a(psi))).matrix

        assert np.max(np.abs(comm(ops.X1, ops.X2) - 1j * theta * psi.matrix)) < 1e-12
        assert np.max(np.abs(comm(ops.X1, ops.P1) - 1j * psi.matrix)) < 1e-12
        assert np.max(np.abs(comm(ops.X2, ops.P2) - 1j * psi.matrix)) < 1e-12
        assert np.max(np.abs(comm(ops.P1, ops.P2))) < 1e-12
        assert np.max(np.abs(comm(ops.X1, ops.P2))) < 1e-12
        assert np.max(np.abs(comm(ops.X2, ops.P1))) < 1e-12


def test_truncation_artifacts_live_in_top_levels():
    # with full-support states the commutator defect appears, but only in
    # rows fed by the top two Fock levels
    dim = 32
    ops = quantum_ops(make_params(1.0), dim)
    rng = np.random.default_rng(3)
    psi = FockOp(dim, rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    defect = (ops.X1(ops.X2(psi)) - ops.X2(ops.X1(psi))).matrix - 1j * psi.matrix
    assert np.max(np.abs(defect[: dim - 2, :])) < 1e-12
    assert np.max(np.abs(defect[dim - 2 :, :])) > 1.0


def test_b_action_eigenrelation_on_projectors():
    ops = quantum_ops(make_params(1.0), 64)
    for z in (0.4 - 0.6j, 0.9):
        proj = coherent_projector(z, 64)
        assert np.max(np.abs(ops.B(proj).matrix - z * proj.matrix)) < 1e-10


def test_p_is_complex_combination():
    ops = quantum_ops(make_params(0.8), 32)
    rng = np.random.default_rng(4)
    psi = FockOp(32, rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
    combo = ops.P1(psi).matrix + 1j * ops.P2(psi).matrix
    assert np.max(np.abs(ops.P(psi).matrix - combo)) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 17, 64, 65, 66, 130])
def test_actions_match_dense_ladder_products(dim):
    # full-support states: an off-by-one shift at either edge shows here,
    # and at the 64-level block edges from dim 65 on
    b, bd = (op.matrix for op in ladder_ops(dim))
    rng = np.random.default_rng(dim)
    for theta in (0.5, 1.0, 2.0):
        ops = quantum_ops(make_params(theta), dim)
        x1 = math.sqrt(theta / 2.0) * (b + bd)
        x2 = -1j * math.sqrt(theta / 2.0) * (b - bd)
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        want = {
            ops.X1: x1 @ m,
            ops.X2: x2 @ m,
            ops.B: b @ m,
            ops.P1: (x2 @ m - m @ x2) / theta,
            ops.P2: -(x1 @ m - m @ x1) / theta,
            ops.P: -1j * math.sqrt(2.0 / theta) * (b @ m - m @ b),
        }
        for action, dense in want.items():
            got = action(FockOp(dim, m)).matrix
            assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_quantum_ops_check_dimensions():
    ops = quantum_ops(make_params(1.0), 8)
    psi = FockOp(6, np.eye(6))
    for action in (ops.X1, ops.X2, ops.P1, ops.P2, ops.B, ops.P):
        with pytest.raises(DimensionMismatchError):
            action(psi)
        with pytest.raises(TypeError):
            action(np.eye(8))


def test_voros_product_composes_normal_ordered_operators():
    # the Voros symbol of A is <z|A|z>: with A_f = sum c bdag^n2 b^n1 for
    # f = sum c z^n1 zbar^n2, <z|A_f A_g|z> is (f *_Voros g)(z, zbar)
    dim = 80
    b, bdag = ladder_ops(dim)

    def normal_ordered(f):
        return sum(c * np.linalg.matrix_power(bdag.matrix, n2) @ np.linalg.matrix_power(b.matrix, n1)
                   for (n1, n2), c in f.items())

    rng = np.random.default_rng(21)

    def random_poly():
        terms = {(n1, n2): complex(*rng.normal(size=2))
                 for n1 in range(4) for n2 in range(4 - n1) if rng.random() < 0.6}
        return Polynomial2(terms, "complex")

    for theta in (0.5, 1.0, 2.0):
        for _ in range(10):
            f, g = random_poly(), random_poly()
            z = 1.4 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
            v = coherent_vector(z, dim)
            got = np.vdot(v, normal_ordered(f) @ normal_ordered(g) @ v)
            want = star_poly(f, g, preset_params("voros", theta)).evaluate(z, z.conjugate())
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


# -- momentum states ----------------------------------------------------------


def test_momentum_state_zero_is_scaled_identity():
    op = momentum_state_op(0, 2.0, 16)
    assert np.allclose(op.matrix, math.sqrt(2.0 / (2 * math.pi)) * np.eye(16))


def test_momentum_state_matches_scipy_expm():
    # the SVD route against scaling-and-squaring, including a generator of
    # spectral norm ~50, odd dims (an even level outside the SVD), dim 2,
    # and p off the positive real axis (the phase rotation)
    for p, theta, dim in (
        (0.5 - 0.7j, 1.0, 48),
        (1.5 + 0.2j, 2.0, 64),
        (3.1 + 0j, 2.0, 64),
        (0.5 - 0.7j, 1.0, 17),
        (-1.2 + 0j, 2.0, 65),
        (0.8j, 0.5, 2),
        (-0.6 - 1.1j, 1.0, 17),
        (-2.0 + 0j, 1.0, 2),
        (1.3j, 2.0, 65),
        (-0.9 - 0.4j, 2.0, 64),
    ):
        b, bd = ladder_ops(dim)
        gen = math.sqrt(theta / 2.0) * (p.conjugate() * b.matrix + p * bd.matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = momentum_state_op(p, theta, dim).matrix
        want = math.sqrt(theta / (2 * math.pi)) * scipy.linalg.expm(1j * gen)
        assert np.max(np.abs(got - want)) < 1e-10


def test_even_odd_svd_is_the_svd_of_the_generator_block():
    # the block is built directly; its SVD equals that of the block sliced
    # out of the dense b + bdag, bit for bit
    for dim in (2, 3, 17, 64, 65):
        b, bd = ladder_ops(dim)
        want = np.linalg.svd((b + bd).matrix.real[::2, 1::2], full_matrices=False)
        for got, expected in zip(_even_odd_svd(dim), want):
            assert got.tobytes() == expected.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 1.0


def test_momentum_state_is_the_same_from_a_cold_or_warm_factorization():
    dims = (2, 3, 17, 64, 65)
    _even_odd_svd.cache_clear()
    cold = {}
    for dim in dims:
        cold[dim] = momentum_state_op(0.3 - 0.2j, 1.3, dim).matrix
        momentum_state_op(0.3 - 0.2j, 1.3, dim + 100)  # another dim in between
        assert momentum_state_op(0.3 - 0.2j, 1.3, dim).matrix.tobytes() == cold[dim].tobytes()
    info = _even_odd_svd.cache_info()
    assert (info.hits, info.misses) == (len(dims), 2 * len(dims))
    for dim in dims:  # the early dims were evicted, and are factored again
        assert momentum_state_op(0.3 - 0.2j, 1.3, dim).matrix.tobytes() == cold[dim].tobytes()


def test_momentum_state_unitary_up_to_normalization():
    theta = 1.0
    op = momentum_state_op(0.4 + 0.9j, theta, 64).matrix / math.sqrt(theta / (2 * math.pi))
    assert np.max(np.abs(op @ op.conj().T - np.eye(64))) < 1e-10


def test_momentum_state_warns_on_poor_truncation():
    with pytest.warns(RuntimeWarning, match="truncation"):
        momentum_state_op(4.0, 1.0, 16)


def test_momentum_eigenrelation_interior():
    # P|p) = p|p) away from the truncation edge: compare on the interior
    # block (margin 8), where the defect has decayed below 1e-6
    dim = 64
    theta = 1.0
    p = 0.3 + 0.4j  # |p| = 0.5
    ops = quantum_ops(make_params(theta), dim)
    state = momentum_state_op(p, theta, dim)
    defect = (ops.P(state) - p * state).matrix
    interior = defect[: dim - 8, : dim - 8]
    assert np.linalg.norm(interior) < 1e-6


def test_momentum_state_requires_positive_theta():
    with pytest.raises(SingularParameterError):
        momentum_state_op(1.0, 0.0, 16)


# -- closed-form cross-check ---------------------------------------------------


def test_overlap_trivial_point():
    res = overlap_vs_closedform(0, 0, 1.0, 16)
    assert res.numeric == pytest.approx(math.sqrt(1 / (2 * math.pi)))
    assert res.closed == pytest.approx(math.sqrt(1 / (2 * math.pi)))
    assert res.abs_error < 1e-15


def test_overlap_derived_points():
    assert overlap_vs_closedform(0.3 + 0.2j, 0.5 - 0.7j, 1.0, 64).abs_error < 1e-6
    assert overlap_vs_closedform(0.5j, 1.0, 2.0, 96).abs_error < 1e-6


def test_overlap_convergence_under_doubling():
    errs = []
    for dim in (16, 32, 64):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            errs.append(overlap_vs_closedform(0.7 + 0.2j, 1.6 - 1.0j, 2.0, dim).abs_error)
    assert errs[1] <= 1.1 * errs[0] + 1e-13
    assert errs[2] <= 1.1 * errs[1] + 1e-13
    assert errs[2] < 1e-6


def test_overlap_magnitude_is_gaussian():
    # |(z,zbar|p)| does not depend on z (the z-dependent factor is a phase)
    for z in (0, 0.5, 0.5j):
        val = coherent_momentum_overlap(z, 1.2 - 0.3j, 1.0)
        want = math.sqrt(1 / (2 * math.pi)) * math.exp(-abs(1.2 - 0.3j) ** 2 / 4)
        assert abs(val) == pytest.approx(want)

"""Preconditioner parameterizations: maps, logdet, and adjoint gradients."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from ehmc.objective import adam_update, make_adapt_state
from ehmc.precond import KINDS, Preconditioner, make_preconditioner, n_params
from ehmc.sampler import load_checkpoint, make_chains, save_checkpoint
from ehmc.targets import gaussian_target

from _oracles import (
    banded_upper_bidiagonal,
    dense_lower_factor,
    fd_theta_gradient,
    forward_substitution,
    logdet,
    scaled_identity,
    with_theta,
)


def random_precond(kind, dim, rng, scale=0.3):
    return Preconditioner(kind, dim, rng.normal(0.0, scale, n_params(kind, dim)))


def test_param_counts():
    assert n_params("diagonal", 7) == 7
    assert n_params("dense", 7) == 28
    assert n_params("banded", 7) == 13
    with pytest.raises(ValueError):
        n_params("block", 7)


@pytest.mark.parametrize("kind", KINDS)
def test_identity_init(kind):
    p = make_preconditioner(kind, 5)
    w = np.arange(1.0, 6.0)
    assert np.allclose(p.matvec(w), w)
    assert np.allclose(p.rmatvec(w), w)
    assert np.allclose(p.solve(w), w)
    assert logdet(p) == 0.0


@pytest.mark.parametrize("kind", KINDS)
def test_scaled_init(kind):
    p = scaled_identity(kind, 2, 0.5)
    assert np.allclose(p.matvec(np.ones(2)), 0.5 * np.ones(2))
    assert np.isclose(logdet(p), 2.0 * np.log(0.5))


def test_constructor_validation():
    with pytest.raises(ValueError):
        make_preconditioner("diagonal", 0)
    with pytest.raises(ValueError):
        make_preconditioner("??", 3)
    with pytest.raises(ValueError):
        Preconditioner("dense", 3, np.zeros(5))


def test_diagonal_example():
    p = Preconditioner("diagonal", 2, np.log(np.array([2.0, 3.0])))
    assert np.allclose(p.matvec(np.ones(2)), [2.0, 3.0])
    assert np.isclose(logdet(p), np.log(6.0))


def test_banded_hand_example():
    # B = [[1, 1], [0, 1]]; C w solves B x = w
    p = Preconditioner("banded", 2, np.array([0.0, 0.0, 1.0]))
    assert np.allclose(p.matvec(np.ones(2)), [0.0, 1.0])
    # log|det C| = -sum(log diag B)
    p2 = Preconditioner("banded", 2, np.array([2.0, 3.0, 0.0]))
    assert np.isclose(logdet(p2), -5.0)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim", [1, 2, 5, 17, 64])
def test_round_trip(kind, dim):
    rng = np.random.default_rng(100 + dim)
    p = random_precond(kind, dim, rng)
    w = rng.standard_normal(dim)
    assert np.max(np.abs(p.solve(p.matvec(w)) - w)) < 1e-10
    assert np.max(np.abs(p.solve_t(p.rmatvec(w)) - w)) < 1e-10
    assert np.max(np.abs(p.matvec(p.solve(w)) - w)) < 1e-10


@pytest.mark.parametrize("kind", KINDS)
def test_transpose_consistency(kind):
    rng = np.random.default_rng(7)
    for dim in (1, 3, 12):
        p = random_precond(kind, dim, rng)
        for _ in range(5):
            u = rng.standard_normal(dim)
            w = rng.standard_normal(dim)
            lhs = float(u @ p.matvec(w))
            rhs = float(p.rmatvec(u) @ w)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 32])
def test_banded_matches_dense_oracle(dim):
    rng = np.random.default_rng(dim)
    p = random_precond("banded", dim, rng)
    B = banded_upper_bidiagonal(p)
    C = np.linalg.inv(B)
    w = rng.standard_normal(dim)
    assert np.max(np.abs(p.matvec(w) - C @ w)) < 1e-10
    assert np.max(np.abs(p.rmatvec(w) - C.T @ w)) < 1e-10
    assert np.max(np.abs(p.solve(w) - B @ w)) < 1e-10
    assert np.max(np.abs(p.solve_t(w) - B.T @ w)) < 1e-10
    sign, absdet = np.linalg.slogdet(C)
    assert sign > 0
    assert abs(logdet(p) - absdet) < 1e-10


@pytest.mark.parametrize("kind", KINDS)
def test_dense_materialization(kind):
    rng = np.random.default_rng(3)
    p = random_precond(kind, 6, rng)
    C = p.dense()
    for _ in range(4):
        w = rng.standard_normal(6)
        assert np.allclose(C @ w, p.matvec(w), atol=1e-12)
    sign, absdet = np.linalg.slogdet(C)
    assert sign > 0
    assert abs(absdet - logdet(p)) < 1e-9


@pytest.mark.parametrize("kind", KINDS)
def test_bilinear_grad_matches_fd(kind):
    rng = np.random.default_rng(17)
    for dim in (1, 2, 5):
        p = random_precond(kind, dim, rng)
        u = rng.standard_normal(dim)
        w = rng.standard_normal(dim)
        grad = np.zeros_like(p.theta)
        p.accumulate_bilinear_grad(u[None, None], w[None, None], grad[None], [[1.0]])
        fd = fd_theta_gradient(
            lambda th: float(u @ with_theta(p, th).matvec(w)), p.theta
        )
        assert np.max(np.abs(grad - fd)) <= 1e-5 * max(1.0, np.max(np.abs(fd)))


@pytest.mark.parametrize("kind", KINDS)
def test_logdet_grad_matches_fd(kind):
    rng = np.random.default_rng(23)
    p = random_precond(kind, 5, rng)
    grad = np.zeros_like(p.theta)
    p.accumulate_logdet_grad(grad)
    fd = fd_theta_gradient(lambda th: logdet(with_theta(p, th)), p.theta)
    assert np.max(np.abs(grad - fd)) <= 1e-6


def test_grad_accumulation_and_scale():
    rng = np.random.default_rng(5)
    p = random_precond("dense", 4, rng)
    u = rng.standard_normal((1, 1, 4))
    w = rng.standard_normal((1, 1, 4))
    once = np.zeros((1, p.theta.size))
    p.accumulate_bilinear_grad(u, w, once, [[2.0]])
    twice = np.zeros((1, p.theta.size))
    p.accumulate_bilinear_grad(u, w, twice, [[1.0]])
    p.accumulate_bilinear_grad(u, w, twice, [[1.0]])
    assert np.allclose(once, twice)
    stacked = np.zeros((1, p.theta.size))
    p.accumulate_bilinear_grad(np.concatenate([u, u], axis=1), np.concatenate([w, w], axis=1),
                               stacked, [[1.0, 1.0]])
    assert np.allclose(once, stacked)


@pytest.mark.parametrize("kind", KINDS)
def test_vector_shape_errors(kind):
    p = make_preconditioner(kind, 4)
    with pytest.raises(ValueError):
        p.matvec(np.zeros(5))


# --------------------------------------------- bit identity of the built factor


@pytest.mark.parametrize("dim", [1, 2, 7, 64])
def test_banded_maps_equal_solve_banded(dim):
    # C w = B^{-1} w with the bits of scipy's solve_banded, and
    # C^T w = B^{-T} w with those of textbook forward substitution, for
    # single vectors and for each row of a block
    rng = np.random.default_rng(200 + dim)
    for _ in range(5):
        p = random_precond("banded", dim, rng, scale=0.5)
        diag, sup = np.exp(p.theta[:dim]), p.theta[dim:]
        ab_upper = np.zeros((2, dim))
        ab_upper[0, 1:] = sup
        ab_upper[1] = diag
        for k in (1, 3, 8):
            W = rng.standard_normal((k, dim)) * 10.0 ** rng.uniform(-3, 3, (k, 1))
            matvec = [solve_banded((0, 1), ab_upper, w) for w in W]
            rmatvec = [forward_substitution(diag, sup, w) for w in W]
            assert np.array_equal(p.matvec(W), matvec)
            assert np.array_equal(p.rmatvec(W), rmatvec)
            for w, want, want_t in zip(W, matvec, rmatvec):
                assert np.array_equal(p.matvec(w), want)
                assert np.array_equal(p.rmatvec(w), want_t)


@pytest.mark.parametrize("dim", [1, 2, 7, 51, 64])
def test_dense_maps_equal_explicit_factor(dim):
    # the (d,) maps are ndarray.dot gemv calls; a numpy whose dot and
    # matmul round differently would change every draw, and fails here
    rng = np.random.default_rng(300 + dim)
    for _ in range(5):
        p = random_precond("dense", dim, rng, scale=0.5)
        C = dense_lower_factor(p)
        assert np.array_equal(p.dense(), C)
        for _ in range(5):
            w = rng.standard_normal(dim)
            assert np.array_equal(p.matvec(w), C @ w)
            assert np.array_equal(p.rmatvec(w), C.T @ w)


@pytest.mark.parametrize("kind", KINDS)
def test_theta_is_read_only(kind):
    theta = np.zeros(n_params(kind, 4))
    p = Preconditioner(kind, 4, theta)
    with pytest.raises(ValueError):
        p.theta[0] = 1.0
    theta[0] = 1.0  # the caller's array is copied, not aliased
    assert p.theta[0] == 0.0
    with pytest.raises(ValueError):
        p.theta = np.zeros(n_params(kind, 4) + 1)


def assert_maps_equal_fresh(p, rng):
    fresh = with_theta(p, p.theta)
    for _ in range(3):
        u = rng.standard_normal(p.dim)
        w = rng.standard_normal(p.dim)
        for name in ("matvec", "rmatvec", "solve", "solve_t"):
            assert np.array_equal(getattr(p, name)(w), getattr(fresh, name)(w))
        got = np.zeros((1, p.theta.size))
        want = np.zeros((1, p.theta.size))
        p.accumulate_bilinear_grad(u[None, None], w[None, None], got, [[0.7]])
        fresh.accumulate_bilinear_grad(u[None, None], w[None, None], want, [[0.7]])
        assert np.array_equal(got, want)
    assert logdet(p) == logdet(fresh)


@pytest.mark.parametrize("kind", KINDS)
def test_factor_follows_theta_writes(kind, tmp_path):
    rng = np.random.default_rng(41)
    dim = 5
    p = make_preconditioner(kind, dim)
    state = make_adapt_state(p)
    before = p.matvec(np.ones(dim))
    adam_update(state, rng.standard_normal(p.theta.size))
    assert not np.array_equal(p.matvec(np.ones(dim)), before)
    assert_maps_equal_fresh(p, rng)
    adam_update(state, rng.standard_normal(p.theta.size))
    path = tmp_path / "ckpt.npz"
    chains = make_chains(gaussian_target(precision=np.eye(dim)), 2, seed=3)
    save_checkpoint(path, chains, state, 0.1)
    _, loaded, _, _ = load_checkpoint(path)
    assert np.array_equal(loaded.precond.theta, p.theta)
    assert_maps_equal_fresh(loaded.precond, rng)


# ------------------------------------------------------ (k, d) blocks


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim", [1, 2, 7, 51, 64])
def test_block_maps_equal_rows(kind, dim):
    # every map of a (k, d) block gives each row the bits of the (d,) call
    rng = np.random.default_rng(400 + dim)
    for k in (1, 3, 8):
        p = random_precond(kind, dim, rng, scale=0.5)
        W = rng.standard_normal((k, dim)) * 10.0 ** rng.uniform(-3, 3, (k, 1))
        for name in ("matvec", "rmatvec", "solve", "solve_t"):
            block = getattr(p, name)(W)
            assert block.shape == (k, dim) and block.flags.c_contiguous
            assert np.array_equal(block, np.stack([getattr(p, name)(w) for w in W]))
        got = rng.standard_normal((k, p.theta.size))
        want = got.copy()
        p.accumulate_logdet_grad(got, -0.3)
        for i in range(k):
            p.accumulate_logdet_grad(want[i], -0.3)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", KINDS)
def test_block_shape_errors(kind):
    p = make_preconditioner(kind, 4)
    for bad in (np.zeros((3, 5)), np.zeros((2, 3, 4)), np.zeros((4, 1))):
        with pytest.raises(ValueError):
            p.matvec(bad)
    # a term stack is (k, T, d) for u and w alike, with (k, T) scales
    out = np.zeros((2, p.theta.size))
    good, scales = np.ones((2, 3, 4)), np.ones((2, 3))
    for U, W, S in ((np.ones((2, 4)), np.ones((2, 4)), np.ones(2)),
                    (np.ones(4), np.ones(4), 1.0),
                    (np.ones((2, 3, 5)), np.ones((2, 3, 5)), scales),
                    (good, np.ones((2, 2, 4)), scales),
                    (good, good, np.ones((2, 2))),
                    (good, good, 1.0)):
        with pytest.raises(ValueError):
            p.accumulate_bilinear_grad(U, W, out, S)


def random_terms(p, k, T, rng):
    # u, w of mixed magnitudes and scales of both signs, one of them 0
    size = (k, T, p.dim)
    U = rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3, (k, T, 1))
    W = rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3, (k, T, 1))
    S = rng.normal(size=(k, T))
    S[0, 0] = 0.0
    return U, W, S


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim", [1, 2, 7, 51, 64])
def test_bilinear_stack_equals_rows(kind, dim):
    # a k-row stack of T terms gives each row the bits of its 1-row call
    rng = np.random.default_rng(500 + dim)
    for k in (1, 3, 8):
        for T in (1, 4, 7):
            p = random_precond(kind, dim, rng, scale=0.5)
            U, W, S = random_terms(p, k, T, rng)
            got = rng.standard_normal((k, p.theta.size))
            want = got.copy()
            p.accumulate_bilinear_grad(U, W, got, S)
            for i in range(k):
                p.accumulate_bilinear_grad(U[i:i + 1], W[i:i + 1], want[i:i + 1], S[i:i + 1])
            assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim", [1, 2, 7, 51, 64])
def test_bilinear_stack_matches_fd(kind, dim):
    # each row is sum_t s_t d(u_t^T C w_t)/dtheta
    rng = np.random.default_rng(600 + dim)
    for k in (1, 3, 8):
        for T in (1, 4, 7):
            p = random_precond(kind, dim, rng)
            U, W, S = (rng.standard_normal((k, T, dim)), rng.standard_normal((k, T, dim)),
                       rng.normal(size=(k, T)))
            grad = np.zeros((k, p.theta.size))
            p.accumulate_bilinear_grad(U, W, grad, S)

            def value(th):
                CW = with_theta(p, th).matvec(W.reshape(-1, dim)).reshape(W.shape)
                return (S * (U * CW).sum(axis=2)).sum(axis=1)

            fd = fd_theta_gradient(value, p.theta)
            assert np.max(np.abs(grad - fd)) <= 1e-5 * max(1.0, np.max(np.abs(fd)))


@pytest.mark.parametrize("kind", KINDS)
def test_dense_equals_column_build(kind):
    # one block map of the identity gives the bits of the column-by-column build
    rng = np.random.default_rng(19)
    for dim in (1, 2, 6, 51):
        p = random_precond(kind, dim, rng, scale=0.5)
        eye = np.eye(dim)
        C = p.dense()
        assert C.flags.c_contiguous
        assert np.array_equal(C, np.column_stack([p.matvec(eye[:, j]) for j in range(dim)]))

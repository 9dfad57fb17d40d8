"""Preconditioner parameterizations: maps, logdet, and adjoint gradients."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded

from ehmc.objective import AdaptState, adam_update
from ehmc.precond import KINDS, Preconditioner, make_preconditioner, n_params
from ehmc.sampler import load_checkpoint, make_chains, save_checkpoint
from ehmc.targets import gaussian_target

from _oracles import (
    banded_upper_bidiagonal,
    dense_lower_factor,
    factor_inverse,
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
@pytest.mark.parametrize("dim", [1, 2, 7, 40])
def test_inverse_maps_match_per_kind_formulas(kind, dim):
    # the solves with the materialised factor agree with each kind's own
    # inverse: division (diagonal), a triangular solve (dense), B w (banded)
    rng = np.random.default_rng(150 + dim)
    p = random_precond(kind, dim, rng)
    for w in (rng.standard_normal(dim), rng.standard_normal((5, dim))):
        for name, transpose in (("solve", False), ("solve_t", True)):
            got, want = getattr(p, name)(w), factor_inverse(p, w, transpose)
            assert got.shape == w.shape
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


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


@pytest.mark.parametrize("kind", KINDS)
def test_theta_write_refuses_a_non_finite_entry(kind):
    # the refused write leaves theta and the factor it built as they were
    p = make_preconditioner(kind, 4)
    w = np.random.default_rng(0).standard_normal(4)
    before = p.matvec(w)
    for value in (np.nan, np.inf, -np.inf):
        bad = np.zeros(n_params(kind, 4))
        bad[-1] = value
        with pytest.raises(ValueError, match="^theta: has a non-finite entry$"):
            p.theta = bad
        assert not p.theta.any() and np.array_equal(p.matvec(w), before)


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
    state = AdaptState(p)
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


def run_fresh(script, *argv):
    # run script in a new interpreter that imports ehmc from src/, where
    # nothing this test process imported is loaded yet
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def test_dense_inverse_maps_leave_scipy_unloaded():
    # C^{-1} w and C^{-T} w of a dense factor, on a vector and on a block,
    # run on numpy alone
    run_fresh("import sys\nimport numpy as np\n"
              "from ehmc.precond import Preconditioner, n_params\n"
              "p = Preconditioner('dense', 4, np.linspace(-0.3, 0.3, n_params('dense', 4)))\n"
              "w = np.arange(8.0).reshape(2, 4)\n"
              "for x in (w[0], w):\n"
              "    assert np.allclose(p.matvec(p.solve(x)), x)\n"
              "    assert np.allclose(p.rmatvec(p.solve_t(x)), x)\n"
              "assert 'scipy' not in sys.modules, [m for m in sys.modules if 'scipy' in m]\n")


# the banded factor binds LAPACK's tbtrs from scipy's compiled module,
# loaded without the scipy.linalg package; this process has imported
# scipy.linalg already, so the load itself runs in a fresh interpreter

@pytest.mark.parametrize("dim", [1, 2, 7, 64])
def test_loaded_tbtrs_equals_scipy_lapack(dim, tmp_path):
    # C w solves B x = w ("N"), C^T w solves B^T x = w ("T"): in a process
    # that never imports scipy.linalg, the bound routine gives, for (d,)
    # and (k, d) inputs, the bits of scipy.linalg.lapack.dtbtrs
    from scipy.linalg.lapack import dtbtrs

    rng = np.random.default_rng(500 + dim)
    theta = rng.normal(0.0, 0.5, (5, n_params("banded", dim)))
    W = rng.standard_normal((5, 8, dim)) * 10.0 ** rng.uniform(-3, 3, (5, 8, 1))
    np.savez(tmp_path / "in.npz", theta=theta, W=W)
    run_fresh("import sys\nimport numpy as np\n"
              "from ehmc.precond import Preconditioner\n"
              "f = np.load(sys.argv[1])\n"
              "out = {}\n"
              "for i, (theta, W) in enumerate(zip(f['theta'], f['W'])):\n"
              f"    p = Preconditioner('banded', {dim}, theta)\n"
              "    for name, w in (('vec', W[0]), ('block', W)):\n"
              "        out[f'N-{name}-{i}'], out[f'T-{name}-{i}'] = p.matvec(w), p.rmatvec(w)\n"
              "assert 'scipy.linalg' not in sys.modules\n"
              "assert 'scipy.linalg._flapack' in sys.modules\n"
              "np.savez(sys.argv[2], **out)\n",
              str(tmp_path / "in.npz"), str(tmp_path / "out.npz"))
    with np.load(tmp_path / "out.npz") as got:
        for i, (th, W) in enumerate(zip(theta, W)):
            ab = np.zeros((2, dim), order="F")
            ab[0, 1:] = th[dim:]
            ab[1] = np.exp(th[:dim])
            for trans in ("N", "T"):
                x, info = dtbtrs(ab, W[0], "U", trans)
                assert info == 0 and np.array_equal(got[f"{trans}-vec-{i}"], x)
                X, info = dtbtrs(ab, W.T, "U", trans)
                assert info == 0 and np.array_equal(got[f"{trans}-block-{i}"], X.T)


def test_banded_factor_then_scipy_linalg():
    # scipy.linalg imported after a banded factor reuses the LAPACK module
    # the factor loaded, and a second factor loads nothing
    run_fresh("import sys\nimport numpy as np\n"
              "from ehmc.precond import Preconditioner\n"
              "theta = np.linspace(-0.4, 0.4, 9)\n"
              "p = Preconditioner('banded', 5, theta)\n"
              "flapack = sys.modules['scipy.linalg._flapack']\n"
              "assert 'scipy.linalg' not in sys.modules\n"
              "assert Preconditioner('banded', 5, -theta)._tbtrs is p._tbtrs\n"
              "import scipy.linalg\n"
              "from scipy.linalg import lapack, solve_banded\n"
              "assert sys.modules['scipy.linalg._flapack'] is flapack\n"
              "assert lapack.dtbtrs is p._tbtrs\n"
              "ab = np.zeros((2, 5))\n"
              "ab[0, 1:], ab[1] = theta[5:], np.exp(theta[:5])\n"
              "w = np.arange(1.0, 6.0)\n"
              "assert np.array_equal(solve_banded((0, 1), ab, w), p.matvec(w))\n")


def test_scipy_linalg_then_banded_factor():
    # with scipy.linalg imported first, the factor binds its dtbtrs and
    # loads no second copy of the module
    run_fresh("import sys\nimport numpy as np\n"
              "import scipy.linalg\n"
              "from scipy.linalg import lapack\n"
              "flapack = sys.modules['scipy.linalg._flapack']\n"
              "from ehmc.precond import Preconditioner\n"
              "p = Preconditioner('banded', 5, np.linspace(-0.4, 0.4, 9))\n"
              "assert sys.modules['scipy.linalg._flapack'] is flapack\n"
              "assert p._tbtrs is lapack.dtbtrs\n")


def test_banded_underflowed_diagonal_is_singular():
    # a finite theta_i <= -746 underflows B's diagonal entry exp(theta_i)
    # to 0: the solves with B and B^T refuse it, on a vector and a block
    theta = np.zeros(n_params("banded", 4))
    theta[2] = -746.0
    p = Preconditioner("banded", 4, theta)
    assert p.theta[2] == -746.0 and np.exp(p.theta[2]) == 0.0
    for w in (np.ones(4), np.ones((3, 4))):
        for apply in (p.matvec, p.rmatvec):
            with pytest.raises(np.linalg.LinAlgError, match="^singular matrix$"):
                apply(w)


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

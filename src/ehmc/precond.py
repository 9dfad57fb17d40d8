"""Parameterizations of the mass-matrix factor C with C C^T = M^{-1}.

Three kinds are supported:

* ``diagonal``  -- C = diag(exp(theta)), d parameters.
* ``dense``     -- C is a lower-triangular Cholesky factor with
  exp-transformed diagonal, d(d+1)/2 parameters (log-diagonal first,
  then the strict lower triangle packed row by row).
* ``banded``    -- C = B^{-1} for an upper bidiagonal B,
  2d-1 parameters (log of B's diagonal, then its superdiagonal).
  B is kept in one Fortran-ordered (2, d) band, which LAPACK reads in
  place; C w and C^T w are triangular solves with B and B^T, no
  factorization, and all maps run in O(d).  These solves (LAPACK's
  ``dtbtrs``) are the one use of scipy; the other kinds run on numpy alone.
  The first banded factor imports ``scipy`` and loads only its compiled
  LAPACK module, ``scipy.linalg._flapack``, not the ``scipy.linalg``
  package, whose import would add about 0.2 s to a run's set-up.

Diagonal entries of C (or of B) are stored as unconstrained reals and
mapped through exp, which keeps C C^T positive definite for every theta.
The factor is built once per write of ``theta`` (the constructor and
``adam_update`` are the writers), which refuses a wrong length or a
non-finite entry and stores a read-only copy, so the built factor cannot
go stale; the maps only apply it.  The write also binds the kind's C w
and C^T w for one (d,) vector (one gemv, ``C.dot`` or ``C.T.dot``, for
the dense kind) and for a (k, d) block, which ``bound_maps`` hands out
and ``matvec`` and ``rmatvec`` pick by the input's shape.  The leapfrog
and the roulette pass's operator bind them once per call, skipping the
method call and input check of ``matvec`` and ``rmatvec``.  The gradient
helpers accumulate into caller-owned arrays.

Every map also takes a (k, d) block, and ``accumulate_bilinear_grad``
a (k, T, d) stack of T terms per row; each row gets the bits it gets
alone.  The dense block maps are stacked ``np.matmul`` (one gemv per row;
a plain gemm rounds differently), the banded maps one LAPACK solve with k
right-hand sides, and the inverse maps one LAPACK solve per row with the
materialised factor (several right-hand sides round differently).  No
run calls the inverse maps; they stay for the benchmark's tracer.  A
term stack costs one stacked (d, T) by (T, d) ``np.matmul`` and one
gather (dense), two LAPACK solves with kT right-hand sides and two sums
over T (banded), or one sum over T (diagonal).
"""

import importlib.machinery
import importlib.util
import os
import sys
from functools import partial

import numpy as np

from .targets import check_array, check_size

KINDS = ("diagonal", "dense", "banded")


def check_kind(kind, arg="kind"):
    """``kind`` if it is one of KINDS; else ValueError starting with ``arg``."""
    if kind not in KINDS:
        raise ValueError(f"{arg}: must be one of {', '.join(KINDS)}, got {kind!r}")
    return kind


def n_params(kind, dim):
    """Length of the parameter vector for a factor kind; checks kind and dim."""
    check_kind(kind)
    dim = check_size("dim", dim)
    if kind == "diagonal":
        return dim
    if kind == "dense":
        return dim * (dim + 1) // 2
    return 2 * dim - 1


def _flapack():
    """scipy's compiled LAPACK module, registered in ``sys.modules`` under
    its own name, so that a later ``import scipy.linalg`` reuses it and a
    second banded factor loads nothing."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        import scipy  # its own platform and library set-up

        path = os.path.join(scipy.__path__[0], "linalg")
        spec = importlib.machinery.PathFinder.find_spec(name, [path])
        if spec is None:
            raise ImportError(f"{name}: not found in {path}", name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module


def _band_solve(tbtrs, ab, trans, w):
    """Solve B x = w (trans "N") or B^T x = w (trans "T") with the upper
    bidiagonal B in its (2, d) band layout ``ab``: one LAPACK ``tbtrs``
    triangular solve, back- or forward substitution, no factorization.
    The rows of a (k, d) block are its k right-hand sides."""
    x, info = tbtrs(ab, w if w.ndim == 1 else w.T, "U", trans)
    if info != 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x if w.ndim == 1 else x.T


def _rows_matvec(A, W):
    # A w for each row w of W, one gemv per row
    return np.matmul(A, W[:, :, None])[:, :, 0]


class Preconditioner:
    """Learnable factor C exposing C w, C^T w and their inverses."""

    def __init__(self, kind, dim, theta):
        self._n = n_params(kind, dim)  # checks kind and dim before any use
        self.kind = kind
        self.dim = int(dim)
        if kind == "dense":
            # the packed parameters' places in the flattened C: the
            # diagonal, then the strict lower triangle row by row
            rows, cols = np.tril_indices(dim, k=-1)
            self._packed = np.concatenate([np.arange(dim) * (dim + 1), rows * dim + cols])
        elif kind == "banded":
            # loaded here so that the other kinds never load scipy
            self._tbtrs = _flapack().dtbtrs
        self.theta = theta

    @property
    def theta(self):
        return self._theta

    @theta.setter
    def theta(self, value):
        theta = check_array("theta", value, (self._n,))
        theta.flags.writeable = False
        self._theta = theta
        d = self.dim
        if self.kind == "diagonal":
            self._exp = np.exp(theta)
            maps = (partial(np.multiply, self._exp),) * 2
            self._maps = (maps, maps)
        elif self.kind == "dense":
            self._exp = np.exp(theta[:d])
            C = np.zeros((d, d))
            C.flat[self._packed] = np.concatenate([self._exp, theta[d:]])
            self._maps = ((C.dot, C.T.dot),
                          (partial(_rows_matvec, C), partial(_rows_matvec, C.T)))
        else:
            # B's superdiagonal (row 0, from column 1) and diagonal (row 1)
            self._exp = np.exp(theta[:d])
            ab = np.zeros((2, d), order="F")
            ab[0, 1:] = theta[d:]
            ab[1] = self._exp
            maps = (partial(_band_solve, self._tbtrs, ab, "N"),
                    partial(_band_solve, self._tbtrs, ab, "T"))
            self._maps = (maps, maps)

    def bound_maps(self, block=False):
        """(C w, C^T w) for a float64 (d,) ndarray w, or a (k, d) one if
        ``block``, unchecked, bound by the latest write of ``theta`` and
        valid until the next one."""
        return self._maps[block]

    def _check_vec(self, w):
        w = np.asarray(w, dtype=float)
        if w.shape != (self.dim,) and (w.ndim != 2 or w.shape[1] != self.dim):
            raise ValueError(f"vector has shape {w.shape}, expected ({self.dim},) "
                             f"or (k, {self.dim})")
        return w

    # -- linear maps ----------------------------------------------------

    def matvec(self, w):
        """C w.  For the banded kind this solves B x = w by back-substitution."""
        w = self._check_vec(w)
        return self._maps[w.ndim == 2][0](w)

    def rmatvec(self, w):
        """C^T w."""
        w = self._check_vec(w)
        return self._maps[w.ndim == 2][1](w)

    def solve(self, w):
        """C^{-1} w."""
        return self._solve(self.dense(), w)

    def solve_t(self, w):
        """C^{-T} w."""
        return self._solve(self.dense().T, w)

    def _solve(self, A, w):
        # one LAPACK solve with the materialised factor per (d,) row of w
        return np.linalg.solve(A, self._check_vec(w)[..., None])[..., 0]

    def dense(self):
        """Materialize C as a dense matrix (small d only): row j of the
        block map of the identity is C e_j, column j of C."""
        return np.ascontiguousarray(self.matvec(np.eye(self.dim)).T)

    # -- parameter gradients --------------------------------------------

    def accumulate_bilinear_grad(self, U, W, out, S):
        """Add sum_t S[:, t] * d(U[:, t]^T C W[:, t])/d(theta) into the
        (k, n_params) block ``out``, for (k, T, d) stacks U, W and (k, T)
        scales S.  Respects the exp reparameterization of diagonal entries;
        for the banded kind uses d(u^T B^{-1} w)/dB = -(B^{-T} u)(B^{-1} w)^T
        restricted to the band.
        """
        U = np.asarray(U, dtype=float)
        W = np.asarray(W, dtype=float)
        S = np.asarray(S, dtype=float)
        if U.ndim != 3 or W.shape != U.shape or U.shape != S.shape + (self.dim,):
            raise ValueError(f"terms have shapes {U.shape}, {W.shape} and scales "
                             f"{S.shape}, expected (k, T, {self.dim}) twice and (k, T)")
        d = self.dim
        SU = S[:, :, None] * U
        if self.kind == "diagonal":
            out += (SU * W).sum(axis=1) * self._exp
        elif self.kind == "dense":
            # sum_t s_t u_t w_t^T, one matmul per row, then its packed entries
            G = np.matmul(SU.transpose(0, 2, 1), W).reshape(len(U), d * d)
            packed = np.take(G, self._packed, axis=1)
            packed[:, :d] *= self._exp
            out += packed
        else:
            a = self.rmatvec(SU.reshape(-1, d)).reshape(U.shape)  # B^{-T} s u
            b = self.matvec(W.reshape(-1, d)).reshape(U.shape)  # B^{-1} w
            out[:, :d] -= (a * b).sum(axis=1) * self._exp
            out[:, d:] -= (a[:, :, :-1] * b[:, :, 1:]).sum(axis=1)

    def accumulate_logdet_grad(self, out, scale=1.0):
        """Add scale * d(log|det C|)/d(theta) into ``out`` (into every row of
        a (k, n_params) block)."""
        d = self.dim
        if self.kind == "banded":
            out[..., :d] -= scale
        else:
            out[..., :d] += scale


def make_preconditioner(kind, dim):
    """Create factor parameters with C = I (theta = 0 for every kind)."""
    return Preconditioner(kind, dim, np.zeros(n_params(kind, dim)))

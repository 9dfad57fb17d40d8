"""Parameterizations of the mass-matrix factor C with C C^T = M^{-1}.

Three kinds are supported:

* ``diagonal``  -- C = diag(exp(theta)), d parameters.
* ``dense``     -- C is a lower-triangular Cholesky factor with
  exp-transformed diagonal, d(d+1)/2 parameters (log-diagonal first,
  then the strict lower triangle packed row by row).
* ``banded``    -- C = B^{-1} for an upper bidiagonal B,
  2d-1 parameters (log of B's diagonal, then its superdiagonal).
  All maps run in O(d).

Diagonal entries of C (or of B) are stored as unconstrained reals and
mapped through exp, which keeps C C^T positive definite for every theta.
The factor is built once per write of ``theta`` (the constructor and
``adam_update`` are the writers), and ``theta`` is stored as a read-only
copy, so the built factor cannot go stale; the maps only apply it.  The
write also binds the kind's C w and C^T w for one (d,) vector, and a
float64 (d,) ndarray goes to them with no conversion and no dispatch on
the kind: the sampling leapfrog makes 2L + 1 such calls per transition.
The gradient helpers accumulate into caller-owned arrays.

Every map and ``accumulate_bilinear_grad`` also take a (k, d) block of k
vectors, one per row, and give each row the same bits as the (d,) call:
the dense maps are stacked ``np.matmul`` (one gemv per row; a plain gemm
rounds differently), the banded maps one LAPACK solve with k right-hand
sides, and the dense triangular solves stay one call per row, because a
multi-right-hand-side ``trsm`` rounds differently.
"""

from functools import partial

import numpy as np

KINDS = ("diagonal", "dense", "banded")
_FLOAT64 = np.dtype(np.float64)


def check_kind(kind):
    """Raise ValueError unless ``kind`` is one of KINDS."""
    if kind not in KINDS:
        raise ValueError(f"kind: must be one of {', '.join(KINDS)}, got {kind!r}")


def n_params(kind, dim):
    """Length of the parameter vector for a factor kind."""
    check_kind(kind)
    if kind == "diagonal":
        return dim
    if kind == "dense":
        return dim * (dim + 1) // 2
    return 2 * dim - 1


def _band_factor(gbtrf, kl, ku, ab):
    # LAPACK gbtrf factors of a band matrix in its (2 kl + ku + 1, d) layout
    lu, piv, info = gbtrf(ab, kl, ku)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gbtrf")
    return kl, ku, lu, piv, info


def _band_solve(gbtrs, factor, w):
    """Solve with a bidiagonal band matrix as scipy's ``solve_banded`` does:
    a 1x1 system is a division, anything larger LAPACK ``gbsv``, which is
    ``gbtrf`` then ``gbtrs``.  The ``gbtrf`` factors are computed once per
    theta, so a solve is one ``gbtrs`` call, with the same bits.  The rows
    of a (k, d) block are its k right-hand sides."""
    kl, ku, lu, piv, info = factor
    if w.shape[-1] == 1:
        return w / lu[kl + ku, 0]
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    x, info = gbtrs(lu, kl, ku, w if w.ndim == 1 else w.T, piv)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gbtrs")
    return x if w.ndim == 1 else np.ascontiguousarray(x.T)


def _rows_matvec(A, W):
    # A w for each row w of W, one gemv per row
    return np.matmul(A, W[:, :, None])[:, :, 0]


class Preconditioner:
    """Learnable factor C exposing matvec, adjoint, solve and logdet maps."""

    def __init__(self, kind, dim, theta):
        check_kind(kind)
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        self.kind = kind
        self.dim = dim
        self._vec_shape = (dim,)
        if kind == "dense":
            self._rows, self._cols = np.tril_indices(dim, k=-1)
        elif kind == "banded":
            # imported here so that the other kinds never load scipy
            from scipy.linalg.lapack import dgbtrf, dgbtrs

            self._gbtrf, self._gbtrs = dgbtrf, dgbtrs
        self.theta = theta

    @property
    def theta(self):
        return self._theta

    @theta.setter
    def theta(self, value):
        theta = np.array(value, dtype=float)
        if theta.shape != (n_params(self.kind, self.dim),):
            raise ValueError(
                f"theta has length {theta.size}, expected "
                f"{n_params(self.kind, self.dim)} for kind {self.kind!r}"
            )
        theta.flags.writeable = False
        self._theta = theta
        d = self.dim
        if self.kind == "diagonal":
            self._exp = np.exp(theta)
            self._exp_neg = np.exp(-theta)
            self._matvec = self._rmatvec = partial(np.multiply, self._exp)
        elif self.kind == "dense":
            self._exp = np.exp(theta[:d])
            C = np.zeros((d, d))
            C[np.diag_indices(d)] = self._exp
            C[self._rows, self._cols] = theta[d:]
            self._C = C
            self._matvec = partial(np.matmul, C)
            self._rmatvec = partial(np.matmul, C.T)
        else:
            # B's diagonal and superdiagonal, and the gbtrf factors of B
            # (kl, ku) = (0, 1) and of B^T (1, 0); row 0 of the latter's
            # layout is gbtrf's fill-in workspace
            self._exp = np.exp(theta[:d])
            self._sup = theta[d:]
            ab_upper = np.zeros((2, d))
            ab_upper[0, 1:] = self._sup
            ab_upper[1] = self._exp
            ab_lower = np.zeros((3, d))
            ab_lower[1] = self._exp
            ab_lower[2, : d - 1] = self._sup
            self._upper = _band_factor(self._gbtrf, 0, 1, ab_upper)
            self._lower = _band_factor(self._gbtrf, 1, 0, ab_lower)
            self._matvec = partial(_band_solve, self._gbtrs, self._upper)
            self._rmatvec = partial(_band_solve, self._gbtrs, self._lower)

    def _check_vec(self, w):
        # a float64 (d,) ndarray is what asarray would return unchanged
        if type(w) is np.ndarray and w.shape == self._vec_shape and w.dtype is _FLOAT64:
            return w
        w = np.asarray(w, dtype=float)
        if w.shape != (self.dim,) and (w.ndim != 2 or w.shape[1] != self.dim):
            raise ValueError(f"vector has shape {w.shape}, expected ({self.dim},) "
                             f"or (k, {self.dim})")
        return w

    # -- linear maps ----------------------------------------------------

    def matvec(self, w):
        """C w.  For the banded kind this solves B x = w by back-substitution."""
        w = self._check_vec(w)
        if w.ndim == 2 and self.kind == "dense":
            return _rows_matvec(self._C, w)
        return self._matvec(w)

    def rmatvec(self, w):
        """C^T w."""
        w = self._check_vec(w)
        if w.ndim == 2 and self.kind == "dense":
            return _rows_matvec(self._C.T, w)
        return self._rmatvec(w)

    def solve(self, w):
        """C^{-1} w."""
        w = self._check_vec(w)
        if self.kind == "diagonal":
            return self._exp_neg * w
        if self.kind == "dense":
            return self._triangular_solve(w, "N")
        # C^{-1} = B: multiply by the bidiagonal matrix directly
        out = self._exp * w
        out[..., :-1] += self._sup * w[..., 1:]
        return out

    def solve_t(self, w):
        """C^{-T} w."""
        w = self._check_vec(w)
        if self.kind == "diagonal":
            return self._exp_neg * w
        if self.kind == "dense":
            return self._triangular_solve(w, "T")
        out = self._exp * w
        out[..., 1:] += self._sup * w[..., :-1]
        return out

    def _triangular_solve(self, w, trans):
        from scipy.linalg import solve_triangular

        if w.ndim == 1:
            return solve_triangular(self._C, w, lower=True, trans=trans)
        return np.stack([solve_triangular(self._C, row, lower=True, trans=trans)
                         for row in w])

    def logdet(self):
        """log |det C|; finite for every parameter vector."""
        s = float(np.sum(self.theta[: self.dim]))
        return -s if self.kind == "banded" else s

    def dense(self):
        """Materialize C as a dense matrix (small d only): row j of the
        block map of the identity is C e_j, column j of C."""
        return np.ascontiguousarray(self.matvec(np.eye(self.dim)).T)

    # -- parameter gradients --------------------------------------------

    def accumulate_bilinear_grad(self, u, w, out, scale=1.0):
        """Add scale * d(u^T C w)/d(theta) into ``out``.

        Respects the exp reparameterization of diagonal entries; for the
        banded kind uses d(u^T B^{-1} w)/dB = -(B^{-T} u)(B^{-1} w)^T
        restricted to the band.  For (k, d) blocks u and w, ``out`` is
        (k, n_params) and ``scale`` a number or one number per row.
        """
        u = self._check_vec(u)
        w = self._check_vec(w)
        d = self.dim
        if np.ndim(scale) == 1:
            scale = scale[:, None]
        if self.kind == "diagonal":
            out += scale * (u * w * self._exp)
            return
        if self.kind == "dense":
            out[..., :d] += scale * (u * w * self._exp)
            # np.take gives the bits of fancy indexing, at half its cost on a block
            out[..., d:] += scale * (np.take(u, self._rows, axis=-1)
                                     * np.take(w, self._cols, axis=-1))
            return
        a = self.rmatvec(u)  # B^{-T} u
        b = self.matvec(w)  # B^{-1} w
        out[..., :d] += scale * (-a * b * self._exp)
        out[..., d:] += scale * (-a[..., : d - 1] * b[..., 1:])

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
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError("dim must be a positive integer")
    return Preconditioner(kind, int(dim), np.zeros(n_params(kind, dim)))

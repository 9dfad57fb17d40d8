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
gradient helpers accumulate into caller-owned arrays.
"""

import numpy as np

KINDS = ("diagonal", "dense", "banded")


def n_params(kind, dim):
    """Length of the parameter vector for a factor kind."""
    if kind == "diagonal":
        return dim
    if kind == "dense":
        return dim * (dim + 1) // 2
    if kind == "banded":
        return 2 * dim - 1
    raise ValueError(f"unknown preconditioner kind {kind!r}")


def _band_solve(gbsv, kl, ku, ab, w):
    """Solve with a bidiagonal band matrix as scipy's ``solve_banded`` does:
    a 1x1 system is a division, anything larger one LAPACK ``gbsv`` call
    (``ab`` already in its (2 kl + ku + 1, d) layout)."""
    if w.size == 1:
        return w / ab[kl + ku, 0]
    _, _, x, info = gbsv(kl, ku, ab, w)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gbsv")
    return x


class Preconditioner:
    """Learnable factor C exposing matvec, adjoint, solve and logdet maps."""

    def __init__(self, kind, dim, theta):
        if kind not in KINDS:
            raise ValueError(f"unknown preconditioner kind {kind!r}")
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        self.kind = kind
        self.dim = dim
        if kind == "dense":
            self._rows, self._cols = np.tril_indices(dim, k=-1)
        elif kind == "banded":
            # imported here so that the other kinds never load scipy
            from scipy.linalg.lapack import dgbsv

            self._gbsv = dgbsv
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
        elif self.kind == "dense":
            self._exp = np.exp(theta[:d])
            C = np.zeros((d, d))
            C[np.diag_indices(d)] = self._exp
            C[self._rows, self._cols] = theta[d:]
            self._C = C
        else:
            # B's diagonal and superdiagonal, and the gbsv layouts of B
            # (kl, ku) = (0, 1) and of B^T (1, 0): row 0 of the latter is
            # gbsv's fill-in workspace
            self._exp = np.exp(theta[:d])
            self._sup = theta[d:]
            self._ab_upper = np.zeros((2, d))
            self._ab_upper[0, 1:] = self._sup
            self._ab_upper[1] = self._exp
            self._ab_lower = np.zeros((3, d))
            self._ab_lower[1] = self._exp
            self._ab_lower[2, : d - 1] = self._sup

    def _check_vec(self, w):
        w = np.asarray(w, dtype=float)
        if w.shape != (self.dim,):
            raise ValueError(f"vector has shape {w.shape}, expected ({self.dim},)")
        return w

    # -- linear maps ----------------------------------------------------

    def matvec(self, w):
        """C w.  For the banded kind this solves B x = w by back-substitution."""
        w = self._check_vec(w)
        if self.kind == "diagonal":
            return self._exp * w
        if self.kind == "dense":
            return self._C @ w
        return _band_solve(self._gbsv, 0, 1, self._ab_upper, w)

    def rmatvec(self, w):
        """C^T w."""
        w = self._check_vec(w)
        if self.kind == "diagonal":
            return self._exp * w
        if self.kind == "dense":
            return self._C.T @ w
        return _band_solve(self._gbsv, 1, 0, self._ab_lower, w)

    def solve(self, w):
        """C^{-1} w."""
        w = self._check_vec(w)
        if self.kind == "diagonal":
            return self._exp_neg * w
        if self.kind == "dense":
            from scipy.linalg import solve_triangular

            return solve_triangular(self._C, w, lower=True)
        # C^{-1} = B: multiply by the bidiagonal matrix directly
        out = self._exp * w
        out[:-1] += self._sup * w[1:]
        return out

    def solve_t(self, w):
        """C^{-T} w."""
        w = self._check_vec(w)
        if self.kind == "diagonal":
            return self._exp_neg * w
        if self.kind == "dense":
            from scipy.linalg import solve_triangular

            return solve_triangular(self._C, w, lower=True, trans="T")
        out = self._exp * w
        out[1:] += self._sup * w[:-1]
        return out

    def logdet(self):
        """log |det C|; finite for every parameter vector."""
        s = float(np.sum(self.theta[: self.dim]))
        return -s if self.kind == "banded" else s

    def dense(self):
        """Materialize C as a dense matrix (small d only)."""
        eye = np.eye(self.dim)
        return np.column_stack([self.matvec(eye[:, j]) for j in range(self.dim)])

    # -- parameter gradients --------------------------------------------

    def accumulate_bilinear_grad(self, u, w, out, scale=1.0):
        """Add scale * d(u^T C w)/d(theta) into ``out``.

        Respects the exp reparameterization of diagonal entries; for the
        banded kind uses d(u^T B^{-1} w)/dB = -(B^{-T} u)(B^{-1} w)^T
        restricted to the band.
        """
        u = self._check_vec(u)
        w = self._check_vec(w)
        d = self.dim
        if self.kind == "diagonal":
            out += scale * (u * w * self._exp)
            return
        if self.kind == "dense":
            out[:d] += scale * (u * w * self._exp)
            out[d:] += scale * (u[self._rows] * w[self._cols])
            return
        a = self.rmatvec(u)  # B^{-T} u
        b = self.matvec(w)  # B^{-1} w
        out[:d] += scale * (-a * b * self._exp)
        out[d:] += scale * (-a[: d - 1] * b[1:])

    def accumulate_logdet_grad(self, out, scale=1.0):
        """Add scale * d(log|det C|)/d(theta) into ``out``."""
        d = self.dim
        if self.kind == "banded":
            out[:d] -= scale
        else:
            out[:d] += scale


def make_preconditioner(kind, dim, init_scale=1.0):
    """Create factor parameters with C = init_scale * I."""
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError("dim must be a positive integer")
    if init_scale <= 0:
        raise ValueError("init_scale must be positive")
    theta = np.zeros(n_params(kind, dim))
    log_s = np.log(init_scale)
    # banded stores B's diagonal; C = B^{-1} = init_scale * I needs B = I / init_scale
    theta[:dim] = -log_s if kind == "banded" else log_s
    return Preconditioner(kind, int(dim), theta)

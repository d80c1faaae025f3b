"""Smallest Hessian eigenpairs by blocked products, plus a dense verification oracle.

The iterative solver is a blocked Rayleigh-quotient minimization with
locally optimal conjugate directions (LOBPCG-style) that sees the Hessian
only through block products ``H U``.  An optional tangent restriction
solves the eigenproblem inside the span of an orthonormal basis, which
keeps constrained eigenvectors exactly in the tangent space.  One routine
supplies the products at a point, ``H U`` or ``B^T H B U``: from the
model's assembled Hessian when it has one (``hessian_fn``), assembled once
per point, and otherwise one Hessian-vector product per column.  The
solver applies it to its blocks, and ``dense_hessian`` takes the matrix
itself from it.  A caller may hand the solver its own products and
preconditioner instead, or none.  The outer search does so on every flat
step of a model with ``hessian_fn``: it assembles ``H`` once, and one
Cholesky factor of a positive definite matrix near ``H``, or the Jacobi
map of ``H``'s diagonal, preconditions the eigensolve
(:func:`saddlekit.search.step`).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EigensolveError

# largest dimension whose Hessian is formed densely: the index of a
# stationary point takes the whole matrix and its eigenvalues
INDEX_MAX_DIMENSION = 1000
# min_modes: iteration budget, and the block vectors carried beyond the m
# wanted ones for convergence speed on clustered spectra
MAX_ITERS = 1000
GUARD = 2

__all__ = [
    "INDEX_MAX_DIMENSION",
    "MinModeResult",
    "Spectrum",
    "min_modes",
    "dense_hessian",
    "dense_eigensolve",
    "stationary_index",
    "count_negative",
]


@dataclass(frozen=True, eq=False)
class MinModeResult:
    """Ascending smallest eigenpairs with per-pair residuals.

    ``near_degenerate`` flags a gap between the m-th and (m+1)-th Ritz value
    below 1e-8 of the spectral scale; the quadratic rate of the outer search
    assumes a simple smallest eigenvalue, so callers may want to inspect it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # shape (d, m), orthonormal columns
    residual_norms: np.ndarray
    iterations: int
    near_degenerate: bool = False


class Spectrum(NamedTuple):
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _orthonormalize(M, drop_tol=1e-12):
    """Orthonormal basis of the column span, discarding near-dependent columns."""
    if M.size == 0:
        return M.reshape(M.shape[0], 0)
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return M[:, :0]
    return U[:, s > drop_tol * s[0]]


def _orthonormalize_with_image(M, HM, drop_tol=1e-12):
    """Orthonormalize columns of M, applying the same combination to HM."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return M[:, :0], HM[:, :0]
    keep = s > drop_tol * s[0]
    T = Vt.T[:, keep] / s[keep]
    return U[:, keep], HM @ T


def min_modes(p, x, m=1, v0=None, tol=1e-10, basis=None, products=None,
              precondition=None) -> MinModeResult:
    """Compute the ``m`` smallest eigenpairs of the Hessian of ``p`` at ``x``.

    A model with ``hessian_fn`` is assembled once per call and its blocks
    are matrix products; otherwise every column costs one Hessian-vector
    product.  The residuals that extend the search space are
    preconditioned by ``precondition`` when the caller passes one, and
    are used as they are otherwise.

    Parameters
    ----------
    v0 : optional warm-start vector(s), shape (d,) or (d, m).
    tol : residual target; pair i is converged when
        ``||H v_i - lambda_i v_i|| <= tol * max(1, |lambda_i|)``.
    basis : optional tangent restriction, a (d, k) matrix with orthonormal
        columns.  Eigenpairs are computed for the Hessian restricted to the
        basis span and returned in ambient coordinates.
    products : optional map of a block ``U`` (d, k) to ``H U`` at ``x``,
        used in place of assembling the Hessian here; the residuals reported
        are those of these products.
    precondition : optional map of a block of residuals ``R`` to
        ``M^{-1} R`` for a symmetric positive definite ``M`` near ``H`` in
        magnitude, such as :func:`saddlekit.subsolve.cholesky_solver` of
        it or :func:`saddlekit.subsolve.jacobi_solver` of its diagonal.
        The outer search passes the products of the matrix it assembles
        and one of those two maps (:func:`saddlekit.search.step`).
        Neither is combined with ``basis``.

    Raises
    ------
    EigensolveError
        On a non-finite Hessian-vector product, or when the residual target
        is missed, within ``MAX_ITERS`` iterations or because the search
        space is exhausted; then the best result so far rides on ``.result``.
    """
    x = np.asarray(x, dtype=float)
    d = p.dimension
    if tol <= 0:
        raise ValueError("tol must be positive")
    if basis is None:
        n = d
    else:
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != d:
            raise ValueError(f"basis must be a matrix with {d} rows, got shape {basis.shape}")
        n = basis.shape[1]
    if (products is not None or precondition is not None) and basis is not None:
        raise ValueError("caller products and preconditioners are taken for ambient problems only")

    if products is None:
        products = _hessian_products(p, x, basis)

    def apply_h(U):
        HU = products(U)
        if not np.all(np.isfinite(HU)):
            raise EigensolveError("non-finite Hessian-vector product")
        return HU

    if m < 1 or m > n:
        raise ValueError(f"requested {m} modes from a {n}-dimensional eigenproblem")
    b = min(m + GUARD, n)

    rng = np.random.default_rng(1234)
    if v0 is not None:
        V = np.asarray(v0, dtype=float)
        if V.ndim == 1:
            V = V[:, None]
        if basis is not None:
            V = basis.T @ V
        X = _orthonormalize(V[:, :b])
    else:
        X = np.empty((n, 0))
    if X.shape[1] < b:
        extra = rng.standard_normal((n, b - X.shape[1]))
        extra -= X @ (X.T @ extra)
        X = _orthonormalize(np.hstack([X, extra]))
    b = X.shape[1]

    HX = apply_h(X)
    P = HP = None
    scale = 1.0
    best = None
    gap_est = np.inf

    def missed(why):
        theta_m, X_m, resn, it = best
        vecs = basis @ X_m if basis is not None else X_m
        partial = MinModeResult(theta_m, vecs, resn, it, gap_est < 1e-8 * scale)
        return EigensolveError(
            f"min-mode iteration did not reach tol={tol:g} {why} (residuals {resn})",
            result=partial,
        )

    for it in range(1, MAX_ITERS + 1):
        G = X.T @ HX
        G = 0.5 * (G + G.T)
        theta, C = np.linalg.eigh(G)
        X = X @ C
        HX = HX @ C
        R = HX - X * theta
        resn = np.linalg.norm(R[:, :m], axis=0)
        scale = max(scale, float(np.abs(theta).max()))
        if theta.size > m:  # a refresh below may have dropped a column
            gap_est = float(theta[m] - theta[m - 1])
        if best is None or float(resn.max()) < float(best[2].max()):
            best = (theta[:m].copy(), X[:, :m].copy(), resn.copy(), it)
        if np.all(resn <= tol * np.maximum(1.0, np.abs(theta[:m]))):
            break

        # keep P orthonormal against X, transforming its H-image in step
        if P is not None:
            coef = X.T @ P
            P, HP = P - X @ coef, HP - HX @ coef
            P, HP = _orthonormalize_with_image(P, HP)
            if P.shape[1] == 0:
                P = HP = None
        # new search directions: preconditioned residuals orthogonalized
        # against X and P
        W = R.copy() if precondition is None else precondition(R)
        w_norms = np.linalg.norm(W, axis=0)
        for _ in range(2):
            W -= X @ (X.T @ W)
            if P is not None:
                W -= P @ (P.T @ W)
        # a column reduced to roundoff lies numerically in span(X, P); drop it
        # rather than normalize the roundoff into a spurious direction
        W = _orthonormalize(W[:, np.linalg.norm(W, axis=0) > 1e-10 * w_norms])
        if W.shape[1] == 0:
            if P is None:
                raise missed(f"before its search space was exhausted at iteration {it}")
            S, HS = X, HX
        else:
            HW = apply_h(W)
            S = np.hstack([X, W] + ([P] if P is not None else []))
            HS = np.hstack([HX, HW] + ([HP] if P is not None else []))
        Gs = S.T @ HS
        Gs = 0.5 * (Gs + Gs.T)
        ts, Cs = np.linalg.eigh(Gs)
        if ts.size > m:
            gap_est = float(ts[m] - ts[m - 1])
        Cx = Cs[:, :b]
        Xn, HXn = S @ Cx, HS @ Cx
        Cp = Cx.copy()
        Cp[:b, :] = 0.0  # conjugate block: drop the old-X contribution
        P, HP = S @ Cp, HS @ Cp
        P, HP = _orthonormalize_with_image(P, HP)
        if P.shape[1] == 0:
            P = HP = None
        X, HX = Xn, HXn
        if it % 25 == 0:
            X = _orthonormalize(X)
            HX = apply_h(X)  # refresh against accumulated drift
            if P is not None:
                HP = apply_h(P)
    else:
        raise missed(f"within {MAX_ITERS} iterations")

    vecs = basis @ X[:, :m] if basis is not None else X[:, :m]
    return MinModeResult(
        eigenvalues=theta[:m],
        eigenvectors=vecs,
        residual_norms=resn,
        iterations=it,
        near_degenerate=bool(gap_est < 1e-8 * scale),
    )


def _unit_vectors(n):
    """The columns of the n x n identity in turn, in one reused vector."""
    e = np.zeros(n)
    for i in range(n):
        e[i] = 1.0
        yield e
        e[i] = 0.0


def _hessian_products(p, x, basis=None):
    """The Hessian of ``p`` at ``x`` as a block product ``U -> H U``, or
    ``U -> B^T H B U`` for an orthonormal ``basis`` B (d, k).

    Called without ``U``, the product returns the symmetric matrix itself.
    A model with ``hessian_fn`` is assembled here, once, so every block
    costs one matrix product.  Otherwise each column costs one
    Hessian-vector product, and the matrix is the symmetrized product with
    the identity.
    """
    if p.hessian_fn is not None:
        H = np.asarray(p.hessian_fn(x), dtype=float)
        if basis is not None:
            H = basis.T @ H @ basis
            H = 0.5 * (H + H.T)
        return lambda U=None: H if U is None else H @ U

    n = p.dimension if basis is None else basis.shape[1]

    def products(U=None):
        HU = np.empty((n, n if U is None else U.shape[1]))
        for i, u in enumerate(_unit_vectors(n) if U is None else U.T):
            if basis is None:
                HU[:, i] = p.hessian_vec(x, u)
            else:
                HU[:, i] = basis.T @ p.hessian_vec(x, basis @ u)
        return 0.5 * (HU + HU.T) if U is None else HU

    return products


def dense_hessian(p, x, basis=None) -> np.ndarray:
    """The symmetric Hessian (``B^T H B`` for an orthonormal ``basis`` B):
    the model's assembled matrix when it has ``hessian_fn``, else
    symmetrized columns of Hessian-vector products.  Refused above
    ``INDEX_MAX_DIMENSION``."""
    x = np.asarray(x, dtype=float)
    d = p.dimension
    if d > INDEX_MAX_DIMENSION:
        raise ValueError(f"dense Hessian capped at dimension {INDEX_MAX_DIMENSION}, model has {d}")
    return _hessian_products(p, x, basis)()


def dense_eigensolve(p, x) -> Spectrum:
    """Full ascending spectrum of ``dense_hessian`` by a dense symmetric
    eigendecomposition: the test oracle for ``min_modes``."""
    evals, evecs = np.linalg.eigh(dense_hessian(p, x))
    return Spectrum(evals, evecs)


def stationary_index(p, x) -> int:
    """Number of negative Hessian eigenvalues at ``x`` (0 = minimum)."""
    return count_negative(np.linalg.eigvalsh(dense_hessian(p, x)))


def count_negative(evals) -> int:
    """Number of eigenvalues below ``-1e-8 * max(1, max |lambda|)``.

    Raises ``EigensolveError`` on a non-finite eigenvalue: the Hessian it
    came from was not finite, and NaN compares below no threshold.
    """
    if not np.all(np.isfinite(evals)):
        raise EigensolveError("non-finite Hessian")
    thresh = 1e-8 * max(1.0, float(np.abs(evals).max()))
    return int(np.sum(evals < -thresh))

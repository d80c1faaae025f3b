"""Smallest Hessian eigenpairs, matrix-free, plus a dense verification oracle.

The iterative solver is a blocked Rayleigh-quotient minimization with
locally optimal conjugate directions (LOBPCG-style) driven entirely by
Hessian-vector products, so it never forms the Hessian.  An optional
tangent restriction solves the eigenproblem inside the span of an
orthonormal basis, which keeps constrained eigenvectors exactly in the
tangent space.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EigensolveError

__all__ = [
    "MinModeResult",
    "Spectrum",
    "min_modes",
    "dense_hessian",
    "dense_eigensolve",
    "stationary_index",
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


def _projector_basis(projector):
    if projector is None:
        return None
    basis = getattr(projector, "basis", projector)
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2:
        raise ValueError("projector must provide an orthonormal basis matrix")
    return basis


def _orthonormalize_with_image(M, HM, drop_tol=1e-12):
    """Orthonormalize columns of M, applying the same combination to HM."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return M[:, :0], HM[:, :0]
    keep = s > drop_tol * s[0]
    T = Vt.T[:, keep] / s[keep]
    return U[:, keep], HM @ T


def min_modes(p, x, m=1, v0=None, tol=1e-10, projector=None, max_iters=1000,
              guard=None) -> MinModeResult:
    """Compute the ``m`` smallest eigenpairs of the Hessian of ``p`` at ``x``.

    Parameters
    ----------
    v0 : optional warm-start vector(s), shape (d,) or (d, m).
    tol : residual target; pair i is converged when
        ``||H v_i - lambda_i v_i|| <= tol * max(1, |lambda_i|)``.
    projector : optional tangent restriction (object with an orthonormal
        ``basis`` attribute, or the basis matrix itself).  Eigenpairs are
        computed for the Hessian restricted to the basis span and returned
        in ambient coordinates.
    guard : extra block vectors carried for convergence speed on clustered
        spectra (default 2 where the dimension allows).

    Raises
    ------
    EigensolveError
        On non-convergence; the best result so far rides on ``.result``.
    """
    x = np.asarray(x, dtype=float)
    d = p.dimension
    if tol <= 0:
        raise ValueError("tol must be positive")
    basis = _projector_basis(projector)
    if basis is None:
        n = d
        apply_h = lambda U: np.column_stack([p.hessian_vec(x, U[:, k]) for k in range(U.shape[1])])
    else:
        if basis.shape[0] != d:
            raise ValueError(f"projector basis has {basis.shape[0]} rows, expected {d}")
        n = basis.shape[1]

        def apply_h(U):
            cols = [basis.T @ p.hessian_vec(x, basis @ U[:, k]) for k in range(U.shape[1])]
            return np.column_stack(cols)

    if m < 1 or m > n:
        raise ValueError(f"requested {m} modes from a {n}-dimensional eigenproblem")
    if guard is None:
        guard = min(2, n - m)
    b = min(m + max(0, guard), n)

    # Jacobi preconditioner from the potential's Hessian diagonal (ambient
    # eigenproblems only); shifted toward the current Ritz value on the fly
    pre_diag = None
    if basis is None and getattr(p, "hessian_diag_fn", None) is not None:
        pre_diag = np.asarray(p.hessian_diag_fn(x), dtype=float)

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
    for it in range(1, max_iters + 1):
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
        if pre_diag is not None:
            denom = pre_diag - theta[0]
            span = max(1.0, float(np.abs(pre_diag).max()))
            W = R / np.maximum(denom, 1e-3 * span)[:, None]
        else:
            W = R.copy()
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
                break  # invariant subspace reached
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
        theta_m, X_m, resn, it = best
        vecs = basis @ X_m if basis is not None else X_m
        partial = MinModeResult(theta_m, vecs, resn, it, gap_est < 1e-8 * scale)
        raise EigensolveError(
            f"min-mode iteration did not reach tol={tol:g} within {max_iters} "
            f"iterations (residuals {resn})",
            result=partial,
        )

    vecs = basis @ X[:, :m] if basis is not None else X[:, :m]
    return MinModeResult(
        eigenvalues=theta[:m],
        eigenvectors=vecs,
        residual_norms=resn,
        iterations=it,
        near_degenerate=bool(gap_est < 1e-8 * scale),
    )


def dense_hessian(p, x, cap=1000) -> np.ndarray:
    """Assemble the symmetrized Hessian column-by-column from products."""
    x = np.asarray(x, dtype=float)
    d = p.dimension
    if d > cap:
        raise ValueError(f"dense Hessian capped at dimension {cap}, model has {d}")
    H = np.empty((d, d))
    e = np.zeros(d)
    for i in range(d):
        e[i] = 1.0
        H[:, i] = p.hessian_vec(x, e)
        e[i] = 0.0
    return 0.5 * (H + H.T)


def dense_eigensolve(p, x, cap=1000) -> Spectrum:
    """Full ascending spectrum via an explicitly assembled Hessian.

    Builds the matrix column-by-column from Hessian-vector products against
    basis vectors, symmetrizes, and runs a dense symmetric eigendecomposition.
    Intended as a test oracle and for stationary-point classification.
    """
    evals, evecs = np.linalg.eigh(dense_hessian(p, x, cap=cap))
    return Spectrum(evals, evecs)


def stationary_index(p, x, cap=1000, rel_tol=1e-8) -> int:
    """Number of negative Hessian eigenvalues at ``x`` (0 = minimum)."""
    evals, _ = dense_eigensolve(p, x, cap=cap)
    thresh = rel_tol * max(1.0, float(np.abs(evals).max()))
    return int(np.sum(evals < -thresh))

"""One point's second derivatives, and its smallest eigenpairs by blocked products.

A :class:`Hessian` gives a point's block products ``H U`` (``B^T H B U`` in
a tangent basis B), its symmetric matrix and index, the Jacobi map of an
assembled diagonal, and the outer search's flipped factor.  ``min_modes``
is a blocked Rayleigh-quotient minimization with locally optimal conjugate
directions (LOBPCG-style) that sees the Hessian only through those
products; ``dense_eigensolve`` is its test oracle.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EigensolveError

# largest dimension whose Hessian is given as a dense matrix, so classified
# by its eigenvalues, or flipped and factored by the outer search
INDEX_MAX_DIMENSION = 1000
# min_modes: iteration budget, and the block vectors carried beyond the m
# wanted ones for convergence speed on clustered spectra
MAX_ITERS = 1000
GUARD = 2
# Hessian.flip's row block: bounds the rank-1 update's temporary
_UPDATE_ROWS = 64
# cholesky_solver's row block: its diagonal blocks are inverted once per factor
_SOLVE_BLOCK = 64

__all__ = [
    "INDEX_MAX_DIMENSION",
    "Hessian",
    "MinModeResult",
    "Spectrum",
    "min_modes",
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


def min_modes(h, m=1, v0=None, tol=1e-10) -> MinModeResult:
    """Compute the ``m`` smallest eigenpairs of the :class:`Hessian` ``h``.

    The blocks are ``h``'s products, and the eigenvectors are returned in
    ambient coordinates.  The residuals that extend the search space are
    preconditioned by ``h.factor`` when it has one, otherwise by
    ``h.jacobi`` when it has one, and are used as they are otherwise.

    Parameters
    ----------
    v0 : optional warm-start vector(s), shape (d,) or (d, m).
    tol : residual target; pair i is converged when
        ``||H v_i - lambda_i v_i|| <= tol * max(1, |lambda_i|)``.

    Raises
    ------
    EigensolveError
        On a non-finite Hessian-vector product, or when the residual target
        is missed, within ``MAX_ITERS`` iterations or because the search
        space is exhausted; then the best result so far rides on ``.result``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    basis, n = h.basis, h.dimension
    precondition = h.factor if h.factor is not None else h.jacobi

    def apply_h(U):
        HU = h.products(U)
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


class Hessian:
    """The second derivatives of ``p`` at ``x``: ``H``, or ``B^T H B`` for
    an orthonormal ``basis`` B (d, k).

    A model with ``hessian_fn`` is assembled once, at the first request
    (``products``, ``matrix``, ``jacobi`` or ``flip``); in a basis the
    matrix is restricted and symmetrized.  Its blocks are then matrix
    products, and ``jacobi`` is :func:`jacobi_solver` of its diagonal.
    Without ``hessian_fn`` each product column is one Hessian-vector
    product, ``matrix()`` is the symmetrized product with the identity, and
    ``jacobi`` is None.  ``factor`` is set by :meth:`flip`.
    """

    def __init__(self, p, x, basis=None):
        d = p.dimension
        if basis is not None:
            basis = np.asarray(basis, dtype=float)
            if basis.ndim != 2 or basis.shape[0] != d:
                raise ValueError(f"basis must be a matrix with {d} rows, got shape {basis.shape}")
        self.p, self.x, self.basis = p, np.asarray(x, dtype=float), basis
        self.dimension = d if basis is None else basis.shape[1]
        self.factor = None
        self._H = self._jacobi = self._flip = None

    def _assembled(self):
        """The assembled matrix, assembling it on the first call; None
        without ``hessian_fn``."""
        if self._H is None and self.p.hessian_fn is not None:
            H = np.asarray(self.p.hessian_fn(self.x), dtype=float)
            if self.basis is not None:
                H = self.basis.T @ H @ self.basis
                H = 0.5 * (H + H.T)
            self._H, self._jacobi = H, jacobi_solver(np.diagonal(H))
        return self._H

    @property
    def jacobi(self):
        self._assembled()
        return self._jacobi

    def _hvp_columns(self, vectors, k):
        HU = np.empty((self.dimension, k))
        for i, u in enumerate(vectors):
            if self.basis is None:
                HU[:, i] = self.p.hessian_vec(self.x, u)
            else:
                HU[:, i] = self.basis.T @ self.p.hessian_vec(self.x, self.basis @ u)
        return HU

    def products(self, U):
        """``H U`` for a block ``U`` (n, k); after :meth:`flip`,
        ``K~ U + c u (u^T U)``, which is ``H U`` to roundoff."""
        H = self._assembled()
        if H is None:
            return self._hvp_columns(U.T, U.shape[1])
        if self._flip is None:
            return H @ U
        u, c = self._flip
        return H @ U + c * np.outer(u, u @ U)

    def matrix(self) -> np.ndarray:
        """The symmetric matrix, refused above ``INDEX_MAX_DIMENSION`` and
        after :meth:`flip`.  An assembled matrix is the object's own."""
        if self.p.dimension > INDEX_MAX_DIMENSION:
            raise ValueError(f"dense Hessian capped at dimension {INDEX_MAX_DIMENSION}, "
                             f"model has {self.p.dimension}")
        if self._flip is not None:
            raise ValueError("the matrix was overwritten by flip()")
        H = self._assembled()
        if H is None:
            HU = self._hvp_columns(_unit_vectors(self.dimension), self.dimension)
            H = 0.5 * (HU + HU.T)
        return H

    def index(self) -> int:
        """Number of negative eigenvalues of ``matrix()``, by :func:`count_negative`."""
        return count_negative(np.linalg.eigvalsh(self.matrix()))

    def flip(self, u, c):
        """Overwrite the assembled matrix with ``K~ = H - c u u^T`` and set
        ``factor`` to ``g -> K~^{-1} g`` (:func:`cholesky_solver`), or None
        when ``K~`` is not positive definite.

        The outer search passes its reference mode ``u`` and ``c = (alpha +
        beta) min(lambda_ref, 0)``.  ``K~`` is formed one row block at a
        time, so the update allocates no second matrix; the products stay
        those of ``H``, and the Jacobi map that of ``H``'s diagonal.
        """
        H = self._assembled()
        if not H.flags.writeable:
            H = self._H = H.copy()
        for a in range(0, u.size, _UPDATE_ROWS):
            H[a:a + _UPDATE_ROWS] -= (c * u[a:a + _UPDATE_ROWS])[:, None] * u
        self._flip = (u, c)
        try:
            self.factor = cholesky_solver(H)
        except np.linalg.LinAlgError:
            self.factor = None

    def inverse(self, v, weight):
        """``g -> K^{-1} g`` for ``K = H - weight v v^T`` from ``factor``, or
        None without a factor or when ``K`` is not positive definite.

        ``K = K~ + W diag(d) W^T`` with ``W = [u, v]`` and ``d = [c,
        -weight]``.  By Sherman-Morrison-Woodbury (Golub & Van Loan,
        *Matrix Computations*, 2.1.4), with ``Z = K~^{-1} W`` and ``S = I +
        diag(d) W^T Z``, ``K^{-1} g = K~^{-1} g - Z S^{-1} diag(d) Z^T g``,
        which holds for a zero entry of ``d`` too: one block solve here and
        one solve per call.  ``det K = det K~ det S``, and with at most one
        negative entry in ``d`` ``K`` has at most one non-positive eigenvalue
        (Haynsworth inertia additivity), so ``K`` is positive definite
        exactly when ``det S > 0``.  The map keeps the factor, not the matrix.
        """
        solve = self.factor
        if solve is None:
            return None
        u, c = self._flip
        W, d = np.column_stack([u, v]), np.array([c, -weight])
        Z = solve(W)
        S = np.eye(d.size) + d[:, None] * (W.T @ Z)
        if not np.linalg.det(S) > 0.0:
            return None
        T = np.linalg.solve(S, d[:, None] * Z.T)
        return lambda g: solve(g) - Z @ (T @ g)


def cholesky_solver(K):
    """The map ``g -> K^{-1} g`` for a symmetric positive definite ``K``,
    on a vector ``(n,)`` or a block of right-hand sides ``(n, k)``.

    ``K`` is factored once, ``K = C C^T`` (``np.linalg.cholesky``, which
    raises ``LinAlgError`` when ``K`` is not positive definite); each call
    is a forward and a back substitution by row blocks of ``_SOLVE_BLOCK``,
    with the inverses of the factor's diagonal blocks formed here (numpy
    has no triangular solve).  Only the factor is kept, so ``K`` may be
    dropped.
    """
    C = np.linalg.cholesky(K)
    n = C.shape[0]
    edges = list(range(0, n, _SOLVE_BLOCK)) + [n]
    spans = list(zip(edges[:-1], edges[1:]))
    inv = [np.linalg.inv(C[a:b, a:b]) for a, b in spans]

    def solve(g):
        y = np.empty(g.shape)
        for (a, b), D in zip(spans, inv):  # C y = g
            y[a:b] = D @ (g[a:b] - C[a:b, :a] @ y[:a])
        z = np.empty(g.shape)
        for (a, b), D in zip(reversed(spans), reversed(inv)):  # C^T z = y
            z[a:b] = D.T @ (y[a:b] - C[b:, a:b].T @ z[b:])
        return z

    return solve


def jacobi_solver(diag):
    """The map ``g -> g * (1 / max(D, floor))`` for a Hessian diagonal
    ``D`` and a floor of 5% of its median positive entry, on a vector
    ``(n,)`` or a block ``(n, k)`` row by row, or None when ``D`` has no
    positive entry.
    """
    diag = np.asarray(diag, dtype=float)
    pos = np.sort(diag[diag > 0])
    if pos.size == 0:
        return None
    # np.median's value, bitwise, without its first call's import of numpy.ma (~2 MB)
    k = pos.size // 2
    median = pos[k] if pos.size % 2 else 0.5 * (pos[k - 1] + pos[k])
    inv = 1.0 / np.maximum(diag, 0.05 * float(median))
    return lambda g: g * (inv if g.ndim == 1 else inv[:, None])


def dense_eigensolve(p, x) -> Spectrum:
    """Full ascending spectrum of ``Hessian(p, x).matrix()`` by a dense
    symmetric eigendecomposition: the test oracle for ``min_modes``."""
    evals, evecs = np.linalg.eigh(Hessian(p, x).matrix())
    return Spectrum(evals, evecs)


def stationary_index(p, x) -> int:
    """Number of negative Hessian eigenvalues at ``x`` (0 = minimum)."""
    return Hessian(p, x).index()


def count_negative(evals) -> int:
    """Number of eigenvalues below ``-1e-8 * max(1, max |lambda|)``.

    Raises ``EigensolveError`` on a non-finite eigenvalue: the Hessian it
    came from was not finite, and NaN compares below no threshold.
    """
    if not np.all(np.isfinite(evals)):
        raise EigensolveError("non-finite Hessian")
    thresh = 1e-8 * max(1.0, float(np.abs(evals).max()))
    return int(np.sum(evals < -thresh))

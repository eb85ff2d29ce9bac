"""Gaussian-process regression baseline.

Section 3.2 of the paper notes that the "collective wisdom" for regression
with uncertainty estimates would be a Gaussian process, but rejects it for
the active-learning loop because exact inference is O(n³) per rebuild.  We
implement the GP anyway: it serves as an ablation surrogate (dynamic tree
vs. GP), as a reference implementation for the ALC acquisition (the GP has
the textbook closed form), and as a demonstration of the cost argument (the
model-update benchmark shows the cubic blow-up).

The kernel is a squared-exponential (RBF) with a constant signal variance
and observation noise; hyper-parameters are set by simple, robust heuristics
(median-distance lengthscale, data-variance amplitude) rather than marginal
likelihood optimisation — adequate for the normalised, low-dimensional SPAPT
feature spaces and entirely deterministic.

Sequential updates use a rank-1 Cholesky extension: between (periodic) full
refits the hyper-parameters are frozen and absorbing one observation only
appends a row to the existing factor — O(n²) instead of the O(n³)
``cho_factor`` plus hyper-parameter re-estimation the naive implementation
pays per observation.  This makes the Section-3.2 cost comparison against
the dynamic tree a measured quantity rather than an asserted one: the GP's
per-update cost still grows quadratically (and each refit cubically) where
the tree's stays near-constant, but the comparison is no longer inflated by
gratuitous refits.  ``refit_interval`` controls the trade-off;
``refit_interval=1`` restores the always-refit behaviour exactly.

The mirror image, a rank-1 Cholesky *downdate*, removes the oldest
observation in O(n²): deleting the first row/column of ``K = L Lᵀ`` with
``L = [[l₁₁, 0], [l₂₁, L₂₂]]`` leaves ``K₂₂ = L₂₂ L₂₂ᵀ + l₂₁ l₂₁ᵀ``, so the
new factor is the classic rank-1 *update* of the trailing submatrix by the
pivot column — a sequence of Givens-style rotations that, unlike a true
downdate, can never go indefinite.  ``window_size`` combines the two into a
sliding-window GP: each :meth:`update` extends the factor with the new
observation and forgets the oldest one, so the model tracks drift-noise
benchmarks with bounded memory and O(w²) per step instead of O(w³).

``scipy.linalg`` is imported inside the methods that factor and solve, and
the kernel's distances are NumPy (``squared_distances``), so importing the
package does not load SciPy.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import Prediction, SurrogateModel, squared_distances

__all__ = ["GaussianProcessRegressor"]


class GaussianProcessRegressor(SurrogateModel):
    """Exact GP regression with an RBF kernel and heuristic hyper-parameters.

    ``refit_interval`` is the number of sequential :meth:`update` calls
    absorbed by the rank-1 Cholesky extension (with hyper-parameters frozen
    at their last-refit values) before the next full refit re-estimates the
    heuristics and refactors from scratch.

    ``window_size`` turns the model into a sliding-window GP: whenever the
    training set exceeds the window, the oldest observations are forgotten
    through the rank-1 downdate (:meth:`forget_oldest`), keeping per-update
    cost bounded and letting the posterior track a drifting target.
    """

    def __init__(
        self,
        lengthscale: Optional[float] = None,
        signal_variance: Optional[float] = None,
        noise_variance: Optional[float] = None,
        jitter: float = 1e-8,
        refit_interval: int = 25,
        window_size: Optional[int] = None,
    ) -> None:
        if refit_interval < 1:
            raise ValueError("refit_interval must be at least 1")
        if window_size is not None and window_size < 2:
            raise ValueError("window_size must be at least 2 when given")
        self._lengthscale_override = lengthscale
        self._signal_override = signal_variance
        self._noise_override = noise_variance
        self._jitter = jitter
        self._refit_interval = refit_interval
        self._window_size = window_size
        self._X: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None
        self._mean_y = 0.0
        self._lengthscale = 1.0
        self._signal = 1.0
        self._noise = 0.1
        # Lower-triangular Cholesky factor of K + (noise + jitter) I, kept
        # as a plain array so the rank-1 extension can append rows.
        self._chol: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._stale = True
        self._updates_since_refit = 0

    # ------------------------------------------------------------- training

    @property
    def training_size(self) -> int:
        return 0 if self._y is None else int(self._y.shape[0])

    @property
    def window_size(self) -> Optional[int]:
        return self._window_size

    def fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        X = np.atleast_2d(np.asarray(features, dtype=float))
        y = np.asarray(targets, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("features and targets disagree on the number of rows")
        if X.shape[0] == 0:
            raise ValueError("fit() needs at least one observation")
        if self._window_size is not None and X.shape[0] > self._window_size:
            # A sliding-window model only ever holds the freshest window.
            X = X[-self._window_size :]
            y = y[-self._window_size :]
        self._X = X.copy()
        self._y = y.copy()
        self._stale = True

    def update(self, features: np.ndarray, target: float) -> None:
        """Absorb one observation.

        While a current factor exists and the refit interval has not
        elapsed, the factor is extended in place (O(n²)); otherwise the
        model is marked stale and the next prediction pays a full refit.
        """
        x = np.atleast_2d(np.asarray(features, dtype=float))
        if self._X is None or self._y is None:
            self._X = x.copy()
            self._y = np.array([float(target)])
            self._stale = True
            return
        if x.shape[1] != self._X.shape[1]:
            raise ValueError("feature dimension mismatch")
        if (
            not self._stale
            and self._chol is not None
            # interval - 1 extensions, then one full refit: every
            # refit_interval-th observation pays the O(n³) refresh, and
            # refit_interval=1 restores always-refit behaviour exactly.
            and self._updates_since_refit < self._refit_interval - 1
            and self._extend_factor(x, float(target))
        ):
            self._updates_since_refit += 1
            self._enforce_window()
            return
        self._X = np.vstack([self._X, x])
        self._y = np.append(self._y, float(target))
        self._stale = True
        self._enforce_window()

    def _enforce_window(self) -> None:
        if self._window_size is None:
            return
        while self.training_size > self._window_size:
            self.forget_oldest()

    def forget_oldest(self) -> None:
        """Remove the oldest observation from the training set.

        With a current factor this is the rank-1 Cholesky downdate
        (O(n²), hyper-parameters stay frozen, exactly mirroring
        :meth:`_extend_factor`); a stale model simply drops the row and
        lets the next prediction refit.  Sliding-window updates call this
        automatically; it is public so drift-aware callers can also shed
        stale history explicitly.
        """
        if self._X is None or self._y is None or self.training_size == 0:
            raise RuntimeError("the model has no observations to forget")
        if self.training_size == 1:
            self._X = None
            self._y = None
            self._chol = None
            self._alpha = None
            self._stale = True
            return
        if not self._stale and self._chol is not None and self._downdate_factor():
            return
        self._X = self._X[1:]
        self._y = self._y[1:]
        self._stale = True

    # ------------------------------------------------------------ internals

    def _kernel(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        sq = squared_distances(A, B)
        return self._signal * np.exp(-0.5 * sq / (self._lengthscale ** 2))

    def _extend_factor(self, x: np.ndarray, target: float) -> bool:
        """Rank-1 extension of the Cholesky factor with one new row.

        For ``K' = [[K, k], [kᵀ, κ]]`` with ``L Lᵀ = K``, the extended
        factor is ``[[L, 0], [lᵀ, d]]`` where ``L l = k`` and
        ``d² = κ - l·l`` — one triangular solve, O(n²).  Returns ``False``
        (leaving the model stale for a full refit) if the Schur complement
        ``d²`` is numerically non-positive, which can only happen when the
        new point nearly duplicates an existing one.
        """
        from scipy.linalg import cho_solve, solve_triangular

        assert self._X is not None and self._y is not None and self._chol is not None
        L = self._chol
        n = L.shape[0]
        k = self._kernel(self._X, x)[:, 0]
        kappa = self._signal + self._noise + self._jitter
        ell = solve_triangular(L, k, lower=True, check_finite=False)
        d_sq = kappa - float(ell @ ell)
        if d_sq <= self._jitter * 1e-3:
            return False
        extended = np.zeros((n + 1, n + 1))
        extended[:n, :n] = L
        extended[n, :n] = ell
        extended[n, n] = np.sqrt(d_sq)
        self._chol = extended
        self._X = np.vstack([self._X, x])
        self._y = np.append(self._y, float(target))
        # The factor depends only on the kernel, not on the centring, so the
        # data mean is re-estimated every update even while the kernel
        # hyper-parameters stay frozen; the posterior weights are two O(n²)
        # triangular solves against the extended factor.
        self._mean_y = float(self._y.mean())
        centred = self._y - self._mean_y
        self._alpha = cho_solve((self._chol, True), centred)
        return True

    def _downdate_factor(self) -> bool:
        """Rank-1 downdate: drop the factor's first row/column in O(n²).

        Partition ``L = [[l₁₁, 0], [l₂₁, L₂₂]]``.  Deleting observation 0
        from ``K = L Lᵀ`` leaves ``K₂₂ = L₂₂ L₂₂ᵀ + l₂₁ l₂₁ᵀ``, so the new
        factor is the rank-1 *update* of ``L₂₂`` by the pivot column
        ``l₂₁`` — computed with the classic hyperbolic-free rotation
        recurrence.  Because it is an update (adding ``l₂₁ l₂₁ᵀ``, never
        subtracting), the recurrence cannot drive the matrix indefinite;
        ``False`` is returned only if the incoming factor's diagonal is
        already degenerate (then the caller falls back to a full refit).
        Like the extension, the posterior mean and weights are recomputed
        against the new factor while the kernel hyper-parameters stay
        frozen until the next refit.
        """
        from scipy.linalg import cho_solve

        assert self._X is not None and self._y is not None and self._chol is not None
        L = self._chol
        n = L.shape[0]
        # cho_factor leaves garbage above the diagonal; the rotation
        # recurrence reads whole columns, so take the clean lower triangle.
        trailing = np.tril(L[1:, 1:]).copy()
        pivot = L[1:, 0].astype(float).copy()
        m = n - 1
        for k in range(m):
            diag = trailing[k, k]
            if not np.isfinite(diag) or diag <= 0.0:
                return False
            r = float(np.hypot(diag, pivot[k]))
            c = r / diag
            s = pivot[k] / diag
            trailing[k, k] = r
            if k + 1 < m:
                trailing[k + 1 :, k] = (trailing[k + 1 :, k] + s * pivot[k + 1 :]) / c
                pivot[k + 1 :] = c * pivot[k + 1 :] - s * trailing[k + 1 :, k]
        if not np.all(np.isfinite(trailing)):
            return False
        self._chol = trailing
        self._X = self._X[1:]
        self._y = self._y[1:]
        self._mean_y = float(self._y.mean())
        centred = self._y - self._mean_y
        self._alpha = cho_solve((self._chol, True), centred)
        return True

    def _refresh(self) -> None:
        if not self._stale:
            return
        from scipy.linalg import cho_factor, cho_solve

        if self._X is None or self._y is None:
            raise RuntimeError("the model has no training data yet")
        X, y = self._X, self._y
        n = X.shape[0]
        self._mean_y = float(y.mean())
        centred = y - self._mean_y
        if self._lengthscale_override is not None:
            self._lengthscale = float(self._lengthscale_override)
        else:
            if n > 1:
                distances = np.sqrt(squared_distances(X, X))
                positive = distances[distances > 0]
                self._lengthscale = float(np.median(positive)) if positive.size else 1.0
            else:
                self._lengthscale = 1.0
        data_variance = float(centred.var()) if n > 1 else max(abs(self._mean_y), 1.0)
        data_variance = max(data_variance, 1e-12)
        self._signal = (
            float(self._signal_override)
            if self._signal_override is not None
            else data_variance
        )
        self._noise = (
            float(self._noise_override)
            if self._noise_override is not None
            else max(0.05 * data_variance, 1e-10)
        )
        K = self._kernel(X, X) + (self._noise + self._jitter) * np.eye(n)
        factor, _ = cho_factor(K, lower=True)
        # cho_factor leaves unspecified values above the diagonal.  That is
        # fine: every consumer (cho_solve/solve_triangular with lower=True,
        # and the rank-1 extension, which only reads rows into another
        # lower-triangle-consumed matrix) ignores the upper triangle.
        self._chol = factor
        self._alpha = cho_solve((self._chol, True), centred)
        self._stale = False
        self._updates_since_refit = 0

    # ----------------------------------------------------------- prediction

    def predict(self, features: np.ndarray) -> Prediction:
        from scipy.linalg import cho_solve

        self._refresh()
        assert self._X is not None and self._alpha is not None and self._chol is not None
        Xs = np.atleast_2d(np.asarray(features, dtype=float))
        K_star = self._kernel(Xs, self._X)
        mean = self._mean_y + K_star @ self._alpha
        v = cho_solve((self._chol, True), K_star.T)
        prior_var = self._signal
        variance = prior_var - np.einsum("ij,ji->i", K_star, v) + self._noise
        variance = np.maximum(variance, 1e-18)
        return Prediction(mean=mean, variance=variance)

    def expected_average_variance(
        self, candidates: np.ndarray, reference: np.ndarray
    ) -> np.ndarray:
        """Closed-form ALC for a GP.

        Adding an observation at candidate ``c`` reduces the posterior
        variance at a reference point ``r`` by
        ``cov(r, c)^2 / (var(c) + noise)`` where ``cov`` and ``var`` are the
        *posterior* covariance and variance.  The returned score is the
        average variance remaining over the reference set for each
        candidate — the quantity Algorithm 1 minimises.
        """
        from scipy.linalg import cho_solve

        self._refresh()
        assert self._X is not None and self._chol is not None
        C = np.atleast_2d(np.asarray(candidates, dtype=float))
        R = np.atleast_2d(np.asarray(reference, dtype=float))
        K_rc = self._kernel(R, C)
        K_rx = self._kernel(R, self._X)
        K_cx = self._kernel(C, self._X)
        v_c = cho_solve((self._chol, True), K_cx.T)
        # Posterior covariance between every reference and candidate point.
        post_cov = K_rc - K_rx @ v_c
        post_var_c = self._signal - np.einsum("ij,ji->i", K_cx, v_c)
        post_var_c = np.maximum(post_var_c, 1e-18)
        post_var_r = self._signal - np.einsum(
            "ij,ji->i", K_rx, cho_solve((self._chol, True), K_rx.T)
        )
        post_var_r = np.maximum(post_var_r, 1e-18)
        reductions = post_cov ** 2 / (post_var_c + self._noise)[None, :]
        remaining = post_var_r[:, None] - reductions
        remaining = np.maximum(remaining, 0.0)
        return remaining.mean(axis=0) + self._noise

"""The paper's hybrid neuro-wavelet dynamics predictor (Figure 6).

Pipeline (Section 2.3):

1. *Decompose* every training trace with the discrete wavelet transform.
2. *Select* a small set of important coefficients (magnitude-based by
   default; the ranking is taken from the consensus over the training
   configurations, which Figure 7 shows to be stable).
3. *Fit one RBF network per retained coefficient*, each mapping the full
   microarchitecture design vector to that coefficient's value.
4. *Predict* unseen configurations coefficient-by-coefficient, zero the
   unmodelled coefficients, and *reconstruct* the time-domain dynamics
   with the inverse wavelet transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro._validation import (
    as_2d_float_array,
    resolve_settings,
    rng_from_seed,
)
from repro.errors import ModelError, NotFittedError
from repro.core import metrics as _metrics
from repro.core.rbf import RBFNetwork, _factorize
from repro.core.selection import SCHEMES, consensus_ranking
from repro.core.wavelets import (
    CONVENTIONS,
    WAVELETS,
    dwt_batch,
    idwt_batch,
)


@dataclass(frozen=True)
class PredictorSettings:
    """Hyper-parameters of :class:`WaveletNeuralPredictor`.

    ``n_coefficients=16`` is the paper's cost/accuracy sweet spot
    (Figure 9); ``scheme="magnitude"`` is the selection scheme the paper
    adopts (Section 3).
    """

    n_coefficients: int = 16
    scheme: str = "magnitude"
    wavelet: str = "haar"
    convention: str = "paper"
    standardize_targets: bool = True
    # RBF hyper-parameters tuned on the paper's design space: broad,
    # strongly-overlapping units (radius_scale 4 on [0,1]-normalized
    # inputs) with GCV-ridge regularization generalize much better on
    # 200-point training sets than tight per-box radii.
    rbf_max_depth: int = 8
    rbf_min_samples_leaf: int = 3
    rbf_radius_scale: float = 4.0
    rbf_solver: str = "ridge_gcv"

    def validate(self) -> None:
        if self.n_coefficients < 1:
            raise ModelError(
                f"n_coefficients must be >= 1, got {self.n_coefficients}"
            )
        if self.scheme not in SCHEMES:
            raise ModelError(
                f"scheme must be one of {SCHEMES}, got {self.scheme!r}"
            )
        if self.wavelet not in WAVELETS:
            raise ModelError(
                f"wavelet must be one of {WAVELETS}, got {self.wavelet!r}"
            )
        if self.convention not in CONVENTIONS:
            raise ModelError(
                f"convention must be one of {CONVENTIONS}, got {self.convention!r}"
            )


class WaveletNeuralPredictor:
    """Predict workload dynamics at unexplored design points.

    Parameters
    ----------
    settings:
        A :class:`PredictorSettings`; keyword arguments may be passed
        directly instead.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(1)
    >>> X = rng.uniform(size=(64, 3))
    >>> t = np.linspace(0, 1, 32)
    >>> traces = np.array([np.sin(6 * t + 2 * x[0]) * (1 + x[1]) for x in X])
    >>> model = WaveletNeuralPredictor(n_coefficients=8).fit(X, traces)
    >>> pred = model.predict(X[:2])
    >>> pred.shape
    (2, 32)
    """

    def __init__(self, settings: Optional[PredictorSettings] = None, **kwargs):
        self.settings = resolve_settings(PredictorSettings, settings,
                                         kwargs, ModelError)
        # Fitted state
        self.selected_indices_: Optional[np.ndarray] = None
        self.models_: Dict[int, RBFNetwork] = {}
        self.n_samples_: Optional[int] = None
        self.n_features_: Optional[int] = None
        self._target_mean: Dict[int, float] = {}
        self._target_scale: Dict[int, float] = {}

    # ------------------------------------------------------------------
    def fit(self, X, traces, coefficients=None) -> "WaveletNeuralPredictor":
        """Fit per-coefficient RBF networks.

        Parameters
        ----------
        X:
            ``(n_configs, n_params)`` design matrix (normalized parameter
            encodings; see :meth:`repro.dse.space.DesignSpace.encode`).
        traces:
            ``(n_configs, n_samples)`` observed dynamics; ``n_samples``
            must be a power of two.
        coefficients:
            Optional precomputed ``dwt_batch(traces)`` under this
            predictor's wavelet settings, same shape as ``traces``.  The
            DWT is row-wise, so a caller fitting many predictors on
            row-subsets of one trace matrix (the bootstrap ensemble) can
            transform once and pass gathered rows — the transform of a
            gather equals the gather of the transform, bit for bit.
        """
        X = as_2d_float_array(X, name="X")
        traces = as_2d_float_array(traces, name="traces")
        if X.shape[0] != traces.shape[0]:
            raise ModelError(
                f"X and traces disagree on configuration count: "
                f"{X.shape[0]} != {traces.shape[0]}"
            )
        s = self.settings
        n_samples = traces.shape[1]
        if s.n_coefficients > n_samples:
            raise ModelError(
                f"n_coefficients={s.n_coefficients} exceeds trace length {n_samples}"
            )
        if coefficients is None:
            # One vectorized transform of the whole (n_configs, n_samples)
            # matrix instead of a per-row Python loop + vstack.
            coeffs = dwt_batch(traces, wavelet=s.wavelet,
                               convention=s.convention)
        else:
            coeffs = as_2d_float_array(coefficients, name="coefficients")
            if coeffs.shape != traces.shape:
                raise ModelError(
                    f"coefficients shape {coeffs.shape} does not match "
                    f"traces shape {traces.shape}"
                )
        if s.scheme == "order":
            selected = np.arange(s.n_coefficients)
        else:
            selected = np.sort(consensus_ranking(coeffs)[:s.n_coefficients])
        self.selected_indices_ = selected
        self.n_samples_ = n_samples
        self.n_features_ = X.shape[1]
        self._target_mean = {}
        self._target_scale = {}
        targets = np.empty((X.shape[0], selected.size))
        for col, idx in enumerate(selected):
            y = coeffs[:, idx]
            mean, scale = 0.0, 1.0
            if s.standardize_targets:
                mean = float(y.mean())
                scale = float(y.std())
                if scale < 1e-12:
                    scale = 1.0
            targets[:, col] = (y - mean) / scale
            self._target_mean[int(idx)] = mean
            self._target_scale[int(idx)] = scale
        # One call grows every coefficient's tree together over one
        # presort of X (see RBFNetwork.fit_columns).
        nets = RBFNetwork(
            max_depth=s.rbf_max_depth,
            min_samples_leaf=s.rbf_min_samples_leaf,
            radius_scale=s.rbf_radius_scale,
            solver=s.rbf_solver,
        ).fit_columns(X, targets)
        self.models_ = {int(idx): net for idx, net in zip(selected, nets)}
        return self

    # ------------------------------------------------------------------
    def predict_coefficients(self, X) -> np.ndarray:
        """Predicted full coefficient vectors (unmodelled entries zero)."""
        self._check_fitted()
        X = as_2d_float_array(X, name="X")
        if X.shape[1] != self.n_features_:
            raise ModelError(
                f"X has {X.shape[1]} features, model was fitted with {self.n_features_}"
            )
        out = np.zeros((X.shape[0], self.n_samples_), dtype=float)
        # Every network evaluates the same X: factorize its columns once.
        columns = _factorize(X)
        for idx, net in self.models_.items():
            out[:, idx] = (net._predict(X, columns) * self._target_scale[idx]
                           + self._target_mean[idx])
        return out

    def predict(self, X) -> np.ndarray:
        """Predicted dynamics, shape ``(n_configs, n_samples)``."""
        s = self.settings
        coeffs = self.predict_coefficients(X)
        return idwt_batch(coeffs, wavelet=s.wavelet, convention=s.convention)

    def predict_one(self, x) -> np.ndarray:
        """Predicted dynamics for a single design vector."""
        return self.predict(np.asarray(x, dtype=float).reshape(1, -1))[0]

    # ------------------------------------------------------------------
    def score(self, X, traces,
              metric: Callable[[Sequence[float], Sequence[float]], float] = _metrics.nmse_percent,
              ) -> np.ndarray:
        """Per-configuration prediction errors under ``metric``.

        Defaults to the canonical MSE% (variance-normalized); the result
        feeds the Figure 8 boxplots directly.
        """
        traces = as_2d_float_array(traces, name="traces")
        preds = self.predict(X)
        if preds.shape != traces.shape:
            raise ModelError(
                f"traces shape {traces.shape} does not match predictions {preds.shape}"
            )
        return np.array([metric(a, p) for a, p in zip(traces, preds)])

    def split_importance(self) -> Dict[str, np.ndarray]:
        """Aggregate regression-tree importance over the coefficient models.

        Returns ``{"order": ..., "frequency": ...}`` — per-feature scores
        averaged over the retained coefficients' trees, weighting each
        tree equally.  This is the per-(benchmark, domain) input to the
        Figure 11 star plots.
        """
        self._check_fitted()
        order = np.zeros(self.n_features_, dtype=float)
        freq = np.zeros(self.n_features_, dtype=float)
        for net in self.models_.values():
            order += net.tree_.split_order_scores()
            freq += net.tree_.split_counts()
        n = max(len(self.models_), 1)
        order /= n
        total = freq.sum()
        if total > 0:
            freq = freq / total
        return {"order": order, "frequency": freq}

    @property
    def n_networks(self) -> int:
        """Number of fitted per-coefficient RBF networks."""
        self._check_fitted()
        return len(self.models_)

    def _check_fitted(self) -> None:
        if self.selected_indices_ is None:
            raise NotFittedError("WaveletNeuralPredictor used before fit")


class WaveletPredictorEnsemble:
    """Bootstrap ensemble of :class:`WaveletNeuralPredictor` models.

    The single predictor gives a point estimate of a configuration's
    dynamics; the active-learning loop (:mod:`repro.dse.active`)
    additionally needs to know *where the model is unsure* so it can
    spend its simulation budget there.  This class fits ``n_members``
    predictors — the first on the full training set (so point
    predictions never lose data), the rest on bootstrap resamples — and
    exposes the spread of their predictions as a per-sample uncertainty
    estimate.

    Parameters
    ----------
    n_members:
        Ensemble size ``K`` (>= 2; the variance of a single member is
        identically zero).
    settings:
        Shared :class:`PredictorSettings` for every member; keyword
        arguments may be passed directly instead.
    seed:
        Seed for the bootstrap resampling.  Fitting is fully
        deterministic given ``(seed, X, traces)``.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(3)
    >>> X = rng.uniform(size=(48, 3))
    >>> t = np.linspace(0, 1, 32)
    >>> traces = np.array([np.sin(5 * t + x[0]) * (1 + x[2]) for x in X])
    >>> ens = WaveletPredictorEnsemble(n_members=3, n_coefficients=8,
    ...                                seed=0).fit(X, traces)
    >>> mean, std = ens.predict_with_std(X[:4])
    >>> mean.shape == std.shape == (4, 32)
    True
    >>> bool(np.all(std >= 0.0))
    True
    """

    def __init__(self, n_members: int = 4,
                 settings: Optional[PredictorSettings] = None,
                 seed: int = 0, **kwargs):
        if n_members < 2:
            raise ModelError(
                f"n_members must be >= 2 for a variance estimate, got "
                f"{n_members}"
            )
        self.n_members = n_members
        self.settings = resolve_settings(PredictorSettings, settings,
                                         kwargs, ModelError)
        self.seed = seed
        self.members_: List[WaveletNeuralPredictor] = []

    # ------------------------------------------------------------------
    def fit(self, X, traces) -> "WaveletPredictorEnsemble":
        """Fit every member; bootstrap indices are drawn from ``seed``.

        Member 0 always sees the full ``(X, traces)``; members ``1..K-1``
        see size-``n`` resamples drawn with replacement.  Refitting with
        the same seed and data reproduces the ensemble exactly.
        """
        X = as_2d_float_array(X, name="X")
        traces = as_2d_float_array(traces, name="traces")
        if X.shape[0] != traces.shape[0]:
            raise ModelError(
                f"X and traces disagree on configuration count: "
                f"{X.shape[0]} != {traces.shape[0]}"
            )
        rng = rng_from_seed(self.seed)
        n = X.shape[0]
        # One stacked transform for the whole ensemble: the DWT is
        # row-wise, so every bootstrap member's coefficient matrix is a
        # row-gather of this one (bit-identical to transforming the
        # member's resampled traces directly), and K member refits pay
        # for a single dwt_batch.
        s = self.settings
        coeffs = dwt_batch(traces, wavelet=s.wavelet,
                           convention=s.convention)
        members = []
        for member in range(self.n_members):
            if member == 0:
                Xm, tm, cm = X, traces, coeffs
            else:
                idx = rng.integers(0, n, size=n)
                Xm, tm, cm = X[idx], traces[idx], coeffs[idx]
            members.append(
                WaveletNeuralPredictor(self.settings).fit(
                    Xm, tm, coefficients=cm))
        self.members_ = members
        return self

    # ------------------------------------------------------------------
    @property
    def selected_indices_(self):
        """Member 0's retained coefficient indices (``None`` pre-fit).

        Mirrors the single-predictor attribute so an ensemble can stand
        in for a :class:`WaveletNeuralPredictor` wherever only point
        predictions are consumed (e.g.
        :class:`repro.dse.explorer.PredictiveExplorer`).
        """
        if not self.members_:
            return None
        return self.members_[0].selected_indices_

    def member_predictions(self, X) -> np.ndarray:
        """Every member's predicted dynamics, shape ``(K, n, samples)``."""
        self._check_fitted()
        return np.stack([m.predict(X) for m in self.members_])

    def predict(self, X) -> np.ndarray:
        """Ensemble-mean dynamics, shape ``(n, samples)``."""
        return self.member_predictions(X).mean(axis=0)

    def predict_with_std(self, X):
        """``(mean, std)`` dynamics across members, each ``(n, samples)``.

        The standard deviation is taken across the ``K`` member
        predictions per (configuration, sample) — the bootstrap estimate
        of model uncertainty the acquisition functions consume.
        """
        preds = self.member_predictions(X)
        return preds.mean(axis=0), preds.std(axis=0)

    def _check_fitted(self) -> None:
        if not self.members_:
            raise NotFittedError("WaveletPredictorEnsemble used before fit")

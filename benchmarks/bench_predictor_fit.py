"""Bench: the level-wise tree grower and the feature-major design matrix.

Every wavelet predictor fits one regression tree per retained
coefficient.  The grower sorts ``X`` once, and at each level scores
every candidate split of every open node, across every tree grown
together, in a few vectorized prefix-sum passes.  This bench pins it on
the 16 trees of one paper-scale predictor (gcc, cpi, 200 training
configurations x 9 parameters), against a reference builder that
re-sorts and re-scans each feature at each node, one tree at a time:

* ``tree_speedup``: the 16 trees fitted one by one with
  ``RegressionTree.fit`` must be **>= 2x** faster than the reference;
* ``forest_speedup``: the 16 trees grown together in one
  ``RegressionTree.fit_columns`` call, as ``WaveletNeuralPredictor.fit``
  grows them, must be **>= 4x** faster than the reference;
* every split record and every node of every tree, on both paths, must
  be **byte-identical** to the reference and to the trees inside the
  fitted predictor.  The reference (shared with
  ``tests/test_regression_tree.py``) keeps its own node objects and
  ``np.mean`` / ``np.sum`` node statistics, so the grower's node table
  and leaner sums are checked against code they do not share.

Recorded, not gated: the size of the 16 node tables (``n_nodes`` and
``table_bytes``) and ``network_fit_seconds``, the median time of one
paper-scale ``RBFNetwork.fit_columns`` (trees plus weights), the fit a
``WaveletNeuralPredictor`` makes per (benchmark, domain).

It then times a 4,096-candidate ``predict`` of that predictor, the size
of one ``PredictiveExplorer.search``, against the same predict built on
the broadcast ``(rows, m, d)`` design-matrix formula:

* ``predict_bit_identical``: the predicted traces must be
  **byte-identical**;
* ``predict_speedup`` is recorded, not gated.

Each speedup is the median ratio of ``PAIRS`` back-to-back
reference/new pairs, the order alternating from pair to pair, so host
drift, which moves both halves of a pair together, cannot decide a gate.

Results land in ``BENCH_predictor_fit.json`` (uploaded as a CI artifact).
"""

import json
import statistics
import time

import numpy as np

from repro.core.predictor import WaveletNeuralPredictor
from repro.core.rbf import DESIGN_BLOCK_ROWS, RBFNetwork
from repro.core.regression_tree import RegressionTree
from repro.core.wavelets import dwt_batch, idwt_batch
from repro.engine import create_engine
from repro.experiments.context import ExperimentContext, Scale
from tests.test_regression_tree import _fingerprint, _ReferenceTree

BENCHMARK = "gcc"
DOMAIN = "cpi"
PAIRS = 7
MIN_SPEEDUP = 2.0
MIN_FOREST_SPEEDUP = 4.0
N_CANDIDATES = 4096


def _reference_design_matrix(X, centers, radii):
    """The broadcast formula: a ``(rows, m, d)`` tensor summed over ``d``."""
    out = np.empty((X.shape[0], centers.shape[0]))
    for start in range(0, X.shape[0], DESIGN_BLOCK_ROWS):
        stop = start + DESIGN_BLOCK_ROWS
        z = (X[start:stop, None, :] - centers[None, :, :]) / radii[None, :, :]
        np.exp(-np.sum(z * z, axis=2), out=out[start:stop])
    return out


def _reference_predict(model, X):
    """``model.predict(X)`` with every network on the broadcast formula."""
    coeffs = np.zeros((X.shape[0], model.n_samples_))
    for idx, net in model.models_.items():
        phi = np.hstack([_reference_design_matrix(X, net.centers_,
                                                  net.radii_),
                         np.ones((X.shape[0], 1))])
        coeffs[:, idx] = ((phi @ net.weights_ + net.bias_)
                          * model._target_scale[idx]
                          + model._target_mean[idx])
    s = model.settings
    return idwt_batch(coeffs, wavelet=s.wavelet, convention=s.convention)


def _paper_scale_predictor():
    """The experiment context, and ``X``, traces and fitted predictor of
    one paper-scale (benchmark, domain)."""
    ctx = ExperimentContext(scale=Scale.paper(), engine=create_engine())
    train, _ = ctx.dataset(BENCHMARK)
    X = train.design_matrix()
    traces = train.domain(DOMAIN)
    model = WaveletNeuralPredictor(
        n_coefficients=ctx.scale.n_coefficients).fit(X, traces)
    return ctx, X, traces, model


def _paper_scale_targets(X, traces, model):
    """The 16 standardized coefficient targets of ``model``."""
    s = model.settings
    coeffs = dwt_batch(traces, wavelet=s.wavelet, convention=s.convention)
    targets = [(coeffs[:, idx] - model._target_mean[idx])
               / model._target_scale[idx] for idx in model.models_]
    fitted = [net.tree_ for net in model.models_.values()]
    return targets, fitted, dict(max_depth=s.rbf_max_depth,
                                 min_samples_leaf=s.rbf_min_samples_leaf)


def _seconds(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _paired_times(pairs, reference, new):
    """``(reference_s, new_s)`` of ``pairs`` back-to-back runs, the run
    order alternating from pair to pair."""
    times = []
    for index in range(pairs):
        if index % 2:
            new_s = _seconds(new)
            reference_s = _seconds(reference)
        else:
            reference_s = _seconds(reference)
            new_s = _seconds(new)
        times.append((reference_s, new_s))
    return times


def _median_ratio(times):
    """Median pair ratio, median reference and median new seconds."""
    return (statistics.median(ref / new for ref, new in times),
            statistics.median(ref for ref, _ in times),
            statistics.median(new for _, new in times))


def _network_fit_seconds(X, Y, model):
    """Median seconds of one ``RBFNetwork.fit_columns`` on the 16
    targets, with ``model``'s network settings."""
    s = model.settings
    network = RBFNetwork(max_depth=s.rbf_max_depth,
                         min_samples_leaf=s.rbf_min_samples_leaf,
                         radius_scale=s.rbf_radius_scale, solver=s.rbf_solver)
    network.fit_columns(X, Y)  # warm
    return statistics.median(_seconds(lambda: network.fit_columns(X, Y))
                             for _ in range(PAIRS))


def _predict_timing(ctx, model):
    """Paired timings and bit identity of a 4,096-candidate predict."""
    candidates = ctx.space.sample_random(N_CANDIDATES, split="train", seed=0)
    Xq = ctx.space.encode_many(candidates)
    model.predict(Xq)
    _reference_predict(model, Xq)  # warm both paths
    times = _paired_times(PAIRS, lambda: _reference_predict(model, Xq),
                          lambda: model.predict(Xq))
    identical = (model.predict(Xq).tobytes()
                 == _reference_predict(model, Xq).tobytes())
    return times, identical


def test_grown_trees_fast_and_bit_identical():
    ctx, X, traces, model = _paper_scale_predictor()
    targets, fitted, params = _paper_scale_targets(X, traces, model)
    Y = np.column_stack(targets)

    def fit_all(cls):
        return [cls(**params).fit(X, y) for y in targets]

    def grow_all():
        return RegressionTree(**params).fit_columns(X, Y)

    def reference():
        return fit_all(_ReferenceTree)

    fit_all(RegressionTree)
    grow_all()
    reference()  # warm every path
    tree_times = _paired_times(PAIRS, reference,
                               lambda: fit_all(RegressionTree))
    forest_times = _paired_times(PAIRS, reference, grow_all)
    speedup, reference_s, single_s = _median_ratio(tree_times)
    forest_speedup, forest_reference_s, forest_s = _median_ratio(forest_times)

    ref = [_fingerprint(t) for t in reference()]
    single = [_fingerprint(t) for t in fit_all(RegressionTree)]
    grown = [_fingerprint(t) for t in grow_all()]
    in_model = [_fingerprint(t) for t in fitted]
    identical = single == grown == ref == in_model
    n_nodes = sum(tree.n_nodes for tree in fitted)
    table_bytes = sum(column.nbytes for tree in fitted
                      for column in tree.table)
    network_fit_s = _network_fit_seconds(X, Y, model)
    predict_times, predict_identical = _predict_timing(ctx, model)
    predict_speedup, predict_reference_s, predict_s = _median_ratio(
        predict_times)

    record = {
        "bench": "predictor_fit",
        "benchmark": BENCHMARK,
        "domain": DOMAIN,
        "n_train": int(X.shape[0]),
        "n_features": int(X.shape[1]),
        "n_trees": len(targets),
        "n_nodes": n_nodes,
        "table_bytes": table_bytes,
        "network_fit_seconds": round(network_fit_s, 4),
        "pairs": PAIRS,
        "reference_seconds": round(reference_s, 4),
        "tree_seconds": round(single_s, 4),
        "pair_speedups": [round(ref / new, 2) for ref, new in tree_times],
        "tree_speedup": round(speedup, 2),
        "min_speedup": MIN_SPEEDUP,
        "forest_reference_seconds": round(forest_reference_s, 4),
        "forest_seconds": round(forest_s, 4),
        "forest_pair_speedups": [round(ref / new, 2)
                                 for ref, new in forest_times],
        "forest_speedup": round(forest_speedup, 2),
        "min_forest_speedup": MIN_FOREST_SPEEDUP,
        "trees_bit_identical": identical,
        "predict_rows": N_CANDIDATES,
        "predict_reference_seconds": round(predict_reference_s, 4),
        "predict_seconds": round(predict_s, 4),
        "predict_pair_speedups": [round(ref / new, 2)
                                  for ref, new in predict_times],
        "predict_speedup": round(predict_speedup, 2),
        "predict_bit_identical": predict_identical,
    }
    with open("BENCH_predictor_fit.json", "w") as handle:
        json.dump(record, handle, indent=2)

    print()
    print(f"predictor_fit: {BENCHMARK}/{DOMAIN}, {len(targets)} trees on "
          f"{X.shape[0]}x{X.shape[1]}, {n_nodes} nodes (medians of {PAIRS} "
          f"interleaved pairs)")
    print(f"  per-feature scan : {reference_s * 1e3:8.1f} ms")
    print(f"  one at a time    : {single_s * 1e3:8.1f} ms ({speedup:.2f}x)")
    print(f"  grown together   : {forest_s * 1e3:8.1f} ms "
          f"({forest_speedup:.2f}x vs {forest_reference_s * 1e3:.1f} ms)")
    print(f"  bit-identical    : {identical}")
    print(f"  node tables      : {n_nodes} nodes, {table_bytes} bytes")
    print(f"  network fit      : {network_fit_s * 1e3:8.1f} ms "
          f"(trees plus weights, not gated)")
    print(f"predict: {N_CANDIDATES} candidates, {len(model.models_)} networks")
    print(f"  broadcast formula: {predict_reference_s * 1e3:8.1f} ms")
    print(f"  feature-major    : {predict_s * 1e3:8.1f} ms "
          f"({predict_speedup:.2f}x)")
    print(f"  bit-identical    : {predict_identical}")

    assert identical, "grown trees drifted from the per-feature reference"
    assert predict_identical, (
        "feature-major predict drifted from the broadcast formula")
    assert speedup >= MIN_SPEEDUP, (
        f"one-tree fit speedup {speedup:.2f}x fell below the pinned "
        f"{MIN_SPEEDUP:.1f}x floor (median pair ratio; {reference_s:.3f}s "
        f"reference vs {single_s:.3f}s)"
    )
    assert forest_speedup >= MIN_FOREST_SPEEDUP, (
        f"grown-together speedup {forest_speedup:.2f}x fell below the "
        f"pinned {MIN_FOREST_SPEEDUP:.1f}x floor (median pair ratio; "
        f"{forest_reference_s:.3f}s reference vs {forest_s:.3f}s)"
    )

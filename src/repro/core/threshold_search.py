"""Algorithm 1: greedy layer-by-layer threshold search (§3.1).

For each intermediate layer L, in order:

1. run the network on the training set with all *earlier* layers already
   quantized, record layer L's outputs;
2. re-scale layer L's weights by the maximum of those outputs, so they lie
   in [0, 1] (weight re-scaling);
3. brute-force search the threshold in ``[thres_min, thres_max]`` with
   step ``search_step`` (the paper searches 0..0.1 — the optimum is always
   far below 0.1 because of the long-tail data distribution); each
   candidate is scored by feeding the training set forward with layer L
   binarized at the candidate and all deeper layers still float, keeping
   the candidate with the best classification accuracy.

Implementation notes
--------------------
* The paper's pseudo-code never updates ``Accuracy_max`` inside the loop
  (an obvious typo); we update it, otherwise the algorithm would keep the
  *last* candidate rather than the best.
* The expensive part is re-running the tail of the network for every
  candidate.  We cache the pre-binarization activations of layer L once,
  so each candidate costs only ``tail_forward``.
* ``SearchConfig.engine`` selects the scoring implementation.  The
  default ``'fused'`` engine exploits that binarization commutes with
  every layer between the searched layer and the next weighted one
  (ReLU acts on 0/1 data, max pooling is an OR, im2col is a gather):
  those layers run *once* on the analog activations.  Each activation
  is then ranked: its level is the number of candidates strictly below
  it, so it fires at candidate ``k`` iff ``k < level``.  The scan walks
  the ~41 candidates in ascending order per cache-sized sample block
  and recomputes the next weighted layer only for the rows whose bits a
  candidate switches (rows holding a ``level == k``); on network2 that
  is about one row product in nine, since most activations are zero or
  far above the grid.  Scores stay identical: a rescored row is a fresh
  dot product of the same 0/1 row the reference multiplies, an
  unswitched row keeps its bits and hence its product, and a score is
  an integer count divided by the sample count, exactly the reference's
  boolean mean.  (BLAS may round a row's sum differently in the last
  place for calls of different shapes, as it already may between the
  reference's batches and any stacked matmul; argmax predictions absorb
  that, and the equivalence tests pin the curves.)  A prefix-activation
  cache stores the binary boundary activations seen during collection,
  so deeper layers and refinement passes resume mid-network instead of
  re-running the whole prefix, and refinement passes whose inputs are
  unchanged return memoized curves.
  ``'reference'`` is the pre-fusion per-candidate loop, retained verbatim
  (including the window-materialising argmax pooling the forward pass
  used) as the equivalence oracle and the perf-benchmark baseline.  Both
  engines produce identical thresholds, scores and search curves.
* Besides the paper's accuracy criterion we provide the cheaper
  "quantization error" criterion the related-work section alludes to
  (direct robust searching minimising the reconstruction error); the
  ablation benchmark compares both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import QuantizationError
from repro.core.binarized import (
    BinarizedNetwork,
    binarize,
    intermediate_quantizable_indices,
)
from repro.core.rescale import rescale_layer
from repro.nn import functional as F
from repro.nn.layers import Conv2D, Dense, Flatten, Layer, MaxPool2D, ReLU
from repro.nn.losses import accuracy
from repro.nn.network import Sequential

__all__ = ["SearchConfig", "SearchResult", "search_thresholds"]

#: Comparison-space elements per sample block of the fused scan: a
#: block's selection levels, entry products and tail activations stay
#: cache-resident while every candidate is scored on it.
_SCAN_BLOCK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of Algorithm 1."""

    #: The paper searches [0, 0.1] (its optimum is always << 0.1 thanks to
    #: the extreme CaffeNet/MNIST long tail).  Our synthetic task's optima
    #: land slightly above 0.1, so the default upper bound is 0.2; the
    #: ablation benchmark compares both ranges.
    thres_min: float = 0.0
    thres_max: float = 0.2
    search_step: float = 0.005
    #: 'accuracy' = the paper's Algorithm 1; 'qerror' = minimise the mean
    #: squared error between the layer output and its 1-bit reconstruction.
    criterion: str = "accuracy"
    #: Extra coordinate-descent passes after the greedy sweep: each pass
    #: re-searches every layer's threshold with all *other* thresholds
    #: fixed (deeper layers now quantized too).  The paper's algorithm is
    #: single-pass greedy (0); refinement helps deeper networks where the
    #: greedy error compounds (see the deep-network example/ablation).
    refine_passes: int = 0
    batch_size: int = 256
    #: 'fused' scores the candidates in ascending order, rescoring only
    #: the rows each one switches, and caches prefix activations across
    #: layers/passes; 'reference' is the retained pre-fusion
    #: per-candidate loop.  Results are identical.
    engine: str = "fused"

    def candidates(self) -> np.ndarray:
        """The threshold grid, inclusive of both ends."""
        if self.search_step <= 0:
            raise QuantizationError(
                f"search step must be positive, got {self.search_step}"
            )
        if self.thres_max < self.thres_min:
            raise QuantizationError(
                f"empty search range [{self.thres_min}, {self.thres_max}]"
            )
        count = int(round((self.thres_max - self.thres_min) / self.search_step))
        return self.thres_min + self.search_step * np.arange(count + 1)

    def __post_init__(self) -> None:
        if self.criterion not in ("accuracy", "qerror"):
            raise QuantizationError(
                f"criterion must be 'accuracy' or 'qerror', "
                f"got {self.criterion!r}"
            )
        if self.refine_passes < 0:
            raise QuantizationError(
                f"refine_passes must be >= 0, got {self.refine_passes}"
            )
        if self.engine not in ("fused", "reference"):
            raise QuantizationError(
                f"engine must be 'fused' or 'reference', got {self.engine!r}"
            )


@dataclass
class SearchResult:
    """Outcome of the greedy search."""

    #: The re-scaled network (a copy; the input network is untouched).
    network: Sequential
    #: Chosen threshold per intermediate weighted-layer index.
    thresholds: Dict[int, float]
    #: Re-scaling divisor applied per layer index.
    divisors: Dict[int, float]
    #: Training accuracy achieved at each layer's chosen threshold.
    layer_accuracy: Dict[int, float] = field(default_factory=dict)
    #: Full (threshold -> score) curves for analysis / plotting.
    search_curves: Dict[int, Dict[float, float]] = field(default_factory=dict)

    def binarized(self, input_bits: Optional[int] = 8) -> BinarizedNetwork:
        """The quantized network ready for inference."""
        return BinarizedNetwork(
            self.network, dict(self.thresholds), input_bits=input_bits
        )


def search_thresholds(
    network: Sequential,
    images: np.ndarray,
    labels: np.ndarray,
    config: Optional[SearchConfig] = None,
) -> SearchResult:
    """Run Algorithm 1 on a trained network.

    Parameters
    ----------
    network:
        Trained float network (copied, not mutated).
    images, labels:
        The *training* set (the paper explicitly optimises thresholds on
        the training samples and reports error on the held-out test set).
    """
    config = config if config is not None else SearchConfig()
    candidates = config.candidates()
    net = network.copy()
    targets = intermediate_quantizable_indices(net)
    fused = config.engine == "fused"
    prefix_cache = _PrefixCache() if fused else None
    refine_memo: Dict[tuple, Tuple[float, float, Dict[float, float]]] = {}

    thresholds: Dict[int, float] = {}
    divisors: Dict[int, float] = {}
    layer_accuracy: Dict[int, float] = {}
    curves: Dict[int, Dict[float, float]] = {}

    with obs.span(
        "algorithm1.search",
        engine=config.engine,
        criterion=config.criterion,
        layers=len(targets),
        candidates=len(candidates),
        refine_passes=config.refine_passes,
        samples=len(images),
    ):
        for layer_index in targets:
            with obs.span("algorithm1.layer", index=layer_index) as layer_sp:
                # Step 1: outputs of layer L with earlier layers quantized.
                pre_acts = _collect_pre_activations(
                    net, images, thresholds, layer_index, config.batch_size,
                    cache=prefix_cache, engine=config.engine,
                )
                # Step 2: weight re-scaling so outputs lie in [0, 1].
                peak = float(pre_acts.max(initial=0.0))
                rescale_layer(net, layer_index, peak)
                divisors[layer_index] = peak
                pre_acts = pre_acts / peak

                # Step 3: brute-force threshold search (deeper layers
                # still float in the greedy phase: no thresholds yet).
                if config.criterion == "accuracy":
                    best_t, best_score, curve = _search_by_accuracy(
                        net,
                        pre_acts,
                        labels,
                        layer_index,
                        candidates,
                        config.batch_size,
                        thresholds,
                        engine=config.engine,
                    )
                else:
                    best_t, best_score, curve = _search_by_qerror(
                        pre_acts, candidates
                    )
                thresholds[layer_index] = best_t
                layer_accuracy[layer_index] = best_score
                curves[layer_index] = curve
                layer_sp.set("threshold", best_t)
                layer_sp.set("score", best_score)

        # Optional coordinate-descent refinement: re-search each threshold
        # with every other one held fixed (now including the deeper ones).
        # The weights are static from here on (re-scaling happened during
        # the greedy sweep), so a layer whose surrounding thresholds did
        # not change since its last refinement sees byte-identical inputs
        # — the fused engine memoizes those evaluations instead of
        # recomputing.
        for pass_index in range(config.refine_passes):
            with obs.span("algorithm1.refine", pass_index=pass_index):
                for layer_index in targets:
                    with obs.span(
                        "algorithm1.refine_layer", index=layer_index
                    ) as refine_sp:
                        others = {
                            k: v
                            for k, v in thresholds.items()
                            if k != layer_index
                        }
                        memo_key = (
                            layer_index, tuple(sorted(others.items()))
                        )
                        memo_hit = fused and memo_key in refine_memo
                        obs.count(
                            "search/refine_memo/hits"
                            if memo_hit
                            else "search/refine_memo/misses"
                        )
                        refine_sp.set("memo_hit", memo_hit)
                        if memo_hit:
                            best_t, best_score, curve = refine_memo[memo_key]
                        else:
                            # The weights are already re-scaled in place, so
                            # the collected activations are on the [0, 1]
                            # search scale.
                            pre_acts = _collect_pre_activations(
                                net, images, thresholds, layer_index,
                                config.batch_size,
                                cache=prefix_cache, engine=config.engine,
                            )
                            best_t, best_score, curve = _search_by_accuracy(
                                net,
                                pre_acts,
                                labels,
                                layer_index,
                                candidates,
                                config.batch_size,
                                others,
                                engine=config.engine,
                            )
                            if fused:
                                refine_memo[memo_key] = (
                                    best_t, best_score, curve
                                )
                        thresholds[layer_index] = best_t
                        layer_accuracy[layer_index] = best_score
                        curves[layer_index] = curve
                        refine_sp.set("threshold", best_t)

    return SearchResult(
        network=net,
        thresholds=thresholds,
        divisors=divisors,
        layer_accuracy=layer_accuracy,
        search_curves=curves,
    )


# -- prefix-activation cache ---------------------------------------------------


class _PrefixCache:
    """Binary boundary activations reused across collection passes.

    Collection runs the network prefix and binarizes every already-chosen
    layer on the way; those 0/1 boundary activations are exact (stored as
    uint8) and depend only on the thresholds applied up to the boundary.
    Later collections whose applied-threshold signature matches resume
    from the deepest stored boundary instead of re-running the prefix —
    deeper layers of the greedy sweep skip the shallow convolutions, and
    refinement passes skip everything that did not change.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[tuple, np.ndarray]] = {}

    @staticmethod
    def _signature(applied: Dict[int, float], boundary: int) -> tuple:
        return tuple(
            sorted((i, t) for i, t in applied.items() if i <= boundary)
        )

    def lookup(
        self, layer_index: int, applied: Dict[int, float]
    ) -> Optional[Tuple[int, np.ndarray]]:
        """Deepest stored boundary strictly before ``layer_index``."""
        best: Optional[Tuple[int, np.ndarray]] = None
        for boundary, (sig, bits) in self._entries.items():
            if boundary >= layer_index:
                continue
            if sig != self._signature(applied, boundary):
                continue
            if best is None or boundary > best[0]:
                best = (boundary, bits)
        return best

    def store(
        self, boundary: int, applied: Dict[int, float], bits: np.ndarray
    ) -> None:
        self._entries[boundary] = (self._signature(applied, boundary), bits)


# -- helpers ------------------------------------------------------------------


def _collect_pre_activations(
    net: Sequential,
    images: np.ndarray,
    thresholds: Dict[int, float],
    layer_index: int,
    batch_size: int,
    cache: Optional[_PrefixCache] = None,
    engine: str = "fused",
) -> np.ndarray:
    """Outputs of layer ``layer_index`` with earlier quantization applied.

    The target layer's own threshold (present during refinement passes)
    is deliberately *not* applied — the caller needs the raw
    pre-threshold activations to search over.  With a cache, the run
    resumes from the deepest stored binary boundary whose thresholds
    match (bit-exact: the boundary data is 0/1) and newly-seen
    boundaries are stored for the next collection.  The reference engine
    steps layers through :func:`_reference_layer_forward` so the
    collection pays the pre-fusion forward costs it always paid.
    """
    reference = engine == "reference"
    applied = {i: t for i, t in thresholds.items() if i != layer_index}
    start_index = 0
    source = images
    if cache is not None:
        hit = cache.lookup(layer_index, applied)
        obs.count(
            "search/prefix_cache/hits"
            if hit is not None
            else "search/prefix_cache/misses"
        )
        if hit is not None:
            boundary, bits = hit
            start_index = boundary + 1
            source = bits
    chunks = []
    boundary_chunks: Dict[int, List[np.ndarray]] = {}
    for start in range(0, len(source), batch_size):
        x = np.asarray(source[start : start + batch_size], dtype=np.float64)
        for index in range(start_index, layer_index + 1):
            if reference:
                x = _reference_layer_forward(net.layers[index], x)
            else:
                x = net.layers[index].forward(x)
            if index in applied:
                x = binarize(x, applied[index])
                if cache is not None and index < layer_index:
                    boundary_chunks.setdefault(index, []).append(
                        x.astype(np.uint8)
                    )
        chunks.append(x)
    if cache is not None:
        for index, parts in boundary_chunks.items():
            cache.store(index, applied, np.concatenate(parts, axis=0))
    return np.concatenate(chunks, axis=0)


def _tail_forward(
    net: Sequential,
    activations: np.ndarray,
    start_index: int,
    batch_size: int,
    thresholds: Dict[int, float],
) -> np.ndarray:
    """Run layers after ``start_index`` on cached activations, batched.

    Layers whose index appears in ``thresholds`` are binarized — empty
    during the greedy phase (deeper thresholds do not exist yet), filled
    during refinement passes.
    """
    outputs = []
    for start in range(0, len(activations), batch_size):
        x = activations[start : start + batch_size]
        for index in range(start_index + 1, len(net.layers)):
            x = net.layers[index].forward(x)
            if index in thresholds:
                x = binarize(x, thresholds[index])
        outputs.append(x)
    return np.concatenate(outputs, axis=0)


def _reference_layer_forward(layer: Layer, x: np.ndarray) -> np.ndarray:
    """One layer exactly as the pre-fusion engine executed it.

    Identical values to ``layer.forward``; max pooling goes through the
    window-materialising argmax variant the forward pass used before the
    inference fast path existed, so benchmark comparisons against the
    reference engine measure the true pre-fusion cost.
    """
    if isinstance(layer, MaxPool2D):
        out, _ = F.maxpool2d(x, layer.pool, layer.stride)
        return out
    return layer.forward(x)


def _search_by_accuracy(
    net: Sequential,
    pre_acts: np.ndarray,
    labels: np.ndarray,
    layer_index: int,
    candidates: np.ndarray,
    batch_size: int,
    other_thresholds: Dict[int, float],
    engine: str = "reference",
):
    tail_thresholds = {
        k: v for k, v in other_thresholds.items() if k > layer_index
    }
    obs.count("search/candidates_scored", len(candidates))
    if engine == "fused":
        plan = _plan_fused_scan(net, pre_acts, layer_index, candidates)
        if plan is not None:
            return _fused_accuracy_scan(
                net, plan, labels, candidates, tail_thresholds
            )

    # Retained pre-fusion loop: one full tail pass per candidate.
    best_t = float(candidates[0])
    best_score = -1.0
    curve: Dict[float, float] = {}
    for t in candidates:
        bits = binarize(pre_acts, float(t))
        outputs = []
        for start in range(0, len(bits), batch_size):
            x = bits[start : start + batch_size]
            for index in range(layer_index + 1, len(net.layers)):
                x = _reference_layer_forward(net.layers[index], x)
                if index in tail_thresholds:
                    x = binarize(x, tail_thresholds[index])
            outputs.append(x)
        logits = np.concatenate(outputs, axis=0)
        score = accuracy(logits, labels)
        curve[float(t)] = score
        if score > best_score:
            best_score = score
            best_t = float(t)
    return best_t, best_score, curve


# -- fused candidate scan ------------------------------------------------------


@dataclass
class _FusedScanPlan:
    """Precomputed state for scoring every candidate of one layer.

    ``levels`` holds, per element of the next weighted layer's input,
    how many candidates lie strictly below the analog value that reaches
    it: the activations are pushed through the monotone head (ReLU
    dropped — it acts on 0/1 data in the reference order; max pooling
    applied to the analog values — ``max > t`` equals ``OR(bits)``) and
    ranked against the ascending candidates, then Flatten/im2col gather
    the ranks (pure gathers commute with the comparison; im2col's zero
    padding is rank 0, a bit that never fires, as in the reference).
    The element fires at candidate ``k`` iff ``k < level``, so
    ``levels > k`` is exactly the 0/1 input the entry layer would see.
    """

    levels: np.ndarray         # (rows, features) candidate ranks
    entry: Layer               # the weighted layer consuming the bits
    entry_index: int
    samples: int
    conv_shape: Optional[Tuple[int, int]]  # (out_h, out_w) for Conv2D entry


def _plan_fused_scan(
    net: Sequential,
    pre_acts: np.ndarray,
    layer_index: int,
    candidates: np.ndarray,
) -> Optional[_FusedScanPlan]:
    """Reduce the tail head to flat candidate ranks, or None to fall back."""
    reduced = pre_acts
    index = layer_index + 1
    while index < len(net.layers):
        layer = net.layers[index]
        if isinstance(layer, ReLU):
            index += 1
        elif isinstance(layer, MaxPool2D):
            if reduced.ndim != 4:
                return None
            reduced = F.maxpool2d_forward(reduced, layer.pool, layer.stride)
            index += 1
        elif isinstance(layer, Flatten):
            reduced = reduced.reshape(reduced.shape[0], -1)
            index += 1
        else:
            break
    if index >= len(net.layers):
        return None
    entry = net.layers[index]
    samples = reduced.shape[0]
    # ``side="left"`` counts the candidates strictly below each value;
    # the dtype holds every rank 0..len(candidates).
    levels = np.searchsorted(candidates, reduced, side="left").astype(
        np.min_scalar_type(len(candidates))
    )
    if isinstance(entry, Dense):
        if levels.ndim != 2 or levels.shape[1] != entry.in_features:
            return None
        return _FusedScanPlan(levels, entry, index, samples, None)
    if isinstance(entry, Conv2D):
        if levels.ndim != 4:
            return None
        _, _, h, w = levels.shape
        out_h = F.conv_output_size(h, entry.kernel_size, entry.stride,
                                   entry.padding)
        out_w = F.conv_output_size(w, entry.kernel_size, entry.stride,
                                   entry.padding)
        cols = F.im2col(levels, entry.kernel_size, entry.kernel_size,
                        entry.stride, entry.padding)
        return _FusedScanPlan(cols, entry, index, samples, (out_h, out_w))
    return None


def _fused_accuracy_scan(
    net: Sequential,
    plan: _FusedScanPlan,
    labels: np.ndarray,
    candidates: np.ndarray,
    tail_thresholds: Dict[int, float],
):
    """Score all candidates, rescoring only the rows each one switches.

    Per sample block the candidates are walked in ascending order.  Every
    entry row is computed at the first candidate; at candidate ``k`` a
    row's selection bits differ from candidate ``k - 1``'s exactly where
    an element has ``level == k``, so only those rows get a fresh dot
    product of their new 0/1 row — the same row the full matmul would
    see — and every other row keeps its product.  A candidate that
    switches no row of the block keeps the previous candidate's count.
    """
    rows, features = plan.levels.shape
    count = len(candidates)
    weight = plan.entry.weight_matrix
    rows_per_sample = rows // plan.samples
    block = max(1, _SCAN_BLOCK_ELEMENTS // (rows_per_sample * features))
    correct = np.zeros(count, dtype=np.int64)
    rescored = 0

    for first in range(0, plan.samples, block):
        last = min(first + block, plan.samples)
        levels = plan.levels[first * rows_per_sample : last * rows_per_sample]
        block_rows = len(levels)
        block_labels = labels[first:last]
        # switched[k, r]: row r holds an element of level k.
        switched = np.zeros((count + 1, block_rows), dtype=bool)
        switched[levels, np.arange(block_rows)[:, None]] = True
        bits = np.empty((block_rows, features))
        np.greater(levels, 0, out=bits, casting="unsafe")
        product = bits @ weight
        rescored += block_rows
        for k in range(count):
            if k:
                changed = np.flatnonzero(switched[k])
                if len(changed) == 0:
                    correct[k] += hits
                    continue
                # ``bits`` is free after the first product: reuse it.
                sel = bits[: len(changed)]
                np.greater(levels[changed], k, out=sel, casting="unsafe")
                product[changed] = sel @ weight
                rescored += len(changed)
            logits = _fused_tail(
                net, plan, product, last - first, tail_thresholds
            )
            hits = int(np.count_nonzero(logits.argmax(axis=-1) == block_labels))
            correct[k] += hits

    obs.count("search/scan_rows", rows * count)
    obs.count("search/scan_rows_rescored", rescored)
    scores = correct / plan.samples
    best_idx = int(np.argmax(scores))
    curve = {
        float(t): float(s) for t, s in zip(candidates, scores)
    }
    return float(candidates[best_idx]), float(scores[best_idx]), curve


def _pool_nhwc(x: np.ndarray, pool: int, stride: int) -> np.ndarray:
    """Max pooling on channels-last ``(batch, h, w, c)`` data.

    Computed as an elementwise maximum over the ``pool * pool`` window
    offsets — no window materialisation, no layout change.  Values are
    exactly those of the channels-first pooling layers (the same floats
    win the same windows; trailing partial windows are dropped).
    """
    _, h, w, _ = x.shape
    out_h = F.conv_output_size(h, pool, stride, 0, allow_partial=True)
    out_w = F.conv_output_size(w, pool, stride, 0, allow_partial=True)
    span_h = (out_h - 1) * stride + 1
    span_w = (out_w - 1) * stride + 1
    out: Optional[np.ndarray] = None
    for di in range(pool):
        for dj in range(pool):
            window = x[:, di : di + span_h : stride, dj : dj + span_w : stride]
            if out is None:
                out = np.array(window)
            else:
                np.maximum(out, window, out=out)
    return out


def _fused_tail(
    net: Sequential,
    plan: _FusedScanPlan,
    product: np.ndarray,
    batch: int,
    tail_thresholds: Dict[int, float],
) -> np.ndarray:
    """Remaining tail on the entry layer's matmul output for ``batch`` samples.

    ``product`` is the entry matmul of the selection bits (rows in
    sample-major order); the rest of the entry layer's arithmetic
    replicates ``conv2d``/``Dense.forward`` operation-for-operation (same
    bias broadcast, same reshape), so fused logits match the reference
    loop's.

    When a ``[ReLU] -> MaxPool2D`` pattern follows a Conv2D entry, the
    pool runs *first*, directly on the channels-last matmul output, and
    everything downstream touches a ``pool^2``-times smaller array.  All
    the reorderings are bitwise exact:

    * ``pool(Y + b) == pool(Y) + b`` for a per-channel constant ``b``
      (the same element wins the window, shifted by the same float);
    * ``relu(pool(z)) == pool(relu(z))`` (both monotone);
    * ``binarize(pool(z), t) == pool(binarize(z, t))`` — a window's max
      exceeds ``t`` iff any element does (the OR-pooling identity), and
      ReLU on the resulting 0/1 bits is the identity.
    """
    entry = plan.entry
    if plan.conv_shape is not None:
        out_h, out_w = plan.conv_shape
        bias = entry.params.get("bias")
        nhwc = product.reshape(batch, out_h, out_w, entry.out_channels)

        # Detect the post-entry [ReLU] -> MaxPool2D pattern.
        index = plan.entry_index + 1
        has_relu = index < len(net.layers) and isinstance(
            net.layers[index], ReLU
        )
        if has_relu:
            index += 1
        pool_layer = (
            net.layers[index]
            if index < len(net.layers)
            and isinstance(net.layers[index], MaxPool2D)
            else None
        )

        if pool_layer is not None:
            x = _pool_nhwc(nhwc, pool_layer.pool, pool_layer.stride)
            if bias is not None:
                x = x + bias
            if plan.entry_index in tail_thresholds:
                # Reference order: conv -> binarize -> ReLU (identity on
                # bits) -> OR-pool; all commute with the pooled compare.
                x = binarize(x, tail_thresholds[plan.entry_index])
            elif has_relu:
                x = F.relu(x)
            x = np.ascontiguousarray(x.transpose(0, 3, 1, 2))
            resume = index + 1
        else:
            if bias is not None:
                nhwc = nhwc + bias
            x = np.ascontiguousarray(nhwc.transpose(0, 3, 1, 2))
            if plan.entry_index in tail_thresholds:
                x = binarize(x, tail_thresholds[plan.entry_index])
            resume = plan.entry_index + 1
    else:
        x = product
        if entry.use_bias:
            x = x + entry.params["bias"]
        if plan.entry_index in tail_thresholds:
            x = binarize(x, tail_thresholds[plan.entry_index])
        resume = plan.entry_index + 1
    for index in range(resume, len(net.layers)):
        x = net.layers[index].forward(x)
        if index in tail_thresholds:
            x = binarize(x, tail_thresholds[index])
    return x


def _search_by_qerror(pre_acts: np.ndarray, candidates: np.ndarray):
    """Threshold minimising the 1-bit reconstruction error.

    For threshold t the reconstruction is ``bit * s(t)`` with the optimal
    per-threshold scale ``s(t) = mean(acts[acts > t])``; the score reported
    in the curve is the negative MSE so that "higher is better" matches
    the accuracy criterion.
    """
    obs.count("search/candidates_scored", len(candidates))
    flat = pre_acts.ravel()
    best_t = float(candidates[0])
    best_mse = np.inf
    curve: Dict[float, float] = {}
    for t in candidates:
        above = flat > t
        scale = float(flat[above].mean()) if above.any() else 0.0
        recon = np.where(above, scale, 0.0)
        mse = float(np.mean((flat - recon) ** 2))
        curve[float(t)] = -mse
        if mse < best_mse:
            best_mse = mse
            best_t = float(t)
    return best_t, -best_mse, curve

"""Apply matrix-level hardware models to Conv2D / Dense layers.

The paper treats every weighted layer as a matrix-vector multiplication:
FC layers natively, Conv layers through the im2col view (each output
position is one MVM against the ``(S*S*I, kernels)`` weight matrix).  The
hardware structures (SEI, splitting, the DAC+ADC baseline) are therefore
defined on matrices; every one of them is lowered to a
:class:`LayerKernel` and plugged into
:class:`repro.core.binarized.BinarizedNetwork` through the one
:func:`layer_compute`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.nn import functional as F
from repro.nn.layers import Conv2D, Dense, Layer
from repro.obs.power import record_layer

__all__ = [
    "Scratch",
    "RowPlan",
    "Tally",
    "LayerKernel",
    "binary_inputs",
    "layer_compute",
    "fold_rows",
    "ensure_binary",
    "layer_weight_matrix",
    "layer_bias",
]


def ensure_binary(bits: np.ndarray, what: str = "inputs") -> None:
    """Reject arrays containing anything but 0/1 selection signals.

    A single vectorized comparison pass — unlike ``np.unique`` this never
    sorts, so validating a whole inference batch stays O(n) with a tiny
    constant and does not dominate the fused crossbar matmuls.
    """
    if bits.size and bool(((bits != 0.0) & (bits != 1.0)).any()):
        raise ShapeError(f"{what} must be 0/1 selection signals")


def layer_weight_matrix(layer: Layer) -> np.ndarray:
    """The ``(rows, cols)`` crossbar image of a weighted layer."""
    if isinstance(layer, (Conv2D, Dense)):
        return layer.weight_matrix
    raise ShapeError(
        f"layer {type(layer).__name__} has no weight matrix"
    )


def layer_bias(layer: Layer) -> np.ndarray:
    """Bias vector of a weighted layer (zeros when the layer has none)."""
    if not isinstance(layer, (Conv2D, Dense)):
        raise ShapeError(f"layer {type(layer).__name__} has no bias")
    bias = layer.params.get("bias")
    if bias is None:
        cols = layer.weight_matrix.shape[1]
        return np.zeros(cols)
    return bias


def fold_rows(
    layer: Layer, in_shape: Tuple[int, ...], rows: np.ndarray
) -> np.ndarray:
    """View flat ``(positions, cols)`` outputs as the layer's output.

    ``in_shape`` is the shape of the layer's input batch.  Dense outputs
    are returned as-is; Conv2D outputs become the transposed
    ``(n, cols, out_h, out_w)`` view of ``rows``.
    """
    if isinstance(layer, Conv2D):
        n, _, h, w = in_shape
        kernel = layer.kernel_size
        out_h = F.conv_output_size(h, kernel, layer.stride, layer.padding)
        out_w = F.conv_output_size(w, kernel, layer.stride, layer.padding)
        return rows.reshape(n, out_h, out_w, rows.shape[1]).transpose(
            0, 3, 1, 2
        )
    return rows


class Scratch:
    """Reusable temporaries of one compiled kernel, keyed by name.

    Large per-call arrays (gathered receptive fields, block sums,
    integer accumulators) otherwise bounce through the allocator's mmap
    path and re-fault every page on each batch.  Each thread gets its
    own buffers (one compiled network may serve several threads, e.g.
    gateway shards sharing a session), and a buffer only grows: it holds
    the bytes of the largest request that thread has made under its key.
    A returned array is valid until the same thread asks for the same
    key again.
    """

    def __init__(self) -> None:
        self._local = threading.local()

    def get(self, key: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        bufs: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = getattr(
            self._local, "bufs", None
        )
        if bufs is None:
            bufs = self._local.bufs = {}
        shape, dtype = tuple(shape), np.dtype(dtype)
        raw, view = bufs.get(key, (None, None))
        if view is not None and view.shape == shape and view.dtype == dtype:
            return view
        nbytes = math.prod(shape) * dtype.itemsize
        if raw is None or raw.size < nbytes:
            raw = np.empty(nbytes, np.uint8)
        view = raw[:nbytes].view(dtype).reshape(shape)
        bufs[key] = (raw, view)
        return view


class RowPlan:
    """Compiled row gather of one weighted layer: unfold + block layout.

    For each input shape the plan holds one ``np.intp`` index that
    combines the im2col unfold of a Conv2D layer (zero padding points at
    a zero sentinel column appended to the flattened input) with a
    padded block gather ``groups`` of shape ``(K, H)`` over the layer's
    matrix rows (entries equal to the row count are padding and also
    point at the sentinel).  :meth:`gather` then writes the whole
    ``(positions, K, H)`` layout — ``split._gathered(F.im2col(x))`` — in
    one ``np.take``.  Without ``groups`` the layout is the plain
    ``(positions, rows)`` im2col matrix (for a Dense layer, the input
    itself).  The gathered rows have the plan's ``dtype``: float64 for
    the float kernels (a uint8 0/1 input plane widens exactly), uint8
    bit or code planes for the fused engine's firing kernels.
    """

    def __init__(
        self, groups: Optional[np.ndarray] = None, dtype=np.float64
    ) -> None:
        self.groups = (
            None if groups is None else np.asarray(groups, dtype=np.intp)
        )
        self.dtype = np.dtype(dtype)
        self._index: Dict[Tuple[int, ...], np.ndarray] = {}

    def _compile(self, layer: Layer, in_shape: Tuple[int, ...]) -> np.ndarray:
        """The ``(P, K, H)`` (or ``(P, rows)``) gather index for one input
        shape, into the flattened sample plus the sentinel column."""
        sentinel = int(np.prod(in_shape, dtype=np.int64))
        if isinstance(layer, Dense):
            if in_shape != (layer.in_features,):
                raise ShapeError(
                    f"Dense hardware compute expects "
                    f"(n, {layer.in_features}), got (n, {in_shape})"
                )
            unfold = np.arange(sentinel, dtype=np.intp)[None, :]
        elif isinstance(layer, Conv2D):
            if len(in_shape) != 3:
                raise ShapeError(
                    "Conv2D hardware compute expects (n, c, h, w), got "
                    f"(n, {in_shape})"
                )
            c, h, w = in_shape
            pad = layer.padding
            # An index image with the zero padding pointing at the
            # sentinel, unfolded by im2col itself: the plan inherits its
            # exact receptive-field ordering.
            image = np.full(
                (1, c, h + 2 * pad, w + 2 * pad), sentinel, np.intp
            )
            image[0, :, pad : pad + h, pad : pad + w] = np.arange(
                sentinel, dtype=np.intp
            ).reshape(c, h, w)
            kernel = layer.kernel_size
            unfold = F.im2col(image, kernel, kernel, layer.stride, 0)
        else:
            raise ShapeError(
                f"cannot apply a matrix compute to {type(layer).__name__}"
            )
        rows = layer_weight_matrix(layer).shape[0]
        if unfold.shape[1] != rows:
            raise ShapeError(
                f"input shape {in_shape} unfolds to {unfold.shape[1]} rows, "
                f"the layer's matrix has {rows}"
            )
        if self.groups is None:
            return np.ascontiguousarray(unfold)
        padded = np.concatenate(
            [unfold, np.full((unfold.shape[0], 1), sentinel, np.intp)], axis=1
        )
        return np.ascontiguousarray(padded[:, self.groups])

    def gather(
        self, layer: Layer, x: np.ndarray, scratch: Scratch
    ) -> np.ndarray:
        """The row layout of ``x`` in ``scratch``: ``(n·P, K, H)`` with
        groups, else ``(n·P, rows)``."""
        n = x.shape[0]
        index = self._index.get(x.shape[1:])
        if index is None:
            index = self._index[x.shape[1:]] = self._compile(
                layer, x.shape[1:]
            )
        if self.groups is None and isinstance(layer, Dense):
            # A Dense layer's rows are its input: nothing to gather.
            return np.ascontiguousarray(x, dtype=self.dtype)
        width = int(np.prod(x.shape[1:]))
        src = scratch.get("plan_src", (n, width + 1), self.dtype)
        src[:, :width] = x.reshape(n, width)
        src[:, -1] = 0
        out = scratch.get("plan_rows", (n,) + index.shape, self.dtype)
        # mode="clip" (every index is in range) lets np.take write
        # straight into ``out``; the default mode buffers it.
        np.take(src, index, axis=1, out=out, mode="clip")
        return out.reshape((n * index.shape[0],) + index.shape[1:])


class Tally(NamedTuple):
    """What one kernel call did, for the read clocks and the recorder.

    ``active`` is the per-position active-row counts, or a callable
    producing them (evaluated only while a recorder is on); ``skip`` is
    an estimated layer's :class:`repro.core.estimate.SkipStats`, or a
    callable producing ``(SkipStats, sa_events)`` on the same terms.
    ``reads`` is the read events per device array of the kernel;
    ``None`` means every array read every position.
    """

    active: Any
    sa_events: Optional[int] = None
    skip: Any = None
    reads: Optional[Sequence[int]] = None


@dataclass
class LayerKernel:
    """One engine's lowering of one weighted layer.

    ``run`` maps the planned rows to the flat ``(positions, cols)``
    output and a :class:`Tally`.  ``prepare`` validates or quantizes
    the compact input before the gather, ``arrays`` are the device
    arrays whose read clocks the compute advances, ``meter`` holds the
    layer's static recorder fields (``rows``, ``cols``, ``blocks``,
    ``cells_per_weight``, ...), and ``bias`` is added to the output
    unless the kernel folds it (``None``).  ``prebinarized`` marks a
    kernel whose output is its layer's 0/1 plane (every thresholded
    layer of the fused engine, whose :func:`repro.core.integer_gemm.
    firing_kernel` decides, and a split layer votes, inside ``run``).
    """

    run: Callable[[np.ndarray], Tuple[np.ndarray, Tally]]
    plan: RowPlan
    prepare: Callable[[np.ndarray], np.ndarray]
    meter: Dict[str, Any]
    arrays: Sequence[Any] = ()
    bias: Optional[np.ndarray] = None
    prebinarized: bool = False
    scratch: Scratch = field(default_factory=Scratch)


def binary_inputs(what: str) -> Callable[[np.ndarray], np.ndarray]:
    """A ``prepare`` step that validates 0/1 selection signals."""

    def prepare(x: np.ndarray) -> np.ndarray:
        # One pass on the compact input beats re-checking the unfolded
        # receptive fields.
        ensure_binary(x, what)
        return x

    return prepare


def layer_compute(index: Optional[int], kernel: LayerKernel):
    """The one layer compute every crossbar model runs.

    validate → :meth:`RowPlan.gather` → kernel → ``note_reads`` →
    record (:func:`repro.obs.power.record_layer`) → bias →
    :func:`fold_rows`.  The engines (and the software hooks of
    :mod:`repro.core.sei`, :mod:`repro.core.dynamic_threshold` and
    :mod:`repro.core.splitting`) differ only in the :class:`LayerKernel`
    they lower each layer to.  ``index=None`` records nothing.
    """
    plan, run, arrays = kernel.plan, kernel.run, kernel.arrays

    def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
        x = kernel.prepare(x)
        rows = plan.gather(layer, x, kernel.scratch)
        out, tally = run(rows)
        reads = tally.reads
        for k, array in enumerate(arrays):
            array.note_reads(rows.shape[0] if reads is None else reads[k])
        record_layer(
            index,
            tally.active,
            sa_events=tally.sa_events,
            skip=tally.skip,
            **kernel.meter,
        )
        if kernel.bias is not None:
            out += kernel.bias
        return fold_rows(layer, x.shape, out)

    compute.prebinarized = kernel.prebinarized
    return compute

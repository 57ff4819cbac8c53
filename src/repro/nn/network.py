"""The :class:`Sequential` network container.

A network is an ordered list of layers.  Besides the usual forward /
backward plumbing, :class:`Sequential` offers the inspection hooks the
paper's quantization pipeline needs:

* ``forward_collect`` returns every intermediate activation so the
  threshold-search algorithm can analyse per-layer data distributions;
* ``quantizable_indices`` enumerates layers whose outputs are intermediate
  data in the paper's sense (Conv2D / Dense outputs, before the non-linear
  neuron), i.e. the points where 1-bit quantization is applied;
* ``save`` / ``load`` persist weights to ``.npz`` so expensive training is
  done once and reused by tests and benchmarks.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.layers import Conv2D, Dense, Flatten, Layer, MaxPool2D, ReLU

__all__ = ["Sequential"]


class Sequential:
    """An ordered feed-forward stack of layers."""

    def __init__(self, layers: Sequence[Layer], input_shape: Tuple[int, ...]):
        if not layers:
            raise ConfigurationError("a network needs at least one layer")
        self.layers: List[Layer] = list(layers)
        self.input_shape = tuple(input_shape)
        # Validate shape compatibility eagerly so misconfiguration fails at
        # construction time, not deep inside a training loop.
        shape = self.input_shape
        self._shapes: List[Tuple[int, ...]] = [shape]
        for layer in self.layers:
            shape = layer.output_shape(shape)
            self._shapes.append(shape)

    # -- basic execution -----------------------------------------------------
    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Run the network; returns the final logits."""
        self._check_input(x)
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Back-propagate a gradient through every layer (after forward)."""
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Memory-bounded inference; returns logits for all samples."""
        outputs = []
        for start in range(0, len(x), batch_size):
            outputs.append(self.forward(x[start : start + batch_size]))
        return np.concatenate(outputs, axis=0)

    def forward_collect(self, x: np.ndarray) -> List[np.ndarray]:
        """Forward pass that returns the output of *every* layer.

        ``result[i]`` is the output of ``self.layers[i]``.  Used by the
        data-distribution analysis (Table 1) and threshold search.
        """
        self._check_input(x)
        activations = []
        for layer in self.layers:
            x = layer.forward(x)
            activations.append(x)
        return activations

    # -- structure inspection --------------------------------------------------
    def quantizable_indices(self) -> List[int]:
        """Indices of layers whose outputs are quantizable intermediate data."""
        return [i for i, l in enumerate(self.layers) if l.quantizable]

    def shape_at(self, index: int) -> Tuple[int, ...]:
        """Output shape (excluding batch) of layer ``index``."""
        return self._shapes[index + 1]

    def parameter_groups(self) -> List[Tuple[Dict, Dict]]:
        """(params, grads) pairs for the optimiser."""
        return [(l.params, l.grads) for l in self.layers if l.params]

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    @property
    def num_params(self) -> int:
        return sum(layer.num_params for layer in self.layers)

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    # -- persistence -----------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat name->array mapping of every parameter."""
        state = {}
        for i, layer in enumerate(self.layers):
            for name, value in layer.params.items():
                state[f"layer{i}.{name}"] = value
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for i, layer in enumerate(self.layers):
            for name in layer.params:
                key = f"layer{i}.{name}"
                if key not in state:
                    raise ConfigurationError(f"state dict missing {key!r}")
                if state[key].shape != layer.params[name].shape:
                    raise ShapeError(
                        f"{key}: expected shape {layer.params[name].shape}, "
                        f"got {state[key].shape}"
                    )
                layer.params[name] = np.array(state[key], dtype=np.float64)

    def save(self, path: str | Path) -> None:
        """Save all parameters to an ``.npz`` file (atomically).

        The archive is written to a sibling temp file and moved into
        place, so an interrupted save never leaves a truncated (corrupt)
        artifact behind for later loads to trip over.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "wb") as handle:
                np.savez(handle, **self.state_dict())
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()

    def load(self, path: str | Path) -> None:
        """Load parameters saved by :meth:`save`."""
        with np.load(Path(path)) as data:
            self.load_state_dict({k: data[k] for k in data.files})

    def copy(self) -> "Sequential":
        """Deep copy: same architecture, duplicated parameters.

        The paper's pipeline mutates weights (re-scaling) and we never want
        that to corrupt the original trained model.
        """
        clone = Sequential(_clone_layers(self.layers), self.input_shape)
        clone.load_state_dict(
            {k: v.copy() for k, v in self.state_dict().items()}
        )
        return clone

    # -- internals ---------------------------------------------------------------
    def _check_input(self, x: np.ndarray) -> None:
        if x.shape[1:] != self.input_shape:
            raise ShapeError(
                f"network expects input shape {self.input_shape}, "
                f"got {x.shape[1:]}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(l) for l in self.layers)
        return f"Sequential([{inner}], input_shape={self.input_shape})"


def _clone_layers(layers: Sequence[Layer]) -> List[Layer]:
    """Construct fresh layer objects mirroring ``layers`` (weights not copied)."""
    clones: List[Layer] = []
    for layer in layers:
        if isinstance(layer, Conv2D):
            clones.append(
                Conv2D(
                    layer.in_channels,
                    layer.out_channels,
                    layer.kernel_size,
                    stride=layer.stride,
                    padding=layer.padding,
                    use_bias=layer.use_bias,
                )
            )
        elif isinstance(layer, Dense):
            clones.append(
                Dense(
                    layer.in_features,
                    layer.out_features,
                    use_bias=layer.use_bias,
                )
            )
        elif isinstance(layer, MaxPool2D):
            clones.append(MaxPool2D(layer.pool, layer.stride))
        elif isinstance(layer, ReLU):
            clones.append(ReLU())
        elif isinstance(layer, Flatten):
            clones.append(Flatten())
        else:
            raise ConfigurationError(
                f"cannot clone unknown layer type {type(layer).__name__}"
            )
    return clones

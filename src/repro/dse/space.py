"""Parameter-space definition: grid, random and conditional axes.

A :class:`ParameterSpace` is a declarative description of the candidate
configurations a study explores.  It is built from axes:

* :class:`GridAxis` — an explicit value list, enumerated exhaustively;
* :class:`RandomAxis` — a (optionally log-scaled / integer) interval,
  sampled ``samples_per_point`` times per grid assignment from a seeded
  stream, so the candidate list is a pure function of the study seed.

Both axis kinds take an optional ``when`` condition — a declarative
expression over the axes evaluated so far (axis order matters) — that
gates the axis on earlier choices: ``RandomAxis("read_sigma", 0, 0.05,
when="engine != 'adc'")`` only varies read noise for the SEI engines and
pins the axis to its ``default`` elsewhere.  Space-level ``constraints``
reject whole assignments (e.g. ``"weight_bits % cell_bits == 0"``).

Everything is plain data (strings, numbers, tuples), so a space digests
deterministically into the study digest that keys the resumable run
store — which is why conditions are expression strings, not lambdas
(see :mod:`repro.dse.expr`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

from repro.dse.expr import safe_eval

__all__ = ["GridAxis", "RandomAxis", "ParameterSpace"]


@dataclass(frozen=True)
class GridAxis:
    """An axis enumerated over an explicit value tuple."""

    name: str
    values: Tuple[Any, ...]
    #: Condition over earlier axes; when false the axis is pinned to
    #: ``default`` instead of enumerating its values.
    when: Optional[str] = None
    default: Any = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("axis name must be non-empty")
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ConfigurationError(f"axis {self.name!r} has no values")

    def arity(self) -> int:
        return len(self.values)

    def value(self, index: int, rng_key: Sequence[int]) -> Any:
        return self.values[index]


@dataclass(frozen=True)
class RandomAxis:
    """An axis drawn uniformly (optionally log-uniform) from an interval."""

    name: str
    low: float
    high: float
    log: bool = False
    integer: bool = False
    when: Optional[str] = None
    default: Any = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("axis name must be non-empty")
        if self.high < self.low:
            raise ConfigurationError(
                f"axis {self.name!r}: need low <= high, got "
                f"[{self.low}, {self.high}]"
            )
        if self.log and self.low <= 0:
            raise ConfigurationError(
                f"axis {self.name!r}: log sampling needs low > 0"
            )

    def arity(self) -> int:
        return 1  # random axes do not multiply the grid

    def value(self, index: int, rng_key: Sequence[int]) -> Any:
        rng = np.random.default_rng(np.random.SeedSequence(list(rng_key)))
        if self.log:
            drawn = float(
                np.exp(rng.uniform(np.log(self.low), np.log(self.high)))
            )
        else:
            drawn = float(rng.uniform(self.low, self.high))
        if self.integer:
            return int(round(drawn))
        return drawn


Axis = Union[GridAxis, RandomAxis]


@dataclass(frozen=True)
class ParameterSpace:
    """An ordered set of axes plus assignment-level constraints."""

    axes: Tuple[Axis, ...] = ()
    #: Declarative predicates over a full assignment; candidates that
    #: violate any constraint are skipped (not failed).
    constraints: Tuple[str, ...] = ()
    #: Random-axis draws per grid assignment (ignored without random axes).
    samples_per_point: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not self.axes:
            raise ConfigurationError("a parameter space needs at least one axis")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate axis names in {names}")
        if self.samples_per_point < 1:
            raise ConfigurationError(
                f"samples_per_point must be >= 1, got {self.samples_per_point}"
            )

    # -- enumeration -----------------------------------------------------
    @property
    def has_random_axes(self) -> bool:
        return any(isinstance(a, RandomAxis) for a in self.axes)

    def configs(self, seed: int = 0) -> Iterator[Dict[str, Any]]:
        """Yield candidate configurations in deterministic order.

        Grid axes form the lattice (itertools product order); each grid
        assignment is repeated ``samples_per_point`` times when random
        axes exist, with every random value drawn from a stream derived
        from ``(seed, grid_index, sample_index, axis_position)`` — so the
        k-th candidate is identical across runs, platforms and worker
        counts.
        """
        draws = self.samples_per_point if self.has_random_axes else 1
        ranges = [range(axis.arity()) for axis in self.axes]
        for grid_index, choice in enumerate(itertools.product(*ranges)):
            for sample in range(draws):
                config: Dict[str, Any] = {}
                valid = True
                for position, (axis, index) in enumerate(
                    zip(self.axes, choice)
                ):
                    if axis.when is not None and not safe_eval(
                        axis.when, config
                    ):
                        # Inactive axis: only its first branch survives
                        # (other branches would duplicate the config).
                        if isinstance(axis, GridAxis) and index != 0:
                            valid = False
                            break
                        config[axis.name] = axis.default
                        continue
                    config[axis.name] = axis.value(
                        index, (seed, grid_index, sample, position)
                    )
                if not valid:
                    continue
                if any(
                    not safe_eval(c, config) for c in self.constraints
                ):
                    continue
                yield config

    def enumerate(self, seed: int = 0) -> List[Dict[str, Any]]:
        """The full candidate-configuration list (deduplicated, ordered)."""
        seen = set()
        configs = []
        for config in self.configs(seed):
            key = tuple(sorted(config.items()))
            if key in seen:
                continue
            seen.add(key)
            configs.append(config)
        return configs

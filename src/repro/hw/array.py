"""Stateful device arrays: the one cell-array model under ``repro.hw``.

Engines used to poke programmed conductance arrays directly
(``SEIMatrix._conductances``); every consumer therefore assumed the
device state was *frozen* at program time.  Real crossbars
are not: conductance drifts (power law [8]), retention decays toward the
high-resistance state, and every read disturbs the cells a little.
:class:`DeviceArray` is the one array every crossbar-consuming engine
programs and reads through — program / read / snapshot / health:

* it wraps the :class:`~repro.hw.device.RRAMDevice` numpy model
  **bit-for-bit**: programming consumes the RNG stream exactly like the
  legacy per-slice loops and reads return exactly the conductances the
  legacy code read, so all seeded behaviour (conformance, golden
  corpus) is preserved;
* given an enabled :class:`TemporalConfig` it ages in time: seeded
  power-law conductance drift, retention decay toward ``g_min`` and
  per-read disturb keyed to the *actual* read counts the engines report
  through :meth:`DeviceArray.note_reads`.  State is a closed-form
  function of ``(programmed cells, age, reads)``, so trajectories are
  deterministic, snapshot/restore is byte-exact and campaigns replay.

Consumers watch :attr:`DeviceArray.generation`: it increments
whenever the conductances may have changed, so compile-time collapses
(fused matrices, padded block layouts, certified integer operands)
re-derive lazily through :class:`PerGeneration` instead of going
stale.  Static arrays never bump it after programming — the fused
engine's caches stay valid forever, as before.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.hw.device import RRAMDevice

__all__ = [
    "TemporalConfig",
    "ArrayHealth",
    "DeviceArraySnapshot",
    "DeviceArray",
    "PerGeneration",
]


@dataclass(frozen=True)
class TemporalConfig:
    """How a device array ages.  All effects default to *off*.

    The three mechanisms all shrink the programmed conductance window
    ``g - g_min`` monotonically — the degradation direction RRAM
    literature reports for drift, retention loss and read disturb — so
    error curves over age/reads are monotone by construction.

    Parameters
    ----------
    drift_nu:
        Power-law drift exponent: the window decays by
        ``(1 + age / drift_t0) ** -nu``.  0 disables drift.
    drift_nu_sigma:
        Per-cell lognormal spread of the exponent
        (``nu_cell = drift_nu * exp(sigma * z)``), drawn from ``seed``
        at each program epoch.  0 makes every cell drift identically.
    drift_t0:
        Drift onset time constant (same unit as ``advance`` deltas).
    retention_tau:
        Exponential retention time constant: the window additionally
        decays by ``exp(-age / tau)``.  0 disables retention loss.
    read_disturb_rate:
        Fractional window shrink per recorded read event: after ``r``
        reads the window is scaled by ``exp(-rate * r)``.  0 disables.
    seed:
        Seed for the per-cell drift-exponent draws (combined with the
        program epoch, so re-programming redraws deterministically).
    """

    drift_nu: float = 0.0
    drift_nu_sigma: float = 0.0
    drift_t0: float = 1.0
    retention_tau: float = 0.0
    read_disturb_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.drift_nu < 0 or self.drift_nu_sigma < 0:
            raise ConfigurationError("drift parameters must be >= 0")
        if self.drift_t0 <= 0:
            raise ConfigurationError(
                f"drift_t0 must be positive, got {self.drift_t0}"
            )
        if self.retention_tau < 0:
            raise ConfigurationError(
                f"retention_tau must be >= 0, got {self.retention_tau}"
            )
        if self.read_disturb_rate < 0:
            raise ConfigurationError(
                f"read_disturb_rate must be >= 0, got "
                f"{self.read_disturb_rate}"
            )

    @property
    def enabled(self) -> bool:
        """Whether any temporal effect is actually configured."""
        return (
            self.drift_nu > 0
            or self.retention_tau > 0
            or self.read_disturb_rate > 0
        )


@dataclass(frozen=True)
class ArrayHealth:
    """One health read-out of a device array."""

    #: Time units elapsed since the last (re-)program.
    age: float
    #: Read events recorded since the last (re-)program.
    reads_since_program: int
    #: Open-loop programming pulses applied over the array's lifetime.
    pulses: int
    #: Program epochs (full array programs / retunes).
    program_epoch: int
    #: Mean |current - programmed| conductance deviation, in level steps.
    drift_level_steps: float
    #: Worst single-cell deviation, in level steps.
    max_drift_level_steps: float
    #: Generation counter at the time of the read-out.
    generation: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "age": self.age,
            "reads_since_program": self.reads_since_program,
            "pulses": self.pulses,
            "program_epoch": self.program_epoch,
            "drift_level_steps": self.drift_level_steps,
            "max_drift_level_steps": self.max_drift_level_steps,
            "generation": self.generation,
        }


@dataclass
class DeviceArraySnapshot:
    """Full restorable state of a device array.

    Restoring a snapshot and continuing reproduces the exact future
    trajectory: aged conductances are a closed-form function of this
    state, so the digest identifies an aged array byte-for-byte —
    that is what conformance campaigns record in their artifacts to
    make failures replayable.
    """

    conductance: np.ndarray
    normalized: np.ndarray
    targets: Optional[np.ndarray]
    age: float
    reads_since_program: int
    pulses: int
    program_epoch: int
    drift_nu: Optional[np.ndarray] = None
    #: The aging behaviour governing the trajectory (None for static
    #: arrays).  Restore does not copy it — a snapshot restores onto an
    #: array constructed with the same config — but the digest covers
    #: it, so two arrays aging at different rates never collide.
    temporal: Optional[TemporalConfig] = None

    def digest(self) -> str:
        """Deterministic sha256 over the canonical state bytes."""
        h = hashlib.sha256()
        for array in (self.conductance, self.normalized, self.targets,
                      self.drift_nu):
            if array is None:
                h.update(b"\x00none")
            else:
                arr = np.ascontiguousarray(np.asarray(array, np.float64))
                h.update(str(arr.shape).encode())
                h.update(arr.tobytes())
        h.update(struct.pack(
            "<dqqq", float(self.age), int(self.reads_since_program),
            int(self.pulses), int(self.program_epoch),
        ))
        if self.temporal is not None:
            h.update(struct.pack(
                "<dddddq",
                float(self.temporal.drift_nu),
                float(self.temporal.drift_nu_sigma),
                float(self.temporal.drift_t0),
                float(self.temporal.retention_tau),
                float(self.temporal.read_disturb_rate),
                int(self.temporal.seed),
            ))
        return h.hexdigest()[:16]


class DeviceArray:
    """A stateful array of RRAM cells behind one device model.

    The interface every crossbar-consuming engine talks to:

    * :meth:`program` — closed-loop array (re-)program of normalised
      targets; resets the age/read counters (a fresh programming epoch).
      3-D targets ``(K, rows, cols)`` are programmed **one leading slice
      at a time** (physically: the K bit-slice planes of an SEI column
      are written sequentially), consuming the RNG stream exactly like
      the historical per-slice loops of :class:`~repro.core.sei.
      SEIMatrix`.
    * :meth:`apply_conductance` — install externally tuned cells.
    * :attr:`conductance` / :attr:`normalized` — the current cell
      state, raw and on the [0, 1] weight scale (no read noise).
    * :meth:`read` / :meth:`read_normalized` — one noisy read of the
      current state through the device's read-noise model: the raw
      conductances and the round-tripped weight-scale base (the base the
      SEI structures read).
    * :meth:`note_reads` — engines report how many MVM positions they
      actually evaluated; this drives read disturb.
    * :meth:`advance` — move the array's clock forward.
    * :meth:`snapshot` / :meth:`restore` / :meth:`health` —
      observability and byte-exact replay.

    ``temporal=None`` (or a config with every effect off) makes a
    *static* array: :attr:`config` is None, :attr:`temporal` False, and
    nothing changes after programming.  An enabled config ages the cells
    in **closed form** from the programmed base state and the usage
    counters::

        w(t, r) = (g0 - g_min)
                  * (1 + t / t0) ** -nu_cell        # power-law drift
                  * exp(-t / tau)                   # retention decay
                  * exp(-rate * r)                  # read disturb
        g(t, r) = clip(g_min + w, g_min, g_max)

    so trajectories are fully determined by ``(base, age, reads)`` —
    snapshot/restore is byte-exact and two arrays with equal seeds and
    histories agree bit-for-bit, regardless of when the state was
    materialised.  Until the first aging factor applies, the base state
    is returned untouched, so a fresh aging array reads exactly like a
    static one.  Per-cell drift exponents are drawn from ``(config.seed,
    epoch)`` at each program epoch, so a re-program (re-tune)
    deterministically redraws them.

    :attr:`generation` increments whenever cell state may have changed;
    consumers key their compile-time collapses on it.
    """

    def __init__(
        self,
        device: Optional[RRAMDevice] = None,
        shape: Optional[Tuple[int, ...]] = None,
        temporal: Optional[TemporalConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.device = device if device is not None else RRAMDevice()
        self.shape = tuple(shape) if shape is not None else None
        self.config = (
            temporal if temporal is not None and temporal.enabled else None
        )
        self.rng = rng
        self._generation = 0
        self._age = 0.0
        self._reads = 0
        self._pulses = 0
        self._epoch = 0
        self._achieved: Optional[np.ndarray] = None
        self._norm: Optional[np.ndarray] = None
        self._targets: Optional[np.ndarray] = None
        self._base_cache: Optional[np.ndarray] = None
        self._nu: Optional[np.ndarray] = None
        self._aged_cache: Optional[Tuple[int, np.ndarray, np.ndarray]] = None

    # -- identity ---------------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotone counter: bumps whenever cell state may have changed."""
        return self._generation

    @property
    def temporal(self) -> bool:
        """Whether this array's state evolves over time."""
        return self.config is not None

    @property
    def age(self) -> float:
        return self._age

    @property
    def reads_since_program(self) -> int:
        return self._reads

    @property
    def pulses(self) -> int:
        return self._pulses

    @property
    def program_epoch(self) -> int:
        return self._epoch

    @property
    def targets(self) -> Optional[np.ndarray]:
        """Normalised targets of the last program (for re-tuning)."""
        return self._targets

    # -- programming -------------------------------------------------------
    def program(
        self,
        targets: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """(Re-)program normalised targets; returns achieved conductance."""
        targets = np.asarray(targets, dtype=np.float64)
        if self.shape is not None and targets.shape != self.shape:
            raise ShapeError(
                f"targets have shape {targets.shape}, array has "
                f"shape {self.shape}"
            )
        rng = self._resolve_rng(rng)
        if targets.ndim >= 3:
            # Slice-sequential programming: one device.program call per
            # leading plane.  program() interleaves its normal and
            # uniform draws per call, so this per-plane order is the ONLY
            # stream-compatible layout with the legacy slice loops.
            achieved = np.stack(
                [self.device.program(plane, rng) for plane in targets]
            )
        else:
            achieved = self.device.program(targets, rng)
        self._install(achieved, pulses=0)
        self._targets = targets.copy()
        return achieved

    def apply_conductance(
        self,
        conductance: np.ndarray,
        targets: Optional[np.ndarray] = None,
        pulses: int = 0,
    ) -> None:
        """Install externally tuned conductances as a fresh program epoch.

        This is how a closed-loop tuner (:func:`repro.hw.tuning.
        tune_cells`) writes its converged result back: the achieved
        conductances become the new programmed base state, the aging
        clock and read counter reset, and ``pulses`` open-loop attempts
        are added to the lifetime pulse count.
        """
        conductance = np.clip(
            np.asarray(conductance, dtype=np.float64),
            self.device.g_min,
            self.device.g_max,
        )
        if self.shape is not None and conductance.shape != self.shape:
            raise ShapeError(
                f"conductance has shape {conductance.shape}, array has "
                f"shape {self.shape}"
            )
        self._install(conductance, pulses)
        if targets is not None:
            self._targets = np.asarray(targets, dtype=np.float64).copy()

    def _install(self, achieved: np.ndarray, pulses: int) -> None:
        """Adopt ``achieved`` as the base state of a new program epoch."""
        self.shape = achieved.shape
        self._achieved = achieved
        self._norm = self.device.conductance_to_normalized(achieved)
        self._base_cache = None
        self._aged_cache = None
        self._age = 0.0
        self._reads = 0
        self._pulses += int(pulses)
        self._epoch += 1
        self._generation += 1
        cfg = self.config
        if cfg is not None and cfg.drift_nu > 0 and cfg.drift_nu_sigma > 0:
            draw_rng = np.random.default_rng([cfg.seed, self._epoch])
            self._nu = cfg.drift_nu * np.exp(
                cfg.drift_nu_sigma * draw_rng.standard_normal(self.shape)
            )
        else:
            self._nu = None

    # -- state -------------------------------------------------------------
    @property
    def conductance(self) -> np.ndarray:
        """Current raw conductances (no read noise).  Treat as read-only."""
        return self._aged()[0]

    @property
    def normalized(self) -> np.ndarray:
        """Current cells on the [0, 1] weight scale.  Treat as read-only."""
        return self._aged()[1]

    def _require_programmed(self) -> None:
        if self._achieved is None:
            raise ConfigurationError(
                "device array has not been programmed yet"
            )

    def _aged(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current (conductance, normalized), cached per generation."""
        self._require_programmed()
        cfg = self.config
        untouched = (
            cfg is None
            or (
                self._age <= 0
                and (self._reads <= 0 or cfg.read_disturb_rate <= 0)
            )
        )
        if untouched:
            # Bit-identical passthrough: no aging factor is applied at
            # all, so the base state (and hence every seeded read) is
            # exactly what was programmed.
            return self._achieved, self._norm
        cached = self._aged_cache
        if cached is not None and cached[0] == self._generation:
            return cached[1], cached[2]
        g_min = self.device.g_min
        window = self._achieved - g_min
        if cfg.drift_nu > 0 and self._age > 0:
            nu = self._nu if self._nu is not None else cfg.drift_nu
            window = window * (1.0 + self._age / cfg.drift_t0) ** (
                -np.asarray(nu)
            )
        if cfg.retention_tau > 0 and self._age > 0:
            window = window * np.exp(-self._age / cfg.retention_tau)
        if cfg.read_disturb_rate > 0 and self._reads > 0:
            window = window * np.exp(
                -cfg.read_disturb_rate * float(self._reads)
            )
        aged = np.clip(g_min + window, g_min, self.device.g_max)
        norm = self.device.conductance_to_normalized(aged)
        self._aged_cache = (self._generation, aged, norm)
        return aged, norm

    def _normalized_base(self) -> np.ndarray:
        """Current read base ``g_min + normalized * span``."""
        aged, norm = self._aged()
        span = self.device.g_max - self.device.g_min
        if aged is not self._achieved:
            return self.device.g_min + norm * span
        # The SEI read base of the programmed cells (cached: identical
        # every call until the cells change).
        if self._base_cache is None:
            self._base_cache = self.device.g_min + norm * span
        return self._base_cache

    # -- reads and time ----------------------------------------------------
    def read_normalized(
        self, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """One noisy read on the [0, 1] weight scale.

        Reads from the *normalised* storage representation (``g_min +
        normalized * span``) — exactly the read base the SEI structures
        always used — so seeded noisy reads through the array are
        bit-identical to the legacy in-place code.
        """
        return self.device.conductance_to_normalized(
            self.device.read(self._normalized_base(), self._resolve_rng(rng))
        )

    def note_reads(self, n: int) -> None:
        """Record ``n`` read events (MVM positions) against the array."""
        if n > 0:
            self._reads += int(n)
            cfg = self.config
            if cfg is not None and cfg.read_disturb_rate > 0:
                self._generation += 1

    def advance(self, dt: float) -> None:
        """Move the array's clock ``dt`` time units forward."""
        if dt < 0:
            raise ConfigurationError(f"dt must be >= 0, got {dt}")
        self._age += float(dt)
        cfg = self.config
        if dt > 0 and cfg is not None and (
            cfg.drift_nu > 0 or cfg.retention_tau > 0
        ):
            self._generation += 1

    # -- observability ----------------------------------------------------
    def health(self) -> ArrayHealth:
        """Drift magnitude and usage counters for the telemetry plane."""
        step = self.device.level_step
        deviation = np.abs(self.conductance - self._achieved) / step
        return ArrayHealth(
            age=self._age,
            reads_since_program=self._reads,
            pulses=self._pulses,
            program_epoch=self._epoch,
            drift_level_steps=float(deviation.mean()) if deviation.size else 0.0,
            max_drift_level_steps=float(deviation.max(initial=0.0)),
            generation=self._generation,
        )

    def snapshot(self) -> DeviceArraySnapshot:
        """Full restorable state (see :class:`DeviceArraySnapshot`)."""
        self._require_programmed()
        return DeviceArraySnapshot(
            conductance=self._achieved.copy(),
            normalized=np.array(self._norm, copy=True),
            targets=(
                None if self._targets is None else self._targets.copy()
            ),
            age=self._age,
            reads_since_program=self._reads,
            pulses=self._pulses,
            program_epoch=self._epoch,
            drift_nu=None if self._nu is None else self._nu.copy(),
            temporal=self.config,
        )

    def restore(self, snap: DeviceArraySnapshot) -> None:
        """Restore a snapshot byte-exactly; the future trajectory repeats."""
        self._achieved = np.array(snap.conductance, copy=True)
        self._norm = np.array(snap.normalized, copy=True)
        self.shape = self._achieved.shape
        self._base_cache = None
        self._aged_cache = None
        self._targets = (
            None if snap.targets is None else np.array(snap.targets, copy=True)
        )
        self._age = float(snap.age)
        self._reads = int(snap.reads_since_program)
        self._pulses = int(snap.pulses)
        self._epoch = int(snap.program_epoch)
        self._nu = (
            None if snap.drift_nu is None or self.config is None
            else np.array(snap.drift_nu, copy=True)
        )
        self._generation += 1

    def _resolve_rng(
        self, rng: Optional[np.random.Generator]
    ) -> np.random.Generator:
        if rng is not None:
            return rng
        if self.rng is None:
            self.rng = np.random.default_rng()
        return self.rng

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shape = "unprogrammed" if self.shape is None else "x".join(
            str(s) for s in self.shape
        )
        return (
            f"{type(self).__name__}({shape}, {self.device.bits}-bit cells, "
            f"gen={self._generation})"
        )


class PerGeneration:
    """A value derived from device arrays' cells, rebuilt per generation.

    ``get()`` returns ``build()``, built again only when the
    :attr:`DeviceArray.generation` of some array in ``arrays`` moved
    since the last build: a static array's value is built exactly once,
    an aging or re-programmed one's lazily on its next use.  The key
    and the value are stored as one tuple, so a reader on another
    thread always sees a value with the key it was built for.
    """

    def __init__(self, arrays, build) -> None:
        self._arrays = tuple(arrays)
        self._build = build
        self._cache: Optional[Tuple[Tuple[int, ...], object]] = None

    def get(self):
        key = tuple(array.generation for array in self._arrays)
        cache = self._cache
        if cache is None or cache[0] != key:
            cache = (key, self._build())
            self._cache = cache
        return cache[1]

"""Candidate evaluation: one design point in, one scored record out.

The ``hardware`` evaluator is the real thing: it resolves a candidate
configuration into an :class:`~repro.core.engines.EngineSpec` plus a
matching :class:`~repro.hw.tech.TechnologyModel`, compiles a warm
:class:`~repro.serve.session.InferenceSession` through the zoo (the
quantized artefacts come from the digest-keyed warm/disk cache, so every
candidate sharing a pipeline prefix pays for it once), scores

* **accuracy** on a fixed test subset through the selected engine (with
  the hardware activity counters recorded, so the SEI dynamic-power
  estimate of :mod:`repro.obs.power` rides along for free), and
* **energy / area / efficiency** through the calibrated cost model
  (:func:`repro.arch.designs.evaluate_design`, i.e.
  :func:`repro.arch.cost.design_cost` per layer mapping).

The ``synthetic`` evaluator computes analytic objectives from the
configuration alone — no zoo, no hardware — and exists so the runner,
store and report machinery can be exercised (and fault-injected: see
the ``fail`` / ``sleep_ms`` / ``crash`` hooks) in milliseconds.

Candidate configuration keys understood by the hardware evaluator:

=================  ==========================================================
``engine``         ``fused`` (alias ``packed``) | ``reference`` | ``adc``
                   (default ``fused``)
``crossbar``       max crossbar dimension (fabric + cost model)
``cell_bits``      RRAM device precision (device + cost model)
``weight_bits``    weight precision (default 8)
``read_sigma``     per-read conductance noise (SEI engines)
``program_sigma``  programming-variation sigma
``data_bits``      intermediate-data DAC precision (``adc`` engine)
``estimator``      runtime activation estimator mode: ``off`` | ``exact``
                   | ``threshold`` (fused engine)
``confidence``     threshold-estimator confidence knob in (0, 1]
``hardware_seed``  programming-draw seed (default: the study seed)
``network``        zoo network override (default: the study network)
``refine_passes``  Algorithm 1 refinement passes
``search_step`` / ``thres_min`` / ``thres_max`` / ``criterion``
                   remaining Algorithm 1 hyper-parameters
``drift_nu``       conductance drift exponent (temporal aging)
``drift_nu_sigma`` per-cell drift-exponent dispersion
``retention_rate`` retention decay rate (``1 / tau``)
``read_disturb``   per-read disturb rate
``age_batches``    inference batches run to age the session pre-scoring
``retune``         online re-tune cadence in batches (0/absent = off)
=================  ==========================================================

Any non-zero aging knob compiles the session over
:class:`~repro.hw.array.DeviceArray` aging cells (``reuse=False``
— aged sessions must not leak into the warm registry), scores the
fresh hardware, runs ``age_batches`` aging batches, re-scores, and
records the drift/retune telemetry plus the device-array snapshot
digest that pins the exact aged cell state.

The ``aging`` evaluator is the zoo-free, fully deterministic
device-level variant: one array programmed, aged and health-checked —
milliseconds per candidate, byte-identical across resumed runs.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Callable, Dict, Optional, TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.dse.study import Candidate, Study

__all__ = [
    "EVALUATORS",
    "resolve_evaluator",
    "evaluate_candidate",
    "hardware_evaluator",
    "synthetic_evaluator",
    "aging_evaluator",
    "prewarm",
]

_SEARCH_KEYS = (
    "search_step",
    "thres_min",
    "thres_max",
    "criterion",
    "refine_passes",
)


def _search_config(config: Dict[str, Any]):
    """The Algorithm 1 config a candidate implies (None = zoo default)."""
    from repro.core.threshold_search import SearchConfig

    kwargs = {k: config[k] for k in _SEARCH_KEYS if k in config}
    return SearchConfig(**kwargs) if kwargs else None


def _temporal_config(config: Dict[str, Any], seed: int):
    """The aging behaviour a candidate implies (None = static cells)."""
    from repro.hw.array import TemporalConfig

    drift = float(config.get("drift_nu") or 0.0)
    rate = float(config.get("retention_rate") or 0.0)
    disturb = float(config.get("read_disturb") or 0.0)
    if drift <= 0 and rate <= 0 and disturb <= 0:
        return None
    return TemporalConfig(
        drift_nu=drift,
        drift_nu_sigma=float(config.get("drift_nu_sigma") or 0.0),
        retention_tau=1.0 / rate if rate > 0 else 0.0,
        read_disturb_rate=disturb,
        seed=int(config.get("temporal_seed", seed)),
    )


def _engine_spec(study: "Study", config: Dict[str, Any]):
    from repro.core.engines import EngineSpec
    from repro.core.estimate import EstimatorPolicy
    from repro.core.hardware_network import HardwareConfig
    from repro.hw.device import RRAMDevice

    device = RRAMDevice(
        bits=int(config.get("cell_bits", 4)),
        read_sigma=float(config.get("read_sigma") or 0.0),
        program_sigma=float(config.get("program_sigma") or 0.0),
    )
    hardware = HardwareConfig(
        device=device,
        weight_bits=int(config.get("weight_bits", 8)),
        max_crossbar_size=int(config.get("crossbar", 512)),
        seed=int(config.get("hardware_seed", study.seed)),
        temporal=_temporal_config(config, study.seed),
    )
    return EngineSpec(
        name=str(config.get("engine", "fused")),
        hardware=hardware,
        data_bits=int(config.get("data_bits", 8)),
        estimator=EstimatorPolicy(
            mode=str(config.get("estimator", "off")),
            confidence=float(config.get("confidence", 1.0)),
        ),
    )


def hardware_evaluator(
    study: "Study", candidate: "Candidate"
) -> Dict[str, Any]:
    """Score one candidate through the real engines + cost model."""
    from repro import obs, zoo
    from repro.arch.designs import evaluate_design
    from repro.hw.retune import RetunePolicy
    from repro.hw.tech import TechnologyModel
    from repro.obs.power import estimate_from_metrics
    from repro.serve.session import SessionConfig, compile_session

    config = candidate.config
    spec = _engine_spec(study, config)
    search = _search_config(config)
    network = str(config.get("network", study.network))

    temporal = spec.hardware.temporal is not None
    retune_every = int(config.get("retune") or 0)
    session_config = SessionConfig(
        network=network,
        engine=spec,
        tile=study.tile,
        search=search,
        retune=(
            RetunePolicy(check_every=retune_every)
            if retune_every > 0
            else None
        ),
    )
    # Aged sessions mutate their device arrays; never share them.
    session = compile_session(session_config, reuse=not temporal)
    dataset = zoo.get_dataset()
    samples = min(study.eval_samples, len(dataset.test))
    images = dataset.test.images[:samples]
    labels = dataset.test.labels[:samples]

    tech = replace(
        TechnologyModel(),
        cell_bits=spec.hardware.device.bits,
        weight_bits=spec.hardware.weight_bits,
        max_crossbar_size=spec.hardware.max_crossbar_size,
    )

    errors = []
    power: Optional[dict] = None
    eval_start = time.perf_counter()
    with obs.recording() as rec:
        for _ in range(study.eval_repeats):
            errors.append(float(session.error_rate(images, labels)))
    eval_wall_s = time.perf_counter() - eval_start
    power = estimate_from_metrics(rec.metrics, tech)

    structure = "dac_adc" if spec.name == "adc" else "sei"
    evaluation = evaluate_design(network, structure, tech)

    error_rate = sum(errors) / len(errors)
    record: Dict[str, Any] = {
        "structure": structure,
        "accuracy": 1.0 - error_rate,
        "error_rate": error_rate,
        "eval_samples": samples,
        "energy_uj": float(evaluation.energy_uj_per_picture),
        "area_mm2": float(evaluation.area_mm2),
        "gops_per_j": float(evaluation.gops_per_joule()),
        "converter_energy_share": float(
            evaluation.cost.energy_share("adc", "dac")
        ),
        "crossbars": int(sum(m.crossbars for m in evaluation.mappings)),
    }
    if temporal:
        age_batches = int(config.get("age_batches") or 0)
        probe = images[: study.tile]
        for _ in range(age_batches):
            session.infer_batch(probe)
        health = session.health()
        aged_error = float(session.error_rate(images, labels))
        record["fresh_error_rate"] = error_rate
        record["aged_error_rate"] = aged_error
        # Deployment accuracy is the aged one — that is the design point.
        record["error_rate"] = aged_error
        record["accuracy"] = 1.0 - aged_error
        record["device_age"] = max(
            (h.age for h in health.values()), default=0.0
        )
        record["worst_drift"] = max(
            (h.drift_level_steps for h in health.values()), default=0.0
        )
        arrays = session.device_arrays
        if arrays:
            first = sorted(arrays)[0]
            record["snapshot_digest"] = arrays[first].snapshot().digest()
        if retune_every > 0:
            retune_report = session.retune()
            record["retune_events"] = len(retune_report.events)
            record["post_retune_error_rate"] = float(
                session.error_rate(images, labels)
            )
    if study.eval_repeats > 1:
        record["error_rate_runs"] = errors
    if session.model is not None:
        record["quantized_test_error"] = float(
            session.model.quantized_test_error
        )
    if power is not None and structure == "sei":
        record["sei_dynamic_saving"] = power["total"]["saving_vs_static"]
        record["sei_dynamic_pj"] = power["total"]["dynamic_pj"]
    if "estimator" in config:
        # Estimator studies trade energy against latency: the skip
        # bookkeeping is not free, so the wall-clock of the scoring
        # loop is itself an objective.
        record["eval_wall_s"] = eval_wall_s
        if power is not None:
            record["skipped_rows_pct"] = (
                power["total"]["skipped_rows_pct"] or 0.0
            )
            record["estimator_hit_rate"] = (
                power["total"]["estimator_hit_rate"] or 0.0
            )
    return record


def synthetic_evaluator(
    study: "Study", candidate: "Candidate"
) -> Dict[str, Any]:
    """Analytic two-objective score; zoo-free harness/self-test mode.

    Fault hooks (all driven by candidate config keys, used by the tests
    and the runner's own self-checks): ``fail`` raises, ``sleep_ms``
    stalls, ``crash`` hard-kills the worker process.
    """
    config = candidate.config
    if config.get("fail"):
        raise RuntimeError(f"deliberate failure for candidate {candidate.digest}")
    if config.get("sleep_ms"):
        time.sleep(float(config["sleep_ms"]) / 1000.0)
    if config.get("crash"):  # pragma: no cover - kills the process
        import os

        os._exit(13)
    x = float(config.get("x", 0.0))
    y = float(config.get("y", 0.0))
    return {
        "f0": (x - 0.3) ** 2 + 0.1 * y,
        "f1": (y - 0.7) ** 2 + 0.1 * x,
        "accuracy": max(0.0, 1.0 - abs(x - y)),
    }


def aging_evaluator(
    study: "Study", candidate: "Candidate"
) -> Dict[str, Any]:
    """Device-level aging score: one array programmed, aged, checked.

    Zoo-free and fully deterministic (everything derives from the study
    seed and the candidate config), so resumed
    :mod:`repro.dse` runs reproduce records byte-for-byte — asserted in
    ``tests/test_dse.py``.  The returned ``snapshot_digest`` pins the
    exact aged cell state each record was measured on.
    """
    import numpy as np

    from repro.hw.array import DeviceArray
    from repro.hw.device import RRAMDevice

    config = candidate.config
    temporal = _temporal_config(config, study.seed)
    bits = int(config.get("cell_bits", 4))
    rows = int(config.get("rows", 32))
    cols = int(config.get("cols", 32))
    age = float(config.get("age", 64.0))
    reads = int(config.get("reads", 0))

    device = RRAMDevice(
        bits=bits,
        program_sigma=float(config.get("program_sigma") or 0.0),
    )
    targets = np.random.default_rng([study.seed, 0xA6E]).random((rows, cols))
    array = DeviceArray(
        device,
        temporal=temporal,
        rng=np.random.default_rng([study.seed, candidate.index]),
    )
    array.program(targets, np.random.default_rng([study.seed, candidate.index]))
    array.note_reads(reads)
    array.advance(age)
    health = array.health()
    levels = float(2**bits - 1)
    return {
        "drift_level_steps": health.drift_level_steps,
        "max_drift_level_steps": health.max_drift_level_steps,
        "device_age": health.age,
        "reads": health.reads_since_program,
        "snapshot_digest": array.snapshot().digest(),
        # Cell-level figure of merit: fraction of the level grid intact.
        "accuracy": max(0.0, 1.0 - health.drift_level_steps / levels),
    }


EVALUATORS: Dict[str, Callable[["Study", "Candidate"], Dict[str, Any]]] = {
    "hardware": hardware_evaluator,
    "synthetic": synthetic_evaluator,
    "aging": aging_evaluator,
}


def resolve_evaluator(
    evaluator: Any,
) -> Callable[["Study", "Candidate"], Dict[str, Any]]:
    """An evaluator callable from a registry name or a callable."""
    if callable(evaluator):
        return evaluator
    try:
        return EVALUATORS[evaluator]
    except KeyError:
        raise ConfigurationError(
            f"unknown evaluator {evaluator!r}; registered: "
            f"{', '.join(sorted(EVALUATORS))}"
        ) from None


def evaluate_candidate(study: "Study", candidate: "Candidate") -> Dict[str, Any]:
    """Dispatch to the study's evaluator."""
    return resolve_evaluator(study.evaluator)(study, candidate)


def prewarm(study: "Study", candidates) -> None:
    """Materialise the shared pipeline prefixes once, in this process.

    Training and Algorithm 1 are the expensive shared prefixes of every
    candidate; running them here (parent) before the worker pool starts
    means forked workers inherit the warm in-process registry and
    spawned workers hit the digest-keyed disk cache — no worker ever
    retrains a model another worker already produced.
    """
    if study.evaluator != "hardware":
        return
    from repro import zoo

    seen = set()
    for candidate in candidates:
        network = str(candidate.config.get("network", study.network))
        search = _search_config(candidate.config)
        key = (network, zoo.recipe_digest(network, search))
        if key in seen:
            continue
        seen.add(key)
        zoo.warm_model(network, search_config=search)

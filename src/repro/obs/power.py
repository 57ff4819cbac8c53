"""SEI dynamic-power estimator fed by observed row activity.

The Table 5 cost model (``repro.arch.cost``) prices an SEI design
*statically*: every crossbar activation is assumed to drive all physical
rows (``row_drive_events = positions * physical_rows``) and read every
cell.  But the whole point of the SEI structure (Fig. 3b / Equ. 6) is
that a transmission gate only connects a row when its 1-bit input is 1 —
an inactive row draws neither drive nor cell-read energy.  This module
turns the *observed* per-MVM active-row counts recorded by the
instrumented inference paths into a dynamic energy estimate, and reports
the saving against the all-rows-active static assumption.

Metric convention (written by :func:`record_mvm_batch`, read by
:func:`estimate_from_metrics`) — all names under ``hw/layer{i}/``:

========================  =====================================================
``mvms``                  crossbar activations (samples x blocks)
``positions``             samples pushed through the layer (one logical MVM)
``active_rows``           sum of active *logical* rows over all positions
``skipped_rows``          active rows whose drive/reads the runtime
                          activation estimator skipped
``skipped_slots``         raw row slots skipped (active or not)
``est_positions``         output-bit decisions owned by the estimator
``est_decided``           of those, decided early (skippable work left)
``sa_events``             sense-amplifier (threshold) decisions
``noise_draws``           per-cell conductance noise samples drawn
``rows`` (gauge)          logical rows of the layer's weight matrix
``cols`` (gauge)          output columns
``blocks`` (gauge)        split blocks (1 = unsplit)
``cells_per_weight``      physical cells per logical weight (gauge)
``row_activity`` (hist)   per-position fraction of rows active, in [0, 1]
========================  =====================================================

Energy model per layer (constants from
:class:`repro.hw.tech.TechnologyModel`):

* RRAM reads:   ``selected_rows * cells_per_weight * cols * cell_read_energy_pj``
* row drivers:  ``selected_rows * cells_per_weight * row_drive_energy_pj``
* sense amps:   ``sa_events * sense_amp_energy_pj``
* digital vote: ``positions * cols * digital_op_energy_pj`` when the layer
  is split with a digital merge (``blocks > 1``)

where ``selected_rows = active_rows - skipped_rows`` — rows whose word
lines actually switched.  Without a runtime estimator installed
``skipped_rows`` is zero and ``selected_rows == active_rows`` (the
historical accounting); with one, the priced work shrinks by exactly
the rows the :mod:`repro.core.estimate` bounds proved unnecessary.

The *static* variant substitutes ``positions * rows`` for
``selected_rows``; the static SA term stays at the full comparison count
(the SA fires every cycle regardless of input), so the reported saving
isolates the input-switched effect plus the estimator's early-decision
skipping on top of it.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Optional

import numpy as np

from repro.obs.recorder import active

__all__ = ["record_layer", "record_mvm_batch", "estimate_from_metrics"]

_LAYER_METRIC = re.compile(r"^hw/layer(\d+)/(\w+)$")


def record_layer(
    layer_index: Optional[int],
    active_counts: Any,
    *,
    rows: int,
    cols: int,
    skip: Any = None,
    **fields: Any,
) -> None:
    """The engines' one activity entry: record a layer call if recording.

    Costs one ``None`` check while no recorder is active.
    ``active_counts`` is the per-position active-row counts, or a
    zero-argument callable producing them, so a kernel that does not
    need the counts itself only reduces its rows while a recorder is
    on.  ``skip`` is the call's :class:`repro.core.estimate.SkipStats`
    (or ``None``), or likewise a zero-argument callable producing the
    pair ``(SkipStats, sa_events)``, so an estimated layer runs its
    accounting pass only while a recorder is on.  The other keywords
    pass through to :func:`record_mvm_batch`.  Recording never touches
    an RNG, so traced runs draw the same noise as untraced ones.
    """
    rec = active()
    if rec is None or layer_index is None:
        return
    if callable(active_counts):
        active_counts = active_counts()
    if callable(skip):
        skip, fields["sa_events"] = skip()
    if skip is not None:
        fields.update(
            skipped_rows=skip.skipped_rows,
            skipped_slots=skip.skipped_slots,
            est_positions=skip.est_positions,
            est_decided=skip.est_decided,
        )
    record_mvm_batch(
        rec.metrics,
        layer_index,
        None,
        cols,
        rows=rows,
        active_counts=active_counts,
        **fields,
    )


def record_mvm_batch(
    metrics: Any,
    layer_index: int,
    bits: Optional[np.ndarray],
    cols: int,
    *,
    rows: Optional[int] = None,
    active_counts: Optional[np.ndarray] = None,
    blocks: int = 1,
    cells_per_weight: int,
    sa_events: Optional[int] = None,
    noise_draws: int = 0,
    digital_merge: Optional[bool] = None,
    skipped_rows: int = 0,
    skipped_slots: int = 0,
    est_positions: int = 0,
    est_decided: int = 0,
) -> None:
    """Record one batched crossbar invocation into the metrics registry.

    ``bits`` is the (N, rows) 1-bit input block actually presented to the
    crossbar rows; ``sa_events`` defaults to one comparison per column
    per block per sample (pass it explicitly for analog-merged layers,
    where the blocks share one sense-amp bank).

    Engines that never materialise a float bit matrix pass
    ``bits=None`` with ``active_counts`` (the per-position active-row
    totals, already reduced) and ``rows`` (the logical row count)
    instead — the derived metrics are identical.
    """
    if active_counts is not None:
        if rows is None:
            raise ValueError("active_counts requires an explicit rows count")
        active_per_position = np.asarray(active_counts).reshape(-1)
        n = active_per_position.shape[0]
    else:
        bits = np.asarray(bits)
        if bits.ndim == 1:
            bits = bits[None, :]
        n, rows = bits.shape
        active_per_position = bits.sum(axis=1)
    scope = metrics.scope(f"hw/layer{layer_index}")
    scope.inc("mvms", n * blocks)
    scope.inc("positions", n)
    scope.inc("active_rows", int(active_per_position.sum()))
    scope.inc(
        "sa_events", n * cols * blocks if sa_events is None else sa_events
    )
    if noise_draws:
        scope.inc("noise_draws", noise_draws)
    if skipped_rows:
        scope.inc("skipped_rows", skipped_rows)
    if skipped_slots:
        scope.inc("skipped_slots", skipped_slots)
    if est_positions:
        scope.inc("est_positions", est_positions)
    if est_decided:
        scope.inc("est_decided", est_decided)
    scope.set_gauge("rows", rows)
    scope.set_gauge("cols", cols)
    scope.set_gauge("blocks", blocks)
    scope.set_gauge(
        "digital_merge",
        int(blocks > 1 if digital_merge is None else digital_merge),
    )
    scope.set_gauge("cells_per_weight", cells_per_weight)
    if rows:
        scope.observe("row_activity", active_per_position / rows)


def _layer_metrics(exported: dict) -> Dict[int, Dict[str, Any]]:
    """Group the flat counter/gauge/histogram export by layer index."""
    layers: Dict[int, Dict[str, Any]] = {}
    for kind in ("counters", "gauges", "histograms"):
        for name, value in exported.get(kind, {}).items():
            match = _LAYER_METRIC.match(name)
            if match:
                index = int(match.group(1))
                layers.setdefault(index, {})[match.group(2)] = value
    return layers


def estimate_from_metrics(metrics: Any, tech: Any = None) -> Optional[dict]:
    """Dynamic-power estimate from recorded ``hw/layer*`` metrics.

    ``metrics`` is a :class:`~repro.obs.metrics.MetricsRegistry` or an
    already-exported ``as_dict()`` mapping.  Returns ``None`` when no
    hardware counters were recorded.  Energies are in pJ for the whole
    recorded workload (all positions, all layers).
    """
    from repro.hw.tech import TechnologyModel

    if tech is None:
        tech = TechnologyModel()
    exported = metrics.as_dict() if hasattr(metrics, "as_dict") else metrics
    per_layer = _layer_metrics(exported)
    if not per_layer:
        return None

    layers: Dict[str, dict] = {}
    totals = {
        "dynamic_pj": 0.0,
        "static_pj": 0.0,
        "rram_read_pj": 0.0,
        "row_drive_pj": 0.0,
        "sense_amp_pj": 0.0,
        "digital_pj": 0.0,
        "active_rows": 0.0,
        "skipped_rows": 0.0,
        "selected_rows": 0.0,
        "est_positions": 0.0,
        "est_decided": 0.0,
    }
    for index in sorted(per_layer):
        m = per_layer[index]
        positions = float(m.get("positions", 0))
        active_rows = float(m.get("active_rows", 0))
        skipped_rows = float(m.get("skipped_rows", 0))
        est_positions = float(m.get("est_positions", 0))
        est_decided = float(m.get("est_decided", 0))
        sa_events = float(m.get("sa_events", 0))
        rows = float(m.get("rows", 0))
        cols = float(m.get("cols", 0))
        blocks = float(m.get("blocks", 1))
        cells = float(m.get("cells_per_weight", 1))

        # Post-skip selection: only rows the estimator did not prove
        # unnecessary actually switch their word lines.
        selected_rows = max(active_rows - skipped_rows, 0.0)
        rram_pj = selected_rows * cells * cols * tech.cell_read_energy_pj
        drive_pj = selected_rows * cells * tech.row_drive_energy_pj
        sa_pj = sa_events * tech.sense_amp_energy_pj
        digital_merge = float(m.get("digital_merge", 1.0 if blocks > 1 else 0.0))
        digital_pj = (
            positions * cols * tech.digital_op_energy_pj if digital_merge else 0.0
        )
        dynamic_pj = rram_pj + drive_pj + sa_pj + digital_pj

        static_active = positions * rows
        static_pj = (
            static_active * cells * cols * tech.cell_read_energy_pj
            + static_active * cells * tech.row_drive_energy_pj
            + sa_pj
            + digital_pj
        )

        activity = (
            active_rows / static_active if static_active else None
        )
        layers[str(index)] = {
            "positions": int(positions),
            "mean_row_activity": activity,
            "active_rows": int(active_rows),
            "skipped_rows": int(skipped_rows),
            "selected_rows": int(selected_rows),
            "estimator_hit_rate": (
                est_decided / est_positions if est_positions else None
            ),
            "rram_read_pj": rram_pj,
            "row_drive_pj": drive_pj,
            "sense_amp_pj": sa_pj,
            "digital_pj": digital_pj,
            "dynamic_pj": dynamic_pj,
            "static_pj": static_pj,
            "saving_vs_static": (
                1.0 - dynamic_pj / static_pj if static_pj else None
            ),
        }
        totals["dynamic_pj"] += dynamic_pj
        totals["static_pj"] += static_pj
        totals["rram_read_pj"] += rram_pj
        totals["row_drive_pj"] += drive_pj
        totals["sense_amp_pj"] += sa_pj
        totals["digital_pj"] += digital_pj
        totals["active_rows"] += active_rows
        totals["skipped_rows"] += skipped_rows
        totals["selected_rows"] += selected_rows
        totals["est_positions"] += est_positions
        totals["est_decided"] += est_decided

    totals["saving_vs_static"] = (
        1.0 - totals["dynamic_pj"] / totals["static_pj"]
        if totals["static_pj"]
        else None
    )
    totals["skipped_rows_pct"] = (
        totals["skipped_rows"] / totals["active_rows"]
        if totals["active_rows"]
        else None
    )
    totals["estimator_hit_rate"] = (
        totals["est_decided"] / totals["est_positions"]
        if totals["est_positions"]
        else None
    )
    return {
        "model": "sei-dynamic (Table 5 constants, observed row activity)",
        "tech": {
            "cell_read_energy_pj": tech.cell_read_energy_pj,
            "row_drive_energy_pj": tech.row_drive_energy_pj,
            "sense_amp_energy_pj": tech.sense_amp_energy_pj,
            "digital_op_energy_pj": tech.digital_op_energy_pj,
        },
        "layers": layers,
        "total": totals,
    }

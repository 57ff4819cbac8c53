"""Tests for the cost-model design-space sweep and its Pareto front.

``repro.dse.design_space_sweep`` is the flat technology-model grid;
``repro.dse.pareto_front`` filters it (legacy ``minimise`` keyword).
"""

import pytest

from repro.dse import design_space_sweep, pareto_front
from repro.errors import ConfigurationError


class TestDesignSpaceSweep:
    def test_grid_coverage(self):
        rows = design_space_sweep(
            "network2", crossbar_sizes=(512, 256), cell_bits=(4,)
        )
        assert len(rows) == 2 * 1 * 2  # sizes x bits x structures
        keys = {(r["crossbar"], r["structure"]) for r in rows}
        assert (512, "sei") in keys and (256, "dac_adc") in keys

    def test_baseline_saving_is_zero(self):
        rows = design_space_sweep(
            "network2", crossbar_sizes=(512,), cell_bits=(4,)
        )
        base = next(r for r in rows if r["structure"] == "dac_adc")
        assert base["energy_saving_vs_baseline"] == pytest.approx(0.0)

    def test_sei_always_saves(self):
        rows = design_space_sweep(
            "network1", crossbar_sizes=(512, 128), cell_bits=(2, 4, 8)
        )
        for row in rows:
            if row["structure"] == "sei":
                assert row["energy_saving_vs_baseline"] > 0.9

    def test_higher_precision_cells_reduce_sei_cost(self):
        rows = design_space_sweep(
            "network1", crossbar_sizes=(512,), cell_bits=(2, 4, 8)
        )
        sei = sorted(
            (r for r in rows if r["structure"] == "sei"),
            key=lambda r: r["cell_bits"],
        )
        energies = [r["energy_uj"] for r in sei]
        assert energies == sorted(energies, reverse=True)

    def test_invalid_cell_bits(self):
        with pytest.raises(ConfigurationError):
            design_space_sweep("network1", cell_bits=(3,))


class TestParetoFront:
    def test_removes_dominated(self):
        rows = [
            {"energy_uj": 1.0, "area_mm2": 1.0, "tag": "good"},
            {"energy_uj": 2.0, "area_mm2": 2.0, "tag": "dominated"},
            {"energy_uj": 0.5, "area_mm2": 3.0, "tag": "tradeoff"},
        ]
        front = pareto_front(rows)
        tags = {r["tag"] for r in front}
        assert tags == {"good", "tradeoff"}

    def test_all_identical_rows_kept(self):
        rows = [{"energy_uj": 1.0}] * 3
        front = pareto_front(rows, minimise=("energy_uj",))
        assert len(front) == 3

    def test_missing_objective_raises(self):
        with pytest.raises(ConfigurationError):
            pareto_front([{"x": 1}], minimise=("energy_uj",))

    def test_empty_objectives_raise(self):
        with pytest.raises(ConfigurationError):
            pareto_front([{"energy_uj": 1.0}], minimise=())

    def test_front_of_real_sweep_nonempty(self):
        rows = design_space_sweep(
            "network2", crossbar_sizes=(512, 256), cell_bits=(4, 8)
        )
        front = pareto_front([r for r in rows if r["structure"] == "sei"])
        assert front
        assert all(r["structure"] == "sei" for r in front)

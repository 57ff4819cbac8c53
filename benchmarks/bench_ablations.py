"""Ablations over the design choices DESIGN.md calls out.

Not paper tables — these probe the knobs the paper fixes:

* Algorithm 1's search criterion (accuracy, the paper's choice) vs the
  cheap quantization-error criterion mentioned in related work;
* the paper's [0, 0.1] threshold search range vs our wider [0, 0.2];
* RRAM cell precision (2/4/8-bit devices) under the SEI mapping;
* the final-classifier merge mode for split matrices (analog WTA vs the
  fully digital vote).
"""

import numpy as np
import pytest

from repro.arch import format_table
from repro.core import (
    HardwareConfig,
    SearchConfig,
    SplitConfig,
    build_split_network,
    search_thresholds,
    sei_layer_compute,
)
from repro.hw import RRAMDevice

from benchmarks.conftest import heading


@pytest.mark.benchmark(group="ablation")
def test_ablation_search_criterion(benchmark, quantized_models, dataset):
    """Accuracy-driven search (Algorithm 1) vs reconstruction-error search."""

    def run():
        qm = quantized_models["network2"]
        rows = []
        for criterion in ("accuracy", "qerror"):
            # Re-search from the *trained float* network each time.
            from repro.zoo import get_trained_network

            net = get_trained_network("network2", dataset=dataset)
            result = search_thresholds(
                net,
                dataset.train.images[:2000],
                dataset.train.labels[:2000],
                SearchConfig(criterion=criterion),
            )
            err = result.binarized().error_rate(
                dataset.test.images, dataset.test.labels
            )
            rows.append(
                {
                    "criterion": criterion,
                    "test error (%)": 100 * err,
                    "thresholds": str(
                        {k: round(v, 3) for k, v in result.thresholds.items()}
                    ),
                }
            )
        rows.append(
            {
                "criterion": "float reference",
                "test error (%)": 100 * qm.float_test_error,
                "thresholds": "-",
            }
        )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    heading("Ablation — threshold search criterion (network2)")
    print(format_table(rows))

    by_name = {r["criterion"]: r for r in rows}
    # The paper's accuracy criterion is at least as good as qerror.
    assert (
        by_name["accuracy"]["test error (%)"]
        <= by_name["qerror"]["test error (%)"] + 0.75
    )
    assert by_name["accuracy"]["test error (%)"] < 6.0


@pytest.mark.benchmark(group="ablation")
def test_ablation_search_range(benchmark, dataset):
    """The paper's [0, 0.1] range vs the wider [0, 0.2] default."""

    def run():
        from repro.zoo import get_trained_network

        rows = []
        for upper in (0.1, 0.2):
            net = get_trained_network("network2", dataset=dataset)
            result = search_thresholds(
                net,
                dataset.train.images[:2000],
                dataset.train.labels[:2000],
                SearchConfig(thres_max=upper),
            )
            err = result.binarized().error_rate(
                dataset.test.images, dataset.test.labels
            )
            rows.append({"range": f"[0, {upper}]", "test error (%)": 100 * err})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    heading("Ablation — threshold search range (network2)")
    print(format_table(rows))
    # The wider range can only match or improve the constrained one.
    assert rows[1]["test error (%)"] <= rows[0]["test error (%)"] + 1e-9


@pytest.mark.benchmark(group="ablation")
def test_ablation_device_bits(benchmark, quantized_models, dataset):
    """SEI accuracy vs RRAM cell precision (paper fixes 4-bit devices)."""

    def run():
        qm = quantized_models["network2"]
        net = qm.search.network
        rows = []
        for bits in (1, 2, 4, 8):
            bn = qm.search.binarized()
            for index in (3, 7):
                bn.layer_computes[index] = sei_layer_compute(
                    net.layers[index],
                    device=RRAMDevice(bits=bits),
                    max_crossbar_size=8192,
                    rng=np.random.default_rng(0),
                )
            err = bn.error_rate(dataset.test.images, dataset.test.labels)
            rows.append(
                {
                    "cell bits": bits,
                    "cells/weight": 2 * (8 // bits),
                    "test error (%)": 100 * err,
                }
            )
        rows.append(
            {
                "cell bits": "software",
                "cells/weight": "-",
                "test error (%)": 100 * qm.quantized_test_error,
            }
        )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    heading("Ablation — SEI accuracy vs RRAM cell precision (network2)")
    print(format_table(rows))

    software = rows[-1]["test error (%)"]
    for row in rows[:-1]:
        # Any cell precision that tiles 8-bit weights reproduces the
        # software decision up to rounding: small accuracy cost.
        assert row["test error (%)"] <= software + 2.0, row


@pytest.mark.benchmark(group="ablation")
def test_ablation_refinement_passes(benchmark, dataset):
    """Single-pass greedy (the paper's Algorithm 1) vs coordinate-descent
    refinement — matters mostly for deeper networks (see
    bench_deep_network.py); on the shallow Table 2 networks it should be
    near-neutral."""

    def run():
        from repro.zoo import get_trained_network

        rows = []
        for passes in (0, 1):
            net = get_trained_network("network2", dataset=dataset)
            result = search_thresholds(
                net,
                dataset.train.images[:2000],
                dataset.train.labels[:2000],
                SearchConfig(refine_passes=passes),
            )
            err = result.binarized().error_rate(
                dataset.test.images, dataset.test.labels
            )
            rows.append(
                {"refine passes": passes, "test error (%)": 100 * err}
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    heading("Ablation — threshold refinement passes (network2)")
    print(format_table(rows))
    # Refinement never degrades badly on the shallow networks.
    assert rows[1]["test error (%)"] <= rows[0]["test error (%)"] + 0.75


@pytest.mark.benchmark(group="ablation")
def test_ablation_final_layer_merge(benchmark, quantized_models, dataset):
    """Split final classifier: analog WTA merge vs fully digital votes."""

    def run():
        qm = quantized_models["network1"]
        rows = []
        for mode in ("analog", "vote"):
            result = build_split_network(
                qm.search.network,
                qm.search.thresholds,
                dataset.train.images,
                dataset.train.labels,
                SplitConfig(final_layer_mode=mode),
                HardwareConfig(max_crossbar_size=512, homogenize_iterations=3000),
            )
            err = result.binarized.error_rate(
                dataset.test.images, dataset.test.labels
            )
            rows.append({"final merge": mode, "test error (%)": 100 * err})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    heading("Ablation — final-layer merge mode (network1, crossbar 512)")
    print(format_table(rows))

    analog = next(r for r in rows if r["final merge"] == "analog")
    vote = next(r for r in rows if r["final merge"] == "vote")
    # Analog merging is exact, digital votes cost some accuracy.
    assert analog["test error (%)"] <= vote["test error (%)"] + 1e-9
    assert vote["test error (%)"] < 8.0

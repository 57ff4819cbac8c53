"""Table 4: error rate of the splitting methods on Network 1.

Paper (Network 1, MNIST):

    Max crossbar size          512            256
    Original CNN              0.93%          0.93%
    Quantization              1.63%          1.63%
    Random Order Splitting    3.90-45.89%    4.44-49.03%
    Matrix Homogenization     1.78%          2.29%
    Dynamic Threshold         1.52%          1.82%

We regenerate the same rows: the quantized network is split onto
size-limited crossbars (conv2: 3 or 5 blocks; FC: 8 or 16 blocks), with
random row orders sampled (the paper samples 500; we sample fewer — the
min-max range is reported), then homogenization and dynamic block
thresholds are applied.  See EXPERIMENTS.md for the magnitude
differences (our trained matrices are naturally more homogeneous than
the paper's, so random orders degrade less dramatically).
"""

import pytest

from repro.analysis import error_rate_pct, summarize_range
from repro.arch import format_table
from repro.core import HardwareConfig, SplitConfig, build_split_network

from benchmarks.conftest import heading

RANDOM_ORDERS = 8


def run_table4(quantized_models, dataset, crossbar_size):
    qm = quantized_models["network1"]
    net, thresholds = qm.search.network, qm.search.thresholds
    train_x, train_y = dataset.train.images, dataset.train.labels
    test_x, test_y = dataset.test.images, dataset.test.labels

    def split_error(dynamic=False, **hardware_kwargs):
        result = build_split_network(
            net,
            thresholds,
            train_x,
            train_y,
            SplitConfig(dynamic=dynamic),
            HardwareConfig(
                max_crossbar_size=crossbar_size,
                homogenize_iterations=3000,
                **hardware_kwargs,
            ),
        )
        return result.binarized.error_rate(test_x, test_y), result

    random_errors = []
    for seed in range(RANDOM_ORDERS):
        err, _ = split_error(partition_method="random", seed=seed)
        random_errors.append(err)

    homog_err, homog_result = split_error(partition_method="homogenize")
    dyn_err, _ = split_error(dynamic=True, partition_method="homogenize")

    return {
        "float": qm.float_test_error,
        "quant": qm.quantized_test_error,
        "random": summarize_range(random_errors),
        "homog": homog_err,
        "dynamic": dyn_err,
        "blocks": {
            i: r.num_blocks for i, r in homog_result.reports.items()
        },
        "distance_reduction": {
            i: 1 - r.distance / r.natural_distance
            for i, r in homog_result.reports.items()
            if r.natural_distance > 0
        },
    }


@pytest.mark.benchmark(group="table4")
@pytest.mark.parametrize("crossbar_size", [512, 256])
def test_table4_splitting_error(
    benchmark, quantized_models, dataset, crossbar_size
):
    res = benchmark.pedantic(
        run_table4,
        args=(quantized_models, dataset, crossbar_size),
        rounds=1,
        iterations=1,
    )

    heading(f"Table 4 — splitting methods, Network 1, crossbar {crossbar_size}")
    rows = [
        {"method": "Original CNN", "error (%)": error_rate_pct(res["float"])},
        {"method": "Quantization", "error (%)": error_rate_pct(res["quant"])},
        {
            "method": f"Random Order ({RANDOM_ORDERS} orders, min-max)",
            "error (%)": (
                f"{error_rate_pct(res['random']['min']):.2f} - "
                f"{error_rate_pct(res['random']['max']):.2f}"
            ),
        },
        {
            "method": "Matrix Homogenization",
            "error (%)": error_rate_pct(res["homog"]),
        },
        {
            "method": "Dynamic Threshold",
            "error (%)": error_rate_pct(res["dynamic"]),
        },
    ]
    print(format_table(rows))
    print(f"blocks per split layer: {res['blocks']}")
    print(
        "homogenization distance reduction: "
        + ", ".join(
            f"layer {i}: {v:.1%}" for i, v in res["distance_reduction"].items()
        )
    )

    # Paper-example geometry: conv2 -> 3 (512) or 5 (256) blocks.
    conv2_blocks = res["blocks"][3]
    assert conv2_blocks == (3 if crossbar_size == 512 else 5)

    # Quantization costs little; splitting costs more; homogenization and
    # dynamic thresholds keep the error in the low single digits.
    assert res["quant"] <= res["float"] + 0.02
    assert res["homog"] <= res["random"]["max"] + 1e-9
    assert res["homog"] < 0.05
    assert res["dynamic"] <= res["homog"] + 0.01

    # Homogenization slashes the Equ. 10 distance (paper: 80-90%).
    for reduction in res["distance_reduction"].values():
        assert reduction > 0.5

"""Splitting a large weight matrix across crossbars without ADCs (§4.3).

Network 1's conv2 (300x64 -> a 1200-row SEI image) and FC (1024x10 ->
4096 rows) exceed the 512x512 crossbar limit.  This example walks through
the paper's remedy: split the rows into blocks, watch accuracy drop for
arbitrary row orders, then repair it with matrix homogenization and
per-block dynamic thresholds.

Run:  python examples/split_large_matrix.py
"""

from repro.arch import format_table
from repro.core import HardwareConfig, SplitConfig, build_split_network
from repro.zoo import get_dataset, get_quantized


def split_error(model, dataset, dynamic=False, **hardware_kwargs):
    """Test error of network1 split onto 512-row crossbars."""
    result = build_split_network(
        model.search.network,
        model.search.thresholds,
        dataset.train.images,
        dataset.train.labels,
        SplitConfig(dynamic=dynamic),
        HardwareConfig(
            max_crossbar_size=512, homogenize_iterations=3000, **hardware_kwargs
        ),
    )
    error = result.binarized.error_rate(
        dataset.test.images, dataset.test.labels
    )
    return error, result


def main() -> None:
    dataset = get_dataset()
    model = get_quantized("network1", dataset=dataset)

    print(f"float error:        {model.float_test_error:.2%}")
    print(f"1-bit (unsplit):    {model.quantized_test_error:.2%}\n")

    rows = []

    err, result = split_error(model, dataset, partition_method="natural")
    for index, report in result.reports.items():
        print(
            f"layer {index}: {report.num_blocks} blocks "
            f"(final={report.is_final}), Equ.10 distance natural order = "
            f"{report.natural_distance:.3f}"
        )
    rows.append({"row order": "natural", "test error": f"{err:.2%}"})

    for seed in range(3):
        err, _ = split_error(
            model, dataset, partition_method="random", seed=seed
        )
        rows.append(
            {"row order": f"random (seed {seed})", "test error": f"{err:.2%}"}
        )

    err, result = split_error(model, dataset, partition_method="homogenize")
    reductions = ", ".join(
        f"{1 - r.distance / r.natural_distance:.0%}"
        for r in result.reports.values()
        if r.natural_distance > 0
    )
    rows.append(
        {
            "row order": f"homogenized (distance cut {reductions})",
            "test error": f"{err:.2%}",
        }
    )

    err, _ = split_error(
        model, dataset, partition_method="homogenize", dynamic=True
    )
    rows.append(
        {"row order": "homogenized + dynamic thresholds", "test error": f"{err:.2%}"}
    )

    print("\n== Table 4 style comparison (crossbar 512) ==")
    print(format_table(rows))
    print(
        "\nNote: the fully digital final-layer vote can be selected with "
        "SplitConfig(final_layer_mode='vote'); the default merges the "
        "classifier blocks in analog into the winner-take-all readout."
    )


if __name__ == "__main__":
    main()

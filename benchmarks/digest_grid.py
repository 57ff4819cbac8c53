"""Byte-identity digests of the SEI engines over a grid of configurations.

A refactor of the engines that claims "same bits" is checked by
digesting what every configuration computes on two trees and comparing
the two digest files.  For each configuration the tool compiles a zoo
network, runs it traced on the first ``IMAGES`` test images and
digests

* the logits (sha256 of their bytes, with dtype and shape),
* every ``hw/*`` counter, gauge and histogram of the recorder,
* every device array's ``reads_since_program``, ``generation`` and
  ``snapshot().digest()`` after the run.

The grid covers the ``fused`` engine and its ``packed`` alias on zoo
networks 1-3 under clean, stuck-at (2% + 2%), programming-noise
(``program_sigma=0.1``), read-noise (``read_sigma=0.02``) and temporal
(drift, retention and read disturb) devices, both partition methods,
512/256/128-row crossbars, and the estimator off and in exact mode.
Temporal arrays run twice with an ``advance`` of the device clocks in
between (the estimator rejects temporal arrays, so they run it off).
Threshold-mode estimation at confidence 1.0, 0.8 and 0.6 adds the
argmax of each run on the non-temporal devices.

Usage, from the repository root::

    PYTHONPATH=src python benchmarks/digest_grid.py --out A.json
    PYTHONPATH=src python benchmarks/digest_grid.py --compare A.json B.json

``--compare`` lists the configurations whose digests differ (or that
only one file has) and exits 1 if there are any.  ``--quick`` keeps
network1 at 256 rows only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Dict, Iterator, Tuple

import numpy as np

ENGINES = ("fused", "packed")
NETWORKS = ("network1", "network2", "network3")
DEVICES = ("clean", "stuck", "program", "read", "temporal")
PARTITIONS = ("homogenize", "natural")
ROWS = (512, 256, 128)
ESTIMATORS = ("off", "exact")
CONFIDENCES = (1.0, 0.8, 0.6)
#: Test images per configuration.
IMAGES = 128
#: Device-clock step between the two runs of a temporal configuration.
ADVANCE = 1000.0


def _device(kind: str):
    from repro.hw.array import TemporalConfig
    from repro.hw.device import RRAMDevice

    options = {
        "clean": {},
        "stuck": dict(stuck_low_rate=0.02, stuck_high_rate=0.02),
        "program": dict(program_sigma=0.1),
        "read": dict(read_sigma=0.02),
        "temporal": {},
    }[kind]
    temporal = TemporalConfig(
        drift_nu=0.01, retention_tau=1e6, read_disturb_rate=1e-7
    ) if kind == "temporal" else None
    return RRAMDevice(bits=4, **options), temporal


def configs(quick: bool = False) -> Iterator[Tuple[str, dict]]:
    """``(name, options)`` for every configuration of the grid."""
    networks = NETWORKS[:1] if quick else NETWORKS
    rows = (256,) if quick else ROWS
    for network in networks:
        for device in DEVICES:
            for partition in PARTITIONS:
                for size in rows:
                    estimators = [(mode, 1.0) for mode in ESTIMATORS]
                    if device == "temporal":
                        estimators = [("off", 1.0)]
                    else:
                        estimators += [("threshold", c) for c in CONFIDENCES]
                    for engine in ENGINES:
                        for mode, confidence in estimators:
                            if mode == "threshold" and engine != "fused":
                                continue
                            estimator = (
                                mode if mode != "threshold"
                                else f"threshold@{confidence}"
                            )
                            name = "/".join(
                                (engine, network, device, partition,
                                 str(size), estimator)
                            )
                            yield name, dict(
                                engine=engine, network=network,
                                device=device, partition=partition,
                                rows=size, mode=mode, confidence=confidence,
                            )


def _sha(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256(
        f"{array.dtype.str}{array.shape}".encode()
    )
    digest.update(array.tobytes())
    return digest.hexdigest()


def _hw_metrics(metrics) -> dict:
    exported = metrics.as_dict()
    return {
        kind: {
            name: value
            for name, value in sorted(exported.get(kind, {}).items())
            if name.startswith("hw/")
        }
        for kind in ("counters", "gauges", "histograms")
    }


def digest(options: dict, models: dict, images: np.ndarray,
           partitions: dict) -> dict:
    """The digest of one configuration."""
    from repro import obs
    from repro.core.engines import EngineSpec, compile_network
    from repro.core.estimate import EstimatorPolicy
    from repro.core.hardware_network import HardwareConfig

    device, temporal = _device(options["device"])
    config = HardwareConfig(
        device=device,
        max_crossbar_size=options["rows"],
        partition_method=options["partition"],
        temporal=temporal,
    )
    spec = EngineSpec(
        name=options["engine"],
        hardware=config,
        estimator=EstimatorPolicy(
            mode=options["mode"], confidence=options["confidence"]
        ),
    )
    model = models[options["network"]]
    # Homogenization is deterministic: one run per (network, rows,
    # method), its partitions handed to every later compile.
    key = (options["network"], options["rows"], options["partition"])
    net = compile_network(
        model.search.network, model.search.thresholds, spec,
        partitions=partitions.get(key),
    )
    if key not in partitions:
        partitions[key] = {
            index: record.get("partition", getattr(
                record.get("matrix"), "partition", None
            ))
            for index, record in net.hardware_layers.items()
            if record["kind"] in ("split", "analog_merge")
        }
    runs = 2 if options["device"] == "temporal" else 1
    logits = []
    with obs.recording() as rec:
        for run in range(runs):
            if run:
                for array in net.device_arrays.values():
                    array.advance(ADVANCE)
            logits.append(net.predict(images, batch_size=64))
    out = {
        "arrays": {
            name: [
                int(array.reads_since_program),
                int(array.generation),
                array.snapshot().digest(),
            ]
            for name, array in sorted(net.device_arrays.items())
        },
    }
    if options["mode"] == "threshold":
        out["argmax"] = [_sha(x.argmax(axis=1)) for x in logits]
    else:
        out["logits"] = [_sha(x) for x in logits]
        out["hw"] = _hw_metrics(rec.metrics)
    return out


def run_grid(count: int, quick: bool) -> Dict[str, dict]:
    from repro.zoo import get_dataset, get_quantized

    grid = list(configs(quick))
    models = {name: get_quantized(name) for name in {
        options["network"] for _, options in grid
    }}
    images = get_dataset().test.images[:count]
    partitions: dict = {}
    results = {}
    for done, (name, options) in enumerate(grid, 1):
        results[name] = digest(options, models, images, partitions)
        print(f"[{done}/{len(grid)}] {name}", file=sys.stderr, flush=True)
    return results


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)["configs"]
    with open(path_b) as handle:
        b = json.load(handle)["configs"]
    differ = sorted(
        name for name in set(a) | set(b) if a.get(name) != b.get(name)
    )
    for name in differ:
        side = (
            "" if name in a and name in b
            else f" (only in {path_a if name in a else path_b})"
        )
        print(f"DIFFERS {name}{side}")
    print(
        f"{len(differ)} of {len(set(a) | set(b))} configurations differ"
    )
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", help="write the grid's digests here")
    action.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two digest files")
    parser.add_argument("--quick", action="store_true",
                        help="network1 at 256 rows only")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    results = run_grid(IMAGES, args.quick)
    with open(args.out, "w") as handle:
        json.dump(
            {"images": IMAGES, "configs": results}, handle,
            indent=1, sort_keys=True,
        )
    print(f"{len(results)} configurations -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

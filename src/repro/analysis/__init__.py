"""Analysis helpers: activation distributions (Table 1) and metrics."""

from repro.analysis.distribution import (
    TABLE1_BINS,
    bin_fractions,
    conv_output_distribution,
)
from repro.analysis.metrics import error_rate_pct, relative_change_pct, summarize_range
from repro.analysis.perf import Timing, speedup, time_call, time_interleaved
from repro.analysis.stats import (
    McNemarResult,
    mcnemar_test,
    paired_disagreement,
    wilson_interval,
)
from repro.analysis.robustness import (
    NoiseSweepResult,
    sei_variation_sweep,
    sense_amp_noise_sweep,
)

__all__ = [
    "TABLE1_BINS",
    "bin_fractions",
    "conv_output_distribution",
    "error_rate_pct",
    "summarize_range",
    "relative_change_pct",
    "NoiseSweepResult",
    "sei_variation_sweep",
    "sense_amp_noise_sweep",
    "wilson_interval",
    "McNemarResult",
    "mcnemar_test",
    "paired_disagreement",
    "Timing",
    "time_call",
    "time_interleaved",
    "speedup",
]

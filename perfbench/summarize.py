"""Turn a traced run's span dump into the per-layer metrics.

A span is ``[name, start, end, parent_index]`` (seconds, parent -1 at the
top).  A span's self time is its duration minus the part of it covered by
its children.  Per-step figures divide totals over the training steps (one
``optim.adadelta_step`` span each); spans under ``regressor.predict``
(validation and inference) never count towards a step.  A metric whose
layer does no work on a workload reads 0.

Usage: python3 perfbench/summarize.py <spans.json>
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

from statistics import median

# listed in BENCHMARK.json's per_layer section, with units and directions
UNITS = {
    "autodiff.op_calls_per_step": "count",
    "autodiff.small_ops_ms_per_step": "ms",
    "autodiff.backprop_dispatch_ms_per_step": "ms",
    "autodiff.conv_fwd_ms_per_step": "ms",
    "autodiff.conv_bwd_ms_per_step": "ms",
    "autodiff.conv_gflop_per_step": "GFLOP",
    "autodiff.conv_gflops": "GFLOP/s",
    "autodiff.im2col_mb_per_step": "MB",
    "regressor.hydra_loss_ms_per_step": "ms",
    "regressor.slots_forwarded_per_step": "count",
    "regressor.real_slot_ratio": "ratio",
    "optim.adadelta_ms_per_step": "ms",
    "augment.geometric_ms_per_image": "ms",
    "augment.epoch_sets_ms": "ms",
    "augment.black_share": "ratio",
    "data.generate_s": "s",
    "data.load_split_ms": "ms",
    "data.mb_read": "MB",
    "trainer.validation_ms_per_epoch": "ms",
    "trainer.loop_self_share": "ratio",
    "trace.overhead_share": "ratio",
}

SMALL_OPS = ("autodiff.relu", "autodiff.concat", "autodiff.gap", "autodiff.fc",
             "autodiff.add", "autodiff.sub", "autodiff.mul")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _under_predict(spans: list) -> list[bool]:
    flags: list[bool] = []
    for name, _, _, parent in spans:
        flags.append(name == "regressor.predict" or (parent >= 0 and flags[parent]))
    return flags


def summarize(record: dict) -> dict[str, float]:
    spans, counts, meta = record["spans"], record["counts"], record["meta"]
    in_predict = _under_predict(spans)
    selfs = self_times(spans)
    durations: dict[str, list[float]] = defaultdict(list)   # training-step spans
    self_total: dict[str, float] = defaultdict(float)
    validation = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        if name == "regressor.predict" and parent >= 0 and spans[parent][0] == "trainer.train":
            validation += end - start
        if not in_predict[i]:
            durations[name].append(end - start)
            self_total[name] += selfs[i]

    def total(*names: str) -> float:
        return sum(sum(durations[n]) for n in names)

    def mean(name: str) -> float:
        return _ratio(sum(durations[name]), len(durations[name]))

    steps = len(durations["optim.adadelta_step"])
    tasks = len(durations["trainer.train"])

    def ms_per_step(seconds: float) -> float:
        return _ratio(seconds * 1e3, steps)

    conv_s = total("autodiff.conv", "autodiff.conv.bwd")
    return {
        "autodiff.op_calls_per_step": _ratio(counts.get("ops", 0), steps),
        "autodiff.small_ops_ms_per_step": ms_per_step(
            total(*SMALL_OPS, *(n + ".bwd" for n in SMALL_OPS))),
        "autodiff.backprop_dispatch_ms_per_step": ms_per_step(
            self_total["autodiff.backpropagate"]),
        "autodiff.conv_fwd_ms_per_step": ms_per_step(total("autodiff.conv")),
        "autodiff.conv_bwd_ms_per_step": ms_per_step(total("autodiff.conv.bwd")),
        "autodiff.conv_gflop_per_step": _ratio(counts.get("conv_flop", 0), steps) / 1e9,
        "autodiff.conv_gflops": _ratio(counts.get("conv_flop", 0), conv_s) / 1e9,
        "autodiff.im2col_mb_per_step": _ratio(counts.get("im2col_bytes", 0), steps) / 1e6,
        "regressor.hydra_loss_ms_per_step": ms_per_step(total("regressor.hydra_loss")),
        "regressor.slots_forwarded_per_step": _ratio(counts.get("slots", 0), steps),
        "regressor.real_slot_ratio": _ratio(counts.get("real_slots", 0),
                                            counts.get("slots", 0)),
        "optim.adadelta_ms_per_step": ms_per_step(total("optim.adadelta_step")),
        "augment.geometric_ms_per_image": mean("augment.geometric") * 1e3,
        "augment.epoch_sets_ms": mean("augment.make_epoch_sets") * 1e3,
        "augment.black_share": _ratio(counts.get("black_slots", 0),
                                      counts.get("set_slots", 0)),
        "data.generate_s": (median(durations["data.generate_dataset"])
                            if durations["data.generate_dataset"] else 0.0),
        "data.load_split_ms": mean("data.load_split") * 1e3,
        "data.mb_read": _ratio(counts.get("bytes_read", 0), tasks) / 1e6,
        "trainer.validation_ms_per_epoch": _ratio(validation * 1e3, meta.get("epochs", 0)),
        "trainer.loop_self_share": _ratio(self_total["trainer.train"],
                                          total("trainer.train")),
        "trace.overhead_share": _ratio(meta["traced_s"], meta["reference_s"]) - 1.0,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        record = json.load(fh)
    for name, value in summarize(record).items():
        print(f"{name} = {value:.6g} {UNITS[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

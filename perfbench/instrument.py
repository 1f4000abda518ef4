"""Hooks the benchmark installs on setsum's public names, from outside the package.

Two kinds, never active at once:

* :class:`Probe` — the untraced clocks.  One clock read as each optimizer
  step returns (step intervals), two around each ``predict`` made inside
  ``infer`` (per-image latency), and counters for training images and calls.
  Nothing else is timed, so the end-to-end metrics stay close to an
  unhooked run.
* :class:`Tracer` — the traced run.  Every wrapped call becomes a span
  ``[name, start, end, parent]`` kept in memory; autodiff primitives also get
  their backward closures wrapped, so conv backward and the other closures
  show up as spans under ``backpropagate``.

Both rebind names where setsum's own modules look them up at call time
(``setsum.trainer.<name>`` and ``setsum.regressor.<name>``); the Tensor
arithmetic operators are patched on the class.  Every patch is undone by
``uninstall``.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import setsum.autodiff as autodiff
import setsum.regressor as regressor
import setsum.trainer as trainer

perf_counter = time.perf_counter


class Patcher:
    """Rebinds attributes and remembers the originals, so they can be restored."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# untraced clocks
# ---------------------------------------------------------------------------

class Probe(Patcher):
    """Step and predict clocks on ``setsum.trainer``'s names.

    ``names`` selects which of train, infer, predict, adadelta_step and
    make_epoch_sets are hooked; ``calls`` counts each, so a hook that was
    never reached can be reported.  A step interval is the time between two
    consecutive ``adadelta_step`` returns inside one epoch: the clock is
    reset when ``train`` starts, when an epoch's sets are drawn and when
    validation calls ``predict``.

    ``marks`` is one clock read at every hook boundary (``train``, ``infer``
    and ``predict`` entry and exit, each epoch's sets drawn, each step), so
    the marks of one round cut its wall time into intervals that repeat
    position by position in every identical round.  ``train_end`` is the
    index of the mark taken as the last ``train`` returned.
    """

    def __init__(self, names):
        super().__init__()
        self.names = tuple(names)
        self.step_ms: list[float] = []
        self.predict_ms: list[float] = []
        self.real_images = 0
        self.calls: Counter = Counter({name: 0 for name in self.names})
        self.marks: list[float] = []
        self.train_end = -1
        self._last_step: float | None = None
        self._in_infer = False

    def install(self) -> "Probe":
        for name in self.names:
            self.patch(trainer, name, getattr(self, f"_wrap_{name}"))
        return self

    def _wrap_train(self, fn):
        def train(model, manifest, config, *args, **kwargs):
            self.calls["train"] += 1
            self._last_step = None
            if config.method != "setsum":
                # every training image is real in baseline and mixup epochs
                self.real_images += len(manifest.split_records("train")) * config.epochs
            self.marks.append(perf_counter())
            result = fn(model, manifest, config, *args, **kwargs)
            self.marks.append(perf_counter())
            self.train_end = len(self.marks) - 1
            return result
        return train

    def _wrap_make_epoch_sets(self, fn):
        def make_epoch_sets(*args, **kwargs):
            self.calls["make_epoch_sets"] += 1
            self._last_step = None
            sets = fn(*args, **kwargs)
            self.marks.append(perf_counter())
            self.real_images += sum(len(s.real_indices()) for s in sets)
            return sets
        return make_epoch_sets

    def _wrap_adadelta_step(self, fn):
        def adadelta_step(*args, **kwargs):
            fn(*args, **kwargs)
            now = perf_counter()
            self.marks.append(now)
            if self._last_step is not None:
                self.step_ms.append((now - self._last_step) * 1e3)
            self._last_step = now
            self.calls["adadelta_step"] += 1
        return adadelta_step

    def _wrap_predict(self, fn):
        def predict(*args, **kwargs):
            self.calls["predict"] += 1
            self._last_step = None
            start = perf_counter()
            self.marks.append(start)
            value = fn(*args, **kwargs)
            end = perf_counter()
            self.marks.append(end)
            if self._in_infer:
                self.predict_ms.append((end - start) * 1e3)
            return value
        return predict

    def _wrap_infer(self, fn):
        def infer(*args, **kwargs):
            self.calls["infer"] += 1
            self._in_infer = True
            self.marks.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.marks.append(perf_counter())
                self._in_infer = False
        return infer


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

# primitives the regressor imports from setsum.autodiff, by span name
PRIMITIVES = {
    "conv": "autodiff.conv",
    "relu": "autodiff.relu",
    "concat_channels": "autodiff.concat",
    "global_avg_pool": "autodiff.gap",
    "fully_connected": "autodiff.fc",
}
# Tensor operators the set sum, the loss node and baseline batch means use
ARITHMETIC = {"__add__": "autodiff.add", "__sub__": "autodiff.sub",
              "__mul__": "autodiff.mul"}

# set-level, optimizer, augmentation and data calls made by setsum.trainer
TRAINER_CALLS = {
    "train": "trainer.train",
    "infer": "trainer.infer",
    "predict": "regressor.predict",
    "hydra_loss": "regressor.hydra_loss",
    "backpropagate": "autodiff.backpropagate",
    "adadelta_step": "optim.adadelta_step",
    "make_epoch_sets": "augment.make_epoch_sets",
    "random_geometric_augment": "augment.geometric",
    "load_split": "data.load_split",
}


def _sstf_bytes(image) -> int:
    """Size of the tensor file an array was read from: header plus float64 payload."""
    return 6 + 4 * image.ndim + 8 * image.size


class Tracer(Patcher):
    """In-memory spans ``[name, start, end, parent_index]`` plus work counters.

    Counters are only advanced outside ``predict`` (validation and
    inference), so they describe training steps: ``ops`` (autodiff nodes
    built), ``slots``/``real_slots`` (images handed to ``hydra_loss``),
    ``set_slots``/``black_slots`` (slots drawn by ``make_epoch_sets``),
    ``conv_flop`` and ``im2col_bytes`` (computed from conv shapes, forward
    plus backward GEMMs, stride 1), and ``bytes_read`` by ``load_split``.
    """

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.hooked: list[str] = []
        self._stack: list[int] = []
        self._predict_depth = 0

    # -- span recording ------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def timed(self, name: str, fn):
        """``fn`` wrapped so that every call records a span named ``name``."""
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    @contextmanager
    def span(self, name: str):
        """One span around a call the benchmark makes itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- installation --------------------------------------------------

    def install(self, trainer_names, operators) -> "Tracer":
        """Wrap ``trainer_names`` (keys of TRAINER_CALLS), every autodiff
        primitive and the Tensor ``operators`` (keys of ARITHMETIC) the
        training step builds."""
        for name in trainer_names:
            self.patch(trainer, name, self._trainer_wrapper(name))
            self.hooked.append(TRAINER_CALLS[name])
        ops = [(regressor, name, span) for name, span in PRIMITIVES.items()]
        ops += [(autodiff.Tensor, name, ARITHMETIC[name]) for name in operators]
        for owner, name, span in ops:
            self.patch(owner, name, self._op_wrapper(span))
            self.hooked.append(span)
        return self

    def calls(self) -> dict[str, int]:
        """Spans recorded per hooked name, zero for a hook never reached."""
        calls = {name: 0 for name in self.hooked}
        for span in self.spans:
            if span[0] in calls:
                calls[span[0]] += 1
        return calls

    def _trainer_wrapper(self, name: str):
        span = TRAINER_CALLS[name]

        def make(fn):
            timed = self.timed(span, fn)
            if name == "predict":
                def predict(*args, **kwargs):
                    self._predict_depth += 1
                    try:
                        return timed(*args, **kwargs)
                    finally:
                        self._predict_depth -= 1
                return predict
            if name == "hydra_loss":
                def hydra_loss(model, images, *args, **kwargs):
                    self.counts["slots"] += len(images)
                    self.counts["real_slots"] += sum(im is not None for im in images)
                    return timed(model, images, *args, **kwargs)
                return hydra_loss
            if name == "make_epoch_sets":
                def make_epoch_sets(*args, **kwargs):
                    sets = timed(*args, **kwargs)
                    for s in sets:
                        self.counts["set_slots"] += len(s.slots)
                        self.counts["black_slots"] += len(s.slots) - len(s.real_indices())
                    return sets
                return make_epoch_sets
            if name == "load_split":
                def load_split(*args, **kwargs):
                    images, labels = timed(*args, **kwargs)
                    self.counts["bytes_read"] += sum(_sstf_bytes(im) for im in images)
                    return images, labels
                return load_split
            return timed
        return make

    def _op_wrapper(self, span: str):
        backward_span = span + ".bwd"
        is_conv = span == "autodiff.conv"

        def make(fn):
            timed = self.timed(span, fn)

            def op(*args, **kwargs):
                out = timed(*args, **kwargs)
                if out._backward is not None:
                    out._backward = self.timed(backward_span, out._backward)
                if self._predict_depth == 0:
                    self.counts["ops"] += 1
                    if is_conv:
                        self._count_conv(args[0], args[1], out)
                return out
            return op
        return make

    def _count_conv(self, x, kernel, out) -> None:
        c_out, c_in = kernel.shape[:2]
        taps = 1
        for e in kernel.shape[2:]:
            taps *= e
        positions = out.size // c_out
        padded = 1
        for o, k in zip(out.shape[1:], kernel.shape[2:]):
            padded *= o + k - 1
        gemm = 2 * c_out * c_in * taps
        flop = gemm * positions                  # forward
        col_bytes = 8 * c_in * taps * positions  # forward im2col columns
        if kernel.requires_grad:
            flop += gemm * positions             # kernel gradient reuses the columns
        if x.requires_grad:
            flop += gemm * padded                # input gradient, full correlation
            col_bytes += 8 * c_out * taps * padded
        self.counts["conv_flop"] += flop
        self.counts["im2col_bytes"] += col_bytes

    def dump(self, path: Path, meta: dict) -> dict:
        """Write spans, counters and run facts to ``path``; returns the same dict."""
        record = {"spans": self.spans, "counts": dict(self.counts), "meta": meta}
        path.write_text(json.dumps(record))
        return record

"""Span tracing for the traced benchmark run.

The wrappers live here, in the benchmark, and are installed around the public
functions of the program's modules only for the traced run; the untraced runs
execute unmodified code. Each wrapper records a span (name, start, end,
parent span) and the exceptions the call raises; hooks record counts at the
same boundaries. Spans stay in memory and are written out when the run ends.

The program is single-threaded here (datapipe ``workers`` = 1), so one stack
of open spans gives every span its parent.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from rqspeech import autodiff as ad
from rqspeech import datapipe, encoder, finetune, frontend, masking, pretrain
from rqspeech import quantizer

OP_SPAN = "bench.op"
# Spans whose own (self) time is not attributed to a named layer.
CONTAINERS = {OP_SPAN, "pretrain.train_step", "finetune.transcribe", "trace.tape_walk"}


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the monkeypatches that feed it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._patches: list = []

    # span bookkeeping -----------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = perf_counter()
        self._stack.pop()
        return span

    def parent_name(self):
        return self.spans[self._stack[-1]].name if self._stack else None

    @contextlib.contextmanager
    def paused(self):
        """Let calls through unrecorded, for the benchmark's own checks."""
        saved, self.active = self.active, False
        try:
            yield
        finally:
            self.active = saved

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            self.close(idx)

    # wrappers ----------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, under: str | None = None,
             after=None, before=None) -> None:
        """Replace ``owner.attr`` by a function that records a span per call.

        ``under`` restricts recording to calls whose parent span has that
        name; other calls pass straight through. ``after(span, args, result)``
        records counts; ``before(args)`` runs in its own ``trace.*`` span so
        the work it does is not charged to the layer.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active or (under is not None and tracer.parent_name() != under):
                return original(*args, **kwargs)
            if before is not None:
                with tracer.span("trace.tape_walk"):
                    before(args)
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
            if after is not None:
                after(span, args, result)
            return result

        functools.update_wrapper(traced, original)
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def wrap_iter_epoch(self) -> None:
        """Time each blocking ``next()`` on ``datapipe.iter_epoch``."""
        original = datapipe.iter_epoch
        tracer = self

        def traced(*args, **kwargs):
            it = original(*args, **kwargs)
            while True:
                if not tracer.active:
                    batch = next(it, None)
                else:
                    with tracer.span("datapipe.wait"):
                        batch = next(it, None)
                if batch is None:
                    return
                if tracer.active:
                    c = tracer.counts
                    c["datapipe.batches"] += 1
                    c["datapipe.valid_frames"] += int(batch.lengths.sum())
                    c["datapipe.padded_frames"] += int(batch.features.shape[0]
                                                       * batch.features.shape[1])
                yield batch

        functools.update_wrapper(traced, original)
        datapipe.iter_epoch = traced
        self._patches.append((datapipe, "iter_epoch", original))

    def install(self) -> None:
        c = self.counts

        def count(key, value_of):
            def after(span, args, result):
                c[key] += value_of(args, result)
            return after

        def on_assign(span, args, result):
            c["quantizer.assign_calls"] += 1
            c["quantizer.label_frames"] += int(result.shape[0])

        def on_mask(span, args, result):
            c["masking.valid_frames"] += int(result.input_mask.size)
            c["masking.masked_frames"] += int(result.input_mask.sum())
            c["masking.label_frames"] += int(result.target_mask.size)
            c["masking.target_frames"] += int(result.target_mask.sum())

        def on_encode(span, args, result):
            c["encoder.calls"] += 1
            c["encoder.frames"] += int(np.sum(result.lengths))

        def on_step(span, args, result):
            if result is not None:
                c["pretrain.steps"] += 1

        def on_checkpoint(span, args, result):
            c["pretrain.checkpoint_calls"] += 1
            c["pretrain.checkpoint_bytes"] += os.path.getsize(args[1])

        def walk_tape(args):
            c["autodiff.backward_calls"] += 1
            c["autodiff.tape_nodes"] += _reachable_nodes(args[0])

        w = self.wrap
        self.wrap_iter_epoch()
        w(datapipe, "read_manifest", "datapipe.read_manifest")
        w(datapipe, "build_buckets", "datapipe.build_buckets")
        w(datapipe, "load_batch", "datapipe.load_batch")
        w(frontend, "load_audio", "frontend.load_audio")
        w(frontend, "log_mel", "frontend.log_mel")
        w(quantizer, "init_quantizer", "quantizer.init_quantizer")
        w(quantizer, "assign_labels", "quantizer.assign_labels", after=on_assign)
        w(quantizer, "write_label_cache", "quantizer.write_label_cache")
        w(quantizer, "read_label_cache", "quantizer.read_label_cache")
        w(masking, "sample_mask", "masking.sample_mask", after=on_mask)
        w(masking, "apply_mask", "masking.apply_mask")
        w(encoder, "encode", "encoder.encode", after=on_encode)
        w(ad.Tensor, "backward", "autodiff.backward", before=walk_tape)
        step = "pretrain.train_step"
        w(ad, "take_rows", "pretrain.head_fwd", under=step,
          after=count("pretrain.head_rows", lambda a, r: len(a[1])))
        w(ad, "linear", "pretrain.head_fwd", under=step,
          after=count("pretrain.logit_bytes", lambda a, r: r.data.nbytes))
        w(ad, "cross_entropy_mean", "pretrain.head_fwd", under=step)
        w(pretrain, "init_train_state", "pretrain.init_train_state")
        w(pretrain, "train_step", step, after=on_step)
        w(pretrain, "prepare_masked_batch", "pretrain.prepare_masked_batch")
        w(pretrain, "codebook_utilization", "pretrain.codebook_utilization")
        w(pretrain, "clip_global_norm", "pretrain.clip")
        w(pretrain, "adam_step", "pretrain.adam")
        w(pretrain, "save_checkpoint", "pretrain.checkpoint", after=on_checkpoint)
        w(pretrain, "read_checkpoint", "pretrain.read_checkpoint")
        w(finetune, "init_finetune_state", "finetune.init_finetune_state")
        w(finetune, "transcribe", "finetune.transcribe")
        w(finetune, "beam_decode", "finetune.beam_decode",
          after=count("finetune.beam_frames", lambda a, r: len(a[0])))
        w(finetune, "save_finetune_checkpoint", "finetune.save_finetune_checkpoint")
        w(finetune, "load_finetune_checkpoint", "finetune.load_finetune_checkpoint")
        self.active = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"run": self.run_id, "id": i, "name": s.name,
                                    "parent": s.parent, "start": s.start,
                                    "end": s.end}) + "\n")


def _reachable_nodes(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


# derived per-layer metrics ----------------------------------------------------

# Busy-time metric -> span name. BENCHMARK.json lists every per-layer metric.
TIMED = {
    "datapipe.wait_s": "datapipe.wait",
    "frontend.log_mel_s": "frontend.log_mel",
    "frontend.load_audio_s": "frontend.load_audio",
    "quantizer.assign_labels_s": "quantizer.assign_labels",
    "quantizer.write_label_cache_s": "quantizer.write_label_cache",
    "quantizer.read_label_cache_s": "quantizer.read_label_cache",
    "masking.sample_mask_s": "masking.sample_mask",
    "masking.apply_mask_s": "masking.apply_mask",
    "encoder.encode_s": "encoder.encode",
    "pretrain.head_fwd_s": "pretrain.head_fwd",
    "autodiff.backward_s": "autodiff.backward",
    "pretrain.adam_s": "pretrain.adam",
    "pretrain.clip_s": "pretrain.clip",
    "pretrain.checkpoint_s": "pretrain.checkpoint",
    "finetune.beam_decode_s": "finetune.beam_decode",
}
COUNTED = [
    "datapipe.batches", "datapipe.padded_frames", "quantizer.label_frames",
    "quantizer.assign_calls", "masking.valid_frames", "masking.label_frames",
    "encoder.frames", "encoder.calls", "pretrain.steps", "autodiff.backward_calls",
    "pretrain.checkpoint_bytes", "pretrain.checkpoint_calls", "finetune.beam_frames",
]
ERROR_SPANS = sorted(set(TIMED.values()) | {
    "pretrain.train_step", "finetune.transcribe", "datapipe.load_batch"})


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer, setup_s: float, traced: dict, untraced: dict) -> dict:
    """Per-layer metrics over one traced set-up plus the traced timed phase.

    ``traced``/``untraced`` are the results of the timed phase with and
    without the wrappers, from the same run.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    totals = Counter()
    for s in spans:
        totals[s.name] += s.duration
    c = tracer.counts
    out = {}
    for metric, name in TIMED.items():
        out[metric] = (float(totals[name]), "s")
    step_self = sum(s.duration - child_time[i] for i, s in enumerate(spans)
                    if s.name == "pretrain.train_step")
    out["pretrain.step_self_s"] = (step_self, "s")
    for key in COUNTED:
        out[key] = (float(c[key]), "B" if key.endswith("_bytes") else "count")
    out["datapipe.padding_ratio"] = (_ratio(c["datapipe.valid_frames"],
                                            c["datapipe.padded_frames"]), "ratio")
    out["masking.input_coverage"] = (_ratio(c["masking.masked_frames"],
                                            c["masking.valid_frames"]), "ratio")
    out["masking.target_ratio"] = (_ratio(c["masking.target_frames"],
                                          c["masking.label_frames"]), "ratio")
    out["pretrain.head_rows"] = (_ratio(c["pretrain.head_rows"], c["pretrain.steps"]), "count")
    out["pretrain.logit_bytes"] = (_ratio(c["pretrain.logit_bytes"], c["pretrain.steps"]), "B")
    out["autodiff.tape_nodes"] = (_ratio(c["autodiff.tape_nodes"],
                                         c["autodiff.backward_calls"]), "count")
    for name in ERROR_SPANS:
        out[f"{name}.errors"] = (float(tracer.errors[name]), "count")
    out["trace.op_coverage_min"] = (_op_coverage_min(spans, child_time), "ratio")
    out["trace.overhead"] = (_ratio(untraced["audio_s_per_s"], traced["audio_s_per_s"]) - 1.0,
                             "ratio")
    out["trace.audio_s_per_s"] = (traced["audio_s_per_s"], "1/s")
    out["trace.untraced_audio_s_per_s"] = (untraced["audio_s_per_s"], "1/s")
    out["trace.setup_s"] = (setup_s, "s")
    out["trace.timed_s"] = (traced["elapsed_s"], "s")
    out["trace.ops"] = (float(traced["ops"]), "count")
    out["trace.spans"] = (float(len(spans)), "count")
    return out


def _op_coverage_min(spans, child_time) -> float:
    """Smallest share of an operation's wall time spent inside named layer spans.

    Self time of container spans (the operation itself, the step functions
    around their children, and the tracer's own tape walk) is uncovered.
    """
    uncovered = {}
    op_of = [-1] * len(spans)
    for i, s in enumerate(spans):
        if s.name == OP_SPAN:
            op_of[i] = i
            uncovered[i] = 0.0
        elif s.parent >= 0:
            op_of[i] = op_of[s.parent]
        if op_of[i] >= 0 and s.name in CONTAINERS:
            uncovered[op_of[i]] += s.duration - child_time[i]
    if not uncovered:
        return 0.0
    return min(1.0 - uncovered[i] / spans[i].duration for i in uncovered)

"""Command-line entry points.

Subcommands: pretrain, quantize, finetune, decode, score, inspect. Every
command is deterministic given its config and seed; the effective config is
written next to the outputs so a run can be reproduced from its artifacts.
Exit codes: 0 success, 1 runtime failure (corrupt/unreadable inputs),
2 invalid configuration or usage.

A command returns 0 or raises ``CommandError``, which carries the exit code
and the message; ``main`` alone prints it as ``error: <message>`` on stderr
and returns the code. Each phase of a command (its config and corpus, its
checkpoint, each utterance, each write) runs in one ``_failing`` block that
maps the exception kinds it names to one code. A warning, such as a skipped
WAV file or merged buckets, prints as one ``warning: <message>`` line on
stderr.

``pretrain`` and ``finetune`` refuse a corpus without a usable utterance
before they write anything, and share one run loop, ``_train``, which makes
all of a run's writes. It saves the final checkpoint at the last completed
step also when a batch fails (exit code 1), another write fails (exit code
2) or a SIGINT or SIGTERM stops the run (exit code 1); a failed save of it
prints after the run's own error and exits 2. A Ctrl-C outside ``_train``
prints ``error: interrupted`` and exits 1. Every whole-file output
(checkpoints, label files, ``config.ini``, ``decode --out``, ``score
--report``) goes through ``records.replacing``, so a write that fails midway
leaves any previous file whole.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import json
import math
import os
import signal
import sys
import warnings
from pathlib import Path

import numpy as np

from . import datapipe, encoder, finetune, frontend, parallel, pretrain, quantizer, records
from .config import SEED_ENV_VAR, ConfigError, load_config, write_config


class CommandError(Exception):
    """A command's failure: ``main`` prints ``error: <message>`` and exits ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _failing(code: int, kinds, message=str):
    """A block in which an exception of ``kinds`` ends the command with exit
    ``code`` and ``error: <message(exception)>``."""
    try:
        yield
    except kinds as err:
        raise CommandError(code, message(err)) from err


def _writing(path=None, note: str = ""):
    """A write's block: an OSError exits 2 with ``cannot write <path>:
    <reason><note>``; without ``path`` it names the error's own file, for a
    failed rename its destination."""
    return _failing(2, OSError, lambda err: f"cannot write {path or err.filename2 or err.filename}"
                                            f": {err.strerror or err}{note}")


def _check_writable(path) -> None:
    """Raise the OSError that writing the file ``path`` will meet if it shows
    before any work is done: its directory is missing, or ``path`` is a directory."""
    path = Path(path)
    code = (errno.EISDIR if path.is_dir() else None if path.parent.is_dir()
            else errno.ENOTDIR if path.parent.exists() else errno.ENOENT)
    if code is not None:
        raise OSError(code, os.strerror(code), str(path))


def _warn(message, category, filename, lineno, file=None, line=None) -> None:
    """``warnings.showwarning`` for a command: the message as one plain line,
    like an error's, without its category or source location."""
    print(f"warning: {message}", file=sys.stderr)


def _load_index(cfg) -> datapipe.CorpusIndex:
    manifest = cfg["corpus"]["manifest"]
    if manifest:
        return datapipe.read_manifest(manifest)
    root = cfg.require("corpus", "root")
    return datapipe.scan_corpus(root)


def _training_index(cfg) -> datapipe.CorpusIndex:
    """The corpus a training run reads, which needs at least one utterance."""
    index = _load_index(cfg)
    if not index.entries:
        raise ValueError("corpus contains no usable utterances")
    return index


@contextlib.contextmanager
def _stop_signals():
    """A block in which SIGINT and SIGTERM only append their number to the
    list it yields; the previous handlers come back when it ends. Off the
    main thread, where no handler can be installed, the list stays empty."""
    received = []
    try:
        previous = {sig: signal.signal(sig, lambda signum, frame: received.append(signum))
                    for sig in (signal.SIGINT, signal.SIGTERM)}
    except ValueError:
        previous = {}
    try:
        yield received
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def _train(cfg, index, state, total: int, step, metrics: Path, fields, save, final: Path,
           periodic=lambda step: None) -> None:
    """Run ``step(batch, epoch)`` over epochs of ``index`` until ``state.step``
    reaches ``total``, making every write of the run.

    The config goes beside ``final``; each completed step adds a row of
    ``fields`` to ``metrics`` and ``save(state, path)`` where ``periodic``
    gives a path; the run ends with ``save(state, final)``. ``step`` returns
    its metrics row, or None when it made no update. It raises before any
    update, so a failed batch or write saves the last completed step, and a
    failed save of it chains onto that failure. An epoch without any update
    would repeat forever, so it saves and fails. A SIGINT or SIGTERM lets the
    step in progress complete, then saves and fails; one during that save is
    ignored.
    """
    with _writing():
        final.parent.mkdir(parents=True, exist_ok=True)
    with _writing(final.parent / "config.ini"):
        write_config(cfg, final.parent / "config.ini")
    spec = datapipe.build_buckets(index, cfg["datapipe"]["num_buckets"],
                                  cfg["datapipe"]["tokens_per_batch"])
    epoch, stalled = 0, False
    with _stop_signals() as received:
        try:
            # a diverged encoder names the step; a non-finite loss names its own
            with _failing(1, FloatingPointError, lambda err: f"step {state.step + 1}: {err}"), \
                    _failing(1, (pretrain.NonFiniteLossError, records.LabelCacheError,
                                 finetune.InfeasibleTargetError, datapipe.UtteranceError)):
                with _writing(metrics):
                    writer = pretrain.MetricsWriter(metrics, fields, state.step)
                with writer:
                    while state.step < total and not stalled:
                        stalled = True
                        for batch in datapipe.iter_epoch(spec, index, cfg.seed, epoch,
                                                         workers=cfg["datapipe"]["workers"]):
                            m = step(batch, epoch)
                            if m is None:
                                continue
                            stalled = False
                            with _writing(metrics, f"; it lacks the row of step {state.step}, "
                                                   f"which {final.name} holds"):
                                writer.write(m)
                            if path := periodic(state.step):
                                with _writing(path):
                                    save(state, path)
                            if received:
                                raise CommandError(
                                    1, f"stopped by {signal.Signals(received[0]).name} after "
                                       f"step {state.step}; {final} holds it")
                            if state.step >= total:
                                break
                        epoch += 1
                if stalled:
                    raise CommandError(1, f"epoch {epoch - 1} made no update: no batch had a "
                                          f"training target; stopped at step {state.step}")
        except CommandError:  # a failed save chains onto it, and main prints both
            with _writing(final):
                save(state, final)
            raise
        with _writing(final):
            save(state, final)


def cmd_pretrain(args) -> int:
    with _failing(2, (ValueError, OSError)):
        cfg = load_config(args.config)
        if args.init_mode != "none" and not args.init_from:
            raise ConfigError(f"--init-mode {args.init_mode} requires --init-from")
        if args.init_from and args.init_mode == "none":
            raise ConfigError("--init-from requires --init-mode "
                              + " or ".join(pretrain.LOAD_MODES))
        out_dir = Path(cfg.require("run", "output_dir"))
        index = _training_index(cfg)
        cache_dir = cfg["pretrain"]["label_cache_dir"]
        cached = [(utt, records.label_cache_path(cache_dir, utt.utt_id))
                  for utt in index.entries] if cache_dir else []

    encoder_cfg = cfg.encoder_config()
    train_cfg = cfg.pretrain_config()

    with _failing(1, records.CheckpointError):
        if args.init_from:
            state = pretrain.load_checkpoint(args.init_from, args.init_mode,
                                             encoder_cfg, train_cfg,
                                             run_config=cfg.flat_dict())
        else:
            state = pretrain.init_train_state(encoder_cfg, train_cfg,
                                              run_config=cfg.flat_dict())
    with _failing(1, (ValueError, OSError)):
        _warm_label_cache(state, cached)
    every = cfg["pretrain"]["checkpoint_every"]
    _train(cfg, index, state, train_cfg.total_steps,
           lambda batch, epoch: pretrain.train_step(state, batch, epoch),
           out_dir / "metrics.csv", pretrain.METRICS_FIELDS,
           pretrain.save_checkpoint, out_dir / "final.msec",
           lambda step: step % every == 0 and out_dir / f"ckpt_{step:06d}.msec")
    print(f"pretrain done: {state.step} steps, checkpoints in {out_dir}")
    return 0


def _warm_label_cache(state: pretrain.TrainState, cached) -> None:
    """Seed the in-memory label cache from the MSEQ1 files of ``cached``, its
    (utterance, label file) pairs, that exist and fit the quantizer."""
    for utt, path in cached:
        if path.is_file() and utt.duration <= datapipe.MAX_DURATION_S:
            state.label_cache[utt.utt_id] = records.read_label_cache(
                path, state.quantizer_state.config)


def cmd_quantize(args) -> int:
    out_dir = Path(args.out)
    with _failing(2, (ValueError, OSError)):
        cfg = load_config(args.config)
        index = _load_index(cfg)
        paths = [records.label_cache_path(out_dir, utt.utt_id) for utt in index.entries]
    qs = quantizer.init_quantizer(cfg.seed, cfg.quantizer_config())
    for utt, path in zip(index.entries, paths):
        # the utterance's own error names it; a bad feature gets its name
        with _failing(1, ValueError, lambda err: f"utterance {utt.utt_id}: {err}"), \
                _failing(1, datapipe.UtteranceError):
            labels = quantizer.labels_for_mel(qs, frontend.log_mel(datapipe.load_utterance(utt)))
        with _writing():
            path.parent.mkdir(parents=True, exist_ok=True)
            records.write_label_cache(path, labels, qs.config.vocab_size)
    with _writing():
        out_dir.mkdir(parents=True, exist_ok=True)  # also for a corpus with no utterance
    print(f"quantize done: {len(index.entries)} label files in {out_dir}")
    return 0


def cmd_finetune(args) -> int:
    with _failing(2, (ValueError, OSError)):
        cfg = load_config(args.config)
        out_dir = Path(cfg.require("run", "output_dir"))
        ckpt = cfg.require("finetune", "checkpoint")
        transcripts_path = cfg.require("corpus", "transcripts")
        index = _training_index(cfg)
        transcripts = finetune.read_transcripts(
            transcripts_path, need_text={u.utt_id for u in index.entries})

    tokenizer = finetune.CharTokenizer.from_texts(
        transcripts[u.utt_id] for u in index.entries)
    with _failing(1, records.CheckpointError):
        state = finetune.init_finetune_state(ckpt, cfg.finetune_config(), tokenizer)
    _train(cfg, index, state, cfg["finetune"]["total_steps"],
           lambda batch, epoch: finetune.finetune_step(state, batch, transcripts, epoch),
           out_dir / "finetune_metrics.csv", finetune.METRICS_FIELDS,
           finetune.save_finetune_checkpoint, out_dir / "finetuned.msec")
    print(f"finetune done: {state.step} steps, checkpoint in {out_dir}")
    return 0


def cmd_decode(args) -> int:
    if not args.greedy and args.beam < 1:
        raise CommandError(2, f"--beam must be >= 1, got {args.beam}; use --greedy "
                              "for greedy decoding")
    if args.out:
        with _writing(args.out):
            _check_writable(args.out)
    with _failing(1, records.CheckpointError):
        state = finetune.load_finetune_checkpoint(args.ckpt, optimizer=False)
    with _failing(2, (OSError, ValueError), lambda err: f"cannot read manifest: {err}"):
        index = datapipe.read_manifest(args.manifest)

    beam = 0 if args.greedy else args.beam
    lines = []
    for utt in index.entries:
        with _failing(1, datapipe.UtteranceError):
            mel = frontend.log_mel(datapipe.load_utterance(utt))
        with _failing(1, FloatingPointError, lambda err: f"utterance {utt.utt_id}: {err}"):
            text = finetune.transcribe(state, mel[None], np.array([mel.shape[0]]),
                                       beam_width=beam)[0]
        lines.append(f"{utt.utt_id}\t{text}")
    output = "\n".join(lines) + ("\n" if lines else "")
    if not args.out:
        sys.stdout.write(output)
        return 0
    with _writing(args.out), records.replacing(args.out) as partial:
        partial.write_text(output, encoding="utf-8")
    return 0


def cmd_score(args) -> int:
    if args.report:
        with _writing(args.report):
            _check_writable(args.report)
    with _failing(2, (OSError, ValueError)):
        refs = finetune.read_transcripts(args.refs)
        hyps = finetune.read_transcripts(args.hyps)
    missing = sorted(set(refs) ^ set(hyps))
    if missing:
        raise CommandError(2, f"ref/hyp id mismatch, unpaired ids: {', '.join(missing)}")

    ids = sorted(refs)
    ref_list = [refs[i] for i in ids]
    hyp_list = [hyps[i] for i in ids]
    with _failing(2, ValueError):
        wer, word_pairs = finetune.score(ref_list, hyp_list, unit="word")
        cer, char_pairs = finetune.score(ref_list, hyp_list, unit="char")

    if args.report:
        rows = [["utt_id", "word_edits", "ref_words", "wer_percent",
                 "char_edits", "ref_chars", "cer_percent"]]
        for i, utt_id in enumerate(ids):
            wd, wn = word_pairs[i]
            cd, cn = char_pairs[i]
            rows.append([utt_id, wd, wn, f"{100.0 * wd / wn:.2f}" if wn else "",
                         cd, cn, f"{100.0 * cd / cn:.2f}" if cn else ""])
        rows.append(["TOTAL", sum(p[0] for p in word_pairs),
                     sum(p[1] for p in word_pairs), f"{wer:.2f}",
                     sum(p[0] for p in char_pairs),
                     sum(p[1] for p in char_pairs), f"{cer:.2f}"])
        with _writing(args.report), records.replacing(args.report) as partial, \
                open(partial, "w", newline="") as f:
            csv.writer(f).writerows(rows)
    print(f"WER {wer:.2f}")
    print(f"CER {cer:.2f}")
    return 0


def cmd_inspect(args) -> int:
    if args.config:
        with _failing(2, ConfigError):
            encoder_cfg = load_config(args.config).encoder_config()
        total, breakdown = encoder.count_params(encoder_cfg)
        for name in sorted(breakdown):
            print(f"{name}\t{breakdown[name]}")
        print(f"encoder parameters: {total}")
        return 0

    with _failing(1, records.CheckpointError):
        header, _ = records.read_checkpoint(args.ckpt, lambda header: {})
    shapes = {entry["name"]: entry["shape"] for entry in header["tensors"]}
    for name in sorted(shapes):
        print(f"{name}\t" + ("x".join(str(s) for s in shapes[name]) or "scalar"))
    params = sum(math.prod(shape) for name, shape in shapes.items()
                 if not name.startswith(pretrain.MOMENTS))
    print(f"parameters: {params}")
    print(f"step: {header['step']}")
    print("config: " + json.dumps(header["encoder_config"].to_dict(), sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rqspeech",
        description="Self-supervised speech pretraining with random-projection "
                    "quantizer targets, plus CTC finetuning and decoding. "
                    f"Set {SEED_ENV_VAR} to override the configured seed.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="run masked-prediction pretraining")
    p.add_argument("--config", required=True)
    p.add_argument("--init-from", default=None, metavar="CKPT")
    p.add_argument("--init-mode", default="none", choices=[*pretrain.LOAD_MODES, "none"])
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("quantize", help="write per-utterance label cache files")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("finetune", help="CTC finetuning from a pretrained checkpoint")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("decode", help="transcribe a manifest of WAV files")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--beam", type=int, default=8)
    group.add_argument("--greedy", action="store_true")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("score", help="WER/CER between reference and hypothesis files")
    p.add_argument("--refs", required=True)
    p.add_argument("--hyps", required=True)
    p.add_argument("--report", default=None, metavar="CSV")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("inspect", help="print checkpoint tensors and sizes")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ckpt")
    group.add_argument("--config", help="report shape-derived sizes for a config")
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    """Run one command; its exit code is 0, or that of the ``CommandError``
    it raised, printed after every failure chained before it. Every command
    runs numpy's OpenBLAS at one thread (``parallel.hold_one_blas_thread``)."""
    args = build_parser().parse_args(argv)
    parallel.hold_one_blas_thread()
    with warnings.catch_warnings():
        warnings.showwarning = _warn
        try:
            return args.func(args)
        except CommandError as failure:
            chain, err = [], failure
            while err is not None:
                if isinstance(err, CommandError):
                    chain.append(err)
                err = err.__context__
            for err in reversed(chain):
                print(f"error: {err}", file=sys.stderr)
            return failure.code
        except KeyboardInterrupt:  # a Ctrl-C outside a training run
            print("error: interrupted", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())

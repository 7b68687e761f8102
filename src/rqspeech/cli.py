"""Command-line entry points.

Subcommands: pretrain, quantize, finetune, decode, score, inspect. Every
command is deterministic given its config and seed; the effective config is
written next to the outputs so a run can be reproduced from its artifacts.
Exit codes: 0 success, 1 runtime failure (corrupt/unreadable inputs),
2 invalid configuration or usage.

``pretrain`` and ``finetune`` share one run loop, ``_train``: it writes one
flushed metrics row per completed step and saves the final checkpoint, also
when a batch fails (then at the last completed step, exit code 1).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import datapipe, encoder, finetune, frontend, pretrain, quantizer
from .config import SEED_ENV_VAR, ConfigError, load_config, write_config


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_index(cfg) -> datapipe.CorpusIndex:
    manifest = cfg["corpus"]["manifest"]
    if manifest:
        return datapipe.read_manifest(manifest)
    root = cfg.require("corpus", "root")
    return datapipe.scan_corpus(root)


def _train(cfg, index, state, total: int, step, metrics, save) -> int:
    """Run ``step(batch, epoch)`` over epochs of ``index`` until ``state.step``
    reaches ``total``, then ``save()``; returns the exit code.

    ``step`` returns its metrics row, or None when it made no update. It
    raises before any update, so a failed batch saves the last completed step.
    An epoch without any update would repeat forever, so it saves and fails.
    """
    spec = datapipe.build_buckets(index, cfg["datapipe"]["num_buckets"],
                                  cfg["datapipe"]["tokens_per_batch"])
    epoch, stalled = 0, False
    try:
        with metrics:
            while state.step < total and not stalled:
                stalled = True
                for batch in datapipe.iter_epoch(spec, index, cfg.seed, epoch,
                                                 workers=cfg["datapipe"]["workers"]):
                    m = step(batch, epoch)
                    if m is None:
                        continue
                    stalled = False
                    metrics.write(m)
                    if state.step >= total:
                        break
                epoch += 1
    except (pretrain.NonFiniteLossError, pretrain.LabelCacheError,
            finetune.InfeasibleTargetError, datapipe.UtteranceError) as err:
        save()
        return _fail(1, str(err))
    save()
    if stalled:
        return _fail(1, f"epoch {epoch - 1} made no update: no batch had a training "
                        f"target; stopped at step {state.step}")
    return 0


def cmd_pretrain(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.init_mode != "none" and not args.init_from:
            raise ConfigError(f"--init-mode {args.init_mode} requires --init-from")
        if args.init_from and args.init_mode == "none":
            raise ConfigError("--init-from requires --init-mode "
                              + " or ".join(pretrain.LOAD_MODES))
        out_dir = Path(cfg.require("run", "output_dir"))
        index = _load_index(cfg)
    except (ValueError, OSError) as err:
        return _fail(2, str(err))
    if not index.entries:
        return _fail(2, "corpus contains no usable utterances")

    out_dir.mkdir(parents=True, exist_ok=True)
    write_config(cfg, out_dir / "config.ini")
    encoder_cfg = cfg.encoder_config()
    train_cfg = cfg.pretrain_config()

    try:
        if args.init_from:
            state = pretrain.load_checkpoint(args.init_from, args.init_mode,
                                             encoder_cfg, train_cfg,
                                             run_config=cfg.flat_dict())
        else:
            state = pretrain.init_train_state(encoder_cfg, train_cfg,
                                              run_config=cfg.flat_dict())
    except pretrain.CheckpointError as err:
        return _fail(1, str(err))

    cache_dir = cfg["pretrain"]["label_cache_dir"]
    if cache_dir:
        try:
            _warm_label_cache(state, index, Path(cache_dir))
        except (ValueError, OSError) as err:
            return _fail(1, str(err))

    every = cfg["pretrain"]["checkpoint_every"]

    def step(batch, epoch):
        m = pretrain.train_step(state, batch, epoch)
        if m is not None and m.step % every == 0:
            pretrain.save_checkpoint(state, out_dir / f"ckpt_{m.step:06d}.msec")
        return m

    if _train(cfg, index, state, train_cfg.total_steps, step,
              pretrain.MetricsWriter(out_dir / "metrics.csv", start_step=state.step),
              lambda: pretrain.save_checkpoint(state, out_dir / "final.msec")):
        return 1
    print(f"pretrain done: {state.step} steps, checkpoints in {out_dir}")
    return 0


def _warm_label_cache(state: pretrain.TrainState, index, cache_dir: Path) -> None:
    """Seed the in-memory label cache from MSEQ1 files that fit the quantizer."""
    qcfg = state.quantizer_state.config
    for utt in index.entries:
        path = cache_dir / (utt.utt_id + ".lab")
        if path.is_file() and utt.duration <= datapipe.MAX_DURATION_S:
            labels = quantizer.read_label_cache(path)
            if labels.shape[1] != qcfg.num_codebooks or labels.max(initial=0) >= qcfg.vocab_size:
                raise ValueError(f"label cache {path} does not fit the quantizer's "
                                 f"{qcfg.num_codebooks} codebooks of {qcfg.vocab_size} labels")
            state.label_cache[utt.utt_id] = labels


def cmd_quantize(args) -> int:
    try:
        cfg = load_config(args.config)
        vocab = cfg["quantizer"]["vocab_size"]
        if vocab > quantizer.LABEL_CACHE_MAX_VOCAB:
            raise ConfigError(f"[quantizer] vocab_size {vocab} exceeds the label cache "
                              f"format's {quantizer.LABEL_CACHE_MAX_VOCAB} in {args.config}")
        index = _load_index(cfg)
    except (ValueError, OSError) as err:
        return _fail(2, str(err))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    qs = quantizer.init_quantizer(cfg.seed, cfg.quantizer_config())
    written = 0
    for utt in index.entries:
        try:
            w = frontend.load_16k(utt.path)
        except frontend.WavError as err:
            return _fail(1, f"utterance {utt.utt_id}: {err}")
        try:
            labels = quantizer.labels_for_mel(qs, frontend.log_mel(w))
        except ValueError as err:
            return _fail(1, f"utterance {utt.utt_id}: {err}")
        path = out_dir / (utt.utt_id + ".lab")
        path.parent.mkdir(parents=True, exist_ok=True)
        quantizer.write_label_cache(path, labels, qs.config.vocab_size)
        written += 1
    print(f"quantize done: {written} label files in {out_dir}")
    return 0


def cmd_finetune(args) -> int:
    try:
        cfg = load_config(args.config)
        out_dir = Path(cfg.require("run", "output_dir"))
        ckpt = cfg.require("finetune", "checkpoint")
        transcripts_path = cfg.require("corpus", "transcripts")
        index = _load_index(cfg)
        transcripts = finetune.read_transcripts(
            transcripts_path, need_text={u.utt_id for u in index.entries})
    except (ValueError, OSError) as err:
        return _fail(2, str(err))
    missing = [u.utt_id for u in index.entries if u.utt_id not in transcripts]
    if missing:
        return _fail(2, f"transcripts missing for: {', '.join(sorted(missing)[:5])}")

    out_dir.mkdir(parents=True, exist_ok=True)
    write_config(cfg, out_dir / "config.ini")
    tokenizer = finetune.CharTokenizer.from_texts(
        transcripts[u.utt_id] for u in index.entries)
    try:
        state = finetune.init_finetune_state(ckpt, cfg.finetune_config(), tokenizer)
    except pretrain.CheckpointError as err:
        return _fail(1, str(err))

    if _train(cfg, index, state, cfg["finetune"]["total_steps"],
              lambda batch, epoch: finetune.finetune_step(state, batch, transcripts, epoch),
              pretrain.MetricsWriter(out_dir / "finetune_metrics.csv", finetune.METRICS_FIELDS),
              lambda: finetune.save_finetune_checkpoint(state, out_dir / "finetuned.msec")):
        return 1
    print(f"finetune done: {state.step} steps, checkpoint in {out_dir}")
    return 0


def cmd_decode(args) -> int:
    if not args.greedy and args.beam < 1:
        return _fail(2, f"--beam must be >= 1, got {args.beam}; use --greedy "
                        "for greedy decoding")
    try:
        state = finetune.load_finetune_checkpoint(args.ckpt)
    except pretrain.CheckpointError as err:
        return _fail(1, str(err))
    try:
        index = datapipe.read_manifest(args.manifest)
    except (OSError, ValueError) as err:
        return _fail(2, f"cannot read manifest: {err}")

    beam = 0 if args.greedy else args.beam
    lines = []
    for utt in index.entries:
        try:
            w = datapipe.load_utterance(utt)
        except datapipe.UtteranceError as err:
            return _fail(1, str(err))
        mel = frontend.log_mel(w)
        try:
            text = finetune.transcribe(state, mel[None], np.array([mel.shape[0]]),
                                       beam_width=beam)[0]
        except FloatingPointError as err:
            return _fail(1, f"utterance {utt.utt_id}: {err}")
        lines.append(f"{utt.utt_id}\t{text}")
    output = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        Path(args.out).write_text(output, encoding="utf-8")
    else:
        sys.stdout.write(output)
    return 0


def cmd_score(args) -> int:
    try:
        refs = finetune.read_transcripts(args.refs)
        hyps = finetune.read_transcripts(args.hyps)
    except (OSError, ValueError) as err:
        return _fail(2, str(err))
    missing = sorted(set(refs) ^ set(hyps))
    if missing:
        return _fail(2, f"ref/hyp id mismatch, unpaired ids: {', '.join(missing)}")

    ids = sorted(refs)
    ref_list = [refs[i] for i in ids]
    hyp_list = [hyps[i] for i in ids]
    try:
        wer, word_pairs = finetune.score(ref_list, hyp_list, unit="word")
        cer, char_pairs = finetune.score(ref_list, hyp_list, unit="char")
    except ValueError as err:
        return _fail(2, str(err))

    if args.report:
        with open(args.report, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["utt_id", "word_edits", "ref_words", "wer_percent",
                             "char_edits", "ref_chars", "cer_percent"])
            for i, utt_id in enumerate(ids):
                wd, wn = word_pairs[i]
                cd, cn = char_pairs[i]
                writer.writerow([utt_id, wd, wn,
                                 f"{100.0 * wd / wn:.2f}" if wn else "",
                                 cd, cn,
                                 f"{100.0 * cd / cn:.2f}" if cn else ""])
            writer.writerow(["TOTAL", sum(p[0] for p in word_pairs),
                             sum(p[1] for p in word_pairs), f"{wer:.2f}",
                             sum(p[0] for p in char_pairs),
                             sum(p[1] for p in char_pairs), f"{cer:.2f}"])
    print(f"WER {wer:.2f}")
    print(f"CER {cer:.2f}")
    return 0


def cmd_inspect(args) -> int:
    if args.config:
        try:
            cfg = load_config(args.config)
            encoder_cfg = cfg.encoder_config()
        except ConfigError as err:
            return _fail(2, str(err))
        total, breakdown = encoder.count_params(encoder_cfg)
        for name in sorted(breakdown):
            print(f"{name}\t{breakdown[name]}")
        print(f"encoder parameters: {total}")
        return 0

    try:
        header, tensors = pretrain.read_checkpoint(args.ckpt)
    except pretrain.CheckpointError as err:
        return _fail(1, str(err))
    param_total = 0
    for name in sorted(tensors):
        shape = "x".join(str(s) for s in tensors[name].shape) or "scalar"
        print(f"{name}\t{shape}")
        if not name.startswith("opt."):
            param_total += tensors[name].size
    print(f"parameters: {param_total}")
    print(f"step: {header['step']}")
    print("config: " + json.dumps(header.get("encoder_config", {}), sort_keys=True))
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Strict, typed run configuration.

INI-style sections of key = value pairs. Every key has a type and a default;
unknown sections or keys are hard errors (silent typos in training configs are
the most expensive failure mode). The effective config, defaults applied, can
be written back out and reloaded to reproduce a run exactly.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import fields
from pathlib import Path

from . import datapipe, encoder, masking, quantizer
from .finetune import FinetuneConfig, SpecAugmentConfig
from .pretrain import PretrainConfig

SEED_ENV_VAR = "RQSPEECH_SEED"

SCHEMA = {
    "run": {"seed": (int, 0), "output_dir": (str, "")},
    "corpus": {"root": (str, ""), "manifest": (str, ""), "transcripts": (str, "")},
    "encoder": {"num_layers": (int, 4), "hidden": (int, 64), "ffn": (int, 256),
                "heads": (int, 4), "conv_kernel": (int, 5), "dropout": (float, 0.0)},
    "quantizer": {"num_codebooks": (int, 32), "vocab_size": (int, 2048),
                  "dim": (int, 16)},
    "masking": {"prob": (float, 0.4), "span_frames": (int, 40),
                "noise_mean": (float, 0.0), "noise_std": (float, 0.1)},
    "pretrain": {"peak_lr": (float, 8e-4), "warmup_steps": (int, 4000),
                 "total_steps": (int, 1000), "checkpoint_every": (int, 500),
                 "label_cache_dir": (str, "")},
    "datapipe": {"num_buckets": (int, 6), "tokens_per_batch": (int, 16000),
                 "workers": (int, 1)},
    "finetune": {"checkpoint": (str, ""), "encoder_lr": (float, 2e-4),
                 "decoder_lr": (float, 2e-3), "warmup_steps": (int, 1000),
                 "freeze_steps": (int, 1500), "total_steps": (int, 1000),
                 "time_masks": (int, 2), "max_time_width": (int, 80),
                 "time_apply_prob": (float, 0.2), "freq_masks": (int, 2),
                 "max_freq_width": (int, 27)},
}


class ConfigError(ValueError):
    """Unknown key/section, type error, out-of-range value, or missing required key."""


class RunConfig:
    """Fully-defaulted view over the schema; values[section][key]."""

    def __init__(self, values: dict):
        self.values = values

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    @property
    def seed(self) -> int:
        return self.values["run"]["seed"]

    def require(self, section: str, key: str) -> str:
        value = self.values[section][key]
        if value in ("", None):
            raise ConfigError(f'missing required key "{section}.{key}"')
        return value

    def encoder_config(self) -> encoder.EncoderConfig:
        return encoder.EncoderConfig(**self.values["encoder"])

    def quantizer_config(self) -> quantizer.QuantizerConfig:
        return quantizer.QuantizerConfig(**self.values["quantizer"])

    def mask_config(self) -> masking.MaskConfig:
        return masking.MaskConfig(**self.values["masking"])

    def pretrain_config(self) -> PretrainConfig:
        p = self.values["pretrain"]
        return PretrainConfig(peak_lr=p["peak_lr"], warmup_steps=p["warmup_steps"],
                              total_steps=p["total_steps"], seed=self.seed,
                              mask=self.mask_config(),
                              quantizer=self.quantizer_config())

    def finetune_config(self) -> FinetuneConfig:
        f = self.values["finetune"]
        return FinetuneConfig(
            encoder_lr=f["encoder_lr"], decoder_lr=f["decoder_lr"],
            warmup_steps=f["warmup_steps"], freeze_steps=f["freeze_steps"],
            seed=self.seed,
            spec_augment=SpecAugmentConfig(**{field.name: f[field.name]
                                              for field in fields(SpecAugmentConfig)}))

    def flat_dict(self) -> dict:
        return {f"{sec}.{key}": val for sec, body in self.values.items()
                for key, val in body.items()}


def default_config() -> RunConfig:
    return RunConfig({sec: {k: default for k, (_, default) in body.items()}
                      for sec, body in SCHEMA.items()})


def load_config(path) -> RunConfig:
    """Parse and validate a config file; the seed env var wins if set."""
    path = Path(path)
    if not path.is_file():
        problem = "is not a file" if path.exists() else "not found"
        raise ConfigError(f"config file {problem}: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file((line for _, line in datapipe.text_lines(path)), source=str(path))
    except configparser.Error as err:
        raise ConfigError(f"cannot parse {path}: {err}") from None
    except ValueError as err:  # not UTF-8, or a NUL byte, at path:line
        raise ConfigError(f"cannot parse {err}") from None

    cfg = default_config()
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f'unknown section "[{section}]" in {path}')
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f'unknown key "{section}.{key}" in {path}')
            want_type = SCHEMA[section][key][0]
            try:
                cfg.values[section][key] = want_type(raw)
            except ValueError:
                raise ConfigError(
                    f'key "{section}.{key}" expects {want_type.__name__}, '
                    f'got {raw!r}') from None

    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            cfg.values["run"]["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from None

    # the typed configs check their own ranges; building them here makes a bad
    # value a config error before a command writes anything
    for section, build in (("encoder", cfg.encoder_config),
                           ("quantizer", cfg.quantizer_config),
                           ("masking", cfg.mask_config),
                           ("pretrain", cfg.pretrain_config),
                           ("finetune", cfg.finetune_config)):
        try:
            build()
        except ValueError as err:
            raise ConfigError(f"[{section}] {err} in {path}") from None
    # a sign typo in these must not run a job that trains nothing and exits 0
    for section, key, low in (("datapipe", "num_buckets", 1), ("datapipe", "tokens_per_batch", 1),
                              ("datapipe", "workers", 0), ("pretrain", "checkpoint_every", 1),
                              ("pretrain", "total_steps", 1), ("finetune", "total_steps", 1)):
        if cfg.values[section][key] < low:
            raise ConfigError(f'key "{section}.{key}" must be >= {low} in {path}')
    return cfg


def write_config(cfg: RunConfig, path) -> None:
    """Write the effective config (defaults applied) in loadable form."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, body in cfg.values.items():
        parser[section] = {k: repr(v) if isinstance(v, float) else str(v)
                           for k, v in body.items()}
    with open(path, "w", encoding="utf-8") as f:
        parser.write(f)

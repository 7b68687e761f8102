"""Strict, typed run configuration.

INI-style sections of key = value pairs. Every key has a type and a default;
unknown sections or keys are hard errors (silent typos in training configs are
the most expensive failure mode). The effective config, defaults applied, can
be written back out and reloaded to reproduce a run exactly.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import MISSING, fields
from pathlib import Path

from . import datapipe, encoder, masking, quantizer, records
from .finetune import FinetuneConfig, SpecAugmentConfig
from .pretrain import PretrainConfig

SEED_ENV_VAR = "RQSPEECH_SEED"


def _field_keys(cls, *skip: str) -> dict:
    """``{name: (type, default)}`` of the plain-default fields of ``cls``, less
    ``skip``; an annotation (a string) other than int, float or str fails."""
    types = {"int": int, "float": float, "str": str}
    return {f.name: (types[f.type], f.default) for f in fields(cls)
            if f.default is not MISSING and f.name not in skip}


SCHEMA = {
    "run": {"seed": (int, 0), "output_dir": (str, "")},
    "corpus": {"root": (str, ""), "manifest": (str, ""), "transcripts": (str, "")},
    "encoder": _field_keys(encoder.EncoderConfig),
    "quantizer": _field_keys(quantizer.QuantizerConfig, "input_dim"),
    "masking": _field_keys(masking.MaskConfig),
    "pretrain": {**_field_keys(PretrainConfig, "seed"), "checkpoint_every": (int, 500),
                 "label_cache_dir": (str, "")},
    "datapipe": {"num_buckets": (int, datapipe.DEFAULT_NUM_BUCKETS),
                 "tokens_per_batch": (int, datapipe.DEFAULT_TOKENS_PER_BATCH),
                 "workers": (int, datapipe.DEFAULT_WORKERS)},
    "finetune": {"checkpoint": (str, ""), **_field_keys(FinetuneConfig, "seed"),
                 "total_steps": (int, 1000), **_field_keys(SpecAugmentConfig)},
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

    def _build(self, cls, section: str, **rest):
        body = self.values[section]
        return cls(**{f.name: body[f.name] for f in fields(cls) if f.name in body}, **rest)

    def pretrain_config(self) -> PretrainConfig:
        return self._build(PretrainConfig, "pretrain", seed=self.seed,
                           mask=self.mask_config(), quantizer=self.quantizer_config())

    def finetune_config(self) -> FinetuneConfig:
        return self._build(FinetuneConfig, "finetune", seed=self.seed,
                           spec_augment=self._build(SpecAugmentConfig, "finetune"))

    def flat_dict(self) -> dict:
        return {f"{sec}.{key}": val for sec, body in self.values.items()
                for key, val in body.items()}


def default_config() -> RunConfig:
    return RunConfig({sec: {k: default for k, (_, default) in body.items()}
                      for sec, body in SCHEMA.items()})


def _typed(want_type, raw: str):
    """``want_type(raw)``, finite or within int64; a ValueError names what it must be."""
    try:
        value = want_type(raw)
    except ValueError:
        raise ValueError("an integer" if want_type is int else "a float") from None
    if want_type is float and not math.isfinite(value):
        raise ValueError("a finite float")
    if want_type is int and not -2**63 <= value < 2**63:
        raise ValueError("a 64-bit integer")
    return value


def load_config(path) -> RunConfig:
    """Parse and validate a config file; the seed env var wins if set."""
    path = Path(path)
    # no [DEFAULT]: its keys would reach every section, so it is refused as unknown
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        if not path.is_file():
            problem = "is not a file" if path.exists() else "not found"
            raise ConfigError(f"config file {problem}: {path}")
        parser.read_file((line for _, line in datapipe.text_lines(path)), source=str(path))
    except ConfigError:
        raise
    except OSError as err:  # a name the OS refuses, or a file it will not open
        raise ConfigError(f"cannot read config file {path}: {err.strerror or err}") from None
    except configparser.Error as err:  # its own message spans lines and repeats the path
        line = getattr(err, "lineno", None) or err.errors[0][0]
        why = {configparser.MissingSectionHeaderError: "line before any [section]",
               configparser.ParsingError: "expected key = value"}.get(
                   type(err), str(err).split("]: ")[-1])  # a repeated section or key
        raise ConfigError(f"cannot parse {path}:{line}: {why}") from None
    except ValueError as err:  # not UTF-8, or a NUL byte, at path:line
        raise ConfigError(f"cannot parse {err}") from None

    cfg = default_config()
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f'unknown section "[{section}]" in {path}')
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f'unknown key "{section}.{key}" in {path}')
            try:
                cfg.values[section][key] = _typed(SCHEMA[section][key][0], raw)
            except ValueError as err:
                raise ConfigError(f'key "{section}.{key}" expects {err}, got {raw!r}') from None

    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            cfg.values["run"]["seed"] = _typed(int, env_seed)
        except ValueError as err:
            raise ConfigError(f"{SEED_ENV_VAR} must be {err}, got {env_seed!r}") from None

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
    """Write the effective config (defaults applied) in loadable form, whole
    or not at all."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, body in cfg.values.items():
        parser[section] = {k: repr(v) if isinstance(v, float) else str(v)
                           for k, v in body.items()}
    with records.replacing(path) as partial, open(partial, "w", encoding="utf-8") as f:
        parser.write(f)

"""Kit-wide declarative configuration.

One INI-style file drives every pipeline stage; section names map to the
per-module config dataclasses and unknown sections or keys are rejected.
CLI flags override file values. Each value is coerced to its field's
annotation, read with typing.get_type_hints from KitConfig and the section
dataclasses, so a field's type is declared once, on the dataclass. The
config hash is computed over the canonical typed key-value set, so
formatting and key order don't change it.
"""

from __future__ import annotations

import configparser
import hashlib
import types
import typing
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

from .expert import ExpertConfig
from .policy import PolicyConfig
from .scenario import ScenarioConfig
from .simulator import SimConfig
from .track import SpeedConfig
from .trainer import TrainerConfig


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class PathsConfig:
    track: str = ""
    checkpoint: str = "policy.ckpt"


@dataclass(frozen=True)
class KitConfig:
    seed: int = 0
    workers: int = 1
    sim: SimConfig = field(default_factory=SimConfig)
    expert: ExpertConfig = field(default_factory=ExpertConfig)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    raceline: SpeedConfig = field(default_factory=SpeedConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)


_FIELDS = typing.get_type_hints(KitConfig)
_SECTIONS = {name: t for name, t in _FIELDS.items() if is_dataclass(t)}   # in field order


def _coerce(raw: str, annotation):
    """raw as a value of a field annotated int, float, bool, str,
    tuple[X, ...] (comma-separated) or X | None ('' or 'none')."""
    raw = raw.strip()
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is tuple and args[1:] == (Ellipsis,):
        return tuple(_coerce(part, args[0]) for part in raw.split(",") if part.strip())
    if origin in (types.UnionType, typing.Union) and len(args) == 2 and type(None) in args:
        if raw.lower() in ("", "none"):
            return None
        (inner,) = set(args) - {type(None)}
        return _coerce(raw, inner)
    if annotation is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if annotation in (int, float, str):
        return annotation(raw)
    raise ValueError(f"unsupported type {annotation}")


def _field_types(section: str) -> dict:
    """Field name -> annotation of one section; [global] holds the
    fields of KitConfig that are not sections."""
    if section == "global":
        return {name: t for name, t in _FIELDS.items() if name not in _SECTIONS}
    if section not in _SECTIONS:
        raise ConfigError(f"unknown section [{section}]")
    return typing.get_type_hints(_SECTIONS[section])


def load_config(path, overrides: dict[str, str] | None = None) -> KitConfig:
    """Parse an INI config, applying dotted-key overrides last
    (e.g. {'trainer.epochs': '100', 'seed': '7'}); a key without a dot is a
    [global] key."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case (field names are case-sensitive)
    parser.read_string(Path(path).read_text() if path is not None else "")
    entries = [(section, key, raw) for section in parser.sections()
               for key, raw in parser.items(section)]
    for dotted, raw in (overrides or {}).items():
        if raw is not None:
            section, key = dotted.split(".", 1) if "." in dotted else ("global", dotted)
            entries.append((section, key, str(raw)))
    values: dict[str, dict] = {name: {} for name in ("global", *_SECTIONS)}
    for section, key, raw in entries:
        known = _field_types(section)
        if key not in known:
            raise ConfigError(f"unknown key {section}.{key}")
        try:
            values[section][key] = _coerce(raw, known[key])
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: {exc}") from exc
    try:
        sections = {name: cls(**values[name]) for name, cls in _SECTIONS.items()}
    except Exception as exc:
        raise ConfigError(str(exc)) from exc
    return KitConfig(**values["global"], **sections)


def config_hash(cfg: KitConfig) -> str:
    """Stable digest of the resolved configuration."""
    lines = [f"seed={cfg.seed}", f"workers={cfg.workers}"]
    for name in sorted(_SECTIONS):
        section = getattr(cfg, name)
        for key, value in sorted(asdict(section).items()):
            lines.append(f"{name}.{key}={value!r}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()

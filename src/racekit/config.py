"""Kit-wide declarative configuration.

One INI-style file drives every pipeline stage; section names map to the
per-module config dataclasses and unknown sections or keys are rejected.
CLI flags override file values. The config hash is computed over the
canonical typed key-value set, so formatting and key order don't change it.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import asdict, dataclass, field, fields
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
    dataset_dir: str = "data"
    checkpoint: str = "policy.ckpt"
    report_dir: str = "reports"


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


_SECTIONS = {
    "sim": SimConfig,
    "expert": ExpertConfig,
    "scenario": ScenarioConfig,
    "policy": PolicyConfig,
    "trainer": TrainerConfig,
    "raceline": SpeedConfig,
    "paths": PathsConfig,
}

_GLOBAL_KEYS = {"seed": int, "workers": int}


def _coerce(raw: str, typ):
    raw = raw.strip()
    if typ is int:
        return int(raw)
    if typ is float:
        return float(raw)
    if typ is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if typ is str:
        return raw
    raise ValueError(f"unsupported type {typ}")


def _coerce_field(raw: str, f):
    t = f.type
    if t in ("int", int):
        return _coerce(raw, int)
    if t in ("float", float):
        return _coerce(raw, float)
    if t in ("bool", bool):
        return _coerce(raw, bool)
    if t in ("str", str):
        return _coerce(raw, str)
    if "tuple" in str(t):
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    if "int | None" in str(t) or "Optional[int]" in str(t):
        return None if raw.strip().lower() in ("", "none") else int(raw)
    raise ConfigError(f"field {f.name}: unsupported type {t}")


def load_config(path, overrides: dict[str, str] | None = None) -> KitConfig:
    """Parse an INI config, applying dotted-key overrides last
    (e.g. {'trainer.epochs': '100', 'seed': '7'})."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case (field names are case-sensitive)
    text = Path(path).read_text() if path is not None else ""
    parser.read_string(text)
    values: dict[str, dict] = {name: {} for name in _SECTIONS}
    top: dict[str, object] = {}
    for section in parser.sections():
        if section == "global":
            for key, raw in parser.items(section):
                if key not in _GLOBAL_KEYS:
                    raise ConfigError(f"unknown key global.{key}")
                top[key] = _coerce(raw, _GLOBAL_KEYS[key])
            continue
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        cls = _SECTIONS[section]
        known = {f.name: f for f in fields(cls)}
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"unknown key {section}.{key}")
            values[section][key] = _coerce_field(raw, known[key])
    for dotted, raw in (overrides or {}).items():
        if raw is None:
            continue
        if "." not in dotted:
            if dotted not in _GLOBAL_KEYS:
                raise ConfigError(f"unknown override {dotted}")
            top[dotted] = _coerce(str(raw), _GLOBAL_KEYS[dotted])
            continue
        section, key = dotted.split(".", 1)
        if section not in _SECTIONS:
            raise ConfigError(f"unknown override section {section}")
        known = {f.name: f for f in fields(_SECTIONS[section])}
        if key not in known:
            raise ConfigError(f"unknown override {dotted}")
        values[section][key] = _coerce_field(str(raw), known[key])
    try:
        sections = {name: cls(**values[name]) for name, cls in _SECTIONS.items()}
    except Exception as exc:
        raise ConfigError(str(exc)) from exc
    return KitConfig(seed=int(top.get("seed", 0)), workers=int(top.get("workers", 1)),
                     **sections)


def config_hash(cfg: KitConfig) -> str:
    """Stable digest of the resolved configuration."""
    lines = [f"seed={cfg.seed}", f"workers={cfg.workers}"]
    for name in sorted(_SECTIONS):
        section = getattr(cfg, name)
        for key, value in sorted(asdict(section).items()):
            lines.append(f"{name}.{key}={value!r}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def default_config_text() -> str:
    """A fully commented template with every key at its default."""
    cfg = KitConfig()
    out = io.StringIO()
    out.write("[global]\n")
    out.write(f"seed = {cfg.seed}\nworkers = {cfg.workers}\n")
    for name in _SECTIONS:
        out.write(f"\n[{name}]\n")
        for key, value in asdict(getattr(cfg, name)).items():
            if isinstance(value, tuple):
                value = ",".join(value)
            out.write(f"{key} = {value}\n")
    return out.getvalue()

"""Runtime configuration with JSON-file overrides."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .partition import VitSpec


@dataclass(frozen=True)
class AppConfig:
    vit: VitSpec = VitSpec()
    resampler_queries: int = 64
    max_slices: int = 6
    seed: int = 42
    output_format: str = "json"  # json | text
    model_dims_path: str | None = None

    def __post_init__(self):
        if self.max_slices < 1:
            raise ValueError("max_slices must be >= 1")
        if self.resampler_queries < 1:
            raise ValueError("resampler_queries must be >= 1")
        if self.output_format not in ("json", "text"):
            raise ValueError("output_format must be 'json' or 'text'")


# config key -> (AppConfig field, accepted JSON type, its name); bool is never taken for an integer
_KEYS = {
    "vit": ("vit", dict, "an object"),
    "K": ("resampler_queries", int, "an integer"),
    "max_N": ("max_slices", int, "an integer"),
    "seed": ("seed", int, "an integer"),
    "format": ("output_format", str, "a string"),
    "model_dims": ("model_dims_path", (str, type(None)), "a string or null"),
}
_VIT_KEYS = ("w", "h", "patch", "M")


def _check_type(key: str, value, kind, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"config key {key} must be {name}, got {json.dumps(value)}")


def load_config(path: str | None = None) -> AppConfig:
    cfg = AppConfig()
    if path is None:
        return cfg
    with open(path) as f:
        raw = json.load(f)
    if not isinstance(raw, dict) or not isinstance(raw.get("vit", {}), dict):
        raise ValueError("config must be a JSON object, with an object under 'vit'")
    unknown = [k for k in raw if k not in _KEYS] + [f"vit.{k}" for k in raw.get("vit", {}) if k not in _VIT_KEYS]
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    for key, value in raw.items():
        _check_type(key, value, *_KEYS[key][1:])
    for key, value in raw.get("vit", {}).items():
        _check_type(f"vit.{key}", value, int, "an integer")
    fields = {_KEYS[k][0]: value for k, value in raw.items()}
    if "vit" in raw:
        v = {"w": 336, "h": 336, "patch": 14, **raw["vit"]}
        if v["patch"] < 1:
            raise ValueError("config key vit.patch must be positive")
        m = v.get("M", (v["w"] // v["patch"]) * (v["h"] // v["patch"]))
        fields["vit"] = VitSpec(v["w"], v["h"], v["patch"], m)
    return replace(cfg, **fields)

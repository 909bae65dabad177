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


def _positive(value: int) -> bool:
    return value >= 1


# config key -> (AppConfig field, accepted JSON type, what the value must be, its range check or None);
# bool is never taken for an integer
_KEYS = {
    "vit": ("vit", dict, "an object", None),
    "K": ("resampler_queries", int, "an integer >= 1", _positive),
    "max_N": ("max_slices", int, "an integer >= 1", _positive),
    "seed": ("seed", int, "an integer", None),
    "format": ("output_format", str, '"json" or "text"', lambda v: v in ("json", "text")),
    "model_dims": ("model_dims_path", (str, type(None)), "a string or null", None),
}
_VIT_KEYS = ("w", "h", "patch", "M")


def _check(key: str, value, kind, name: str, in_range) -> None:
    if isinstance(value, bool) or not isinstance(value, kind) or (in_range is not None and not in_range(value)):
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
        _check(key, value, *_KEYS[key][1:])
    for key, value in raw.get("vit", {}).items():
        _check(f"vit.{key}", value, int, "an integer >= 1", _positive)
    fields = {_KEYS[k][0]: value for k, value in raw.items()}
    if "vit" in raw:
        v = {"w": 336, "h": 336, "patch": 14, **raw["vit"]}
        m = v.get("M", (v["w"] // v["patch"]) * (v["h"] // v["patch"]))
        try:
            fields["vit"] = VitSpec(v["w"], v["h"], v["patch"], m)
        except ValueError as e:
            raise ValueError(f"config key vit is inconsistent: {e}") from None
    return replace(cfg, **fields)

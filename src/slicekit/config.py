"""Runtime configuration with JSON-file overrides."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .cost import ModelDims, load_model_dims
from .jsonfile import load_json_file
from .partition import MAX_SLICES, VitSpec


@dataclass(frozen=True)
class AppConfig:
    vit: VitSpec = VitSpec()
    max_slices: int = 6
    seed: int = 42
    output_format: str = "json"  # json | text
    dims: ModelDims = field(default_factory=load_model_dims)  # the one source of K (dims.resampler_queries)


def _positive(value: int) -> bool:
    return value >= 1


# config key -> (AppConfig field, accepted JSON type, what the value must be, its range check or None);
# bool is never taken for an integer
_KEYS = {
    "vit": ("vit", dict, "an object", None),
    "max_N": ("max_slices", int, f"an integer from 1 to {MAX_SLICES}", lambda v: 1 <= v <= MAX_SLICES),
    "seed": ("seed", int, "an integer >= 0", lambda v: v >= 0),
    "format": ("output_format", str, '"json" or "text"', lambda v: v in ("json", "text")),
    "model_dims": ("dims", (str, type(None)), "a string or null", None),
}
_VIT_KEYS = ("w", "h", "patch")


def _check(key: str, value, kind, name: str, in_range) -> None:
    if isinstance(value, bool) or not isinstance(value, kind) or (in_range is not None and not in_range(value)):
        raise ValueError(f"config key {key} must be {name}, got {json.dumps(value)}")


def load_config(path: str | None = None) -> AppConfig:
    if path is None:
        return AppConfig()
    raw = load_json_file(path)
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
        try:
            fields["vit"] = VitSpec(v["w"], v["h"], v["patch"])
        except ValueError as e:
            raise ValueError(f"config key vit is inconsistent: {e}") from None
    if "model_dims" in raw:
        fields["dims"] = load_model_dims(raw["model_dims"])
    return AppConfig(**fields)

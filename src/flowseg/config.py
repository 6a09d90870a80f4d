"""Flat key = value configuration files and run manifests.

Config keys are dotted, a section and a field of its config class:
`flow_plane.n`, `track_plane.evolve_threshold`.  Values are parsed by
the target field's type, unknown keys are errors, and the assembled
dataclasses run their own validation.  A manifest records everything
needed to repeat a run; the elapsed time line is informational and
excluded from any reproducibility comparison.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Iterable, Optional, Sequence, Union

from . import __version__
from .engine import EngineConfig
from .events import ParseError, read_ascii
from .flow_plane import FlowPlaneConfig
from .track_plane import TrackPlaneConfig


class ConfigError(ValueError):
    """Bad key, bad value, or failed validation in a config source."""


# each key's section: an EngineConfig field and its class, in dump order
_SECTIONS = (("flow_plane", FlowPlaneConfig),
             ("track_plane", TrackPlaneConfig))


def _parse_value(raw: str, current) -> Union[int, float]:
    raw = raw.strip()
    if isinstance(current, bool):
        raise ConfigError("boolean config fields are not supported")
    if isinstance(current, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"expected an integer, got {raw!r}") from None
    if isinstance(current, float):
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"expected a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"expected a finite number, got {raw!r}")
        return value
    raise ConfigError(f"unsupported field type {type(current).__name__}")


def parse_assignments(pairs: Iterable[str]) -> dict[str, str]:
    """Split `section.key=value` strings; raises ConfigError on malformed."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"expected key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = value.strip()
    return out


def _build(assignments: dict[str, tuple[str, str]]) -> EngineConfig:
    """EngineConfig from defaults plus overrides `key: (where, raw)`; an
    error about a value starts with its `where` and its key."""
    buckets = {section: dataclasses.asdict(cls())
               for section, cls in _SECTIONS}
    for key, (where, raw) in assignments.items():
        section, _, name = key.partition(".")
        bucket = buckets.get(section, {})
        if name not in bucket:
            raise ConfigError(f"{where}unknown config key {key!r}")
        try:
            bucket[name] = _parse_value(raw, bucket[name])
        except ConfigError as exc:
            raise ConfigError(f"{where}{key}: {exc}") from None

    built = {}
    for section, cls in _SECTIONS:
        try:
            built[section] = cls(**buckets[section])
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    return EngineConfig(**built)


def load_config(source: Union[str, Iterable[str]],
                overrides: Optional[Sequence[str]] = None) -> EngineConfig:
    """EngineConfig from defaults, then a key = value file (or lines, none
    for the defaults), then `overrides` (`section.key=value`); '#'
    starts a comment.  A file must be ASCII (`read_ascii`).  An error
    about a line names it (and the file), and an error about a value
    names its key."""
    if isinstance(source, str):
        origin = f"{source}: "
        try:
            lines = read_ascii(source).split("\n")
        except ParseError as exc:
            raise ConfigError(f"{origin}{exc}") from None
    else:
        lines = list(source)
        origin = ""
    assignments: dict[str, tuple[str, str]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{origin}line {lineno}: "
        if "=" not in line:
            raise ConfigError(f"{where}expected key = value")
        key, _, value = line.partition("=")
        assignments[key.strip()] = (where, value.strip())
    assignments.update((key, ("", raw)) for key, raw
                       in parse_assignments(overrides or []).items())
    return _build(assignments)


def config_lines(cfg: EngineConfig) -> list[str]:
    """Dotted key = value dump, section order fixed, field order declared."""
    return [f"{section}.{f.name} = {getattr(getattr(cfg, section), f.name)!r}"
            for section, cls in _SECTIONS for f in dataclasses.fields(cls)]


def manifest_lines(command: str, input_path: Optional[str],
                   outputs: dict[str, str], counts: dict[str, int],
                   elapsed_s: float,
                   cfg: Optional[EngineConfig] = None) -> list[str]:
    lines = [
        "# run manifest",
        f"version={__version__}",
        f"command={command}",
        f"wall_clock={time.strftime('%Y-%m-%dT%H:%M:%S')}",
        f"elapsed_s={elapsed_s:.3f}",
    ]
    if input_path is not None:
        lines.append(f"input={input_path}")
    for name in sorted(outputs):
        lines.append(f"output.{name}={outputs[name]}")
    for name in sorted(counts):
        lines.append(f"count.{name}={counts[name]}")
    if cfg is not None:
        lines.extend(f"config.{line.replace(' = ', '=')}"
                     for line in config_lines(cfg))
    return lines


def write_manifest(path: str, lines: Sequence[str]) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

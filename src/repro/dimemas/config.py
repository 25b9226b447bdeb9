"""Dimemas-style configuration files.

The real Dimemas reads the target machine from a ``.cfg`` text file.  This
module reads and writes a simplified, line-oriented equivalent so platforms
can be stored alongside experiments and passed around the CLI::

    # dimemas-like platform description
    name              = mn-like
    relative_cpu_speed = 1.0
    latency            = 5e-6
    bandwidth_mbps     = 250
    num_buses          = 0
    input_links        = 1
    output_links       = 1
    eager_threshold    = 65536
    processors_per_node = 1
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

from repro.dimemas.platform import Platform
from repro.errors import ConfigurationError

#: Fields of :class:`Platform` that config files and experiment specs may
#: set, with their types.  Shared with ``repro.experiments.spec`` so the two
#: serialized platform forms can never drift apart.
PLATFORM_FIELDS = {
    "name": str,
    "relative_cpu_speed": float,
    "latency": float,
    "bandwidth_mbps": float,
    "num_buses": int,
    "input_links": int,
    "output_links": int,
    "eager_threshold": int,
    "processors_per_node": int,
    "intranode_bandwidth_mbps": float,
    "intranode_latency": float,
    "cpu_contention": bool,
    "mpi_overhead": float,
    # Stored in the compact string form ("tree:radix=8,links=2"); Platform
    # parses it back into a TopologySpec.
    "topology": str,
    # Stored in the compact string form ("decomposed:bcast=ring"); Platform
    # parses it back into a CollectiveSpec.
    "collective_model": str,
    # "event" or "adaptive".  Result-cache keys ignore the knob for the
    # reference "event" backend and key "adaptive" results, whose network
    # aggregates may differ in the last ulp (see
    # repro.store.keys.platform_fingerprint).
    "replay_backend": str,
}

#: Backwards-compatible private alias.
_FIELDS = PLATFORM_FIELDS


def platform_to_config(platform: Platform) -> str:
    """Render ``platform`` as the text of a configuration file."""
    lines = ["# dimemas-like platform description"]
    for field, kind in _FIELDS.items():
        value = getattr(platform, field)
        if field == "topology":
            value = platform.topology.to_string()
        elif field == "collective_model":
            value = platform.collective_model.to_string()
        elif kind is bool:
            value = "true" if value else "false"
        lines.append(f"{field} = {value}")
    return "\n".join(lines) + "\n"


def config_to_platform(text: str) -> Platform:
    """Parse configuration text into a :class:`Platform`."""
    values: Dict[str, object] = {}
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"line {line_number}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _FIELDS:
            raise ConfigurationError(f"line {line_number}: unknown platform field {key!r}")
        kind = _FIELDS[key]
        try:
            if kind is bool:
                if raw_value.lower() not in ("true", "false", "0", "1"):
                    raise ValueError(raw_value)
                values[key] = raw_value.lower() in ("true", "1")
            else:
                values[key] = kind(raw_value)
        except ValueError as exc:
            raise ConfigurationError(
                f"line {line_number}: cannot parse {raw_value!r} as {kind.__name__}") from exc
    return Platform(**values)


def save_platform(platform: Platform, path: Union[str, Path]) -> Path:
    """Write ``platform`` to ``path`` and return the path."""
    path = Path(path)
    path.write_text(platform_to_config(platform), encoding="utf-8")
    return path


def load_platform(path: Union[str, Path]) -> Platform:
    """Read a platform previously written with :func:`save_platform`."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read platform file {path}: {exc}") from exc
    return config_to_platform(text)

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

A ``#`` starts a comment only at the start of a line or after whitespace,
so a value may contain one (``name = rack#2``).
"""

from __future__ import annotations

import re
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
    "mpi_overhead": float,
    # Stored in the compact string form ("tree:radix=8,links=2"); Platform
    # parses it back into a TopologySpec.
    "topology": str,
    # Stored in the compact string form ("decomposed:bcast=ring"); Platform
    # parses it back into a CollectiveSpec.
    "collective_model": str,
    # "event" or "adaptive"; both replay to the same bytes, so result-cache
    # keys ignore it (see repro.store.keys.platform_fingerprint).
    "replay_backend": str,
}

#: Backwards-compatible private alias.
_FIELDS = PLATFORM_FIELDS

#: Platform fields that no longer exist, each with the error that a config
#: file or experiment spec still setting it fails with.
REMOVED_PLATFORM_FIELDS = {
    "cpu_contention": (
        "platform field 'cpu_contention' was removed: a node never hosts "
        "more ranks than its processors_per_node, so no computation burst "
        "ever waited for a CPU; delete the setting"),
}


#: Where a comment starts: a ``#`` that opens the line or follows whitespace.
_COMMENT = re.compile(r"(?:^|\s)#")


def _uncommented(line: str) -> str:
    """``line`` without its comment and surrounding whitespace."""
    match = _COMMENT.search(line)
    return (line if match is None else line[:match.start()]).strip()


def platform_to_config(platform: Platform) -> str:
    """Render ``platform`` as the text of a configuration file.

    Raises :class:`ConfigurationError`, naming the field, for a value that
    would not read back unchanged: one holding a line break, starting or
    ending with whitespace, starting with ``#`` or holding a ``#`` after
    whitespace.
    """
    lines = ["# dimemas-like platform description"]
    for field in _FIELDS:
        value = getattr(platform, field)
        if field == "topology":
            value = platform.topology.to_string()
        elif field == "collective_model":
            value = platform.collective_model.to_string()
        line = f"{field} = {value}"
        if (line.splitlines() != [line]
                or _uncommented(line).partition("=")[2].strip() != str(value)):
            raise ConfigurationError(
                f"platform field {field!r} cannot be written to a config "
                f"file: {str(value)!r} would not read back (a value cannot "
                f"hold a line break, start or end with whitespace, start "
                f"with '#' or hold a '#' after whitespace)")
        lines.append(line)
    return "\n".join(lines) + "\n"


def config_to_platform(text: str) -> Platform:
    """Parse configuration text into a :class:`Platform`."""
    values: Dict[str, object] = {}
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = _uncommented(raw_line)
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"line {line_number}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key in REMOVED_PLATFORM_FIELDS:
            raise ConfigurationError(
                f"line {line_number}: {REMOVED_PLATFORM_FIELDS[key]}")
        if key not in _FIELDS:
            raise ConfigurationError(f"line {line_number}: unknown platform field {key!r}")
        kind = _FIELDS[key]
        try:
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

"""Run manifests: enough to re-run any command and byte-compare its outputs.

Every CLI command writes a ``manifest.txt`` in its output directory holding
the command name, the full config echo, the effective seed, and sha256
checksums of every artifact it produced.  Replaying re-dispatches the same
command from the recorded config into a fresh directory; matching checksums
certify byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import os

from . import configio

MANIFEST_NAME = "manifest.txt"


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, command: str, config_sections, seed,
                   artifact_names: list[str]) -> str:
    """Write manifest.txt for artifacts already present in out_dir."""
    sections = {"manifest": {"command": command, "seed": str(seed)}}
    for name, entries in config_sections.items():
        sections[f"config.{name}"] = dict(entries)
    sections["checksums"] = {name: sha256_file(os.path.join(out_dir, name))
                             for name in sorted(artifact_names)}
    path = os.path.join(out_dir, MANIFEST_NAME)
    configio.save(sections, path)
    return path


def read_manifest(path):
    """(command, seed, config sections, checksums) of a manifest.txt; a
    damaged [manifest] section raises ConfigError naming the file and entry."""
    sections = configio.load(path)
    fields = configio.parse_entries(path, sections, "manifest", {"command": str, "seed": int})
    config = {name[len("config."):]: dict(entries)
              for name, entries in sections.items() if name.startswith("config.")}
    checksums = dict(sections.get("checksums", {}))
    return fields["command"], fields["seed"], config, checksums


def replay_manifest(manifest_path, out_dir) -> dict:
    """Re-run the recorded command into out_dir.

    Returns {artifact name: (recorded sha256, replayed sha256)}; equal pairs
    mean the replay was byte-identical.
    """
    from . import cli
    command, _, config, recorded = read_manifest(manifest_path)
    cli.dispatch_from_config(command, config, out_dir)
    return {name: (checksum, sha256_file(os.path.join(out_dir, name)))
            for name, checksum in recorded.items()}

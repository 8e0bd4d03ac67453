"""The README's code examples run as written, and its schema block is the schema."""

import re
from dataclasses import fields
from pathlib import Path

import yaml

from moascent.config import Config

README = Path(__file__).resolve().parent.parent / "README.md"


def section_blocks(title: str, language: str) -> list[str]:
    section = README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", section, re.S)


def test_library_use_block_runs():
    (code,) = section_blocks("Library use", "python")
    exec(compile(code, f"{README}:Library use", "exec"), {"__name__": "readme"})


def schema_defaults(cls) -> dict:
    """Every field of ``cls`` with its default, sections as nested mappings."""
    return {f.name: schema_defaults(f.metadata["section"]) if "section" in f.metadata
            else f.default_factory() for f in fields(cls)}


def test_configuration_block_lists_the_schema_with_its_defaults():
    (block,) = section_blocks("Configuration", "yaml")
    shown = yaml.safe_load(block)
    # The two required fields have no default; the block shows an example.
    assert shown["experiment"] and shown["env"]["name"]
    shown["experiment"] = shown["env"]["name"] = None
    assert shown == schema_defaults(Config)

"""Access to the shipped data files: rule catalog, golden traces, switch wiring."""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

from .engine import Trace, TraceFormatError, parse_trace_text
from .rules import RuleTable, load_rule_dir


# the shipped data files sit next to this module, in an installed package as in the source tree
_DATA_DIR = Path(__file__).resolve().parent / "data"


def data_dir() -> Path:
    return _DATA_DIR


def default_rules_dir() -> Path:
    return data_dir() / "rules"


def default_golden_dir() -> Path:
    return data_dir() / "golden"


def load_catalog(rules_dir: Path | str | None = None) -> RuleTable:
    """The rule catalog in ``rules_dir`` (default: the shipped one), read from its files on every call."""
    return load_rule_dir(rules_dir if rules_dir is not None else default_rules_dir())


def golden_path(name: str, golden_dir: Path | str | None = None) -> Path:
    base = Path(golden_dir) if golden_dir is not None else default_golden_dir()
    return base / f"{name}.trace"


def load_golden_trace(name: str, golden_dir: Path | str | None = None) -> Trace:
    path = golden_path(name, golden_dir)
    if not path.is_file():
        raise FileNotFoundError(f"golden trace missing: {path}")
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: {exc}") from None
    return parse_trace_text(text, str(path))


@lru_cache(maxsize=1)
def load_switch_wiring() -> dict:
    path = data_dir() / "switch_wiring.json"
    return json.loads(path.read_text())

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dodecagrid"


def test_every_data_file_ships_in_the_wheel():
    # a data file no package-data glob names is silently left out of the wheel
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        globs = tomllib.load(f)["tool"]["setuptools"]["package-data"]["dodecagrid"]
    shipped = {path for pattern in globs for path in PACKAGE.glob(pattern)}
    data_files = {path for path in (PACKAGE / "data").rglob("*") if path.is_file()}
    assert data_files, "no data files found"
    assert sorted(p.relative_to(PACKAGE).as_posix() for p in data_files - shipped) == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # each costs a clean interpreter more start-up time than the package's own modules; modules the bare interpreter
    # loads do not count, and -S keeps site out, as a site .pth file may load typing before the package does;
    # render is imported by the render command alone
    code = "import sys; before = set(sys.modules); import dodecagrid.cli; print(*sorted(set(sys.modules) - before))"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    added = subprocess.run(
        [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "dodecagrid.cli" in added
    assert {"dataclasses", "inspect", "typing", "dodecagrid.render"} & set(added) == set()

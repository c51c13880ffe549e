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

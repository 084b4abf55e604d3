"""The shipped fixture corpus is exactly what tools/make_fixtures.py writes."""

import contextlib
import importlib.util
import io
from pathlib import Path

from lielimits import formats

GENERATOR = Path(__file__).resolve().parents[1] / "tools" / "make_fixtures.py"


def test_fixtures_regenerate_byte_identically(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_fixtures", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        module.main()
    shipped = formats.fixture_path("s1.json").parent
    names = sorted(p.name for p in shipped.glob("*.json"))
    assert sorted(p.name for p in tmp_path.glob("*.json")) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name

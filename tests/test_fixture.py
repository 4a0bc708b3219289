"""The committed fixture is what ``tools/gen_fixture.py`` writes, byte for byte."""

import importlib.util
from pathlib import Path

GENERATOR = Path(__file__).resolve().parent.parent / "tools" / "gen_fixture.py"


def test_generator_reproduces_the_fixture(data_dir, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("gen_fixture", GENERATOR)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    monkeypatch.setattr(gen, "OUT", tmp_path)
    assert gen.main() == 0
    capsys.readouterr()

    made = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    committed = sorted(p.relative_to(data_dir) for p in data_dir.rglob("*") if p.is_file())
    assert made == committed
    assert len(made) == 20
    for relpath in made:
        assert (tmp_path / relpath).read_bytes() == (data_dir / relpath).read_bytes(), relpath

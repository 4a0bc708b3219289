"""The committed fixture: what ``tools/gen_fixture.py`` writes, byte for byte,
and the records it parses into, by their ``tools/record_digest.py`` digest."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# The fixture's digest and record count, as computed with the element-tree
# parsers that the streamed reader replaced.
FIXTURE_RECORDS = ("171917cd9f2c3fb1aea5b94cf71d69b950b00bd468448e368ea8149b8c93b455", 210)


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generator_reproduces_the_fixture(data_dir, tmp_path, monkeypatch, capsys):
    gen = _tool("gen_fixture")
    monkeypatch.setattr(gen, "OUT", tmp_path)
    assert gen.main() == 0
    capsys.readouterr()

    made = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    committed = sorted(p.relative_to(data_dir) for p in data_dir.rglob("*") if p.is_file())
    assert made == committed
    assert len(made) == 20
    for relpath in made:
        assert (tmp_path / relpath).read_bytes() == (data_dir / relpath).read_bytes(), relpath


def test_fixture_records_keep_their_digest(data_dir):
    assert _tool("record_digest").digest(data_dir) == FIXTURE_RECORDS

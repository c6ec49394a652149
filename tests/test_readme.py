"""README's library example runs as written on the test fixture."""

import re
import shutil
from pathlib import Path

from conftest import build_pipeline_fixture

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    fixture = build_pipeline_fixture(tmp_path / "fx")
    shutil.copyfile(fixture["config"], tmp_path / "deploy.json")
    shutil.copyfile(fixture["ais"], tmp_path / "pulses.csv")
    (tmp_path / "emb").mkdir()
    for i, shard in enumerate(fixture["shards"][:2]):
        shutil.copyfile(shard, tmp_path / "emb" / f"{i}.bin")
    monkeypatch.chdir(tmp_path)
    exec(compile(example, str(README), "exec"), {})
    assert float(capsys.readouterr().out) > 0

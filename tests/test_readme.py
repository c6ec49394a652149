"""README's library example and CLI walkthrough run as written on the test fixture."""

import glob
import re
import shlex
import shutil
from pathlib import Path

from conftest import build_pipeline_fixture
from pamcurate import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title: str, fence: str) -> str:
    """The first ``fence`` code block of README's section ``title``."""
    text = README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1]
    return re.search(rf"```{fence}\n(.*?)```", text, re.S).group(1)


def fixture_workdir(root: Path, shards: int) -> None:
    """``build_pipeline_fixture``'s config, AIS CSV and first ``shards``
    shards under the names README uses, in ``root``."""
    fixture = build_pipeline_fixture(root / "fx")
    shutil.copyfile(fixture["config"], root / "deploy.json")
    shutil.copyfile(fixture["ais"], root / "pulses.csv")
    (root / "emb").mkdir()
    for i, shard in enumerate(fixture["shards"][:shards]):
        shutil.copyfile(shard, root / "emb" / f"{i}.bin")


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    example = section("Library use", "python")
    fixture_workdir(tmp_path, shards=2)
    monkeypatch.chdir(tmp_path)
    exec(compile(example, str(README), "exec"), {})
    assert float(capsys.readouterr().out) > 0


def test_cli_walkthrough_runs(tmp_path, monkeypatch):
    script = section("Pipeline walkthrough", "sh")
    fixture_workdir(tmp_path, shards=3)
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line) for line in script.replace("\\\n", " ").splitlines() if line.strip()]
    assert [argv[0] for argv in commands] == ["pamcurate"] * 6
    for argv in commands:
        expanded = [arg for word in argv[1:] for arg in (sorted(glob.glob(word)) if "*" in word else [word])]
        assert cli.main(expanded) == 0, argv

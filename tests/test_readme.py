"""The README's examples run as written: every ``mmwbeam`` line of its CLI section
exits 0, and its Library example executes.  Its Benchmark section names the newest
benchmark record."""

import re
import shlex
from pathlib import Path

import pytest

from mmwbeam.cli import EXIT_OK, main

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def section(title):
    """The text of the README section under the ``## title`` heading."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : None if end < 0 else end]


def code_blocks(text, language):
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.M | re.S)


CLI_LINES = [
    line
    for block in code_blocks(section("CLI"), "sh")
    for line in block.splitlines()
    if line.startswith("mmwbeam ")
]


def test_the_cli_section_has_commands():
    assert len(CLI_LINES) >= 5


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_example_exits_zero(line, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_library_example_runs(capsys):
    (block,) = code_blocks(section("Library example"), "python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("directional beamforming loses ")


def test_the_benchmark_section_names_the_newest_record():
    records = [re.fullmatch(r"BENCH_(\d+)\.json", path.name) for path in ROOT.glob("BENCH_*.json")]
    newest = f"BENCH_{max(int(m.group(1)) for m in records if m)}.json"
    text = section("Benchmark")
    assert re.findall(r"--out (BENCH_\d+\.json)", text) == [newest]
    assert re.findall(r"The newest\s+file is `(BENCH_\d+\.json)`", text) == [newest]

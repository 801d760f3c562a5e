"""Each demo script, README's quick start and its command lines run to completion against src/."""

import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _python(args: list[str], cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = _python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (API)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = _python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("Torus")


def _readme_command(name: str) -> list[str]:
    """The arguments of README's `equilag <name> ...` line in its "Command line" block."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    (words,) = [w for w in lines if w[:2] == ["equilag", name]]
    return words[1:]


@pytest.mark.parametrize("name", ["derive", "classify"])
def test_readme_command_line_runs(name, tmp_path):
    proc = _python(["-m", "equilag", *_readme_command(name)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_module_entry_point_without_arguments(tmp_path):
    proc = _python(["-m", "equilag"], tmp_path)
    assert proc.returncode == 2
    assert "required: command" in proc.stderr

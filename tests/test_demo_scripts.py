import io
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from fincat.cli import VERBS, run

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_script_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["validate"](namespace["fs"]).ok


def test_readme_command_lines_exit_0(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```", readme, flags=re.S | re.M).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert all(argv[0] == "fincat" for argv in commands)
    assert [argv[1] for argv in commands] == list(VERBS)  # every verb once, in table order
    monkeypatch.chdir(ROOT)
    for argv in commands:
        with redirect_stdout(io.StringIO()):
            assert run(argv[1:]) == 0, argv

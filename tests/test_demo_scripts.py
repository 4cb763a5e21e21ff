import re
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_script_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_readme_library_tour_runs():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["validate"](namespace["fs"]).ok

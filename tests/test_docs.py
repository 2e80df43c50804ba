"""The README's library quick start and the demo scripts run as shipped."""
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_start_runs():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, capsys):
    """Each demo prints exactly the output recorded in tests/golden."""
    runpy.run_path(str(ROOT / "demos" / demo), run_name="__main__")
    golden = ROOT / "tests" / "golden" / f"demo_{Path(demo).stem}.txt"
    assert capsys.readouterr().out == golden.read_text()

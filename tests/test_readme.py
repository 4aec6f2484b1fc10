"""README against the package: the root's pipeline entry points, the
Python API example that uses them, and the shown command output against
the golden files."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import smmtrack

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
PIPELINE_API = {
    "GenConfig", "generate", "write_corpus",
    "load_scenario", "load_events",
    "EngineState", "replay", "detect_all",
    "count_level", "build_history",
    "uniform_weights", "batch_report", "pearson",
}


def test_root_exports_the_pipeline_api_only():
    public = {name for name, value in vars(smmtrack).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == PIPELINE_API | {"fixture_path"}


def test_readme_python_api_block_runs():
    section = README.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", block], capture_output=True,
                            text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert -1.0 <= float(result.stdout) <= 1.0


# the golden file holding the full output of each command README shows
OUTPUT_GOLDEN = {"analyze": "readme_analyze.txt", "predict": "readme_predict.txt",
                 "score": "dyad_score.txt"}


def readme_outputs():
    """Each plain block README shows after a shell block, keyed by the
    last ``smmtrack`` command in that shell block."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```", README, re.S | re.M)
    return {re.findall(r"^smmtrack (\w+)", command, re.M)[-1]: output
            for (lang, command), (next_lang, output) in zip(blocks, blocks[1:])
            if lang == "sh" and next_lang == ""}


def test_readme_shows_the_output_of_each_golden_command():
    assert readme_outputs().keys() == OUTPUT_GOLDEN.keys()


@pytest.mark.parametrize("command", OUTPUT_GOLDEN)
def test_readme_output_block_lines_appear_in_order_in_golden(command):
    golden = iter((ROOT / "tests" / "golden" / OUTPUT_GOLDEN[command])
                  .read_text(encoding="utf-8").splitlines())
    # "..." stands for lines left out, and a line ending in it is cut short
    shown = [line for line in readme_outputs()[command].splitlines()
             if not line.endswith("...")]
    assert len(shown) >= 3
    for line in shown:
        assert line in golden, f"{line!r} not found, in order, in {OUTPUT_GOLDEN[command]}"

"""The package root as README documents it: the pipeline's entry points,
and the Python API example that uses them."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import smmtrack

ROOT = Path(__file__).resolve().parent.parent
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
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", block], capture_output=True,
                            text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert -1.0 <= float(result.stdout) <= 1.0

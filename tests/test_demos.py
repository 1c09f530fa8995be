"""Every demo script runs to the end: exit status 0 and nothing on stderr.

`demos/04_experiment_cli.py` starts worker processes and is run in
`tests/test_ablate.py`.  Demo 03 checks the untaped forwards against
central differences, so it also exercises evaluation outside a tape.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ("01_selection_mechanics.py", "02_full_training_run.py",
         "03_autodiff_gradient_check.py")


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs_cleanly(tmp_path, script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-W", "error", os.path.join(ROOT, "demos", script)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout

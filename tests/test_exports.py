import os
import re
import subprocess
import sys
from pathlib import Path

import relfi


def test_every_export_resolves_once():
    assert len(set(relfi.__all__)) == len(relfi.__all__)
    missing = [name for name in relfi.__all__ if not hasattr(relfi, name)]
    assert not missing


def test_import_leaves_scipy_stats_out():
    # scipy.stats alone takes about a second to import; scipy.special serves
    src = Path(relfi.__file__).resolve().parents[1]
    code = "import sys, relfi, relfi.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_readme_python_blocks_run():
    # a retired or renamed name in the README's examples fails here
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})

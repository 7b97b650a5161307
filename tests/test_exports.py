import json
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


def _scipy_modules(code: str) -> list[str]:
    """The scipy modules loaded by ``code`` run in a fresh interpreter."""
    src = Path(relfi.__file__).resolve().parents[1]
    code += ("\nimport json, sys"
             "\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert _scipy_modules("import relfi, relfi.cli") == []


def test_no_verb_loads_scipy(tmp_path):
    # the t distribution is computed in inference.py and the fit solves its
    # normal equations with numpy, so no verb needs scipy
    config, data = str(tmp_path / "c.yaml"), str(tmp_path / "d.csv")
    code = ("import dataclasses, yaml\n"
            "from relfi.cli import config_to_mapping, load_config, main\n"
            "config = dataclasses.replace(load_config('experiment_a'), data_n=2000, "
            f"output={str(tmp_path / 'out')!r})\n"
            f"open({config!r}, 'w').write(yaml.safe_dump(config_to_mapping(config)))\n"
            "assert main(['validate', 'experiment_a']) == 0\n"
            f"assert main(['simulate', 'experiment_a', '--n', '2000', '--out', {data!r}]) == 0\n"
            f"assert main(['fit', {data!r}, '--target', 'Y', '--split-column', 'split']) == 0\n"
            f"assert main(['run', {config!r}]) == 0")
    assert _scipy_modules(code) == []


def test_readme_python_blocks_run():
    # a retired or renamed name in the README's examples fails here
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})

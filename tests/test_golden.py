"""Byte-level golden check of the bundled experiments.

The hashes pin ``results.csv`` and ``figure.svg`` of the bundled
``experiment_a`` and ``experiment_b`` configs. Float rendering uses repr,
so the bytes depend on the exact floating-point results, which can move
with the Python, numpy or scipy build or the BLAS kernel in use. They do
not depend on the number of workers (both values are run here) or of
BLAS threads: a one-column variance, whose dot product BLAS would split
across its threads, is summed by numpy instead.
The hashes hold within the environment they were recorded in (Python
3.11.7, numpy 2.4.6, scipy 1.17.1, whose OpenBLAS 0.3.31 is built with
DYNAMIC_ARCH and picks a kernel for the CPU). That build's kernels sum
in different orders, so ``GOLDEN`` holds one set per kernel, keyed by the
``blas_kernel`` entry of ``manifest.yaml``'s environment: SkylakeX, and
Haswell, Sandybridge and Katmai as chosen with ``OPENBLAS_CORETYPE``
(Katmai by ``Prescott``). The figure is the same under all four;
``results.csv`` is not. A kernel with no
pinned set fails, as does a mismatch elsewhere: it means the environment
or the CPU changed, not necessarily the code. A mismatch names the
environment it ran in, kernel included.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relfi
from relfi.cli import BUNDLED_CONFIGS, _environment, load_config, run_experiment

_FIGURES = {
    "experiment_a": "6d10ff6603ee0d068265d7003b7a9bcbf973acc637e8c77d7d2e89d1aba8500f",
    "experiment_b": "1b51ee11f0941e59a50d725f10ade6185a24a4dfe5805fb6d5effe867ca42ca1",
}
_RESULTS = {  # kernel: {config: results.csv}
    "SkylakeX": {
        "experiment_a": "68f1806c13127c02cd7c67c0aedc8624c945e181f17856629105dfd21cb1473c",
        "experiment_b": "981b6092be004b3f98674907ee6a273294f641ec7bb4b9b6455c7dc2da08b86b",
    },
    "Haswell": {
        "experiment_a": "087637e18c6f894910de44e5c6700e651e21be3273d5cfb51e7c489ff55ec7ac",
        "experiment_b": "27e6b267f29cd0b95550752c44a7f206182ac4d717ab2c33869e8e13fa730505",
    },
    "Sandybridge": {
        "experiment_a": "b8d40af84f44b0b4129a7415a029ebb0ec7feb55705807de3ad4d09acc6a6ec9",
        "experiment_b": "b18a95c403f43a5cf46fdddb4f06e6fd3522a7a9f70e2b60de7d99da26c34377",
    },
    "Katmai": {
        "experiment_a": "3dda057481f368a55cb18f478dcf2cc7830c7b00c163e78171013322c18029bd",
        "experiment_b": "e971ff23b5bc3714d03d48a470e94969a988557692d7f6aef0a6a3f922ea2339",
    },
}
GOLDEN = {
    kernel: {name: {"results.csv": csv, "figure.svg": _FIGURES[name]} for name, csv in pins.items()}
    for kernel, pins in _RESULTS.items()
}


def _sha256(path) -> str:
    with open(path, "rb") as fp:
        return hashlib.sha256(fp.read()).hexdigest()


def bundled_hashes(name: str, output, workers: int = 1) -> dict:
    """The hashes of ``results.csv`` and ``figure.svg`` of bundled config ``name``."""
    config = dataclasses.replace(load_config(name), output=str(output))
    result = run_experiment(config, workers=workers)
    return {"results.csv": _sha256(result.csv_path), "figure.svg": _sha256(result.svg_path)}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", BUNDLED_CONFIGS)
def test_bundled_outputs_match_pinned_hashes(tmp_path, name, workers):
    got = bundled_hashes(name, tmp_path / "out", workers)
    assert got == GOLDEN.get(_environment()["blas_kernel"], {}).get(name), (
        f"environment {_environment()}: "
        "see the module docstring for the ones the hashes were recorded in"
    )


@pytest.mark.skipif(_environment()["blas_kernel"] is None,
                    reason="numpy without its bundled OpenBLAS")
@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge", "Katmai"])
def test_other_kernels_match_their_pins(tmp_path, kernel):
    # the kernel is picked when OpenBLAS loads, so only a new process can switch it
    code = ("import json, runpy, sys; from relfi.cli import _environment; "
            "g = runpy.run_path(sys.argv[1]); "
            "print(json.dumps([_environment()['blas_kernel'], "
            "{n: g['bundled_hashes'](n, n) for n in g['BUNDLED_CONFIGS']}]))")
    src = Path(relfi.__file__).resolve().parents[1]
    coretype = {"Katmai": "Prescott"}.get(kernel, kernel)  # the core type that loads it
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
    out = subprocess.run([sys.executable, "-c", code, __file__], env=env, cwd=tmp_path,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [kernel, GOLDEN[kernel]]

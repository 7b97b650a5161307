"""Byte-level golden check of the bundled experiments.

The hashes pin ``results.csv`` and ``figure.svg`` of the bundled
``experiment_a`` and ``experiment_b`` configs. Float rendering uses repr,
so the bytes depend on the exact floating-point results, which can move
with the Python or numpy build or the BLAS kernel in use. They do
not depend on the number of workers (both values are run here) or of
BLAS threads: a one-column variance, whose dot product BLAS would split
across its threads, is summed by numpy instead.
The hashes hold within the environment they were recorded in (Python
3.11.7, numpy 2.4.6, whose OpenBLAS 0.3.31 is built with
DYNAMIC_ARCH and picks a kernel for the CPU). That build's kernels sum
in different orders, so ``GOLDEN`` holds one set per kernel, keyed by the
``blas_kernel`` entry of ``manifest.yaml``'s environment: SkylakeX, and
Haswell, Sandybridge and Katmai as chosen with ``OPENBLAS_CORETYPE``
(Katmai by ``Prescott``). The figure is the same under all four;
``results.csv`` is not. A kernel with no
pinned set fails, as does a mismatch elsewhere: it means the environment
or the CPU changed, not necessarily the code. A mismatch names the
environment it ran in, kernel included.

``PYTHONPATH=src python tests/test_golden.py`` prints ``_RESULTS`` as the
code now produces it under each of the four kernels, one process each,
for a re-pin.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
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
        "experiment_a": "7c9e6600d564bb3d5a5900b7fdb7854c14d1a39bfd5eb9b2f682c4a0ba4da78d",
        "experiment_b": "b8cd74c3efce65c56813d0dcc3f5104a5577a6d092403c05f5e2bca65c584193",
    },
    "Haswell": {
        "experiment_a": "926e53487006a440435d6c1309ad3c1a569113d6a7ae31ac5651c0c414e68e1a",
        "experiment_b": "530dce07d72bf800f5fb730a0e16fe07f51e573f5c943925c7a17827f3355f01",
    },
    "Sandybridge": {
        "experiment_a": "da6cdd3473c3176c11211295a041594bc037a1103dd123dda5b3bc03ec5f9ca2",
        "experiment_b": "2e2e466f05d36055754326f2a5e53fc7572e2552665a8215317ee7a9da25be58",
    },
    "Katmai": {
        "experiment_a": "4ca2f662b57db69a0dd1f5eb3d2d573479cc71f54a2bf321df44480f905121c3",
        "experiment_b": "f5a74201f6a16a750af077a8383a3f9b2a5a089a13f24633f70305f7511c3158",
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


def kernel_hashes(kernel: str, cwd) -> list:
    """[the kernel loaded, {config: bundled_hashes}] from a new process that asks
    OpenBLAS for ``kernel``: the kernel is picked when OpenBLAS loads."""
    code = ("import json, runpy, sys; from relfi.cli import _environment; "
            "g = runpy.run_path(sys.argv[1]); "
            "print(json.dumps([_environment()['blas_kernel'], "
            "{n: g['bundled_hashes'](n, n) for n in g['BUNDLED_CONFIGS']}]))")
    src = Path(relfi.__file__).resolve().parents[1]
    coretype = {"Katmai": "Prescott"}.get(kernel, kernel)  # the core type that loads it
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
    out = subprocess.run([sys.executable, "-c", code, __file__], env=env, cwd=cwd,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.mark.skipif(_environment()["blas_kernel"] is None,
                    reason="numpy without its bundled OpenBLAS")
@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge", "Katmai"])
def test_other_kernels_match_their_pins(tmp_path, kernel):
    assert kernel_hashes(kernel, tmp_path) == [kernel, GOLDEN[kernel]]


if __name__ == "__main__":
    table = {}
    for kernel in _RESULTS:
        with tempfile.TemporaryDirectory() as tmp:
            loaded, hashes = kernel_hashes(kernel, tmp)
        table[loaded] = {name: pins["results.csv"] for name, pins in hashes.items()}
        for name, pins in hashes.items():
            if pins["figure.svg"] != _FIGURES[name]:
                print(f"{loaded} {name}: figure.svg {pins['figure.svg']}", file=sys.stderr)
    print("_RESULTS = {  # kernel: {config: results.csv}")
    for kernel, pins in table.items():
        print(f'    "{kernel}": {{')
        for name, digest in pins.items():
            print(f'        "{name}": "{digest}",')
        print("    },")
    print("}")

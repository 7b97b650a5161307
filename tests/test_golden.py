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
DYNAMIC_ARCH and picked its SkylakeX kernel on that machine;
``scipy_openblas_get_corename64_`` in numpy's bundled OpenBLAS names the
kernel). They fail under another kernel of the same build, such as
``OPENBLAS_CORETYPE=Haswell`` or ``Sandybridge``, so elsewhere a mismatch
means the environment or the CPU changed, not necessarily the code.
"""

import dataclasses
import hashlib

import pytest

from relfi.cli import load_config, run_experiment

GOLDEN = {
    "experiment_a": {
        "results.csv": "27e8051e483b6d976983171b579e3251a7833db3b5c6ff72ed76511be14889ab",
        "figure.svg": "6d10ff6603ee0d068265d7003b7a9bcbf973acc637e8c77d7d2e89d1aba8500f",
    },
    "experiment_b": {
        "results.csv": "143dc7144cfc73e8af0c8e2a49ab5e3e25171f3770bdf8b58fb12a39df684d71",
        "figure.svg": "1b51ee11f0941e59a50d725f10ade6185a24a4dfe5805fb6d5effe867ca42ca1",
    },
}


def _sha256(path) -> str:
    with open(path, "rb") as fp:
        return hashlib.sha256(fp.read()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_outputs_match_pinned_hashes(tmp_path, name, workers):
    config = dataclasses.replace(load_config(name), output=str(tmp_path / "out"))
    result = run_experiment(config, workers=workers)
    got = {
        "results.csv": _sha256(result.csv_path),
        "figure.svg": _sha256(result.svg_path),
    }
    assert got == GOLDEN[name]

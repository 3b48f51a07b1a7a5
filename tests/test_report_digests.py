"""Long ``check`` reports, pinned by the SHA-256 of their stdout.

The goldens in ``tests/golden/`` hold reports of a few violated rows.  These
cases run ``check`` on the benchmark's seven specs at band 60, each with one
seeded dense symbol (a report listing hundreds of violations) and one seeded
symmetric symbol, and compare the exit code and the digest of stdout with
``tests/golden/report_digests.json``.  To regenerate after an intended output
change, run ``PYTHONPATH=src python tests/test_report_digests.py`` and review
which digests moved.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from toepsym.cli import main, parse_spec_text
from toepsym.symbols import random_matrix_symbol, random_symbol

from solution_sets import symmetric_symbol

DIGEST_FILE = pathlib.Path(__file__).parent / "golden" / "report_digests.json"

# The benchmark's seven specs: the six families, transposition in a
# characterized case and in conjecture mode (whose report has an advisory).
SPECS = ["general:6:2,1,0,4,3,5", "transposition:4:0:2", "transposition:5:1:3",
         "reversal:2", "mulambda:0,1:0.6,0.8", "block_c", "block_ctilde"]
BAND = 60
SEED = 17


def _symbol(text: str, kind: str):
    spec = parse_spec_text(text)
    if kind == "dense":
        return (random_matrix_symbol if spec.is_block else random_symbol)(SEED, BAND, 1.0)
    return symmetric_symbol(spec, SEED, BAND, 0.8)


CASES = {f"{text}/{kind}": (text, kind) for text in SPECS for kind in ("dense", "symmetric")}


def run(name: str, directory: pathlib.Path) -> tuple[int, str]:
    """Exit code and SHA-256 of stdout of ``check`` on case ``name``."""
    text, kind = CASES[name]
    path = directory / "symbol.json"
    path.write_text(json.dumps(_symbol(text, kind).to_json()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", "--symbol-file", str(path), "--spec", text])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_report_digest(tmp_path, name):
    expected = json.loads(DIGEST_FILE.read_text())[name]
    assert list(run(name, tmp_path)) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests = {name: list(run(name, pathlib.Path(scratch))) for name in CASES}
    DIGEST_FILE.write_text(json.dumps(digests, indent=1) + "\n")

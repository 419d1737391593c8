"""Golden text reports: the 8 registry fixtures and the problem files in
tests/golden/ must print exactly what is checked in, byte for byte.

Regenerate after an intended output change with

    PYTHONPATH=src python tests/test_golden.py --regen

and review the diff of tests/golden/*.txt.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from gvkernel.cli import emit, execute, fixture_problem
from gvkernel.dsl import parse_problem
from gvkernel.fixtures import FIXTURE_NAMES, get_fixture

GOLDEN = pathlib.Path(__file__).parent / "golden"
FILES = tuple(sorted(p.stem for p in GOLDEN.glob("*.gvk")))
CASES = tuple(f"fixture-{name}" for name in FIXTURE_NAMES) + FILES


def _problem(case: str):
    if case.startswith("fixture-"):
        return fixture_problem(get_fixture(case[len("fixture-"):]))
    return parse_problem((GOLDEN / f"{case}.gvk").read_text(encoding="utf-8"))


def render(case: str) -> str:
    return emit(execute(_problem(case)), "text")


@pytest.mark.parametrize("case", CASES)
def test_text_report_matches_golden(case):
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert render(case) == expected


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_output_does_not_depend_on_hash_seed(hash_seed):
    # string and atom hashes change with the hash seed; an iteration order
    # that followed them into the output would differ between the two runs
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-m", "gvkernel.cli", "--fixture", "contact-model-r5"],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout == (GOLDEN / "fixture-contact-model-r5.txt").read_text(
        encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:] == ["--regen"]:
    for case in CASES:
        (GOLDEN / f"{case}.txt").write_text(render(case), encoding="utf-8")
        print(f"wrote {case}.txt")

"""The CI workflow's shell steps, run here.

``.github/workflows/tests.yml`` is read by indentation: every step is
either a ``run:`` step, run here in bash as the workflow's runner would
run it, or skipped by its name or action with a reason. A new step that
is neither fails ``test_every_step_is_run_or_skipped``. The steps run
from the repository root with ``PYTHONPATH=src``, one BLAS thread and a
``qdecimate`` on ``PATH`` that runs ``python -m qdecimate.cli``; what
they write goes under a temporary ``TMPDIR``.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

SKIPPED = {
    "actions/checkout@v4": "the tests run in the checkout",
    "actions/setup-python@v5": "the tests run under this interpreter",
    "install": "pip needs the network",
    "tier-1 tests": "it would run this test again",
    "benchmark smoke run": "it takes 30 s; perfbench's own tests run each workload",
}


def workflow_steps(text: str) -> list[dict[str, str]]:
    """Each step's top-level keys and values; a ``key: |`` block's value is its dedented text."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == "steps:")
    steps_col = len(lines[start]) - len(lines[start].lstrip())
    steps, block, key_col = [], None, 0
    for line in lines[start + 1 :]:
        body = line.lstrip()
        col = len(line) - len(body)
        if block is not None:
            if not body or col > key_col:
                block.append(line)
                continue
            steps[-1][key] = textwrap.dedent("\n".join(block)) + "\n"
            block = None
        if not body or body.startswith("#"):
            continue
        if col <= steps_col:
            break
        if body.startswith("- "):
            steps.append({})
            key_col, body = col + 2, body[2:]
        elif col != key_col:  # a nested mapping, such as a step's `with:`
            continue
        key, _, value = body.partition(":")
        if value.strip() == "|":
            block = []
        else:
            steps[-1][key] = value.strip()
    if block is not None:
        steps[-1][key] = textwrap.dedent("\n".join(block)) + "\n"
    return steps


def _label(step: dict[str, str]) -> str:
    return step.get("name") or step.get("uses") or step["run"].splitlines()[0]


STEPS = workflow_steps(WORKFLOW.read_text())
LABELS = [_label(step) for step in STEPS]
# while a skip names no step, a skipped step was renamed: run none, lest it be the install
RUN = [step for step in STEPS if _label(step) not in SKIPPED] if set(SKIPPED) <= set(LABELS) else []


def test_every_step_is_run_or_skipped():
    assert sorted(set(SKIPPED) - set(LABELS)) == []  # no skip outlives its step
    assert [_label(step) for step in RUN if "run" not in step] == []
    assert len(RUN) >= 3


def test_a_block_step_reads_as_its_script():
    text = textwrap.dedent(
        """\
        jobs:
          j:
            steps:
              - uses: actions/checkout@v4
              - run: echo one: two
              - name: block
                shell: bash
                with:
                  nested: value
                run: |
                  set -e

                  echo three
              # a comment between steps
              - name: last
                run: |
                  echo four
        """
    )
    assert workflow_steps(text) == [
        {"uses": "actions/checkout@v4"},
        {"run": "echo one: two"},
        {"name": "block", "shell": "bash", "with": "", "run": "set -e\n\necho three\n"},
        {"name": "last", "run": "echo four\n"},
    ]


@pytest.mark.parametrize("step", RUN, ids=_label)
def test_step_exits_0(tmp_path, step):
    shims = tmp_path / "bin"
    shims.mkdir()
    for name, command in (
        ("qdecimate", f'exec "{sys.executable}" -m qdecimate.cli "$@"'),
        ("python", f'exec "{sys.executable}" "$@"'),
        ("python3", f'exec "{sys.executable}" "$@"'),
    ):
        shim = shims / name
        shim.write_text(f"#!/bin/sh\n{command}\n")
        shim.chmod(0o755)
    script = tmp_path / "step.sh"
    script.write_text(step["run"])
    env = dict(
        os.environ,
        PATH=os.pathsep.join([str(shims), os.environ.get("PATH", "")]),
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
        TMPDIR=str(tmp_path),
    )
    # the runner's bash: no profile, exit on the first failing command or pipe
    result = subprocess.run(
        ["bash", "--noprofile", "--norc", "-eo", "pipefail", str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]

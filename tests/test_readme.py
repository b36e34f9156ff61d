"""The command-line examples of README.md print what the README shows.

Every `$ coxkit ...` line of a fenced block runs through `cli.main`; the
lines shown under it must appear in the real output in the same order.
A shown line containing `...` stands for any line that starts with the
text before the `...`.
"""

import os
import shlex
import subprocess
import sys

import pytest

from coxkit.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _examples():
    """(argv, shown output lines) for each `$ coxkit` line of the README."""
    with open(README) as fh:
        lines = fh.read().splitlines()
    out = []
    for i, line in enumerate(lines):
        if not line.startswith("$ coxkit "):
            continue
        shown = []
        for follow in lines[i + 1:]:
            if follow.startswith("```") or follow.startswith("$ "):
                break
            shown.append(follow)
        out.append((shlex.split(line[2:])[1:], shown))
    return out


def _matches(shown, real):
    if "..." in shown:
        return real.startswith(shown[:shown.index("...")])
    return real == shown


def test_readme_has_examples():
    assert len(_examples()) >= 6


@pytest.mark.parametrize("argv, shown", [
    pytest.param(argv, shown, id=" ".join(argv)) for argv, shown in _examples()])
def test_readme_example(capsys, argv, shown):
    assert main(argv) == 0
    real = iter(capsys.readouterr().out.splitlines())
    for want in shown:
        assert any(_matches(want, line) for line in real), want


def test_python_m_coxkit_prints_what_main_prints(capsys):
    """A fresh interpreter running `python3 -m coxkit` from the checkout
    prints the same bytes as in-process calls that share one parser."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv, _ in _examples()[:2]:
        proc = subprocess.run([sys.executable, "-m", "coxkit", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out

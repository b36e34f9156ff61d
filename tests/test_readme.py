"""The examples of README.md print what the README shows.

Every `$ coxkit ...` line of a fenced block runs through `cli.main`; the
lines shown under it must appear in the real output in the same order.
A shown line containing `...` stands for any line that starts with the
text before the `...`.

Every ```python block runs statement by statement in one namespace, and
an expression statement whose line ends in a comment must evaluate to
the value that comment starts with: `w.length  # 4`.
"""

import ast
import io
import os
import re
import shlex
import subprocess
import sys
import tokenize

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


def _python_blocks():
    with open(README) as fh:
        return re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)


def _shows(comment, value):
    """Whether comment starts with repr(value), then ends or goes on
    after a space or a comma."""
    text = repr(value)
    return comment == text or comment.startswith((text + " ", text + ","))


def test_readme_has_python_blocks():
    assert len(_python_blocks()) >= 2


@pytest.mark.parametrize("block", [
    pytest.param(block, id=block.splitlines()[0]) for block in _python_blocks()])
def test_readme_python_block(block):
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                if tok.type == tokenize.COMMENT}
    namespace = {}
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), README, "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), README, "eval"), namespace)
        comment = comments.get(stmt.end_lineno)
        if comment is not None:
            assert _shows(comment, value), (ast.unparse(stmt), value)


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

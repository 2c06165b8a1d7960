"""README.md examples, checked against the real program."""

import ast
import re
import shlex
import sys
from pathlib import Path

import pytest

from csdlab.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


def _cli_examples():
    """(argv, shown stdout) for each `$ csdlab ...` line followed by output lines."""
    examples = []
    for lang, body in BLOCKS:
        if lang != "sh":
            continue
        lines = body.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("$ csdlab "):
                continue
            shown = []
            for follow in lines[i + 1 :]:
                if follow.startswith("$ "):
                    break
                shown.append(follow)
            if shown:
                examples.append((shlex.split(line[len("$ csdlab ") :]), "\n".join(shown) + "\n"))
    return examples


CLI_EXAMPLES = _cli_examples()


def test_readme_shows_cli_output():
    shown = [" ".join(argv[:2]) for argv, _ in CLI_EXAMPLES]
    assert shown == ["compute --group", "scan csd-star"]


@pytest.mark.parametrize("argv, shown", CLI_EXAMPLES, ids=[" ".join(argv) for argv, _ in CLI_EXAMPLES])
def test_readme_cli_example(capsys, argv, shown):
    assert main(argv) == 0
    assert capsys.readouterr().out == shown


def test_readme_python_api_example():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})


def test_engine_imports_only_the_standard_library():
    """README: the engine has no runtime dependencies outside the standard library."""
    src = Path(__file__).resolve().parents[1] / "src" / "csdlab"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "csdlab" or top in sys.stdlib_module_names, (path.name, name)


def test_oracle_imports_only_finite_group_from_csdlab():
    """oracle.py's docstring: only FiniteGroup comes from the package, so the
    oracle shares no engine code with what it checks."""
    path = Path(__file__).resolve().parent / "oracle.py"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.partition(".")[0] != "csdlab", alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "csdlab":
            assert (node.module, [a.name for a in node.names]) == ("csdlab.groups", ["FiniteGroup"])


def _row_figures():
    """(group, rows built, order) for each "N of M" figure of the "Tables" bullet."""
    bullet = re.search(r"^- \*\*Tables\.\*\*(.*?)(?=^- |^#)", README, re.MULTILINE | re.DOTALL)
    text = " ".join(bullet.group(1).split())
    figures = re.findall(
        r"`([^`\s]+)`(?: and computing its `csd` and `d` builds|:) (\d+) of (?:its )?(\d+)", text
    )
    return [(group, int(built), int(order)) for group, built, order in figures]


def test_readme_row_figures_are_built():
    """README "Tables": csd and d of each group build the rows it names."""
    from csdlab.degrees import csd, d
    from csdlab.expr import evaluate, parse

    figures = _row_figures()
    assert [group for group, _, _ in figures] == ["A(7)", "S(7)", "D(512)", "A(5)xA(5)"]
    for text, built, order in figures:
        group = evaluate(parse(text), max_order=order)
        assert group.order == order, text
        csd(group, max_order=order)
        d(group)
        assert (text, group._built()) == (text, built)

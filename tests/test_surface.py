"""The public surface: f2dyn.__all__ is the package's import block, and it
holds every name the benchmark jobs and the README example reach."""

import ast
import re
import shlex
import sys
from collections import defaultdict
from pathlib import Path

import f2dyn
from f2dyn import cli

ROOT = Path(__file__).resolve().parent.parent


def test_all_is_the_import_block():
    tree = ast.parse(Path(f2dyn.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(imported) == f2dyn.__all__
    # no second list: no name of the surface is spelled out as a string
    strings = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert not strings & set(f2dyn.__all__)


def test_benchmark_jobs_reach_only_the_surface():
    reached = set()
    for name in ("jobs.py", "inputs.py"):
        tree = ast.parse((ROOT / "perfbench" / name).read_text())
        reached |= {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "f2dyn"}
    assert reached and not reached - set(f2dyn.__all__), reached


def test_readme_example_imports_only_the_surface():
    readme = (ROOT / "README.md").read_text()
    imports = re.findall(r"^from f2dyn import \(([^)]*)\)", readme, re.M)
    names = {name.strip() for block in imports for name in block.split(",")}
    assert names and not names - set(f2dyn.__all__), names


def test_readme_example_prints_its_comments():
    """Each `print(...)  # text` line of the README's example prints text."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^```python\n(.*?)^```", readme, re.M | re.S).group(1)
    expected = {i: m.group(1)
                for i, line in enumerate(block.splitlines(), 1)
                if (m := re.match(r"\s*print\(.*\)\s+# (.*)$", line))}
    printed = defaultdict(list)  # line number -> the lines it printed

    def record(*args):
        printed[sys._getframe(1).f_lineno].append(" ".join(map(str, args)))
    exec(compile(block, "README.md", "exec"), {"print": record})
    assert len(expected) == 4
    for i, text in expected.items():
        assert printed[i] == [text], (i, printed[i])


def transcript_pattern(lines: list[str]) -> re.Pattern:
    """The whole output a transcript allows: its lines in order, where a
    line that is just `...` stands for any run of lines and `...` inside a
    line for any text."""
    return re.compile("".join(
        r"(?:.*\n)*" if line.strip() == "..."
        else ".*".join(map(re.escape, line.split("..."))) + r"\n"
        for line in lines))


def test_readme_transcripts_print_what_the_commands_print(capsys):
    """Each README block that starts `$ f2dyn ...` shows what that command
    prints."""
    readme = (ROOT / "README.md").read_text()
    blocks = [block.splitlines() for block in
              re.findall(r"^```\n(\$ f2dyn .*?)^```", readme, re.M | re.S)]
    assert len(blocks) == 4
    for command, *lines in blocks:
        code = cli.main(shlex.split(command)[2:])
        out = capsys.readouterr().out
        assert code == 0, command
        assert transcript_pattern(lines).fullmatch(out), (command, out)

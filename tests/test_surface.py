"""The public surface: f2dyn.__all__ is the package's import block, and it
holds every name the benchmark jobs and the README example reach."""

import ast
import re
from pathlib import Path

import f2dyn

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

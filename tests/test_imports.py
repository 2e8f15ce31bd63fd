"""Every name a module imports is read somewhere in that module, and every
public definition in ``src/facerel/`` is read by the package or the bench.

No linter ships with the project, so this walks each module's syntax tree
with the standard library's ``ast``.
"""

import ast
import functools
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = tuple(sorted(ROOT.glob("src/facerel/*.py")))
TESTS = tuple(sorted(ROOT.glob("tests/*.py")))
CALLERS = SRC + tuple(sorted(ROOT.glob("bench/*.py")))
MODULES = sorted([*SRC, *TESTS, *ROOT.glob("tools/*.py")])

#: Public definitions that only the tests read, each with the ROADMAP item
#: whose code will call it.  The list only shrinks: an entry goes when its
#: item lands or its definition goes, and a stale entry fails.
TEST_ONLY = {
    "bridge.ClusterTree.pruned_nodes": "item 6: the run log's bank health",
    "losses.weight_decay_term": "item 18: each stage's decay term",
    "synth.write_synth_dataset": "item 1 step 4: the end-to-end command's synth stage",
}


def _module_id(path: Path) -> str:
    return f"{path.parent.name}/{path.name}"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def reads(tree: ast.AST) -> Counter:
    """How often ``tree`` reads each name, as a bare name or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def public_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Each public top-level function or class, and each public method or
    property of a top-level class, by its dotted name within the module."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found[node.name] = node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    found[f"{node.name}.{member.name}"] = member
    return found


def unread_definitions(tree: ast.Module, read: Counter) -> list[str]:
    """The public definitions of ``tree`` whose name is read only inside
    their own body, given ``read``, the reads of every caller and of ``tree``."""
    return [name for name, node in public_definitions(tree).items()
            if read[node.name] == reads(node)[node.name]]


@functools.cache
def reads_in(paths: tuple[Path, ...]) -> Counter:
    """The reads of every module in ``paths``, added up."""
    return sum((reads(ast.parse(p.read_text())) for p in paths), Counter())


def test_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom a.b import c, d\nprint(d, os.sep)\n"
    assert unused_imports(source) == ["system", "c"]


def test_finds_a_definition_only_its_own_body_reads():
    source = ("def f(n):\n    return f(n - 1)\ndef g(): pass\ndef _h(): pass\n"
              "class C:\n    def m(self): pass\n    def _p(self): pass\n"
              "    def k(self): return self.m()\n")
    tree = ast.parse(source)
    read = reads(tree) + reads(ast.parse("import mod\nmod.g(mod.f)\n"))
    assert unread_definitions(tree, read) == ["C", "C.k"]
    assert unread_definitions(tree, reads(tree)) == ["f", "g", "C", "C.k"]


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SRC, ids=_module_id)
def test_every_public_definition_has_a_caller_outside_the_tests(path):
    unread = [f"{path.stem}.{name}"
              for name in unread_definitions(ast.parse(path.read_text()), reads_in(CALLERS))]
    assert [name for name in unread if name not in TEST_ONLY] == []


@pytest.mark.parametrize("entry", sorted(TEST_ONLY))
def test_a_test_only_entry_is_defined_and_read_only_by_the_tests(entry):
    module, name = entry.split(".", 1)
    tree = ast.parse((ROOT / "src" / "facerel" / f"{module}.py").read_text())
    assert name in public_definitions(tree), f"{entry} is not defined: drop its entry"
    assert name in unread_definitions(tree, reads_in(CALLERS)), (
        f"{entry} has a caller outside the tests: drop its entry")
    assert reads_in(TESTS)[name.rsplit(".", 1)[-1]], f"no test reads {entry}"

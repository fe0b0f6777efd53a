"""Every public name and every top-level definition is used by the package.

A name in `trivalent.__all__`, or a top-level function or class of any
module, that no module refers to outside its own definition serves no verb
and no oracle; it should be deleted rather than kept.  Imports do not count
as uses, and neither does `__init__.py`, which only re-exports.  Every
name a test module imports is used in that module.  The README's library
examples run as written.
"""

import ast
import doctest
import os

import trivalent

PACKAGE = os.path.dirname(os.path.abspath(trivalent.__file__))
README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def _uses_outside_own_definition(tree):
    """The names and attribute names that `tree` refers to, leaving out the
    references to a top-level function or class inside its own body."""
    uses = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and inside is None:
            inside = node.name
        if isinstance(node, ast.Name) and node.id != inside:
            uses.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != inside:
            uses.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, None)
    return uses


def _modules():
    """(module name, parsed tree) for every module but `__init__.py`."""
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
                yield name[:-3], ast.parse(handle.read(), name)


def _package_uses():
    uses = set()
    for _, tree in _modules():
        uses |= _uses_outside_own_definition(tree)
    return uses


def test_every_export_is_used_inside_the_package():
    uses = _package_uses()
    assert [name for name in trivalent.__all__ if name not in uses] == []


def test_every_top_level_definition_is_used_inside_the_package():
    uses = _package_uses()
    unused = [
        "%s.%s" % (module, node.name)
        for module, tree in _modules()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in uses
    ]
    assert unused == []


def test_readme_examples_run_as_documented():
    result = doctest.testfile(README, module_relative=False, encoding="utf-8")
    assert result.attempted > 0 and result.failed == 0


def test_every_test_module_uses_its_imports():
    tests = os.path.dirname(os.path.abspath(__file__))
    unused = []
    for name in sorted(os.listdir(tests)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(tests, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), name)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += ["%s: %s" % (name, alias.asname or alias.name.split(".")[0])
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []

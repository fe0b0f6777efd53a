"""Every public name is used by the package itself.

A name in `trivalent.__all__` that no module refers to outside its own
definition serves no verb and no oracle; it should be deleted rather than
exported.  Imports do not count as uses, and neither does `__init__.py`,
which only re-exports.
"""

import ast
import os

import trivalent

PACKAGE = os.path.dirname(os.path.abspath(trivalent.__file__))


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


def test_every_export_is_used_inside_the_package():
    uses = set()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
                uses |= _uses_outside_own_definition(ast.parse(handle.read(), name))
    assert [name for name in trivalent.__all__ if name not in uses] == []

"""Every public top-level function, class or module-level assignment of the
package is used by the package.

A name that only tests call or read is a second path beside the one the
command line runs, and a constant nothing reads is a second copy of a value
that lives elsewhere.  The allowlist holds the exceptions, each with its
reason.
"""

import ast
import os

import fracch

PACKAGE = os.path.dirname(fracch.__file__)

ALLOWED = {
    "solve_step": "the dense coupled-oracle tests step through it",
    "poincare_constant": "the sharp constant of acceptance criterion 2",
    "custom_potential": "the documented entry for graphs without closed forms",
}


def _modules():
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def test_every_public_name_is_used_by_the_package():
    modules = list(_modules())
    defined = {}
    used = set()
    for module, tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined.update((name, module) for name in names if not name.startswith("_"))
        # only reads count: an assignment stores its own name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in used and name not in ALLOWED)
    assert not unused, f"public names no package code uses: {unused}"
    assert set(ALLOWED) <= set(defined), "an allowlisted name no longer exists"

"""Every public top-level function, class or module-level assignment of the
package is used by the package.

A name that only tests call or read is a second path beside the one the
command line runs, and a constant nothing reads is a second copy of a value
that lives elsewhere.  The allowlist holds the exceptions, each with its
reason.

A name counts as used only where package code reads that name of that
module: by bare name in its own module, in a scope that does not bind the
name itself, through a module alias (``pot.yosida``), or by ``from .module
import name``.  An attribute of another object that shares the name
(``spec.resolvent`` beside a module function ``resolvent``) does not count.
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


#: The nodes that open a scope of their own.
FUNCTION_SCOPES = (ast.FunctionDef, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)


def _modules():
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def _bound(scope):
    """The names a function, lambda, comprehension or class binds in its own
    scope (the package declares no ``global``)."""
    names = set()
    if isinstance(scope, (ast.FunctionDef, ast.Lambda)):
        args = scope.args
        names.update(a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                     + [args.vararg, args.kwarg] if a is not None)
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)   # its body is a scope of its own
            continue
        if isinstance(node, FUNCTION_SCOPES):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _reads(module, tree):
    """The (module, name) pairs of the package that one module's code reads.

    A bare name counts as a read of this module's global only in a scope that
    does not bind it; a class body's names shadow its own statements, not its
    methods.  An attribute counts only through a module alias (``pot.x``),
    and ``from .module import x`` reads ``x`` of that module.
    """
    aliases, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:      # from . import module [as alias]
                    aliases[alias.asname or alias.name] = f"{alias.name}.py"
                else:                        # from .module import name
                    used.add((f"{node.module}.py", alias.name))

    def visit(node, shadowed, class_names):
        if isinstance(node, ast.ClassDef):
            for child in ast.iter_child_nodes(node):
                visit(child, shadowed, _bound(node))
            return
        if isinstance(node, FUNCTION_SCOPES):
            for child in ast.iter_child_nodes(node):
                visit(child, shadowed | _bound(node), frozenset())
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in shadowed and node.id not in class_names:
                used.add((module, node.id))
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            used.add((aliases[node.value.id], node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed, class_names)

    visit(tree, frozenset(), frozenset())
    return used


def test_every_public_name_is_used_by_the_package():
    modules = list(_modules())
    defined = set()
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
            defined.update((module, name) for name in names if not name.startswith("_"))
        used |= _reads(module, tree)
    unused = sorted(f"{module}:{name}" for module, name in defined - used
                    if name not in ALLOWED)
    assert not unused, f"public names no package code uses: {unused}"
    assert set(ALLOWED) <= {name for _, name in defined}, "an allowlisted name no longer exists"

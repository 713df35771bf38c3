"""Resource hygiene: tickets release in ``finally``, executors get closed (PR 8).

An :class:`AdmissionTicket` is a unit of the server's inflight budget; a
request that dies between ``admit()`` and ``release()`` without a
``finally`` permanently shrinks capacity until the server wedges — the
exact leak PR 8 closed.  Executors own OS threads: constructed outside a
``with`` block they must live on ``self`` in a class that has a lifecycle
method (``close``/``shutdown``/``__exit__``) responsible for them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence

from repro.lint.core import Finding, Rule
from repro.lint.registry import (
    EXECUTOR_FACTORIES,
    LIFECYCLE_METHODS,
    RESOURCE_ACQUISITIONS,
)
from repro.lint.symbols import ModuleSymbols, ProjectSymbols

if TYPE_CHECKING:
    from repro.lint.runner import LintConfig

RULES = (
    Rule(
        id="RES001",
        name="unreleased-ticket",
        invariant=(
            "every admit()/watch() acquisition is released in a "
            "`finally` (or immediately, or ownership is returned)"
        ),
    ),
    Rule(
        id="RES002",
        name="unmanaged-executor",
        invariant=(
            "executors are constructed in a `with` block or stored on self "
            "in a class with a close/shutdown/__exit__ lifecycle method"
        ),
    ),
)

_BY_ID = {rule.id: rule for rule in RULES}


def _finding(rule_id: str, module: ModuleSymbols, node: ast.AST, message: str) -> Finding:
    rule = _BY_ID[rule_id]
    return Finding(
        rule_id=rule.id,
        severity=rule.severity,
        path=module.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        message=message,
    )


def _acquisition_method(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Attribute) and node.func.attr in RESOURCE_ACQUISITIONS:
        return node.func.attr
    return None


def _releases(stmt: ast.stmt, name: str, releasers: FrozenSet[str]) -> bool:
    """Does ``stmt`` (recursively) call ``name.<releaser>()``?"""
    for node in ast.walk(stmt):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in releasers
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name
        ):
            return True
    return False


def _bodies(node: ast.stmt) -> Iterator[Sequence[ast.stmt]]:
    """Every statement list nested inside ``node`` (incl. its own bodies)."""
    stack: List[Sequence[ast.stmt]] = []
    for field in ("body", "orelse", "finalbody"):
        stack.append(getattr(node, field, []) or [])
    for handler in getattr(node, "handlers", []) or []:
        stack.append(handler.body)
    for body in stack:
        if body:
            yield body
            for stmt in body:
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from _bodies(stmt)


def _check_tickets(module: ModuleSymbols, func: ast.FunctionDef) -> List[Finding]:
    findings: List[Finding] = []
    for body in _bodies(func):
        for index, stmt in enumerate(body):
            # `obj.admit(...)` with the result discarded: unconditional leak.
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                method = _acquisition_method(stmt.value)
                if method is not None:
                    findings.append(
                        _finding(
                            "RES001", module, stmt,
                            f"`{method}()` result discarded; the ticket can "
                            "never be released",
                        )
                    )
                continue
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
            ):
                continue
            method = _acquisition_method(stmt.value)
            if method is None:
                continue
            name = stmt.targets[0].id
            releasers = RESOURCE_ACQUISITIONS[method]
            rest = body[index + 1:]
            ok = False
            # Immediate release: the very next statement releases (the
            # probe pattern — admit then hand the slot straight back).
            if rest and isinstance(rest[0], ast.Expr) and _releases(
                rest[0], name, releasers
            ):
                ok = True
            # Ownership transfer: the ticket itself is returned.
            elif rest and all(
                isinstance(s, ast.Return)
                and isinstance(s.value, ast.Name)
                and s.value.id == name
                for s in rest[:1]
            ) and isinstance(rest[0], ast.Return):
                ok = True
            else:
                # A following sibling `try:` whose finally releases it.
                for later in rest:
                    if isinstance(later, ast.Try) and any(
                        _releases(s, name, releasers) for s in later.finalbody
                    ):
                        ok = True
                        break
            if not ok:
                # Enclosing try/finally releasing it also counts.
                for node in ast.walk(func):
                    if (
                        isinstance(node, ast.Try)
                        and any(stmt in list(ast.walk(b)) for b in node.body)
                        and any(
                            _releases(s, name, releasers) for s in node.finalbody
                        )
                    ):
                        ok = True
                        break
            if not ok:
                findings.append(
                    _finding(
                        "RES001", module, stmt,
                        f"`{name} = ...{method}()` has no `finally:` "
                        f"{'/'.join(sorted(releasers))}() on every path; a "
                        "failure here leaks the slot permanently",
                    )
                )
    return findings


def _enclosing_class(module: ModuleSymbols, node: ast.AST) -> Optional[ast.ClassDef]:
    for cls in module.classes.values():
        for sub in ast.walk(cls.node):
            if sub is node:
                return cls.node
    return None


def _check_executors(module: ModuleSymbols) -> List[Finding]:
    findings: List[Finding] = []
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(module.tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = module.resolve(node.func)
        if name not in EXECUTOR_FACTORIES:
            continue
        parent = parents.get(node)
        if isinstance(parent, ast.withitem):
            continue
        if (
            isinstance(parent, ast.Assign)
            and len(parent.targets) == 1
            and isinstance(parent.targets[0], ast.Attribute)
            and isinstance(parent.targets[0].value, ast.Name)
        ):
            cls = _enclosing_class(module, node)
            if cls is not None:
                info = module.classes.get(cls.name)
                if info is not None and any(
                    m in info.methods for m in LIFECYCLE_METHODS
                ):
                    continue
            findings.append(
                _finding(
                    "RES002", module, node,
                    f"`{name}` stored on an instance with no close/shutdown/"
                    "__exit__ lifecycle method; its threads can never be "
                    "reclaimed",
                )
            )
            continue
        findings.append(
            _finding(
                "RES002", module, node,
                f"`{name}` constructed outside a `with` block and not "
                "lifecycle-managed; use `with` or store it on a class that "
                "closes it",
            )
        )
    return findings


def check(
    module: ModuleSymbols, project: ProjectSymbols, config: "LintConfig"
) -> List[Finding]:
    if not config.is_library(module.path):
        return []
    findings = _check_executors(module)
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            findings.extend(_check_tickets(module, node))
    return findings


__all__ = ["RULES", "check"]

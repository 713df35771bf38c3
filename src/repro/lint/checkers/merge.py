"""Merge law: accumulator contributions merge exactly-rounded.

Mergeable accumulators keep their per-attempt contributions and never fold
rounded float partials; their totals are exact integers, rounded once at
estimate time — that is what makes merged partials bit-identical in any
chunk order, which the parallel shard coordinator, the cache tier, and the
worker-invariance tests all rely on.  Folding previously-rounded float
partials with ``+=`` (or a plain binary ``+``) reintroduces order-dependent
rounding; so does collapsing contributions with the builtin ``sum``.
Integers (exact totals, attempt and acceptance counters) are exact under
``+=`` and exempt via the contract's ``int_counters``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import ast
from typing import List

from repro.lint.core import Finding, Rule
from repro.lint.registry import MERGE_REGISTRY, MergeContract
from repro.lint.symbols import ModuleSymbols, ProjectSymbols

if TYPE_CHECKING:
    from repro.lint.runner import LintConfig

RULES = (
    Rule(
        id="MERGE001",
        name="rounded-partial-fold",
        invariant=(
            "accumulators keep contributions and add into exact integer "
            "totals, never `+=` on rounded float partials"
        ),
    ),
    Rule(
        id="MERGE002",
        name="builtin-sum-in-accumulator",
        invariant=(
            "accumulator totals are exact integers rounded once at estimate "
            "time, never the builtin sum"
        ),
    ),
)

_BY_ID = {rule.id: rule for rule in RULES}


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _check_class(
    module: ModuleSymbols, node: ast.ClassDef, contract: MergeContract
) -> List[Finding]:
    findings: List[Finding] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.AugAssign) and isinstance(sub.op, ast.Add):
            target = sub.target
            if _is_self_attr(target) and target.attr not in contract.int_counters:
                rule = _BY_ID["MERGE001"]
                findings.append(
                    Finding(
                        rule_id=rule.id,
                        severity=rule.severity,
                        path=module.path,
                        line=sub.lineno,
                        col=sub.col_offset,
                        message=(
                            f"{node.name}: `self.{target.attr} += ...` folds a "
                            "rounded partial; keep contributions and exact "
                            "integer totals, rounded once at estimate time "
                            "(integers belong in the contract's int_counters)"
                        ),
                    )
                )
        elif isinstance(sub, ast.Assign) and len(sub.targets) == 1:
            target = sub.targets[0]
            if (
                _is_self_attr(target)
                and target.attr not in contract.int_counters
                and isinstance(sub.value, ast.BinOp)
                and isinstance(sub.value.op, ast.Add)
                and (
                    _matches_attr(sub.value.left, target.attr)
                    or _matches_attr(sub.value.right, target.attr)
                )
            ):
                rule = _BY_ID["MERGE001"]
                findings.append(
                    Finding(
                        rule_id=rule.id,
                        severity=rule.severity,
                        path=module.path,
                        line=sub.lineno,
                        col=sub.col_offset,
                        message=(
                            f"{node.name}: `self.{target.attr} = self."
                            f"{target.attr} + ...` folds a rounded partial; "
                            "keep contributions and exact integer totals, "
                            "rounded once at estimate time"
                        ),
                    )
                )
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "sum"
            and module.aliases.get("sum") is None
        ):
            rule = _BY_ID["MERGE002"]
            findings.append(
                Finding(
                    rule_id=rule.id,
                    severity=rule.severity,
                    path=module.path,
                    line=sub.lineno,
                    col=sub.col_offset,
                    message=(
                        f"{node.name}: builtin sum() inside a mergeable "
                        "accumulator rounds as it goes; keep exact integer "
                        "totals and round once at estimate time"
                    ),
                )
            )
    return findings


def _matches_attr(node: ast.AST, attr: str) -> bool:
    return _is_self_attr(node) and node.attr == attr  # type: ignore[union-attr]


def check(
    module: ModuleSymbols, project: ProjectSymbols, config: "LintConfig"
) -> List[Finding]:
    if not config.is_library(module.path):
        return []
    findings: List[Finding] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef):
            contract = MERGE_REGISTRY.get(node.name)
            if contract is not None:
                findings.extend(_check_class(module, node, contract))
    return findings


__all__ = ["RULES", "check"]

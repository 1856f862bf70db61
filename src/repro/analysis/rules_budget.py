"""CG005: allocations sized by decoded values must pre-charge the budget.

A count read from a compressed stream is attacker-controlled: one flipped
bit can turn a 3 into 3 billion.  Decode paths therefore charge the
decode-limit budget (``charge(n)``, which raises
:class:`repro.errors.LimitExceededError`) or bound the value explicitly
*before* any allocation proportional to it -- bulk ``read_many_*`` calls,
list repetition, ``bytes``/``bytearray`` construction.

The rule is a small flow-sensitive taint analysis per function: values
returned by scalar codec readers are tainted; passing a tainted value
through a ``*charge*`` call or raising under a comparison against it
discharges the taint; using a still-tainted value to size an allocation is
a finding.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from repro.analysis.framework import Finding, Rule, SourceFile, register

__all__ = ["DecodeBudgetRule"]

#: Scalar codec readers whose results are stream-controlled numbers.
_SCALAR_READERS = {
    "read_unary",
    "read_unary_run",
    "read_gamma",
    "read_gamma_natural",
    "read_gamma_integer",
    "read_delta",
    "read_zeta",
    "read_zeta_natural",
    "read_zeta_integer",
    "read_golomb",
    "read_rice",
    "read_vbyte",
    "read_minimal_binary",
    "read_bits",
    "read_bit",
}

_TAINTED = "tainted"
_GUARDED = "guarded"


def _call_name(call: ast.Call) -> str:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return ""


def _names_in(node: ast.AST) -> Set[str]:
    return {
        n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


@register
class DecodeBudgetRule(Rule):
    """CG005: charge the decode budget before proportional allocation."""

    id = "CG005"
    name = "decode-budget"
    summary = (
        "A count decoded from the stream must be charged against the "
        "decode-limit budget (or bounds-checked with a raise) before it "
        "sizes a bulk read, list repetition or bytes allocation."
    )

    def check(self, source: SourceFile) -> List[Finding]:
        """Run the per-function taint walk over every function."""
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(source, node, findings)
        return findings

    def _check_function(
        self,
        source: SourceFile,
        func: ast.FunctionDef,
        findings: List[Finding],
    ) -> None:
        state: Dict[str, str] = {}
        self._walk_block(source, func.body, state, findings)

    def _walk_block(
        self,
        source: SourceFile,
        body: List[ast.stmt],
        state: Dict[str, str],
        findings: List[Finding],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(source, stmt, findings)  # own frame
                continue
            if isinstance(stmt, ast.If):
                self._handle_if(source, stmt, state, findings)
                continue
            self._flag_uses(source, stmt, state, findings)
            self._apply_guards(stmt, state)
            if isinstance(stmt, ast.Assign):
                self._track_assign(stmt.targets, stmt.value, state)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._track_assign([stmt.target], stmt.value, state)
            elif isinstance(stmt, ast.AugAssign):
                # x += tainted keeps/creates taint on x
                if isinstance(stmt.target, ast.Name):
                    if self._mentions_tainted(stmt.value, state):
                        state[stmt.target.id] = _TAINTED
            for inner in self._inner_blocks(stmt):
                self._walk_block(source, inner, state, findings)

    def _inner_blocks(self, stmt: ast.stmt) -> List[List[ast.stmt]]:
        blocks: List[List[ast.stmt]] = []
        for attr in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, attr, None)
            if inner and isinstance(inner, list):
                blocks.append(inner)
        for handler in getattr(stmt, "handlers", ()) or ():
            blocks.append(handler.body)
        return blocks

    # -- taint tracking ----------------------------------------------------

    def _track_assign(
        self, targets: List[ast.expr], value: ast.expr, state: Dict[str, str]
    ) -> None:
        tainted = self._is_taint_source(value) or self._mentions_tainted(
            value, state
        )
        for target in targets:
            if isinstance(target, ast.Name):
                if tainted:
                    state[target.id] = _TAINTED
                else:
                    state.pop(target.id, None)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        if tainted:
                            state[elt.id] = _TAINTED
                        else:
                            state.pop(elt.id, None)

    def _is_taint_source(self, value: ast.expr) -> bool:
        for node in ast.walk(value):
            if (
                isinstance(node, ast.Call)
                and _call_name(node) in _SCALAR_READERS
            ):
                return True
        return False

    def _mentions_tainted(self, node: ast.AST, state: Dict[str, str]) -> bool:
        return any(state.get(n) == _TAINTED for n in _names_in(node))

    # -- guards ------------------------------------------------------------

    def _apply_guards(self, stmt: ast.stmt, state: Dict[str, str]) -> None:
        """A ``*charge*(...)`` call discharges every variable it mentions."""
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and "charge" in _call_name(node):
                for arg in node.args:
                    for name in _names_in(arg):
                        if name in state:
                            state[name] = _GUARDED

    def _handle_if(
        self,
        source: SourceFile,
        stmt: ast.If,
        state: Dict[str, str],
        findings: List[Finding],
    ) -> None:
        self._flag_uses(source, stmt.test, state, findings)
        is_bound_check = any(
            isinstance(n, ast.Raise) for n in ast.walk(stmt)
        ) and isinstance(stmt.test, ast.Compare)
        guarded_names = (
            {n for n in _names_in(stmt.test) if state.get(n) == _TAINTED}
            if is_bound_check
            else set()
        )
        branch_states = []
        for block in (stmt.body, stmt.orelse):
            branch = dict(state)
            self._walk_block(source, block, branch, findings)
            branch_states.append(branch)
        merged: Dict[str, str] = {}
        for name in set(branch_states[0]) | set(branch_states[1]):
            values = {b.get(name) for b in branch_states}
            if _TAINTED in values:
                merged[name] = _TAINTED
            elif _GUARDED in values:
                merged[name] = _GUARDED
        state.clear()
        state.update(merged)
        # ``if count > bound: raise`` proves the bound on the fallthrough.
        for name in guarded_names:
            state[name] = _GUARDED

    # -- allocation sites --------------------------------------------------

    def _flag_uses(
        self,
        source: SourceFile,
        root: ast.AST,
        state: Dict[str, str],
        findings: List[Finding],
    ) -> None:
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name.startswith("read_many"):
                    for arg in node.args[1:]:
                        self._flag_tainted(
                            source,
                            node,
                            arg,
                            state,
                            findings,
                            f"bulk `{name}` sized by `%s` before the "
                            "decode budget is charged",
                        )
                elif name in ("bytes", "bytearray"):
                    for arg in node.args:
                        self._flag_tainted(
                            source,
                            node,
                            arg,
                            state,
                            findings,
                            f"`{name}()` allocation sized by `%s` before "
                            "the decode budget is charged",
                        )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                for seq, count in (
                    (node.left, node.right),
                    (node.right, node.left),
                ):
                    if isinstance(seq, (ast.List, ast.ListComp)):
                        self._flag_tainted(
                            source,
                            node,
                            count,
                            state,
                            findings,
                            "list repetition sized by `%s` before the "
                            "decode budget is charged",
                        )

    def _flag_tainted(
        self,
        source: SourceFile,
        site: ast.AST,
        size_expr: ast.AST,
        state: Dict[str, str],
        findings: List[Finding],
        template: str,
    ) -> None:
        for name in sorted(_names_in(size_expr)):
            if state.get(name) == _TAINTED:
                findings.append(
                    self.finding(source, site, template % name)
                )
                return

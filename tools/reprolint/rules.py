"""The seven reprolint rules.

Each rule is a small visitor over the shared AST walk driven by
:class:`tools.reprolint.engine.LintRunner`.  Rules are deliberately
syntactic: they use lightweight, local type inference (annotations, literal
forms, known set-returning helpers) rather than whole-program analysis, so a
clean run is a strong hint -- and every rule supports per-line
``# reprolint: disable=RLxxx`` for the rare justified exception.

Rule summary
------------
RL001  all randomness through :class:`repro.sim.rng.RngRegistry` streams
RL002  no wall-clock reads inside simulation code
RL003  no iteration over unordered ``set``/``frozenset`` in RNG/event modules
RL004  mutations of version-tracked fields must bump the invalidation hook
RL005  ``__slots__`` required on classes in hot (per-slot) modules
RL006  integer duty-cycle/settlement counters never see float arithmetic
RL007  no write to another object's private attribute outside its module
"""

from __future__ import annotations

import ast
from typing import Optional

from tools.reprolint.engine import Rule, module_in_packages, module_matches

#: Annotation heads treated as set types by RL003.
_SET_TYPE_NAMES = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)

#: Set methods that return another set (so chained calls stay set-typed).
_SET_RETURNING_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

#: Binary operators defined on sets whose result is a set.
_SET_BINOPS = (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)

#: Calls that launder float taint back into an int (RL006).
_INT_CLEANSING_CALLS = frozenset({"int", "len"})
_INT_CLEANSING_METHODS = frozenset({"floor", "ceil"})


def _attr_chain_root(node: ast.AST) -> Optional[tuple[str, str]]:
    """Root of an attribute/subscript chain as ``(base_name, first_attr)``.

    ``self._table[slot].remove`` -> ``("self", "_table")``;
    ``bucket.append`` -> ``("bucket", "")``; anything not rooted at a plain
    name returns ``None``.
    """
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        parent = node.value
        if isinstance(node, ast.Attribute) and isinstance(parent, ast.Name):
            return (parent.id, node.attr)
        node = parent
    if isinstance(node, ast.Name):
        return (node.id, "")
    return None


class RngUseRule(Rule):
    """RL001: no direct :mod:`random` use outside the RNG registry module."""

    rule_id = "RL001"
    summary = "direct `random` use outside the RngRegistry module"

    def applies_to(self, path: str) -> bool:
        if module_matches(path, (self.config.rng_module,)):
            return False
        return module_in_packages(path, ("repro/",))

    def check_module(self, tree: ast.Module, path: str, report) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        report(
                            node,
                            "direct `import random`; draw from a named "
                            "RngRegistry stream instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" or (
                    node.module or ""
                ).startswith("random."):
                    report(
                        node,
                        "import from `random`; draw from a named "
                        "RngRegistry stream instead",
                    )


class WallClockRule(Rule):
    """RL002: simulation output must be a function of the seed alone."""

    rule_id = "RL002"
    summary = "wall-clock read inside simulation code"

    _CLOCK_MODULES = frozenset({"time", "datetime"})

    def applies_to(self, path: str) -> bool:
        if module_matches(path, self.config.wallclock_allowed_modules):
            return False
        return module_in_packages(path, ("repro/",))

    def check_module(self, tree: ast.Module, path: str, report) -> None:
        banned = self.config.wallclock_banned_attrs
        clock_aliases: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".", 1)[0]
                    if root in self._CLOCK_MODULES:
                        clock_aliases.add(alias.asname or root)
            elif isinstance(node, ast.ImportFrom):
                module_root = (node.module or "").split(".", 1)[0]
                if module_root not in self._CLOCK_MODULES:
                    continue
                for alias in node.names:
                    if alias.name in banned:
                        report(
                            node,
                            f"wall-clock import `{alias.name}` from "
                            f"`{node.module}`; simulation time comes from "
                            "SimClock",
                        )
                    elif alias.name in {"datetime", "date"}:
                        # `from datetime import datetime` -- flag `.now()` etc.
                        clock_aliases.add(alias.asname or alias.name)
        if not clock_aliases:
            return
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in banned
                and isinstance(node.value, ast.Name)
                and node.value.id in clock_aliases
            ):
                report(
                    node,
                    f"wall-clock read `{node.value.id}.{node.attr}`; "
                    "simulation time comes from SimClock",
                )


class SetIterationRule(Rule):
    """RL003: unordered-set iteration in modules that draw RNG or schedule.

    Iterating a ``set`` of objects feeds id()-dependent order (hence
    address-space layout) into whatever consumes the loop -- the classic
    source of cross-run divergence.  Wrap the iterable in ``sorted()`` or use
    an order-insensitive reduction (``min``/``max``/``sum``/``any``/...).
    """

    rule_id = "RL003"
    summary = "iteration over an unordered set in an RNG/event module"

    def applies_to(self, path: str) -> bool:
        return module_in_packages(path, self.config.set_iteration_packages)

    # -- local set-type inference -----------------------------------------
    def _annotation_is_set(self, node: Optional[ast.AST]) -> bool:
        if node is None:
            return False
        if isinstance(node, ast.Name):
            return node.id in _SET_TYPE_NAMES
        if isinstance(node, ast.Attribute):
            return node.attr in _SET_TYPE_NAMES
        if isinstance(node, ast.Subscript):
            head = node.value
            if isinstance(head, ast.Name) and head.id in {"Optional", "Union"}:
                slice_node = node.slice
                elements = (
                    slice_node.elts
                    if isinstance(slice_node, ast.Tuple)
                    else [slice_node]
                )
                return any(self._annotation_is_set(el) for el in elements)
            return self._annotation_is_set(head)
        return False

    def _is_set_expr(
        self, node: ast.AST, local_sets: set[str], self_sets: set[str]
    ) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in local_sets
        if isinstance(node, ast.Attribute):
            return (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self_sets
            )
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
                return True
            if isinstance(func, ast.Attribute):
                if func.attr in self.config.known_set_returning_methods:
                    return True
                if func.attr in _SET_RETURNING_SET_METHODS:
                    return self._is_set_expr(func.value, local_sets, self_sets)
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return self._is_set_expr(
                node.left, local_sets, self_sets
            ) or self._is_set_expr(node.right, local_sets, self_sets)
        if isinstance(node, ast.IfExp):
            return self._is_set_expr(
                node.body, local_sets, self_sets
            ) or self._is_set_expr(node.orelse, local_sets, self_sets)
        return False

    def _collect_self_sets(self, class_node: ast.ClassDef) -> set[str]:
        """Attribute names of ``class_node`` instances known to hold sets."""
        self_sets: set[str] = set()
        for stmt in class_node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if self._annotation_is_set(stmt.annotation):
                    self_sets.add(stmt.target.id)
        for node in ast.walk(class_node):
            target: Optional[ast.AST] = None
            value: Optional[ast.AST] = None
            annotation: Optional[ast.AST] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value, annotation = node.target, node.value, node.annotation
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                if self._annotation_is_set(annotation) or (
                    value is not None and self._is_set_expr(value, set(), self_sets)
                ):
                    self_sets.add(target.attr)
        return self_sets

    def _scope_local_sets(self, func: ast.AST, self_sets: set[str]) -> set[str]:
        local_sets: set[str] = set()
        arguments = func.args
        for arg in (
            list(getattr(arguments, "posonlyargs", []))
            + arguments.args
            + arguments.kwonlyargs
        ):
            if self._annotation_is_set(arg.annotation):
                local_sets.add(arg.arg)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if self._is_set_expr(node.value, local_sets, self_sets):
                        local_sets.add(target.id)
                    else:
                        local_sets.discard(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if self._annotation_is_set(node.annotation):
                    local_sets.add(node.target.id)
        return local_sets

    def _check_scope(
        self, func: ast.AST, self_sets: set[str], report
    ) -> None:
        local_sets = self._scope_local_sets(func, self_sets)

        def flag(node: ast.AST, via: str) -> None:
            report(
                node,
                f"iteration over an unordered set ({via}); wrap in sorted() "
                "or use an order-insensitive reduction",
            )

        for node in ast.walk(func):
            if isinstance(node, ast.For):
                if self._is_set_expr(node.iter, local_sets, self_sets):
                    flag(node.iter, "for loop")
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for generator in node.generators:
                    if self._is_set_expr(generator.iter, local_sets, self_sets):
                        flag(generator.iter, "comprehension")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in self.config.order_sensitive_consumers:
                    for arg in node.args:
                        if self._is_set_expr(arg, local_sets, self_sets):
                            flag(arg, f"{node.func.id}()")

    def check_module(self, tree: ast.Module, path: str, report) -> None:
        # Methods are checked with their class's set-typed attributes in
        # scope; module-level functions with an empty attribute table.
        seen_functions: set[int] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            self_sets = self._collect_self_sets(node)
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    seen_functions.add(id(stmt))
                    self._check_scope(stmt, self_sets, report)
        for stmt in tree.body:
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and id(stmt) not in seen_functions
            ):
                self._check_scope(stmt, set(), report)


class VersionBumpRule(Rule):
    """RL004: tracked-field mutations must bump the class's version hook."""

    rule_id = "RL004"
    summary = "tracked-field mutation without a version bump"

    def check_class(self, node: ast.ClassDef, path: str, report) -> None:
        for info in self.config.versioned_classes.get(node.name, ()):
            tracked = set(info.tracked_fields)
            bumps = set(info.bump_names)
            for stmt in node.body:
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if stmt.name.startswith("__") and stmt.name.endswith("__"):
                    continue  # construction / dunder protocol, not API mutation
                self._check_method(stmt, tracked, bumps, report)

    def _check_method(
        self, method: ast.AST, tracked: set[str], bumps: set[str], report
    ) -> None:
        # Pass 1: local aliases of tracked containers (or of their items),
        # e.g. ``bucket = self._table[offset]`` then ``bucket.remove(cell)``.
        aliases: set[str] = set()
        for node in ast.walk(method):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    root = _attr_chain_root(node.value)
                    if root is not None and root[0] == "self" and root[1] in tracked:
                        aliases.add(target.id)

        def is_tracked_target(target: ast.AST) -> bool:
            root = _attr_chain_root(target)
            if root is None:
                return False
            if root[0] == "self" and root[1] in tracked:
                return True
            return root[0] in aliases and isinstance(
                target, (ast.Subscript, ast.Attribute)
            )

        mutations: list[ast.AST] = []
        bumped = False
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if is_tracked_target(target):
                        mutations.append(node)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                target = node.target
                if is_tracked_target(target):
                    mutations.append(node)
                root = _attr_chain_root(target)
                if root is not None and root[0] == "self" and root[1] in bumps:
                    bumped = True
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if is_tracked_target(target):
                        mutations.append(node)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                func = node.func
                receiver_root = _attr_chain_root(func.value)
                if func.attr in self.config.mutating_methods and receiver_root:
                    base, first = receiver_root
                    if (base == "self" and first in tracked) or (
                        base in aliases and first == ""
                    ) or (base in aliases):
                        mutations.append(node)
                if (
                    isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and func.attr in bumps
                ):
                    bumped = True
            # plain assignment to the bump attribute also counts
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    root = _attr_chain_root(target)
                    if root is not None and root[0] == "self" and root[1] in bumps:
                        bumped = True
        if mutations and not bumped:
            report(
                mutations[0],
                f"method `{method.name}` mutates a version-tracked field "
                "without calling the invalidation hook "
                f"({', '.join(sorted(bumps))})",
            )


class SlotsRule(Rule):
    """RL005: classes in hot (per-slot) modules must declare ``__slots__``."""

    rule_id = "RL005"
    summary = "hot-module class without __slots__"

    def applies_to(self, path: str) -> bool:
        return module_matches(path, self.config.slots_modules)

    def check_class(self, node: ast.ClassDef, path: str, report) -> None:
        for base in node.bases:
            name = None
            if isinstance(base, ast.Name):
                name = base.id
            elif isinstance(base, ast.Attribute):
                name = base.attr
            if name in self.config.slots_exempt_bases:
                return
        for stmt in node.body:
            target = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
            elif isinstance(stmt, ast.AnnAssign):
                target = stmt.target
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return
        report(
            node,
            f"class `{node.name}` in a hot module must declare __slots__ "
            "(instances are allocated on the per-slot path)",
        )


class IntCounterRule(Rule):
    """RL006: integer settlement counters must stay integer."""

    rule_id = "RL006"
    summary = "float arithmetic assigned to an integer counter"

    def applies_to(self, path: str) -> bool:
        return module_matches(path, self.config.int_counter_modules)

    def _tainted(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _INT_CLEANSING_CALLS:
                return False
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _INT_CLEANSING_METHODS
            ):
                return False
            if isinstance(func, ast.Name) and func.id == "float":
                return True
            return any(self._tainted(arg) for arg in node.args)
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True
            return self._tainted(node.left) or self._tainted(node.right)
        return any(self._tainted(child) for child in ast.iter_child_nodes(node))

    def check_module(self, tree: ast.Module, path: str, report) -> None:
        counters = self.config.int_counter_attrs
        for node in ast.walk(tree):
            target: Optional[ast.AST] = None
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                target, value = node.target, node.value
            if value is None or not isinstance(target, ast.Attribute):
                continue
            if target.attr in counters and self._tainted(value):
                report(
                    node,
                    f"float arithmetic assigned to integer counter "
                    f"`{target.attr}`; use integer ops (//, int()) so "
                    "settlement stays exact",
                )


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_own(node: ast.AST) -> bool:
    """Whether an attribute's owner is the enclosing instance or class."""
    return isinstance(node, ast.Name) and node.id in {"self", "cls"}


class PrivateWriteRule(Rule):
    """RL007: no write to another object's private attribute outside its module.

    A class owns its ``_private`` attributes.  Code elsewhere that assigns,
    augments or deletes one keeps the class's state in step by hand, out of
    sight of the class's own checks (RL004 reads only the class's methods).
    Writes through ``self``/``cls`` are the owner's; a write through any
    other object is allowed only in a module that defines the attribute
    itself (assigns ``self.<name>`` or ``cls.<name>`` somewhere), as
    ``EventQueue`` sets ``event._queue`` next to ``Event``.
    """

    rule_id = "RL007"
    summary = "write to another object's private attribute outside its module"

    def applies_to(self, path: str) -> bool:
        return module_in_packages(path, ("repro/",))

    def check_module(self, tree: ast.Module, path: str, report) -> None:
        defined = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and _is_own(node.value)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and _is_private(node.attr)
                and not _is_own(node.value)
                and node.attr not in defined
            ):
                report(
                    node,
                    f"write to another object's private attribute `{node.attr}`; "
                    "call a method of the class that owns it",
                )


ALL_RULES = (
    RngUseRule,
    WallClockRule,
    SetIterationRule,
    VersionBumpRule,
    SlotsRule,
    IntCounterRule,
    PrivateWriteRule,
)

#: rule id -> one-line summary, for ``--format json`` count tables.
RULE_SUMMARIES: dict[str, str] = {
    rule.rule_id: rule.summary for rule in ALL_RULES
}

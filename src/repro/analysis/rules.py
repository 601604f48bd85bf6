"""The rule catalog behind ``repro check``.

Each rule encodes one invariant of this repository that generic
linters have no vocabulary for, and stays only while tier-1 does not
catch its defect.  The catalog (with rationale, an example violation
per rule, and each rule's planted-defect evidence) is documented in
``docs/static-analysis.md``; the one-line summaries here are surfaced
by ``repro check --list-rules``.

Rule id namespaces:

====  ==============================================================
DIG   digest purity (pack-shared caches)
STO   result-store access discipline
TYP   typed-core gate (mirrors the ``mypy --strict`` CI packages)
====  ==============================================================
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .lint import Finding, ModuleContext, Rule, register

#: subpackages gated by ``mypy --strict`` in CI (see pyproject.toml)
TYPED_PACKAGES = ("exec", "figures", "obs", "scenarios")


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def _call_root_and_attr(func: ast.AST) -> tuple[str | None, str | None]:
    """(``root``, ``attr``) of an ``<root>.<attr>(...)`` call target.

    ``fcntl.flock`` -> ("fcntl", "flock"); ``path.read_text`` ->
    ("path", "read_text"); ``self.path.open`` -> ("path", "open") — the
    *nearest* receiver name.
    """
    if not isinstance(func, ast.Attribute):
        return None, None
    value = func.value
    if isinstance(value, ast.Name):
        return value.id, func.attr
    if isinstance(value, ast.Attribute):
        return value.attr, func.attr
    return None, func.attr


def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _statement_lists(tree: ast.Module) -> Iterator[list[ast.stmt]]:
    for node in ast.walk(tree):
        for attr_name in ("body", "orelse", "finalbody"):
            block = getattr(node, attr_name, None)
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                yield block


def _mentions(node: ast.AST, identifier: str) -> bool:
    """Does any Name or attribute access in ``node`` use ``identifier``?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == identifier:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == identifier:
            return True
    return False


def _string_constants(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


# ----------------------------------------------------------------------
# DIG — digest purity
# ----------------------------------------------------------------------
#: receiver names that denote pack-shared warm state (the RunReuse
#: object threaded through execute_pack -> run_workload)
_REUSE_RECEIVERS = frozenset({"reuse", "_reuse", "run_reuse"})

#: in-place mutators: calling one on a pack-cached value changes state
#: a sibling pack member will observe
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "update", "setdefault", "clear",
    "pop", "popitem", "remove", "discard", "add", "sort", "reverse",
})


def _pack_cache_attr(node: ast.AST, reuse_classes: frozenset[str]) -> bool:
    """Is ``node`` an attribute of a pack-shared reuse object?

    Matches ``reuse.<attr>`` (any receiver named like a reuse handle)
    and ``self.<attr>`` inside a class whose name marks it as the
    pack-sharing carrier (``*Reuse*``).
    """
    if not isinstance(node, ast.Attribute):
        return False
    value = node.value
    if isinstance(value, ast.Name):
        if value.id in _REUSE_RECEIVERS:
            return True
        if value.id == "self" and reuse_classes:
            return True
    return False


@register
class PackSharedCacheRule(Rule):
    id = "DIG103"
    name = "pack-shared-cache"
    rationale = (
        "state cached across pack members (RunReuse) must be "
        "seed-invariant and immutable after prep; a seed-dependent "
        "value under a seed-free key, or an in-place mutation of a "
        "cached value, leaks one member's run into its siblings"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.module:
            return
        for function in _functions(ctx.tree):
            reuse_classes = self._enclosing_reuse_classes(ctx, function)
            loaded = self._cache_loaded_names(function, reuse_classes)
            bindings = self._name_bindings(function)
            for node in ast.walk(function):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        yield from self._check_store(
                            ctx, node, target, reuse_classes, bindings
                        )
                        # instance.attr = ... on a cache-loaded value
                        if (isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id in loaded):
                            yield ctx.finding(
                                self, node,
                                f"attribute write on "
                                f"`{target.value.id}` (loaded from a "
                                f"pack-shared cache): cached values are "
                                f"immutable after prep — build a new "
                                f"value (dataclasses.replace) instead",
                            )
                elif isinstance(node, ast.Call):
                    func = node.func
                    if (isinstance(func, ast.Attribute)
                            and func.attr in _MUTATOR_METHODS
                            and isinstance(func.value, ast.Name)
                            and func.value.id in loaded):
                        yield ctx.finding(
                            self, node,
                            f"`{func.value.id}.{func.attr}()` mutates a "
                            f"value loaded from a pack-shared cache; "
                            f"cached state must be immutable after prep "
                            f"(copy it or use dataclasses.replace)",
                        )

    def _check_store(
        self,
        ctx: ModuleContext,
        node: ast.Assign,
        target: ast.AST,
        reuse_classes: frozenset[str],
        bindings: dict[str, list[ast.AST]],
    ) -> Iterator[Finding]:
        """Flag ``reuse.<cache>[key] = <seed-dependent value>``."""
        if not isinstance(target, ast.Subscript):
            return
        if not _pack_cache_attr(target.value, reuse_classes):
            return
        key = target.slice
        key_mentions_seed = _mentions(key, "seed")
        if not key_mentions_seed and isinstance(key, ast.Name):
            # one level of name tracing: `key = (..., spec.seed)` above
            key_mentions_seed = any(
                _mentions(bound, "seed")
                for bound in bindings.get(key.id, [])
            )
        if _mentions(node.value, "seed") and not key_mentions_seed:
            yield ctx.finding(
                self, node,
                "seed-dependent value stored in a pack-shared cache "
                "under a seed-free key: siblings of this pack member "
                "would replay its seed; cache only the seed-invariant "
                "part",
            )

    @staticmethod
    def _name_bindings(function: ast.AST) -> dict[str, list[ast.AST]]:
        """name -> every expression assigned to it in ``function``."""
        bindings: dict[str, list[ast.AST]] = {}
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bindings.setdefault(target.id, []).append(node.value)
        return bindings

    @staticmethod
    def _enclosing_reuse_classes(
        ctx: ModuleContext, function: ast.AST
    ) -> frozenset[str]:
        parents = ctx.parents
        names: set[str] = set()
        current = parents.get(function)
        while current is not None:
            if isinstance(current, ast.ClassDef) and "Reuse" in current.name:
                names.add(current.name)
            current = parents.get(current)
        return frozenset(names)

    @staticmethod
    def _cache_loaded_names(
        function: ast.AST, reuse_classes: frozenset[str]
    ) -> frozenset[str]:
        """Names bound from a pack-cache subscript or ``.get()`` load.

        A later re-binding to a fresh value (``x = replace(x, ...)``)
        is not tracked — the rule errs toward flagging, and reviewed
        exceptions carry a ``# repro: allow[pack-shared-cache]``.
        """
        loaded: set[str] = set()
        for node in ast.walk(function):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            if isinstance(value, ast.Subscript) and _pack_cache_attr(
                value.value, reuse_classes
            ):
                loaded.add(target.id)
            elif (isinstance(value, ast.Call)
                  and isinstance(value.func, ast.Attribute)
                  and value.func.attr == "get"
                  and _pack_cache_attr(value.func.value, reuse_classes)):
                loaded.add(target.id)
        return frozenset(loaded)


# ----------------------------------------------------------------------
# STO — store discipline
# ----------------------------------------------------------------------
_STORE_FILE = "results.jsonl"
_OPEN_LIKE = frozenset({
    "open", "read_text", "write_text", "read_bytes", "write_bytes",
})


@register
class StoreAccessRule(Rule):
    id = "STO201"
    name = "store-access"
    rationale = (
        "the result-store log may only be touched through exec/store.py "
        "(locking, tombstones and schema guards live there); a direct "
        "open() bypasses crash/concurrency safety"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if ctx.module == ("exec", "store"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            _root, attr = _call_root_and_attr(node.func)
            is_open_like = (
                isinstance(node.func, ast.Name) and node.func.id == "open"
            ) or attr in _OPEN_LIKE
            if not is_open_like:
                continue
            for text in _string_constants(node):
                if _STORE_FILE in text:
                    yield ctx.finding(
                        self, node,
                        f"direct file access to {text!r}: the store log is "
                        f"owned by exec/store.py (advisory locking, "
                        f"torn-line safety)",
                    )
                    break


def _flock_mode(call: ast.Call) -> str | None:
    """"acquire", "release" or None for an fcntl.flock()/lockf() call."""
    root, attr = _call_root_and_attr(call.func)
    if root != "fcntl" or attr not in ("flock", "lockf"):
        return None
    if len(call.args) < 2:
        return None
    return "release" if _mentions(call.args[1], "LOCK_UN") else "acquire"


@register
class LockBalanceRule(Rule):
    id = "STO202"
    name = "lock-balance"
    rationale = (
        "every advisory-lock acquire must pair with a release on ALL "
        "exit paths (try/finally), or a raised exception wedges every "
        "other writer of the store/obs log"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for block in _statement_lists(ctx.tree):
            for idx, stmt in enumerate(block):
                if not (isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Call)):
                    continue
                if _flock_mode(stmt.value) != "acquire":
                    continue
                if not self._released_after(block[idx + 1:]):
                    yield ctx.finding(
                        self, stmt,
                        "fcntl lock acquired without a following "
                        "try/finally that releases it (LOCK_UN); an "
                        "exception here wedges all other lock holders",
                    )

    @staticmethod
    def _released_after(rest: list[ast.stmt]) -> bool:
        for stmt in rest:
            if isinstance(stmt, ast.Try):
                for final_stmt in stmt.finalbody:
                    for sub in ast.walk(final_stmt):
                        if isinstance(sub, ast.Call) and (
                            _flock_mode(sub) == "release"
                        ):
                            return True
        return False


# ----------------------------------------------------------------------
# TYP — typed-core gate
# ----------------------------------------------------------------------
@register
class UntypedDefRule(Rule):
    id = "TYP501"
    name = "untyped-def"
    rationale = (
        "the typed core (exec/figures/obs/scenarios) is gated by "
        "`mypy --strict` in CI; an unannotated def fails the gate — "
        "this rule catches it without a mypy install"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_package(*TYPED_PACKAGES):
            return
        parents = ctx.parents
        for function in _functions(ctx.tree):
            missing: list[str] = []
            args = function.args
            positional = [*args.posonlyargs, *args.args]
            in_class = isinstance(parents.get(function), ast.ClassDef)
            if in_class and positional and positional[0].arg in ("self", "cls"):
                positional = positional[1:]
            for arg in (*positional, *args.kwonlyargs):
                if arg.annotation is None:
                    missing.append(arg.arg)
            for vararg in (args.vararg, args.kwarg):
                if vararg is not None and vararg.annotation is None:
                    missing.append(f"*{vararg.arg}")
            if function.returns is None:
                missing.append("return")
            if missing:
                yield ctx.finding(
                    self, function,
                    f"`{function.name}` is missing annotations for "
                    f"{', '.join(missing)}; the typed core must pass "
                    f"mypy --strict",
                )

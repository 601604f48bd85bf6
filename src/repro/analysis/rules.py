"""The determinism-invariant rule catalog behind ``repro check``.

Each rule encodes one *domain* invariant of this repository — things a
generic linter has no vocabulary for.  The catalog (with rationale and
an example violation per rule) is documented in
``docs/static-analysis.md``; the one-line summaries here are surfaced
by ``repro check --list-rules``.

Rule id namespaces:

====  ==============================================================
DET   determinism hazards in the simulation core
DIG   digest purity (content-addressed job/spec/figure identity)
STO   result-store access discipline
OBS   observability hygiene
GAT   gating-protocol preconditions (the paper's Eq. 8 window)
TYP   typed-core gate (mirrors the ``mypy --strict`` CI packages)
====  ==============================================================
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import Iterable, Iterator

from .lint import Finding, ModuleContext, Rule, register

__all__ = ["CORE_PACKAGES", "TYPED_PACKAGES"]

#: subpackages whose execution must be a pure function of the job
#: digest — the simulation spine and everything feeding it
CORE_PACKAGES = ("sim", "htm", "mem", "cm", "gating", "power", "workloads")

#: subpackages gated by ``mypy --strict`` in CI (see pyproject.toml)
TYPED_PACKAGES = ("exec", "figures", "obs", "scenarios")


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def _call_root_and_attr(func: ast.AST) -> tuple[str | None, str | None]:
    """(``root``, ``attr``) of an ``<root>.<attr>(...)`` call target.

    ``time.time`` -> ("time", "time"); ``datetime.datetime.now`` ->
    ("datetime", "now"); ``self._stats.counter`` -> ("_stats",
    "counter") — the *nearest* receiver name, which is what the
    receiver-hint heuristics match on.
    """
    if not isinstance(func, ast.Attribute):
        return None, None
    value = func.value
    if isinstance(value, ast.Name):
        return value.id, func.attr
    if isinstance(value, ast.Attribute):
        return value.attr, func.attr
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id + "()", func.attr
    return None, func.attr


def _enclosing_function(
    ctx: ModuleContext, node: ast.AST
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    parents = ctx.parents
    current = parents.get(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = parents.get(current)
    return None


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
# DET — determinism hazards
# ----------------------------------------------------------------------
_WALLCLOCK_CALLS = frozenset({
    ("time", "time"), ("time", "time_ns"),
    ("time", "monotonic"), ("time", "monotonic_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("time", "process_time"), ("time", "process_time_ns"),
    ("time", "localtime"), ("time", "gmtime"), ("time", "strftime"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
})


@register
class WallClockRule(Rule):
    id = "DET001"
    name = "wallclock"
    rationale = (
        "the deterministic core (sim/htm/mem/cm/gating/power/workloads) "
        "must never read the wall clock: results must be a pure function "
        "of the job digest"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_package(*CORE_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            root, attr = _call_root_and_attr(node.func)
            if root is not None and (root, attr) in _WALLCLOCK_CALLS:
                yield ctx.finding(
                    self, node,
                    f"wall-clock read `{root}.{attr}()` in the "
                    f"deterministic core; derive timing from engine "
                    f"cycles instead",
                )


#: np.random module-level helpers that are legitimate to *construct*
#: generators with (the draws themselves must come from a Generator
#: seeded through sim/rng.py)
_NP_RANDOM_OK = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
})


@register
class UnseededRngRule(Rule):
    id = "DET002"
    name = "unseeded-rng"
    rationale = (
        "every random draw in the deterministic core must flow from the "
        "run seed through sim/rng.py; ambient entropy (stdlib random, "
        "os.urandom, uuid, unseeded/literal-seeded default_rng) breaks "
        "replicate identity"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_package(*CORE_PACKAGES) or ctx.module == ("sim", "rng"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                value = func.value
                if isinstance(value, ast.Name) and value.id == "random":
                    yield ctx.finding(
                        self, node,
                        f"stdlib `random.{func.attr}()` in the "
                        f"deterministic core; use a Generator from "
                        f"sim/rng.py",
                    )
                    continue
                if isinstance(value, ast.Name) and value.id == "os" and (
                    func.attr == "urandom"
                ):
                    yield ctx.finding(
                        self, node, "`os.urandom()` is ambient entropy; "
                        "seeds must derive from the job's root seed")
                    continue
                if isinstance(value, ast.Name) and value.id == "uuid" and (
                    func.attr in ("uuid1", "uuid4")
                ):
                    yield ctx.finding(
                        self, node, f"`uuid.{func.attr}()` is "
                        "nondeterministic; derive identifiers from "
                        "seeded state")
                    continue
                if isinstance(value, ast.Name) and value.id == "secrets":
                    yield ctx.finding(
                        self, node, "`secrets` draws ambient entropy; use "
                        "sim/rng.py derivations")
                    continue
                # np.random.<fn>(...) / numpy.random.<fn>(...)
                if (isinstance(value, ast.Attribute)
                        and value.attr == "random"
                        and isinstance(value.value, ast.Name)
                        and value.value.id in ("np", "numpy")
                        and func.attr not in _NP_RANDOM_OK):
                    yield ctx.finding(
                        self, node,
                        f"module-level `np.random.{func.attr}()` uses the "
                        f"shared global state; use a Generator seeded via "
                        f"sim/rng.py",
                    )
                    continue
            is_default_rng = (
                isinstance(func, ast.Name) and func.id == "default_rng"
            ) or (isinstance(func, ast.Attribute)
                  and func.attr == "default_rng")
            if is_default_rng:
                if not node.args and not node.keywords:
                    yield ctx.finding(
                        self, node,
                        "`default_rng()` without a seed pulls OS entropy; "
                        "pass a seed derived via sim/rng.py",
                    )
                elif node.args and isinstance(node.args[0], ast.Constant):
                    yield ctx.finding(
                        self, node,
                        "`default_rng(<literal>)` bypasses the root-seed "
                        "derivation discipline; derive the seed with "
                        "sim/rng.derive_seed",
                    )


_ORDER_INSENSITIVE = frozenset({
    "sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset",
})


def _is_set_expr(node: ast.AST, set_names: frozenset[str]) -> bool:
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return (_is_set_expr(node.left, set_names)
                or _is_set_expr(node.right, set_names))
    return False


def _is_set_annotation(annotation: ast.AST) -> bool:
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    return (isinstance(target, ast.Name)
            and target.id in ("set", "frozenset", "Set", "FrozenSet"))


@register
class SetIterationRule(Rule):
    id = "DET003"
    name = "set-iteration"
    rationale = (
        "iterating a set in order-sensitive positions (for loops, "
        "list/tuple/join materialization) leaks hash order into digests, "
        "serialized stats and event ordering; wrap in sorted()"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        set_names = self._set_bound_names(ctx.tree)
        parents = ctx.parents
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                if _is_set_expr(node.iter, set_names):
                    yield ctx.finding(
                        self, node.iter,
                        "for-loop over a set: iteration order is "
                        "hash-dependent; use sorted(...)",
                    )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for comp in node.generators:
                    if not _is_set_expr(comp.iter, set_names):
                        continue
                    if self._feeds_order_insensitive(node, parents):
                        continue
                    yield ctx.finding(
                        self, comp.iter,
                        "comprehension over a set materializes "
                        "hash-dependent order; use sorted(...)",
                    )
            elif isinstance(node, ast.Call):
                root, attr = _call_root_and_attr(node.func)
                if attr == "join" and any(
                    _is_set_expr(arg, set_names) for arg in node.args
                ):
                    yield ctx.finding(
                        self, node,
                        "join() over a set concatenates in hash order; "
                        "join sorted(...) instead",
                    )
                elif (isinstance(node.func, ast.Name)
                      and node.func.id in ("list", "tuple")
                      and len(node.args) == 1
                      and _is_set_expr(node.args[0], set_names)):
                    yield ctx.finding(
                        self, node,
                        f"{node.func.id}() over a set freezes "
                        f"hash-dependent order; use sorted(...)",
                    )

    @staticmethod
    def _set_bound_names(tree: ast.Module) -> frozenset[str]:
        """Names assigned *only* set-valued expressions, module-wide."""
        set_bound: set[str] = set()
        other_bound: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if _is_set_expr(node.value, frozenset()):
                        set_bound.add(target.id)
                    else:
                        other_bound.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if _is_set_annotation(node.annotation):
                    set_bound.add(node.target.id)
                else:
                    other_bound.add(node.target.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                    if arg.annotation is not None and _is_set_annotation(
                        arg.annotation
                    ):
                        set_bound.add(arg.arg)
        return frozenset(set_bound - other_bound)

    @staticmethod
    def _feeds_order_insensitive(
        node: ast.AST, parents: dict[ast.AST, ast.AST]
    ) -> bool:
        """Is this comprehension an argument of sorted()/min()/... ?"""
        parent = parents.get(node)
        if isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name):
            return parent.func.id in _ORDER_INSENSITIVE
        return False


# ----------------------------------------------------------------------
# DIG — digest purity
# ----------------------------------------------------------------------
_CONSTRUCTION_HOOKS = frozenset({
    "__init__", "__post_init__", "__new__", "__setstate__",
    "__copy__", "__deepcopy__", "__reduce__",
})


@register
class FrozenMutationRule(Rule):
    id = "DIG101"
    name = "frozen-mutation"
    rationale = (
        "RunJob/ScenarioSpec/FigureSpec identity is their content digest; "
        "the frozen-dataclass escape hatch object.__setattr__ outside "
        "construction hooks mutates digest inputs post-construction"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            root, attr = _call_root_and_attr(node.func)
            if root != "object" or attr != "__setattr__":
                continue
            function = _enclosing_function(ctx, node)
            if function is not None and function.name in _CONSTRUCTION_HOOKS:
                continue
            where = function.name if function is not None else "module scope"
            yield ctx.finding(
                self, node,
                f"object.__setattr__ in `{where}`: frozen digest-bearing "
                f"values may only be written during construction "
                f"(__init__/__post_init__)",
            )


@register
class ReplicateSeedSlotsRule(Rule):
    id = "DIG102"
    name = "replicate-seed-slots"
    rationale = (
        "a replicate key must zero BOTH seed slots (workload seed and "
        "config.seed); zeroing one co-schedules jobs that are not seed "
        "replicates and breaks pack bit-identity"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for function in _functions(ctx.tree):
            zeroed: set[str] = set()
            for node in ast.walk(function):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    slot = self._seed_slot(target)
                    if slot is not None:
                        zeroed.add(slot)
            touched = zeroed & {"workload", "config"}
            if touched and touched != {"workload", "config"}:
                missing = ({"workload", "config"} - touched).pop()
                yield ctx.finding(
                    self, function,
                    f"`{function.name}` zeroes the {touched.pop()!r} seed "
                    f"slot but not the {missing!r} one; replicate keys "
                    f"must zero both",
                )

    @staticmethod
    def _seed_slot(target: ast.AST) -> str | None:
        """``payload["workload"]["seed"]`` -> "workload" (else None)."""
        if not isinstance(target, ast.Subscript):
            return None
        key = target.slice
        if not (isinstance(key, ast.Constant) and key.value == "seed"):
            return None
        outer = target.value
        if isinstance(outer, ast.Subscript) and isinstance(
            outer.slice, ast.Constant
        ):
            value = outer.slice.value
            if value in ("workload", "config"):
                return str(value)
        return None


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
                "would replay its seed; cache the seed-invariant part "
                "and re-stamp the seed on read",
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
# OBS — observability hygiene
# ----------------------------------------------------------------------
_STATS_RECEIVERS = frozenset({"stats", "_stats", "registry", "_registry"})
_OBS_RECEIVERS = frozenset({"recorder", "_recorder", "rec", "get_recorder()"})
_METRIC_METHODS = frozenset({"counter", "count"})


def _metric_name_pattern(arg: ast.AST) -> str | None:
    """The metric-name argument as an fnmatch-able pattern.

    A plain string stays itself; an f-string keeps its literal parts
    with each interpolation collapsed to ``*`` (``f"{prefix}.fills"``
    -> ``*.fills``), which is exactly the shape the declarations in
    :data:`repro.metrics.DECLARED_METRICS` use.
    """
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr):
        parts = []
        for piece in arg.values:
            if isinstance(piece, ast.Constant):
                parts.append(str(piece.value))
            else:
                parts.append("*")
        return "".join(parts)
    return None


@register
class UndeclaredMetricRule(Rule):
    id = "OBS301"
    name = "undeclared-metric"
    rationale = (
        "every Counter/obs-counter name bumped in code must be "
        "declared in metrics.py (DECLARED_METRICS) so reporting, docs "
        "and dashboards share one canonical catalog"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.module:
            return
        declared = self._declared()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            root, attr = _call_root_and_attr(node.func)
            if attr not in _METRIC_METHODS or root is None:
                continue
            if attr == "count":
                if root not in _OBS_RECEIVERS:
                    continue
            elif root not in _STATS_RECEIVERS:
                continue
            pattern = _metric_name_pattern(node.args[0])
            if pattern is None:  # dynamic name: not statically checkable
                continue
            if not any(fnmatch(pattern, decl) or pattern == decl
                       for decl in declared):
                yield ctx.finding(
                    self, node,
                    f"metric name {pattern!r} is not declared in "
                    f"repro/metrics.py DECLARED_METRICS; declare it (with "
                    f"its semantics) before bumping it",
                )

    @staticmethod
    def _declared() -> frozenset[str]:
        from ..metrics import DECLARED_METRICS

        return DECLARED_METRICS


def _bumped_metric_patterns(tree: ast.Module) -> Iterator[str]:
    """Every statically-resolvable metric name bumped in ``tree``.

    The mirror image of OBS301's call-site filter: counter on a stats
    receiver, count on an obs receiver, first argument normalized with
    f-string interpolations collapsed to ``*``.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        root, attr = _call_root_and_attr(node.func)
        if attr not in _METRIC_METHODS or root is None:
            continue
        if attr == "count":
            if root not in _OBS_RECEIVERS:
                continue
        elif root not in _STATS_RECEIVERS:
            continue
        pattern = _metric_name_pattern(node.args[0])
        if pattern is not None:
            yield pattern


@register
class DeadMetricDeclarationRule(Rule):
    id = "OBS304"
    name = "dead-metric-declaration"
    rationale = (
        "OBS301's inverse: a DECLARED_METRICS entry no call site bumps "
        "is a stale catalog line — docs and dashboards advertise a "
        "metric that never appears in any run"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        # Project-level rule: runs once, on the catalog module itself,
        # and scans its sibling package sources for bump sites.
        if ctx.module != ("metrics",):
            return
        declarations = self._declaration_nodes(ctx.tree)
        if not declarations:
            return
        bumped = set(_bumped_metric_patterns(ctx.tree))
        package_root = ctx.path.parent
        if package_root.is_dir():
            for sibling in sorted(package_root.rglob("*.py")):
                if sibling == ctx.path:
                    continue
                if "__pycache__" in sibling.parts:
                    continue
                try:
                    tree = ast.parse(sibling.read_text(encoding="utf-8"))
                except (OSError, SyntaxError):
                    continue  # unreadable siblings are PARSE findings
                bumped.update(_bumped_metric_patterns(tree))
        for decl, node in declarations:
            if not any(fnmatch(pattern, decl) or pattern == decl
                       for pattern in bumped):
                yield ctx.finding(
                    self, node,
                    f"declared metric {decl!r} is bumped by no call site "
                    f"in the package; remove the declaration or wire the "
                    f"metric",
                )

    @staticmethod
    def _declaration_nodes(
        tree: ast.Module,
    ) -> list[tuple[str, ast.Constant]]:
        """The string constants inside the DECLARED_METRICS literal."""
        for node in tree.body:
            target: ast.AST | None = None
            if isinstance(node, ast.AnnAssign):
                target = node.target
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            if not (isinstance(target, ast.Name)
                    and target.id == "DECLARED_METRICS"
                    and node.value is not None):
                continue
            return [
                (constant.value, constant)
                for constant in ast.walk(node.value)
                if isinstance(constant, ast.Constant)
                and isinstance(constant.value, str)
            ]
        return []


@register
class NullRecorderParityRule(Rule):
    id = "OBS302"
    name = "null-recorder-parity"
    rationale = (
        "instrumented call sites hold a NullRecorder when obs is off; a "
        "method defined on ObsRecorder but missing from NullRecorder is "
        "an AttributeError on every obs-off run"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        classes: dict[str, ast.ClassDef] = {}
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef) and node.name in (
                "ObsRecorder", "NullRecorder"
            ):
                classes[node.name] = node
        if len(classes) != 2:
            return
        null_methods = self._method_names(classes["NullRecorder"])
        obs_methods = self._method_names(classes["ObsRecorder"])
        for name in sorted(obs_methods - null_methods):
            if name.startswith("_"):
                continue
            yield ctx.finding(
                self, classes["ObsRecorder"],
                f"ObsRecorder.{name} has no NullRecorder counterpart; "
                f"obs-off call sites would crash",
            )

    @staticmethod
    def _method_names(cls: ast.ClassDef) -> set[str]:
        return {
            node.name for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }


@register
class SpanContextRule(Rule):
    id = "OBS303"
    name = "span-context"
    rationale = (
        "recorder.span() is a context manager; calling it without "
        "`with` records nothing and silently unbalances the span tree"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        parents = ctx.parents
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            root, attr = _call_root_and_attr(node.func)
            if attr != "span" or root is None:
                continue
            if not (root in _OBS_RECEIVERS or "recorder" in root
                    or "obs" in root):
                continue
            if isinstance(parents.get(node), ast.withitem):
                continue
            yield ctx.finding(
                self, node,
                "recorder.span() outside a `with` block: the span is "
                "never entered, so nothing is recorded",
            )


# ----------------------------------------------------------------------
# GAT — gating-protocol preconditions
# ----------------------------------------------------------------------
@register
class GatingWindowGuardRule(Rule):
    id = "GAT401"
    name = "gating-window-guard"
    rationale = (
        "Eq. 8 is undefined at N_a = 0: every gating_window query must "
        "be dominated by an abort-recorded check (the PR 5 "
        "victim-committed crash class)"
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.module:
            return
        for function in _functions(ctx.tree):
            if function.name.startswith("gating_window"):
                continue  # the definition/delegation layer
            guard_lines = self._guard_lines(function)
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                _root, attr = _call_root_and_attr(node.func)
                if attr not in ("gating_window", "gating_window_ex"):
                    continue
                if not any(line <= node.lineno for line in guard_lines):
                    yield ctx.finding(
                        self, node,
                        f"`{attr}` query in `{function.name}` is not "
                        f"dominated by an abort-recorded check "
                        f"(abort_count guard or bump_abort call)",
                    )

    @staticmethod
    def _guard_lines(function: ast.AST) -> list[int]:
        lines = []
        for node in ast.walk(function):
            if isinstance(node, (ast.If, ast.While)) and _mentions(
                node.test, "abort_count"
            ):
                lines.append(node.lineno)
            elif isinstance(node, ast.Assert) and _mentions(
                node.test, "abort_count"
            ):
                lines.append(node.lineno)
            elif isinstance(node, ast.Call):
                _root, attr = _call_root_and_attr(node.func)
                if attr == "bump_abort":
                    lines.append(node.lineno)
        return lines


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

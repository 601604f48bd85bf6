"""Source rules that no run can observe, over src, tests and scripts.

Each check maps one parsed file to its findings.  tests/test_analysis.py
runs them: ``TestCheckCli`` over the whole tree, ``TestDigestAndStoreRules``
and ``TestTypedCoreRule`` on snippets.  A check stays only while its
planted defect fails no other tier-1 test (docs/static-analysis.md,
"Adding a source rule").
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
STORE_MODULE = "src/repro/exec/store.py"
STORE_FILE = "results.jsonl"
OPEN_LIKE = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}
#: the packages CI runs ``mypy --strict`` on (see pyproject.toml)
TYPED_PACKAGES = tuple(f"src/repro/{p}/" for p in "exec figures obs scenarios".split())

#: (file, function) pairs that read the store log raw on purpose: each
#: asserts the bytes on disk, which the store's parsed view hides
RAW_STORE_READERS = {
    ("tests/test_store.py", "test_put_get_roundtrip"),
    ("tests/test_determinism.py", "test_smoke_suite_store_jsonl_byte_identical"),
}


def _name(node: ast.AST | None) -> str | None:
    return getattr(node, "id", None) or getattr(node, "attr", None)


def raw_store_reads(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing function or "", line) of each open-like call naming
    the store log."""
    found, stack = [], [("", tree)]
    while stack:
        function, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        stack.extend((function, child) for child in ast.iter_child_nodes(node))
        func = getattr(node, "func", None)  # only a Call has one
        opens = _name(func) == "open" or (isinstance(func, ast.Attribute)
                                          and func.attr in OPEN_LIKE)
        if opens and any(isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                         and STORE_FILE in sub.value for sub in ast.walk(node)):
            found.append((function, node.lineno))
    return found


def store_access(relpath: str, tree: ast.AST) -> list[str]:
    """STO201: only the store module, with its lock and guards, opens the log."""
    if relpath == STORE_MODULE:
        return []
    return [f"{relpath}:{line}: STO201 `{function or '<module>'}` opens "
            f"{STORE_FILE} directly; go through {STORE_MODULE}"
            for function, line in raw_store_reads(tree)
            if (relpath, function) not in RAW_STORE_READERS]


def _flock_mode(node: ast.AST) -> str | None:
    """Whether an fcntl.flock()/lockf() call acquires or releases, else None."""
    func = getattr(node, "func", None)
    if not (isinstance(func, ast.Attribute) and func.attr in ("flock", "lockf")
            and _name(func.value) == "fcntl" and len(node.args) >= 2):
        return None
    releases = any(_name(sub) == "LOCK_UN" for sub in ast.walk(node.args[1]))
    return "release" if releases else "acquire"


def lock_balance(relpath: str, tree: ast.AST) -> list[str]:
    """STO202: a later try/finally in the same block releases each fcntl
    lock, so no exception leaves it held (a forked child may share it)."""
    findings = []
    for node in ast.walk(tree):
        for block in (getattr(node, f, None) for f in ("body", "orelse", "finalbody")):
            for index, stmt in enumerate(block if isinstance(block, list) else ()):
                if not (isinstance(stmt, ast.Expr)
                        and _flock_mode(stmt.value) == "acquire"):
                    continue
                if not any(_flock_mode(sub) == "release"
                           for later in block[index + 1:] if isinstance(later, ast.Try)
                           for final in later.finalbody for sub in ast.walk(final)):
                    findings.append(f"{relpath}:{stmt.lineno}: STO202 fcntl lock "
                                    f"taken without a later try/finally releasing it")
    return findings


def untyped_def(relpath: str, tree: ast.AST) -> list[str]:
    """TYP501: every def in the typed packages is annotated for mypy --strict."""
    if not relpath.startswith(TYPED_PACKAGES):
        return []
    methods = {f for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    findings = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        positional = [*args.posonlyargs, *args.args]
        if fn in methods and positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        params = [*positional, *args.kwonlyargs, args.vararg, args.kwarg]
        missing = [arg.arg for arg in params if arg and arg.annotation is None]
        missing += ["return"] if fn.returns is None else []
        if missing:
            findings.append(f"{relpath}:{fn.lineno}: TYP501 `{fn.name}` lacks "
                            f"annotations for {', '.join(missing)}")
    return findings


CHECKS = [store_access, lock_balance, untyped_def]


def source_trees() -> dict[str, ast.AST]:
    """Every .py file under src, tests and scripts, parsed once."""
    return {path.relative_to(ROOT).as_posix(): ast.parse(path.read_text("utf-8"))
            for top in ("src", "tests", "scripts")
            for path in sorted((ROOT / top).rglob("*.py"))}


@pytest.mark.parametrize("relpath,function", sorted(RAW_STORE_READERS))
def test_raw_store_reader_is_live(relpath, function):
    """An allowlisted function still exists and still reads the log raw."""
    tree = ast.parse((ROOT / relpath).read_text("utf-8"))
    assert function in {name for name, _ in raw_store_reads(tree)}

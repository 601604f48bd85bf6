"""`repro check`: the repository's own AST lint engine.

Bit-identical results and Eq. 8's precondition are enforced at run
time by tier-1 (goldens, determinism tests, the gating asserts).  This
engine checks the rest: store-file access outside the store module,
unbalanced advisory locks, the typed core without a mypy install, and
the replicate-pack prep-cache contract.
``docs/static-analysis.md`` records, per rule, whether tier-1 catches
its defect.

Architecture
------------
* :class:`Rule` subclasses register themselves via :func:`register`;
  each rule has a stable ``id`` (``STO201``), a slug ``name``
  (``store-access``) and a one-line ``rationale``.
* :class:`ModuleContext` wraps one parsed file: source, AST, a parent
  map (for "which class encloses this function?" questions) and the
  module path relative to the ``repro`` package root, which is how
  rules scope themselves to the typed core or the storage layer.
* Findings on a line carrying ``# repro: allow[rule-id]`` (id, slug or
  ``*``) are suppressed — the suppression syntax for reviewed,
  justified exceptions.  Unknown rule ids in a suppression are
  themselves reported, so stale suppressions cannot linger silently.
* :func:`run_check` walks files/directories deterministically (sorted,
  ``__pycache__``/hidden dirs skipped) and returns a
  :class:`CheckReport`; :func:`render_text` / :func:`render_json` are
  the two reporters behind ``repro check [--json]``.  A path that does
  not exist, or a ``--select``/``--ignore`` token naming no rule, is a
  :class:`~repro.errors.ReproError`, never an empty, passing run.

The concrete rules live in :mod:`repro.analysis.rules`; importing that
module populates the registry.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from ..errors import ReproError

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "CheckReport",
    "register",
    "registered_rules",
    "run_check",
    "check_source",
    "render_text",
    "render_json",
]

#: bump when the JSON report layout changes incompatibly
CHECK_SCHEMA_VERSION = 1

#: directories never descended into when expanding path arguments
_SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".repro-cache", ".smoke-cache", "build",
    "dist", ".mypy_cache", ".ruff_cache",
})

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    name: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "name": self.name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class ModuleContext:
    """One parsed module, with the navigation aids rules need."""

    def __init__(self, path: Path, source: str, display_path: str | None = None):
        self.path = path
        self.display_path = display_path if display_path is not None else str(path)
        self.source = source
        self.tree = ast.parse(source, filename=self.display_path)
        self.lines = source.splitlines()
        #: parts of the dotted module path below the ``repro`` package
        #: (``("sim", "engine")`` for ``src/repro/sim/engine.py``);
        #: empty for files outside the package (tests, scripts).
        self.module = _module_parts(path)
        self._parents: dict[ast.AST, ast.AST] | None = None
        self._comments: dict[int, str] | None = None

    # ------------------------------------------------------------------
    def in_package(self, *heads: str) -> bool:
        """Is this module inside one of the given top-level subpackages?"""
        return bool(self.module) and self.module[0] in heads

    @property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """child AST node -> parent AST node (built lazily, once)."""
        if self._parents is None:
            parents: dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=rule.id,
            name=rule.name,
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )

    # ------------------------------------------------------------------
    def suppressed_ids(self, line: int) -> frozenset[str]:
        """Rule ids/slugs allowed on ``line`` via ``# repro: allow[...]``.

        A suppression is either a trailing comment on the flagged line
        or a dedicated comment line in the contiguous comment block
        immediately above it (for constructs that don't fit a trailing
        comment).
        """
        ids: set[str] = set()
        comments = self.comment_lines
        if 1 <= line <= len(self.lines):
            ids.update(self._allow_ids(comments.get(line, "")))
            above = line - 1
            while above >= 1 and self.lines[above - 1].lstrip().startswith("#"):
                ids.update(self._allow_ids(comments.get(above, "")))
                above -= 1
        return frozenset(ids)

    @property
    def comment_lines(self) -> dict[int, str]:
        """line number -> comment text, from real ``#`` comment tokens.

        Tokenizing (rather than regex over raw lines) keeps suppression
        syntax *inside string literals and docstrings* inert — the
        engine's own documentation may quote ``repro: allow[...]``
        examples without creating live suppressions.
        """
        if self._comments is None:
            comments: dict[int, str] = {}
            try:
                tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
                for tok in tokens:
                    if tok.type == tokenize.COMMENT:
                        comments[tok.start[0]] = tok.string
            except (tokenize.TokenError, IndentationError):  # pragma: no cover
                pass  # ast.parse succeeded, so this is unreachable in practice
            self._comments = comments
        return self._comments

    @staticmethod
    def _allow_ids(text: str) -> frozenset[str]:
        match = _ALLOW_RE.search(text)
        if not match:
            return frozenset()
        return frozenset(
            part.strip() for part in match.group(1).split(",")
            if part.strip()
        )

    def suppression_lines(self) -> Iterator[tuple[int, frozenset[str]]]:
        """Every (line, allowed ids) suppression comment in the file."""
        for idx in sorted(self.comment_lines):
            ids = self._allow_ids(self.comment_lines[idx])
            if ids:
                yield idx, ids


def _module_parts(path: Path) -> tuple[str, ...]:
    """Dotted-module parts below the ``repro`` package, if any.

    Recognizes ``.../src/repro/<parts>.py`` (and a bare
    ``repro/<parts>.py`` package checkout); everything else — tests,
    scripts, fixtures — maps to the empty tuple, which is how
    package-scoped rules exempt non-package code.
    """
    parts = path.parts
    for idx, part in enumerate(parts[:-1]):
        if part != "repro":
            continue
        if idx > 0 and parts[idx - 1] != "src" and idx != 0:
            # accept only src/repro/... or a leading repro/...
            continue
        below = list(parts[idx + 1:])
        below[-1] = below[-1][:-3] if below[-1].endswith(".py") else below[-1]
        if below[-1] == "__init__":
            below.pop()
        return tuple(below)
    return ()


class Rule:
    """One invariant.  Subclass, set the class attrs, implement check().

    ``id`` is the stable selector (``STO201``); ``name`` the
    human-facing slug (``store-access``); ``rationale`` one line of
    *why* — it is surfaced by ``repro check --list-rules`` and the rule
    catalog in ``docs/static-analysis.md``.
    """

    id: str = ""
    name: str = ""
    rationale: str = ""

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one Rule instance to the global registry."""
    rule = cls()
    if not rule.id or not rule.name:
        raise ValueError(f"rule {cls.__name__} needs both an id and a name")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return cls


def registered_rules() -> list[Rule]:
    """Every registered rule, in stable id order."""
    _ensure_rules_loaded()
    return [rule for _rule_id, rule in sorted(_REGISTRY.items())]


def _ensure_rules_loaded() -> None:
    # rules.py registers on import; keep the import lazy so the engine
    # can be unit-tested with a synthetic registry as well
    if not _REGISTRY:
        from . import rules  # noqa: F401  (import populates _REGISTRY)


def _rule_tokens(rules: Iterable[Rule]) -> set[str]:
    """Every id and slug of ``rules``: what a selector may name."""
    return {token for rule in rules for token in (rule.id, rule.name)}


def _select_rules(
    select: Iterable[str] | None, ignore: Iterable[str] | None
) -> list[Rule]:
    rules = registered_rules()
    known = _rule_tokens(rules)
    for option, tokens in (("--select", select), ("--ignore", ignore)):
        unknown = sorted(set(tokens or ()) - known)
        if unknown:
            raise ReproError(
                f"{option} names no registered rule: {', '.join(unknown)} "
                f"(rules: {', '.join(r.id for r in rules)})"
            )
    if select:
        wanted = {token for token in select}
        rules = [r for r in rules if r.id in wanted or r.name in wanted]
    if ignore:
        dropped = {token for token in ignore}
        rules = [r for r in rules if r.id not in dropped and r.name not in dropped]
    return rules


@dataclass
class CheckReport:
    """Outcome of one engine run over a set of files."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    parse_errors: list[Finding] = field(default_factory=list)
    rules_run: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if (self.findings or self.parse_errors) else 0

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


class _ParseErrorRule(Rule):
    """Synthetic rule id for unparseable files (always a finding)."""

    id = "PARSE"
    name = "parse-error"
    rationale = "a file the engine cannot parse cannot be verified"


_PARSE_RULE = _ParseErrorRule()


class _UnknownSuppressionRule(Rule):
    """Synthetic rule id for ``allow[...]`` naming no registered rule."""

    id = "SUPP"
    name = "unknown-suppression"
    rationale = (
        "a suppression naming no registered rule is stale (or a typo) "
        "and would silently stop suppressing after a rule rename"
    )


_SUPP_RULE = _UnknownSuppressionRule()


def check_source(
    source: str,
    path: Path,
    rules: Iterable[Rule],
    display_path: str | None = None,
) -> tuple[list[Finding], int, list[Finding]]:
    """Run ``rules`` over one in-memory module.

    Returns ``(findings, suppressed_count, parse_errors)`` with
    suppressions already applied — the per-line
    ``# repro: allow[rule-id]`` escape hatch is an engine feature, not
    a per-rule one.
    """
    try:
        ctx = ModuleContext(path, source, display_path=display_path)
    except SyntaxError as exc:
        error = Finding(
            rule=_PARSE_RULE.id,
            name=_PARSE_RULE.name,
            path=display_path if display_path is not None else str(path),
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            message=f"cannot parse: {exc.msg}",
        )
        return [], 0, [error]
    findings: list[Finding] = []
    suppressed = 0
    for rule in rules:
        for finding in rule.check(ctx):
            allowed = ctx.suppressed_ids(finding.line)
            if "*" in allowed or finding.rule in allowed or finding.name in allowed:
                suppressed += 1
            else:
                findings.append(finding)
    known = {"*"} | _rule_tokens([_PARSE_RULE, *registered_rules()])
    for line, ids in ctx.suppression_lines():
        for token in sorted(ids - known):
            findings.append(Finding(
                rule=_SUPP_RULE.id, name=_SUPP_RULE.name,
                path=ctx.display_path, line=line, col=1,
                message=f"suppression names unknown rule {token!r}",
            ))
    findings.sort(key=Finding.sort_key)
    return findings, suppressed, []


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand path arguments to a deterministic, deduplicated file list."""
    seen: dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise ReproError(f"no such file or directory: {raw}")
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py")
                if not any(
                    part in _SKIP_DIRS or part.startswith(".")
                    for part in p.relative_to(path).parts[:-1]
                )
            )
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            if candidate not in seen:
                seen[candidate] = None
                yield candidate


def run_check(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> CheckReport:
    """Run the engine over files/directories; the ``repro check`` core."""
    rules = _select_rules(select, ignore)
    report = CheckReport(rules_run=[rule.id for rule in rules])
    for file_path in iter_python_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            report.parse_errors.append(Finding(
                rule=_PARSE_RULE.id, name=_PARSE_RULE.name,
                path=str(file_path), line=1, col=1,
                message=f"cannot read: {exc}",
            ))
            continue
        report.files_checked += 1
        findings, suppressed, errors = check_source(source, file_path, rules)
        report.findings.extend(findings)
        report.suppressed += suppressed
        report.parse_errors.extend(errors)
    report.findings.sort(key=Finding.sort_key)
    report.parse_errors.sort(key=Finding.sort_key)
    return report


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------
def render_text(report: CheckReport) -> str:
    """The human reporter: one line per finding plus a tally."""
    out: list[str] = []
    for finding in report.parse_errors + report.findings:
        out.append(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.rule}[{finding.name}] {finding.message}"
        )
    tally = (
        f"{len(report.findings)} finding(s) in {report.files_checked} "
        f"file(s), {report.suppressed} suppressed"
    )
    if report.parse_errors:
        tally += f", {len(report.parse_errors)} parse error(s)"
    if report.findings:
        parts = ", ".join(
            f"{rule_id}: {count}"
            for rule_id, count in sorted(report.by_rule().items())
        )
        tally += f"  [{parts}]"
    out.append(tally)
    return "\n".join(out)


def render_json(report: CheckReport) -> str:
    """The machine reporter: stable key order, schema-versioned."""
    payload = {
        "schema": CHECK_SCHEMA_VERSION,
        "files_checked": report.files_checked,
        "rules_run": list(report.rules_run),
        "findings": [f.as_dict() for f in report.findings],
        "parse_errors": [f.as_dict() for f in report.parse_errors],
        "suppressed": report.suppressed,
        "by_rule": report.by_rule(),
        "exit_code": report.exit_code,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def list_rules_text() -> str:
    """``repro check --list-rules``: the registered rule catalog."""
    out = []
    for rule in registered_rules():
        out.append(f"{rule.id}  {rule.name}")
        out.append(f"      {rule.rationale}")
    return "\n".join(out)

"""Never-entered src/repro functions: ``count.py SRC_ROOT RECORD_DIR``."""
import ast
import sys
from pathlib import Path

src, records = Path(sys.argv[1]).resolve(), Path(sys.argv[2])
entered = set()
for log in records.glob("*.txt"):
    for line in log.read_text().splitlines():
        path, _, first = line.rpartition(":")
        rel = path.split("/src/repro/", 1)[-1]
        entered.add((rel, int(first)))

functions = []  # (rel, first line, qualname, lines, enclosing function key)


def walk(node, rel, prefix, outer):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            key = (rel, first)
            name = f"{prefix}{child.name}"
            functions.append((key, name, child.end_lineno - first + 1, outer))
            walk(child, rel, f"{name}.<locals>.", key)
        elif isinstance(child, ast.ClassDef):
            walk(child, rel, f"{prefix}{child.name}.", outer)
        else:
            walk(child, rel, prefix, outer)


for path in sorted((src / "repro").rglob("*.py")):
    rel = str(path.relative_to(src / "repro"))
    walk(ast.parse(path.read_text()), rel, "", None)

missed = [f for f in functions if f[0] not in entered]
missed_keys = {f[0] for f in missed}
top = [f for f in functions if f[3] is None]
total_lines = sum(f[2] for f in top)
missed_lines = sum(f[2] for f in missed if f[3] not in missed_keys)
print(f"never entered: {len(missed)} of {len(functions)} functions, "
      f"{missed_lines} of {total_lines} lines")
if "-v" in sys.argv:
    for (rel, first), name, lines, _ in missed:
        print(f"  {rel}:{first} {name} ({lines} lines)")

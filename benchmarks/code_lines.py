"""``python benchmarks/code_lines.py PATH...``: code lines (not blank, not
comment-only, not docstring) per .py file or tree, as EXPERIMENTS.md quotes."""
import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines holding a token that is neither comment, docstring nor layout."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


USAGE = "usage: python benchmarks/code_lines.py PATH..."

if __name__ == "__main__":
    paths = [Path(arg) for arg in sys.argv[1:]]
    if not paths or not all(path.exists() for path in paths):
        print(USAGE, file=sys.stderr)  # --help, no path or a missing one
        sys.exit(2)
    for path in paths:
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        print(sum(code_lines(f.read_text(encoding="utf-8")) for f in files), path)

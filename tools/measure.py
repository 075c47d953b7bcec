"""Print the numbers a change records in CHANGES.md.

    python3 tools/measure.py

For each module of src/cvdistill: its line count (as wc -l gives it) and
its count of code lines, that is without docstrings, comment-only lines
and blank lines.  Then the sha256 of the CSVs of the README's sweep (the
config under "Command line") and of the same sweep with objective =
fidelity, each run in process through cli.main.  It uses the standard
library and the package only, and takes no options.
"""

import ast
import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cvdistill"
sys.path.insert(0, str(ROOT / "src"))

README_SWEEP = """\
strategies = noop, subtract_before, subtract_after, coherent_before, coherent_after
s = 0.029
n_th = 0.1
eta_min = 0.01
eta_max = 1.0
eta_points = 101
n_trunc = 5
"""


def code_lines(text):
    """The number of lines of the Python source text that hold code: not
    blank, not a comment alone, and not part of a docstring."""
    skip = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            skip.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    quiet = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in quiet:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip)


def sweep_sha256(objective):
    """sha256 of the CSV that cli.main writes for the README sweep with
    the given objective."""
    from cvdistill.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "sweep.csv"
        cfg = pathlib.Path(tmp) / "run.cfg"
        cfg.write_text(README_SWEEP + f"objective = {objective}\noutput = {out}\n")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["sweep", str(cfg)])
        if code != 0:
            raise SystemExit(f"the {objective} sweep failed")
        return hashlib.sha256(out.read_bytes()).hexdigest()


def main():
    total = code_total = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines, code = text.count("\n"), code_lines(text)
        total, code_total = total + lines, code_total + code
        print(f"{lines:6d} {code:6d}  src/cvdistill/{path.name}")
    print(f"{total:6d} {code_total:6d}  total (wc -l, code lines)")
    for objective in ("negativity", "fidelity"):
        print(f"README {objective} sweep sha256 {sweep_sha256(objective)}")


if __name__ == "__main__":
    main()

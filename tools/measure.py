"""Print the numbers a change records in CHANGES.md.

    python3 tools/measure.py

For each module of src/cvdistill: its line count (as wc -l gives it) and
its count of code lines, that is without docstrings, comment-only lines
and blank lines.  Then the sha256 of the CSVs of the README's sweep (the
config under "Command line") and of the same sweep with objective =
fidelity, each run in process through cli.main, and the hits and misses
of every functools.lru_cache of the package after those two sweeps.  Then,
for three fixed fock_matrices calls (n_trunc 8 over one kernel, n_trunc 5
over a chunk of 7 kernels, n_trunc 12 over one kernel), the median time of
a warm call and the bytes of the cached plan it reads.  Last, the cold
build time of the plan of a coherent operation's support at n_trunc 8 and
12: the best of five builds, each after _fock_plan.cache_clear().  It uses
the standard library and the package only, and takes no options.
"""

import ast
import contextlib
import hashlib
import importlib
import io
import pathlib
import statistics
import sys
import tempfile
import time
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


def package_caches():
    """(name, cache_info()) of every functools.lru_cache that a module of
    the package defines, in module and name order."""
    caches = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"cvdistill.{path.stem}")
        for name, obj in sorted(vars(module).items()):
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                caches.append((f"{path.stem}.{name}", obj.cache_info()))
    return caches


def fock_inputs():
    """The three fixed fock_matrices calls, as (label, kernels, n_trunc,
    stacks): the coherent operation before the channel at s 0.3, eta 0.7,
    n_th 0.1, and a chunk of every pipeline kind over 7 channels at the
    README sweep's s and n_th."""
    from cvdistill.chi_core import ChannelParams
    from cvdistill.scenarios import _raw_terms

    ((one, before),) = _raw_terms(0.3, [ChannelParams(0.7, 0.1)], [(True, True)]).values()
    channels = [ChannelParams(0.3 + 0.1 * k, 0.1) for k in range(7)]
    runs = _raw_terms(0.029, channels, [(False, False), (True, True), (True, False)])
    chunk = next(iter(runs.values()))[0]
    return [("n_trunc 8, 1 kernel", one[0], 8, [before[0]]),
            ("n_trunc 5, 7 kernels", chunk, 5, [p for _, p in runs.values()]),
            ("n_trunc 12, 1 kernel", one[0], 12, [before[0]])]


def nbytes(x):
    """The bytes of every array in x, a tuple that nests arrays."""
    if isinstance(x, tuple):
        return sum(nbytes(y) for y in x)
    return getattr(x, "nbytes", 0)


def support(stacks):
    """The support fock_matrices plans over: every nonzero monomial of a
    stack, as a sorted tuple of exponent 4-tuples."""
    import numpy as np

    return tuple(sorted({tuple(m) for p in stacks for m in
                         np.argwhere(np.any(p != 0, axis=tuple(range(p.ndim - 4)))).tolist()}))


def fock_layer(kernels, n_trunc, stacks, calls=40):
    """Median ms of a warm fock_matrices call, and the bytes of its plan."""
    from cvdistill import fock_recon

    fock_recon.fock_matrices(kernels, n_trunc, *stacks)
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        fock_recon.fock_matrices(kernels, n_trunc, *stacks)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times), nbytes(fock_recon._fock_plan(n_trunc + 1, support(stacks)))


def cold_plan_ms(n_trunc, stacks, builds=5):
    """Best ms of builds cold _fock_plan builds for the support of stacks."""
    from cvdistill import fock_recon

    monomials, times = support(stacks), []
    for _ in range(builds):
        fock_recon._fock_plan.cache_clear()
        start = time.perf_counter()
        fock_recon._fock_plan(n_trunc + 1, monomials)
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


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
    for name, info in package_caches():
        print(f"cache {name} after both sweeps: {info.hits} hits, {info.misses} misses")
    inputs = fock_inputs()
    for label, kernels, n_trunc, stacks in inputs:
        ms, size = fock_layer(kernels, n_trunc, stacks)
        print(f"fock_matrices {label}: median {ms:.2f} ms, plan {size / 2 ** 20:.2f} MiB")
    for label, kernels, n_trunc, stacks in inputs[::2]:
        print(f"_fock_plan cold, {label}'s support: best {cold_plan_ms(n_trunc, stacks):.2f} ms")


if __name__ == "__main__":
    main()

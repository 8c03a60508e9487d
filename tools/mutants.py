"""Mutation score of the test suite on one module, with the standard library only.

Run from the repository root:

    python tools/mutants.py src/tracelab/ineq.py --sample 40 --seed 0

The script lists the module's mutation sites: arithmetic operators (+ and -,
* and / swap), comparison operators (< and <=, > and >=, == and != swap) and
nonzero float constants (scaled by 1.5).  It draws a seeded sample of them,
and for each one writes the mutated module into a temporary copy of the
repository and runs `python -m pytest -x -q tests` there.  A mutant is killed
when the suite fails or times out.  It prints killed/total and the surviving
sites.  The checkout it reads is never modified.

Each suite run may map at most MEMORY_LIMIT_BYTES (1 GiB) of address space
(RLIMIT_AS).  The unmutated suite peaks at about 180 MiB (VmPeak, one BLAS
thread), so only a mutant that allocates without bound reaches the limit; its
run then fails (a MemoryError, or an abort where native code cannot allocate),
and the mutant counts as killed.

`--root` points at another checkout (for example the parent commit) so that
two trees can be scored on the same sample settings.  The suite must pass on
the unmutated module first; otherwise the script stops with exit status 2.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BINOP_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
COMPARE_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
}
CONSTANT_SCALE = 1.5
TIMEOUT_S = 600
MEMORY_LIMIT_BYTES = 1 << 30


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def sites(tree: ast.AST) -> list[tuple[int, int, str]]:
    """(node index in ast.walk order, operand index, description) of every
    mutation site; the operand index selects one operator of a chained
    comparison."""
    out = []
    for i, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.BinOp) and type(node.op) in BINOP_SWAPS:
            new = BINOP_SWAPS[type(node.op)]
            out.append((i, 0, f"line {node.lineno}: {SYMBOLS[type(node.op)]} -> {SYMBOLS[new]}"))
        elif isinstance(node, ast.Compare):
            for j, op in enumerate(node.ops):
                if type(op) in COMPARE_SWAPS:
                    new = COMPARE_SWAPS[type(op)]
                    out.append((i, j, f"line {node.lineno}: {SYMBOLS[type(op)]} -> {SYMBOLS[new]}"))
        elif isinstance(node, ast.Constant) and type(node.value) is float and node.value != 0.0:
            out.append((i, 0, f"line {node.lineno}: {node.value!r} -> {node.value * CONSTANT_SCALE!r}"))
    return out


def mutate(source: str, site: tuple[int, int, str]) -> str:
    """The module source with one site mutated (re-emitted by ast.unparse)."""
    tree = ast.parse(source)
    index, operand, _ = site
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == index)
    if isinstance(node, ast.BinOp):
        node.op = BINOP_SWAPS[type(node.op)]()
    elif isinstance(node, ast.Compare):
        node.ops[operand] = COMPARE_SWAPS[type(node.ops[operand])]()
    else:
        node.value = node.value * CONSTANT_SCALE
    return ast.unparse(tree)


def suite_passes(copy: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
    try:
        done = subprocess.run(
            cmd, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S, preexec_fn=_limit_memory
        )
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("module", help="module path relative to the checkout, e.g. src/tracelab/ineq.py")
    p.add_argument("--sample", type=int, default=40, help="mutants to run (default 40)")
    p.add_argument("--seed", type=int, default=0, help="seed of the site sample (default 0)")
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1], help="checkout to score")
    args = p.parse_args(argv)

    source = (args.root / args.module).read_text(encoding="utf-8")
    all_sites = sites(ast.parse(source))
    chosen = sorted(random.Random(args.seed).sample(all_sites, min(args.sample, len(all_sites))))
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(args.root / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / args.module
        target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        if not suite_passes(copy):
            print("the suite fails on the unmutated module; no score", file=sys.stderr)
            return 2
        survivors = []
        for n, site in enumerate(chosen, 1):
            target.write_text(mutate(source, site), encoding="utf-8")
            killed = not suite_passes(copy)
            print(f"[{n}/{len(chosen)}] {'killed' if killed else 'SURVIVED'}  {site[2]}", flush=True)
            if not killed:
                survivors.append(site[2])
    score = len(chosen) - len(survivors)
    print(f"{args.module}: {score}/{len(chosen)} killed ({len(all_sites)} sites, seed {args.seed})")
    for desc in survivors:
        print(f"  survivor: {desc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

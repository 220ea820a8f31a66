"""Table verdicts run on one thread, and no module calls BLAS.

`quantales.cli.main` caps OpenBLAS at one thread before a command body
loads numpy, unless the user set OPENBLAS_NUM_THREADS.  A child
interpreter runs `main` and reports its own thread count; its stdout and
exit code are an ordinary run's.  The cap is only free because nothing
in the library calls BLAS, which the source scan holds to.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quantales
from quantales.cli import main
from test_cli import CHAIN2_FRAME, _child_env

STATUS = Path("/proc/self/status")
# OpenBLAS starts no more threads than the process may run on
CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1)

# runs quantales.cli.main on its arguments, then prints its Threads: line
# on stderr
COUNTED = """
import sys
from quantales.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as status:
    print(next(l for l in status if l.startswith("Threads:")).split()[1],
          file=sys.stderr)
sys.exit(code)
"""

REL3_MODEL = ("MODE classical\nWORLDS w0 w1 w2\n"
              "REL alpha (w0,w1) (w1,w1) (w1,w2) (w2,w0)\nVAL p w0 w2\n")

BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot",
              "linalg"}


@pytest.fixture
def verdicts(tmp_path):
    model = tmp_path / "rel3.model"
    model.write_text(REL3_MODEL)
    frame = tmp_path / "c2.frame"
    frame.write_text(CHAIN2_FRAME)
    return {"quotient": ["quotient", str(model), "--system", "T"],
            "tensor-verify": ["tensor-verify", "--frame", str(frame)]}


def _counted(argv, blas_threads):
    env = _child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", COUNTED, *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, int(proc.stderr.splitlines()[-1])


@pytest.mark.skipif(not STATUS.exists(), reason="needs /proc/self/status")
@pytest.mark.parametrize("blas_threads", [
    None,
    pytest.param("2", marks=pytest.mark.skipif(CPUS < 2,
                                               reason="needs 2 cores")),
], ids=["default", "user-set"])
@pytest.mark.parametrize("command", ["quotient", "tensor-verify"])
def test_table_verdicts_run_on_the_threads_asked_for(verdicts, capsys,
                                                     command, blas_threads):
    argv = verdicts[command]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert _counted(argv, blas_threads) == \
        (code, out, 1 if blas_threads is None else int(blas_threads))


def _blas_calls(tree):
    'Line and text of every @ and numpy BLAS name in a module.'
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES \
                and isinstance(node.value, ast.Name) \
                and node.value.id in ("np", "numpy"):
            yield node.lineno, f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) \
                and (node.module or "").split(".")[0] == "numpy":
            names = {*node.module.split(".")[1:],
                     *(alias.name for alias in node.names)}
            if names & BLAS_NAMES:
                yield node.lineno, f"from {node.module} import ..."


def test_no_module_calls_blas():
    sources = sorted(Path(quantales.__file__).parent.glob("*.py"))
    assert sources
    calls = [f"{path.name}:{line}: {text}" for path in sources
             for line, text in _blas_calls(ast.parse(path.read_text()))]
    assert not calls, (
        "quantales.cli.main runs OpenBLAS on one thread, which would slow "
        "these BLAS calls; revisit that setting before adding them: "
        + ", ".join(calls))

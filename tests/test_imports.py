"""Each command imports only the modules it runs.

`eval`, `valid` and `axioms` on relation and groupoid documents, and
`sweep`, work on bitmask codes alone: they run in a child interpreter
where importing numpy fails, and print what an ordinary run prints.
Importing the command line loads none of the table modules, a relation
document loads no groupoid module, and these verdicts load neither
`dataclasses` nor `inspect` nor `typing`, which no module of the
package imports.
"""

import ast
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import quantales
from quantales.cli import main
from test_cli import _child_env

# runs quantales.cli.main on its arguments with numpy made unimportable
BLOCKED = """
import sys
sys.modules["numpy"] = None
from quantales.cli import main
sys.exit(main(sys.argv[1:]))
"""

TABLE_MODULES = ("numpy", "quantales.lattice", "quantales.quantale",
                 "quantales.nucleus", "quantales.bimodal", "quantales.tensor")

WORLDS = "WORLDS w0 w1 w2 w3\n"
DOCUMENTS = {
    "classical": "MODE classical\n" + WORLDS
                 + "REL alpha (w0,w1) (w1,w2) (w2,w0) (w3,w3)\n"
                   "VAL p w0 w2\nVAL q w1\n",
    "intuitionistic": "MODE intuitionistic\n" + WORLDS
                      + "REL alpha (w0,w0) (w0,w1) (w1,w1) (w2,w2) (w3,w3)"
                        " (w2,w3)\nVAL p w1 w3\n",
    "ctl": "MODE ctl\n" + WORLDS
           + "REL alpha (w0,w1) (w1,w2) (w2,w2) (w3,w0)\nVAL p w2\n",
    "pdl": "MODE pdl\n" + WORLDS
           + "REL alpha (w0,w1)\nREL a (w0,w1) (w1,w2)\nREL b (w2,w3)\n"
             "VAL p w3\n",
}
FORMULAS = {
    "classical": ["<>p -> []q", "p \\/ ~p"],
    "intuitionistic": ["p \\/ ~p", "[]p"],
    "ctl": ["EX p", "AG (p -> EX p)"],
    "pdl": ["<a;b*>p", "~<(a u b)*>p"],
}
SWEEPS = [
    ["--worlds", "3", "--system", "S4", "--scheme", "[]p -> [][]p"],
    ["--worlds", "3", "--system", "T", "--scheme", "[]p -> [][]p"],
]


def _without_numpy(argv):
    proc = subprocess.run([sys.executable, "-c", BLOCKED, *argv],
                          capture_output=True, text=True, env=_child_env())
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("command", ["eval", "valid"])
@pytest.mark.parametrize("mode", list(DOCUMENTS))
def test_relation_documents_are_read_without_numpy(tmp_path, capsys, mode,
                                                    command):
    model = tmp_path / "m.model"
    model.write_text(DOCUMENTS[mode])
    for formula in FORMULAS[mode]:
        argv = [command, str(model), formula]
        want = _in_process(capsys, argv)
        assert want[2] == ""
        assert _without_numpy(argv) == want, formula


def _relation_document(n, seed):
    'A relation document of n worlds with a seeded point of density 0.3.'
    rng = random.Random(seed)
    worlds = [f"w{i}" for i in range(n)]
    pairs = [(u, v) for u in worlds for v in worlds if rng.random() < 0.3]
    return ("MODE classical\nWORLDS " + " ".join(worlds) + "\nREL alpha "
            + " ".join(f"({u},{v})" for u, v in pairs) + "\nVAL p w0\n")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_axioms_on_relation_documents_runs_without_numpy(tmp_path, capsys, n):
    model = tmp_path / "m.model"
    model.write_text(_relation_document(n, n))
    argv = ["axioms", str(model)]
    want = _in_process(capsys, argv)
    assert want[0] == 0 and want[1].count("CHECK") == 6
    assert _without_numpy(argv) == want


def _groupoid_documents(mode):
    """Groupoid documents in mode: S3, the pair groupoid on two objects
    beside Z2, and the 9-arrow pair groupoid on three objects, each with
    a seeded point of total support and atoms p and q."""
    out = {}
    for name in ("s3", "pair2+z2", "pair3"):
        G = gen.GROUPOIDS[name]()
        rng = random.Random(name)
        m, objects = len(G.arrows), range(len(G.objects))
        point = rng.getrandbits(m)
        for x in objects:     # an arrow out of every object, for ctl
            point |= 1 << rng.choice([g for g in range(m) if G.dom[g] == x])
        val = {atom: {x for x in objects if rng.random() < 0.5}
               for atom in "pq"}
        out[name] = gen.groupoid_document(G, mode, point, val)
    return out


@pytest.mark.parametrize("command", ["eval", "valid"])
@pytest.mark.parametrize("mode", list(DOCUMENTS))
def test_groupoid_documents_are_read_without_numpy(tmp_path, capsys, mode,
                                                   command):
    for name, text in _groupoid_documents(mode).items():
        model = tmp_path / f"{name}.model"
        model.write_text(text)
        for formula in FORMULAS[mode]:
            argv = [command, str(model), formula]
            want = _in_process(capsys, argv)
            assert want[2] == "", (name, formula)
            assert _without_numpy(argv) == want, (name, formula)


def test_axioms_on_groupoid_documents_runs_without_numpy(tmp_path, capsys):
    for name, text in _groupoid_documents("classical").items():
        model = tmp_path / f"{name}.model"
        model.write_text(text)
        argv = ["axioms", str(model)]
        want = _in_process(capsys, argv)
        assert want[1].count("CHECK") == 6, name
        assert _without_numpy(argv) == want, name


# prints, after each run of the JSON list of argument lists it is given,
# the command, its exit code and which of the table modules and
# quantales.groupoids are loaded, as its last line, on stderr
LOADED = f"""
import json, sys
from quantales.cli import main
watched = {TABLE_MODULES + ("quantales.groupoids",)!r}
runs = []
for argv in json.loads(sys.argv[1]):
    runs.append([argv[0], main(argv), sorted(set(watched) & set(sys.modules))])
print(json.dumps(runs), file=sys.stderr)
"""


def test_lazy_verdicts_load_no_table_module(tmp_path):
    # relation documents first: they load no groupoid module either
    runs = []
    for n in (1, 3, 4):
        model = tmp_path / f"rel{n}.model"
        model.write_text(_relation_document(n, n))
        runs += [["eval", str(model), "<>p"], ["valid", str(model), "p"],
                 ["axioms", str(model)]]
    model = tmp_path / "s3.model"
    model.write_text(_groupoid_documents("classical")["s3"])
    runs += [["eval", str(model), "<>p"], ["axioms", str(model)]]
    proc = subprocess.run([sys.executable, "-c", LOADED, json.dumps(runs)],
                          capture_output=True, text=True, env=_child_env())
    loaded = [(command, modules) for command, code, modules
              in json.loads(proc.stderr.splitlines()[-1]) if code != 2]
    groupoids = ["quantales.groupoids"]
    assert loaded == [(command, []) for command in ("eval", "valid",
                                                    "axioms") * 3] + \
        [("eval", groupoids), ("axioms", groupoids)]


@pytest.mark.parametrize("argv", SWEEPS, ids=["pass", "fail"])
def test_sweep_runs_without_numpy(capsys, argv):
    want = _in_process(capsys, ["sweep", *argv])
    assert want[0] == (0 if argv[3] == "S4" else 1)
    assert _without_numpy(["sweep", *argv]) == want


def test_the_command_line_loads_no_table_module():
    watched = TABLE_MODULES + ("quantales.axioms", "quantales.groupoids")
    probe = ("import sys, quantales.cli\n"
             f"print(sorted(set({watched!r}) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Started with -S, so that site preloads nothing: prints the watched
# modules loaded after importing the command line and after each run of
# the JSON list of argument lists it is given, as its last line, on stderr.
WATCHED = ("dataclasses", "inspect", "typing")
STAGES = f"""
import json, sys
loaded = lambda: sorted(set({WATCHED!r}) & set(sys.modules))
stages = [["start", loaded()]]
from quantales.cli import main
stages.append(["import", loaded()])
for argv in json.loads(sys.argv[1]):
    stages.append([argv[0], main(argv), loaded()])
print(json.dumps(stages), file=sys.stderr)
"""


def test_verdicts_load_no_dataclasses_inspect_or_typing(tmp_path):
    model = tmp_path / "m.model"
    model.write_text(DOCUMENTS["classical"])
    big = tmp_path / "big.model"
    big.write_text(_relation_document(6, 6))
    runs = [["eval", str(model), "<>p -> []q"],
            ["valid", str(model), "p \\/ ~p"],
            ["sweep", *SWEEPS[0]],
            ["axioms", str(big)]]
    proc = subprocess.run([sys.executable, "-S", "-c", STAGES,
                           json.dumps(runs)],
                          capture_output=True, text=True, env=_child_env())
    stages = json.loads(proc.stderr.splitlines()[-1])
    assert stages == [["start", []], ["import", []], ["eval", 0, []],
                      ["valid", 0, []], ["sweep", 0, []], ["axioms", 0, []]]
    assert proc.stdout.count("CHECK") == 6 and "SWEEP PASS" in proc.stdout


def test_no_module_imports_dataclasses_or_typing():
    # records derive from errors.Record, and annotations take their names
    # from collections.abc: either module costs every verdict start-up time
    sources = sorted(Path(quantales.__file__).parent.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] in ("dataclasses", "typing")]
    assert found == []

"""End-to-end runs of the command-line driver."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quantales
import quantales.cli
import quantales.quantale
from quantales.cli import main
from quantales.parsing import MAX_DEPTH

EQUIV_MODEL = """
MODE classical
WORLDS 0 1
REL alpha (0,0) (0,1) (1,0) (1,1)
VAL p 0
VAL q 1
"""

CTL_MODEL = """
MODE ctl
WORLDS 0 1
REL alpha (0,1) (1,1)
VAL p 1
"""

Z2_MODEL = """
MODE classical
OBJECTS x
ARROWS e x x
ARROWS g x x
COMP e e e
COMP e g g
COMP g e g
COMP g g e
INV g g
POINT g
VAL p x
"""

CHAIN2_FRAME = "ELEMENTS bot top\nLEQ (bot,top)\n"
DIAMOND_FRAME = "ELEMENTS b x y t\nLEQ (b,x) (b,y) (x,t) (y,t)\n"

S5_SCHEME = "<>p /\\ q -> <>(p /\\ <>q)"

# Z/10: one arrow more than a groupoid document may have
Z10_MODEL = "\n".join(
    ["MODE classical", "OBJECTS x"]
    + [f"ARROWS g{i} x x" for i in range(10)]
    + [f"COMP g{i} g{j} g{(i + j) % 10}" for i in range(10) for j in range(10)]
    + [f"INV g{i} g{-i % 10}" for i in range(1, 5)]
    + ["POINT g1", "VAL p x", ""])


@pytest.fixture
def files(tmp_path):
    def save(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return save


def run(capsys, *argv):
    """Run the driver and hold it to the exit-code contract.

    When the report completes (nothing on stderr), status 0 must mean
    exactly that no FAIL or INVALID line was printed.
    """
    code = main(list(argv))
    out, err = capsys.readouterr()
    if not err:
        bad = "FAIL" in out or "INVALID" in out
        assert (code == 0) == (not bad)
    return code, out, err


def test_valid_on_the_equivalence_model(files, capsys):
    code, out, _ = run(capsys, "valid", files("m.model", EQUIV_MODEL),
                       S5_SCHEME)
    assert code == 0 and out == "VALID\n"


def test_eval_prints_the_satisfying_worlds(files, capsys):
    code, out, _ = run(capsys, "eval", files("m.model", CTL_MODEL), "EG p")
    assert code == 0 and out == "{1}\n"
    code, out, _ = run(capsys, "eval", files("m.model", CTL_MODEL), "EF p")
    assert code == 0 and out == "{0, 1}\n"


def test_invalid_names_a_countermodel_world(files, capsys):
    model = files("m.model", "MODE classical\nWORLDS 0 1\n"
                            "REL alpha (0,1)\nVAL p 1\n")
    code, out, _ = run(capsys, "valid", model, "p \\/ ~p")
    assert code == 0
    code, out, _ = run(capsys, "valid", model, "p")
    assert code == 1 and out == "INVALID at 0\n"


def test_axioms_report(files, capsys):
    code, out, _ = run(capsys, "axioms", files("m.model", EQUIV_MODEL))
    assert code == 0
    lines = out.splitlines()
    checks = [l for l in lines if l.startswith("CHECK")]
    assert len(checks) == 6 and all(l.endswith("PASS") for l in checks)
    assert "CHECK conjugacy PASS" in lines
    assert "FLAG reflexive YES" in lines
    assert "FLAG symmetric YES" in lines
    assert "FLAG total-support YES" in lines


def test_axioms_flags_follow_the_point(files, capsys):
    code, out, _ = run(capsys, "axioms", files("m.model", CTL_MODEL))
    assert code == 0
    assert "FLAG reflexive NO" in out
    assert "FLAG transitive YES" in out
    assert "FLAG symmetric NO" in out
    assert "FLAG total-support YES" in out


def test_axioms_samples_larger_documents(files, capsys):
    model = files("m.model", "MODE classical\nWORLDS a b c d\n"
                             "REL alpha (a,b) (b,a) (c,d)\nVAL p a\n")
    code, out, _ = run(capsys, "axioms", model)
    assert code == 0
    assert "CHECK support-stable PASS" in out
    assert "FLAG total-support NO" in out


def test_quotient_report(files, capsys):
    code, out, _ = run(capsys, "quotient", files("m.model", CTL_MODEL),
                       "--system", "S4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "CHECK nucleus PASS"
    assert lines[1] == "CHECK quotient PASS"
    assert lines[2].startswith("INFO closed ")
    assert "FLAG reflexive YES" in lines
    assert "FLAG transitive YES" in lines


def test_quotient_of_the_equivalence_model_keeps_its_point(files, capsys):
    code, out, _ = run(capsys, "quotient", files("m.model", EQUIV_MODEL),
                       "--system", "S5")
    assert code == 0
    assert "FLAG symmetric YES" in out


def test_s5_quotient_of_a_three_world_loop_collapses(files, capsys):
    # T alone already leaves one closed element on this shape; S5 adds
    # generating pairs, so it can close no more, and top is always closed
    model = files("m.model", "MODE classical\nWORLDS a b c\n"
                             "REL alpha (a,a)\nVAL p a\n")
    code, out, _ = run(capsys, "quotient", model, "--system", "S5")
    assert code == 0
    assert "INFO closed 1 of 512" in out.splitlines()


def test_quotient_needs_a_small_relation_document(files, capsys):
    model = files("m.model", "MODE classical\nWORLDS a b c d\n"
                             "REL alpha (a,a) (b,b) (c,c) (d,d)\n")
    code, out, err = run(capsys, "quotient", model, "--system", "T")
    assert code == 2 and out == ""
    assert err.startswith("ERROR:")


def test_quotient_accepts_groupoid_documents(files, capsys):
    code, out, _ = run(capsys, "quotient", files("m.model", Z2_MODEL),
                       "--system", "S5")
    assert code == 0
    assert "CHECK quotient PASS" in out


def test_groupoid_document_via_eval(files, capsys):
    code, out, _ = run(capsys, "eval", files("m.model", Z2_MODEL), "<>p")
    assert code == 0 and out == "{x}\n"
    code, out, _ = run(capsys, "axioms", files("m.model", Z2_MODEL))
    assert code == 0 and "FLAG symmetric YES" in out


REPEATED_VAL_MODEL = """
MODE classical
WORLDS u v w
REL alpha (u,v) (v,w) (w,w)
VAL p {members}
VAL q v
"""


@pytest.mark.parametrize("command,formula", [
    ("eval", "p"), ("eval", "<>p"), ("eval", "p | []q"),
    ("valid", "p -> <>p"), ("valid", "p | ~p")])
def test_a_valuation_that_repeats_a_world_reads_as_the_set(files, capsys,
                                                           command, formula):
    once = files("once.model", REPEATED_VAL_MODEL.format(members="u w"))
    twice = files("twice.model", REPEATED_VAL_MODEL.format(members="u w u w"))
    assert run(capsys, command, twice, formula) == \
        run(capsys, command, once, formula)


def test_tensor_verify_covers_every_conjugate_pair(files, capsys):
    code, out, _ = run(capsys, "tensor-verify",
                       "--frame", files("c2.frame", CHAIN2_FRAME))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "INFO conjugate-pairs 2"
    assert sum(l.startswith("PAIR") for l in lines) == 2
    assert all(l.endswith("PASS") for l in lines if l.startswith("LAW"))
    assert "LAW s5-exchange PASS" in lines
    assert "LAW stability PASS" in lines


def test_tensor_verify_on_the_diamond_frame(files, capsys):
    code, out, _ = run(capsys, "tensor-verify",
                       "--frame", files("d.frame", DIAMOND_FRAME))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "INFO conjugate-pairs 16"
    assert sum(l.startswith("PAIR") for l in lines) == 16
    assert not any("FAIL" in l for l in lines)


def test_tensor_verify_on_the_one_element_frame(files, capsys):
    code, out, err = run(capsys, "tensor-verify",
                         "--frame", files("one.frame", "ELEMENTS 0\n"))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "INFO conjugate-pairs 1"
    assert sum(l.startswith("PAIR") for l in lines) == 1
    laws = [l for l in lines if l.startswith("LAW")]
    assert len(laws) == 15 and all(l.endswith(" PASS") for l in laws)


def test_tensor_verify_reports_depth_exhaustion(files, capsys):
    code, out, err = run(capsys, "tensor-verify",
                         "--frame", files("c2.frame", CHAIN2_FRAME),
                         "--depth", "3")
    assert code == 1
    assert err.startswith("ERROR:")


def test_tensor_verify_rejects_a_non_lattice_sketch(files, capsys):
    code, _, err = run(capsys, "tensor-verify",
                       "--frame", files("bad.frame", "ELEMENTS a b\n"))
    assert code == 1 and err.startswith("ERROR:")


def test_sweep_passes_sound_schemes(capsys):
    code, out, _ = run(capsys, "sweep", "--worlds", "2", "--system", "T",
                       "--scheme", "[]p -> p")
    assert code == 0 and out == "SWEEP PASS models=18\n"
    code, out, _ = run(capsys, "sweep", "--worlds", "3", "--system", "S5",
                       "--scheme", "p -> []<>p")
    assert code == 0 and out.startswith("SWEEP PASS models=")


def test_sweep_finds_the_classic_countermodel(capsys):
    code, out, _ = run(capsys, "sweep", "--worlds", "3", "--system", "T",
                       "--scheme", "[]p -> [][]p")
    assert code == 1
    assert out.splitlines()[0].startswith("INFO worlds=3 alpha=")
    assert out.splitlines()[-1] == "SWEEP FAIL"


def test_frontend_problems_exit_2(files, capsys):
    model = files("m.model", CTL_MODEL)
    code, _, err = run(capsys, "eval", model, "EX (")
    assert code == 2 and "line 1" in err
    code, _, err = run(capsys, "eval", model, "<>p")
    assert code == 2 and "ERROR:" in err
    code, _, err = run(capsys, "eval", str(model) + ".missing", "p")
    assert code == 2 and "cannot read" in err
    code, _, err = run(capsys, "eval", files("bad.model", "MODE ctl\n"), "p")
    assert code == 2


def test_a_model_that_is_not_utf8_exits_2(tmp_path, capsys):
    model = tmp_path / "bad.model"
    model.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "eval", str(model), "p")
    assert (code, out) == (2, "")
    assert err == f"ERROR: cannot read {model}: not UTF-8 text\n"


def test_a_frame_that_is_not_utf8_exits_2(tmp_path, capsys):
    frame = tmp_path / "bad.txt"
    frame.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "tensor-verify", "--frame", str(frame))
    assert (code, out) == (2, "")
    assert err == f"ERROR: cannot read {frame}: not UTF-8 text\n"


def test_semantic_problems_exit_1(files, capsys):
    dead_end = files("m.model", "MODE ctl\nWORLDS 0 1\n"
                                "REL alpha (0,1)\nVAL p 1\n")
    code, _, err = run(capsys, "eval", dead_end, "EX p")
    assert code == 1 and err.startswith("ERROR:")


def test_usage_errors_exit_2(files):
    with pytest.raises(SystemExit) as e:
        main(["quotient", "x.model"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2


def _child_env():
    'The environment of a child interpreter that imports this quantales.'
    src = str(Path(quantales.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else "")}


def test_module_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "quantales", "sweep", "--worlds", "1",
         "--system", "T", "--scheme", "[]p -> p"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout == "SWEEP PASS models=2\n"


@pytest.mark.parametrize("argv", [
    ["eval", "<>p"],
    ["axioms"],
    ["quotient", "--system", "T"],
])
def test_every_command_enforces_the_arrow_limit(files, capsys, monkeypatch,
                                                argv):
    tables = []
    real = quantales.quantale.make_quantale
    monkeypatch.setattr(quantales.quantale, "make_quantale",
                        lambda *a, **k: tables.append(a) or real(*a, **k))
    model = files("z10.model", Z10_MODEL)
    code, out, err = run(capsys, argv[0], model, *argv[1:])
    assert code == 2 and out == ""
    assert err == "ERROR: groupoid documents are limited to 9 arrows\n"
    assert tables == []


@pytest.mark.parametrize("command", [["axioms"], ["quotient", "--system", "S5"]])
def test_groupoid_quantale_is_built_once(files, capsys, monkeypatch, command):
    # every table builder in quantales.quantale ends in make_quantale;
    # quotient builds the document's table once, and axioms, which runs on
    # the lazy GroupoidQuantale, builds none
    calls = []
    real = quantales.quantale.make_quantale
    monkeypatch.setattr(quantales.quantale, "make_quantale",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    code, _, _ = run(capsys, command[0], files("m.model", Z2_MODEL),
                     *command[1:])
    assert code == 0 and len(calls) == (command[0] == "quotient")


@pytest.mark.parametrize("command", [["eval", "<>p"], ["valid", "p"]])
def test_groupoid_document_is_validated_once(files, capsys, monkeypatch,
                                             command):
    calls = []
    real = quantales.quantale.FiniteGroupoid._validate
    monkeypatch.setattr(quantales.quantale.FiniteGroupoid, "_validate",
                        lambda self: calls.append(self) or real(self))
    code, _, _ = run(capsys, command[0], files("m.model", Z2_MODEL),
                     command[1])
    assert code == 0 and len(calls) == 1


def test_invalid_evaluates_the_formula_once(files, capsys, monkeypatch):
    calls = []
    real = quantales.cli.evaluate
    monkeypatch.setattr(quantales.cli, "evaluate",
                        lambda *a: calls.append(a) or real(*a))
    model = files("m.model", "MODE classical\nWORLDS 0 1\n"
                             "REL alpha (0,1)\nVAL p 1\n")
    code, out, _ = run(capsys, "valid", model, "p")
    assert code == 1 and out == "INVALID at 0\n"
    assert len(calls) == 1


def test_tensor_verify_rejects_a_negative_depth(files, capsys):
    code, out, err = run(capsys, "tensor-verify",
                         "--frame", files("c2.frame", CHAIN2_FRAME),
                         "--depth", "-1")
    assert code == 2 and out == ""
    assert err.startswith("ERROR:") and "--depth" in err


@pytest.mark.parametrize("worlds", ["0", "-1", "6"])
def test_sweep_rejects_world_counts_outside_1_to_5(capsys, worlds):
    # "p" fails on the first 1-world model, so a missing guard shows up as
    # a quick SWEEP FAIL rather than a long run
    code, out, err = run(capsys, "sweep", "--worlds", worlds,
                         "--system", "T", "--scheme", "p")
    assert code == 2 and out == ""
    assert err.startswith("ERROR:") and "--worlds" in err


def test_a_closed_stdout_pipe_ends_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quantales", "sweep", "--worlds", "1",
             "--system", "T", "--scheme", "[]p -> p"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=_child_env())
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_cli_imports_no_private_library_names():
    tree = ast.parse(Path(quantales.cli.__file__).read_text())
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or node.module.startswith("quantales"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_cli_imports_no_numerics():
    # the CLI parses and prints; sampling and array work live in the library
    tree = ast.parse(Path(quantales.cli.__file__).read_text())
    modules = {alias.name.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and not node.level}
    assert modules & {"numpy", "random"} == set()


def test_every_traced_span_resolves():
    # perfbench/layers.py names the library functions that --trace 1 wraps
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for name in layers.TRACED:
        module, *attrs = name.split(".")
        owner = importlib.import_module(f"quantales.{module}")
        for attr in attrs:
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(name)
    assert layers.TRACED and missing == []


# --- the nesting limit ----------------------------------------------------

D = MAX_DEPTH
PDL_MODEL = ("MODE pdl\nWORLDS 0 1\nREL alpha (0,1)\nREL a (0,1) (1,1)\n"
             "VAL p 1\n")
INT_MODEL = ("MODE intuitionistic\nWORLDS 0 1\nREL alpha (0,0) (0,1) (1,1)\n"
             "VAL p 1\n")
# each mode's model, and formulas MAX_DEPTH levels deep in its connectives
AT_LIMIT = {
    "classical": (EQUIV_MODEL, ["p /\\ " * D + "p", "[]" * D + "p",
                                "p -> " * D + "q", "(" * D + "p" + ")" * D]),
    "intuitionistic": (INT_MODEL, ["~" * D + "p", "[]" * D + "p",
                                   "p -> " * D + "p", "p \\/ " * D + "p"]),
    "ctl": (CTL_MODEL, ["AG " * D + "p", "AF " * D + "p",
                        "p /\\ " * D + "p", "AX " * D + "p"]),
    "pdl": (PDL_MODEL, ["<a>" * D + "p", "<a" + "*" * (D - 1) + ">p",
                        "~" * D + "p", "p /\\ " * D + "p"]),
}
# a scheme MAX_DEPTH levels deep, valid on reflexive points
DEEP_SCHEME = "[]" * (D - 1) + "p -> p"
# runs main on each argument list of a JSON list, printing the exit codes
EACH = """
import json, sys
from quantales.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_formulas_at_the_nesting_limit_run_in_every_mode(files, capsys):
    runs = []
    for mode, (text, formulas) in AT_LIMIT.items():
        model = files(f"{mode}.model", text)
        runs += [[command, model, f] for command in ("eval", "valid")
                 for f in formulas]
    runs.append(["sweep", "--worlds", "2", "--system", "T",
                 "--scheme", DEEP_SCHEME])
    codes, outs = [], []
    for argv in runs:
        code, out, err = run(capsys, *argv)
        assert err == "" and code in (0, 1), argv
        codes.append(code)
        outs.append(out)
    assert codes[-1] == 0 and outs[-1].startswith("SWEEP PASS")
    proc = subprocess.run([sys.executable, "-c", EACH, json.dumps(runs)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.stderr == ""
    assert proc.stdout == "".join(outs) + json.dumps(codes) + "\n"


@pytest.mark.parametrize("command, mode, formula", [
    ("eval", "classical", "p /\\ " * 279 + "p"),
    ("valid", "classical", "[]" * 280 + "p"),
    ("eval", "ctl", "AG " * 280 + "p"),
    ("eval", "classical", "~" * 1000 + "p"),
], ids=["conjunction", "box", "ctl", "negation"])
def test_formulas_past_the_nesting_limit_exit_2(files, capsys, command, mode,
                                                 formula):
    model = files("m.model", AT_LIMIT[mode][0])
    code, out, err = run(capsys, command, model, formula)
    assert (code, out) == (2, "")
    assert err.startswith(f"ERROR: nested deeper than {D} levels")


def test_a_sweep_scheme_past_the_nesting_limit_exits_2(capsys):
    code, out, err = run(capsys, "sweep", "--worlds", "2", "--system", "T",
                         "--scheme", "[]" * 2000 + "p -> p")
    assert (code, out) == (2, "")
    assert err.startswith(f"ERROR: nested deeper than {D} levels")

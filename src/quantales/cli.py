"""Command-line driver.

Subcommands: eval, valid, axioms, quotient, tensor-verify, sweep.
Reports are plain lines: `CHECK <name> PASS|FAIL`, `LAW <name>
PASS|FAIL`, `FLAG <property> YES|NO`, `INFO ...`.  Exit status 0 means
no FAIL/INVALID line was printed, 1 means at least one, 2 means the
input could not be used at all.

Each command imports the modules it runs: eval, valid, axioms and sweep
load neither numpy nor the table modules, as they run on the lazy
quantales of parsing.document_quantale; axioms adds quantales.axioms, a
groupoid document quantales.groupoids, and only quotient builds a table.

No command calls BLAS, so main caps OpenBLAS at one thread before a
command body can load numpy: a table verdict then runs on one thread,
without the OpenBLAS workers that numpy starts and that spin waiting for
work.  An OPENBLAS_NUM_THREADS the user has set wins; importing the
library outside main leaves numpy's threads as they are.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from pathlib import Path

from .errors import AlgebraError, FrontendError, ModelFormatError
from .formulas import Mode, atoms_of
from .parsing import (
    build,
    document_quantale,
    document_table,
    parse_formula,
    parse_frame,
    parse_model,
    world_elements,
)
from .relations import (
    MODAL_SYSTEMS,
    RelationQuantale,
    check_point_properties,
    decode,
    pair_bit,
    system_classes,
    system_pairs,
)
from .semantics import PointedModel, evaluate, validity_test


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ModelFormatError(f"cannot read {path}: not UTF-8 text") from None


def _evaluate(args):
    'The model quantale, the formula value, and the named world atoms.'
    doc = parse_model(_read(args.model))
    model = build(doc)
    value = evaluate(model, parse_formula(args.formula, doc.mode))
    return model.quantale, value, world_elements(doc)


def _cmd_eval(args):
    q, value, worlds = _evaluate(args)
    names = [name for name, u in worlds if q.leq(u, value)]
    print("{" + ", ".join(names) + "}")
    return 0


def _cmd_valid(args):
    q, value, worlds = _evaluate(args)
    if value == q.unit:
        print("VALID")
        return 0
    for name, u in worlds:
        if not q.leq(u, value):
            print(f"INVALID at {name}")
            return 1
    print("INVALID")
    return 1


# --- axioms ---------------------------------------------------------------

def _print_flags(q, alpha):
    flags = check_point_properties(q, alpha)
    for name in ("reflexive", "transitive", "symmetric", "total_support"):
        word = "YES" if getattr(flags, name) else "NO"
        print(f"FLAG {name.replace('_', '-')} {word}")


def _cmd_axioms(args):
    from .axioms import check_point_diamonds, support_law_witnesses
    alpha, q = document_quantale(parse_model(_read(args.model)))
    failed = False
    for name, witness in support_law_witnesses(q, alpha):
        if witness is None:
            print(f"CHECK {name} PASS")
        else:
            failed = True
            print(f"CHECK {name} FAIL at {witness}")
    try:
        check_point_diamonds(q, alpha)
        print("CHECK conjugacy PASS")
    except AlgebraError as exc:
        failed = True
        print(f"CHECK conjugacy FAIL {exc}")
    _print_flags(q, alpha)
    return 1 if failed else 0


# --- quotient -------------------------------------------------------------

def _cmd_quotient(args):
    from .nucleus import least_nucleus, quotient
    alpha, q = document_table(parse_model(_read(args.model)))
    # least_nucleus raises unless the nucleus and its pairs check out
    nuc = least_nucleus(q, system_pairs(q, alpha, args.system))
    print("CHECK nucleus PASS")
    try:
        quot = quotient(q, nuc)
        print("CHECK quotient PASS")
    except AlgebraError as exc:
        print(f"CHECK quotient FAIL {exc}")
        return 1
    print(f"INFO closed {quot.quantale.n} of {q.n}")
    _print_flags(quot.quantale, quot.projection[alpha])
    return 0


# --- tensor-verify --------------------------------------------------------

def _cmd_tensor_verify(args):
    from .bimodal import conjugate_pairs
    from .tensor import (SampleGrids, TensorAlgebra,
                         check_lemmaB_inequalities, check_presupport_laws,
                         law_lines)
    if args.depth < 0:
        raise FrontendError("--depth must be at least 0")
    frame = parse_frame(_read(args.frame))
    algebra = TensorAlgebra(frame, depth=args.depth)
    pairs = list(conjugate_pairs(frame))
    print(f"INFO conjugate-pairs {len(pairs)}")
    grids = SampleGrids(algebra)    # the samples and grids of every pair
    labels = lambda t: ",".join(str(frame.label(v)) for v in t)
    failed = False
    for i, (dia, bdia) in enumerate(pairs, 1):
        print(f"PAIR {i}/{len(pairs)} dia=[{labels(dia)}] bdia=[{labels(bdia)}]")
        results = check_presupport_laws(algebra, dia, bdia, grids)
        results += check_lemmaB_inequalities(algebra, dia, bdia, grids)
        for line in law_lines(results):
            print(line)
        failed = failed or not all(r.ok for r in results)
    return 1 if failed else 0


# --- sweep ----------------------------------------------------------------

_SWEEP_WORLDS = 5     # T alone has 1,540,944 classes of points at 6 worlds


def _cmd_sweep(args):
    if not 1 <= args.worlds <= _SWEEP_WORLDS:
        raise FrontendError(f"--worlds must be between 1 and {_SWEEP_WORLDS}")
    scheme = parse_formula(args.scheme, Mode.CLASSICAL)
    valid = validity_test(scheme, Mode.CLASSICAL)
    atoms = sorted(atoms_of(scheme))
    count = 0
    for n, classes in enumerate(system_classes(args.worlds, args.system), 1):
        worlds = tuple(str(i) for i in range(n))
        q = RelationQuantale(worlds)
        diag = q.support_elements()
        # Renaming the worlds of a point and its valuation together keeps
        # validity, and each representative is the least code of its
        # class.  So every code below the first failing representative
        # is a renaming of an earlier one, which passed, and that
        # representative's first failing valuation is the first failure
        # among all codes of the class, in the same order.
        for alpha, orbit in classes:
            # one model per point, so its diamond table is read once
            point = PointedModel(q, alpha, {}, Mode.CLASSICAL,
                                 world_atoms=worlds)
            for choice in itertools.product(diag, repeat=len(atoms)):
                if not valid(point.revalued(dict(zip(atoms, choice)))):
                    pairs = [f"({i},{j})" for i, j in sorted(decode(alpha, n))]
                    vals = {a: "{%s}" % ",".join(
                                str(i) for i in range(n)
                                if v & pair_bit(i, i, n))
                            for a, v in zip(atoms, choice)}
                    print(f"INFO worlds={n} alpha={' '.join(pairs)} "
                          + " ".join(f"{a}={s}" for a, s in vals.items()))
                    print("SWEEP FAIL")
                    return 1
            count += orbit * len(diag) ** len(atoms)
    print(f"SWEEP PASS models={count}")
    return 0


# --- driver ---------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quantales",
        description="Evaluate modal formulas over supported-quantale models "
                    "and run the algebra check suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="print the worlds satisfying a formula")
    p.add_argument("model")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("valid", help="check a formula is true everywhere")
    p.add_argument("model")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_valid)

    p = sub.add_parser("axioms", help="support laws, conjugacy, point flags")
    p.add_argument("model")
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("quotient",
                       help="least nucleus for a modal system and its quotient")
    p.add_argument("model")
    p.add_argument("--system", required=True, choices=tuple(MODAL_SYSTEMS))
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("tensor-verify",
                       help="law suites over every conjugate modality pair "
                            "of a frame")
    p.add_argument("--frame", required=True)
    p.add_argument("--depth", type=int, default=8)
    p.set_defaults(func=_cmd_tensor_verify)

    p = sub.add_parser("sweep",
                       help="exhaustive scheme validity over all points "
                            "of a modal class")
    p.add_argument("--worlds", type=int, required=True)
    p.add_argument("--system", required=True, choices=tuple(MODAL_SYSTEMS))
    p.add_argument("--scheme", required=True)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    # OpenBLAS reads this only when numpy loads, so it is set before any
    # command body imports a table module (see the module docstring)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # flush here so a closed pipe surfaces inside the try
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away; send what is left of the output (Python
        # flushes it again at exit) to devnull instead of a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except FrontendError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one quantales command with a timing span around each layer's calls.

    python3 trace_runner.py SPANS_JSON INVOCATION_ID ARGS...

Every span in `layers.TRACED` gets a timing wrapper before
`quantales.cli.main(ARGS)` runs: a function is replaced in every
`quantales.*` module namespace that binds it (including the names `cli`
imported), a class's constructor or method on the class.  A span records
its name, start, end and parent span; spans and counters stay in memory
and are written to SPANS_JSON when the command returns.  Stdout and the
exit code are the command's own.
"""

from __future__ import annotations

from array import array
import functools
import importlib
import inspect
import json
import sys
import time

import layers


class Tracer:
    """Spans as four parallel arrays: name id, parent index (-1 for none),
    start and end, in perf_counter seconds."""

    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open = [-1]
        self.counts = {}

    def count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, clock = self.open, time.perf_counter

        def enter():
            stack.append(len(start))
            name_of.append(nid)
            parent.append(stack[-2])
            end.append(0.0)
            start.append(clock())

        counter = layers.CALL_COUNTERS.get(name)
        yields = layers.YIELD_COUNTERS.get(name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # Each resumption is one span, so the consumer's own work
                # between items is not charged to the generator.
                it = fn(*args, **kwargs)
                while True:
                    enter()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        end[stack.pop()] = clock()
                    self.count(yields, 1)
                    yield value
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[stack.pop()] = clock()
            if counter:
                self.count(counter[0], counter[1](args, result))
            return result
        return wrapper

    def dump(self, path, invocation):
        'A JSON header at path, the span arrays in order at path + ".bin".'
        with open(path, "w") as fh:
            json.dump({"invocation": invocation, "names": self.names,
                       "spans": len(self.start), "counts": self.counts}, fh)
        with open(path + ".bin", "wb") as fh:
            for column in (self.name_of, self.parent, self.start, self.end):
                column.tofile(fh)


def load(path):
    'The header, with its spans as (name id, parent, start, end) columns.'
    with open(path) as fh:
        dump = json.load(fh)
    n = dump["spans"]
    columns = []
    with open(path + ".bin", "rb") as fh:
        for code in "iidd":
            column = array(code)
            column.fromfile(fh, n)
            columns.append(column)
    dump["spans"] = columns
    return dump


def install(tracer):
    importlib.import_module("quantales.cli")
    originals = {}
    for name in layers.TRACED:
        module, attr, *method = name.split(".")
        owner = getattr(importlib.import_module(f"quantales.{module}"), attr)
        if inspect.isclass(owner):
            meth = method[0] if method else "__init__"
            setattr(owner, meth, tracer.wrap(name, getattr(owner, meth)))
        else:
            originals[id(owner)] = (owner, tracer.wrap(name, owner))
    namespaces = [m for n, m in sys.modules.items()
                  if n == "quantales" or n.startswith("quantales.")]
    for mod in namespaces:
        for attr, value in list(vars(mod).items()):
            fn, wrapper = originals.get(id(value), (None, None))
            if fn is value:
                setattr(mod, attr, wrapper)
    return sys.modules["quantales.cli"]


def main():
    out_path, invocation, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    cli = install(tracer)
    try:
        rc = cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(out_path, invocation)
    return rc


if __name__ == "__main__":
    sys.exit(main())

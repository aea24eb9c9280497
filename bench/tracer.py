"""Span tracing of the qhlab CLI from outside the package.

Run as a drop-in for ``python -m qhlab.cli``::

    PYTHONPATH=src python3 bench/tracer.py SPANS.json [qhlab arguments...]

It imports ``qhlab.cli``, replaces the functions listed in ``SPANS`` by
wrappers in every ``qhlab`` namespace that bound them, runs the command, and
writes the spans it recorded to ``SPANS.json`` at exit.  The report on stdout
and the exit code are those of the untraced command.

A span is ``[name, parent, start, end]`` with ``parent`` the index of the
enclosing span (-1 for none) and times from ``time.perf_counter``.  Counters
are summed per span name and read from arguments or return values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# span name -> (module, attribute path) of every function it times.  The
# four Poly operators share one span: each call is one ring operation.
SPANS: dict[str, list[tuple[str, str]]] = {
    "cli.command": [("qhlab.cli", "cmd_invariant_dims"),
                    ("qhlab.cli", "cmd_classify_bracket"),
                    ("qhlab.cli", "cmd_reproduce"),
                    ("qhlab.cli", "cmd_model_report")],
    "cli.render": [("qhlab.cli", "render_text"), ("qhlab.cli", "render_json"),
                   ("qhlab.cli", "render_csv")],
    "models.build_model": [("qhlab.models", "build_model")],
    "models.isotropy_rep": [("qhlab.models", "isotropy_rep")],
    "models.ambient_rep": [("qhlab.models", "ambient_rep")],
    "models.verify_model": [("qhlab.models", "verify_model")],
    "models.symbolic_model": [("qhlab.models", "symbolic_model")],
    "models.maxmodel_jacobi_holds": [("qhlab.models", "maxmodel_jacobi_holds")],
    "geometry.nomizu": [("qhlab.geometry", "nomizu")],
    "geometry.curvature": [("qhlab.geometry", "curvature")],
    "geometry.classify": [("qhlab.geometry", "classify")],
    "forms.invariant_five_forms": [("qhlab.forms", "invariant_five_forms")],
    "forms.isotypic_split": [("qhlab.forms", "isotypic_split")],
    "forms.table4_row": [("qhlab.forms", "table4_row")],
    "forms.genuine_loci": [("qhlab.forms", "genuine_loci")],
    "forms.ce_differential": [("qhlab.forms", "ce_differential")],
    "forms.first_order_tests": [("qhlab.forms", "first_order_tests")],
    "forms.solve_wedge_omega": [("qhlab.forms", "solve_wedge_omega")],
    "lie.semidirect": [("qhlab.lie", "semidirect")],
    "lie.equivariant_hom": [("qhlab.lie", "equivariant_hom")],
    "lie.common_kernel": [("qhlab.lie", "common_kernel")],
    "linalg.rref": [("qhlab.linalg", "rref")],
    "linalg.nullspace": [("qhlab.linalg", "nullspace")],
    "linalg.sparse_nullspace": [("qhlab.linalg", "sparse_nullspace")],
    "poly.arith": [("qhlab.poly", "Poly.__add__"), ("qhlab.poly", "Poly.__sub__"),
                   ("qhlab.poly", "Poly.__mul__"), ("qhlab.poly", "Poly.__neg__")],
}


# span name -> {counter: f(bound arguments, return value)}.  Counts are
# summed over calls; a set-valued counter counts distinct values.
COUNTERS = {
    "geometry.curvature": {"r4_nnz": lambda b, ret: len(ret.r4),
                           "weyl_nnz": lambda b, ret: len(ret.weyl)},
    "models.isotropy_rep": {"distinct_n": lambda b, ret: {b.arguments["n"]}},
    "models.ambient_rep": {"distinct_n": lambda b, ret: {b.arguments["n"]}},
    "lie.common_kernel": {"cols": lambda b, ret: b.arguments["dim"],
                          "kernel_dim": lambda b, ret: len(ret)},
    "linalg.sparse_nullspace": {"rows": lambda b, ret: len(b.arguments["rows"]),
                                "cols": lambda b, ret: b.arguments["ncols"],
                                "kernel_dim": lambda b, ret: len(ret)},
}


class Recorder:
    """Per-process span stack and counters, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, dict] = {}

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                ret = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if counter:
                bound = sig.bind(*args, **kwargs)
                self._count(name, {k: f(bound, ret) for k, f in counter.items()})
            return ret

        traced.__wrapped_span__ = name
        return traced

    def _count(self, name: str, amounts: dict) -> None:
        slot = self.counters.setdefault(name, {})
        for key, amount in amounts.items():
            if isinstance(amount, set):
                slot.setdefault(key, set()).update(amount)
            else:
                slot[key] = slot.get(key, 0) + amount

    def dump(self, path: str) -> None:
        counters = {name: {k: len(v) if isinstance(v, set) else v for k, v in c.items()}
                    for name, c in self.counters.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": counters}, fh)


def resolve(module: str, path: str):
    """The function object at ``module.path``; ``AttributeError`` if it is gone."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"traced function {module}.{path} does not exist")
    return vars(owner)[attr]


def install(recorder: Recorder, spans: dict = SPANS):
    """Wrap every function in ``spans`` and rebind it wherever qhlab bound it.

    Every ``qhlab`` module namespace and every class in those namespaces is
    searched for the original object, so ``from .x import f`` copies and
    aliases such as ``__radd__ = __add__`` are traced too.  Raises
    ``AttributeError`` if a listed function is missing.  Returns a callable
    that restores the originals.
    """
    import qhlab.cli  # noqa: F401  (imports every qhlab module)

    replace: dict[int, tuple[object, object]] = {}
    for name, targets in spans.items():
        for module, path in targets:
            fn = resolve(module, path)
            if id(fn) not in replace:
                replace[id(fn)] = (fn, recorder.wrap(name, fn))
    namespaces = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name != "qhlab" and not mod_name.startswith("qhlab."):
            continue
        namespaces.append(mod)
        namespaces += [v for v in vars(mod).values()
                       if isinstance(v, type) and v.__module__ == mod_name]
    undo = []
    for owner in namespaces:
        for attr, value in list(vars(owner).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(owner, attr, hit[1])
                undo.append((owner, attr, value))

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    import qhlab.cli
    try:
        return qhlab.cli.main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

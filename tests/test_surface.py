"""Every public name and option of slicekit has a caller outside the tests.

The surface is read with ast from src/slicekit/*.py, which holds the CLI, and from the benchmark's bench/*.py.
A public module-level name must be used in src/ outside its own definition, or in bench/, where a name given as
a string counts too: the benchmark wraps each layer's functions by name.  An optional parameter of a public
function or method, or a field with a default of a public class, must be passed by a call in src/ or bench/: by
keyword, by position or through ``**``.  Calls are matched to definitions by the called name.  A name or option
that no code reaches is deleted, or made private with its tests following it; the few that stay are listed below,
each with its reason.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import slicekit

SRC = Path(slicekit.__file__).parent
LIBRARY = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
BENCH = [ast.parse(path.read_text()) for path in sorted((SRC.parents[1] / "bench").glob("*.py"))]

UNREACHED_NAMES = {
    "resampler.cross_attention_forward": "acceptance criterion 7 checks the resampler's invariants through it",
    "resampler.attention_weights": "acceptance criterion 7 checks that the attention rows are stochastic with it",
}
UNPASSED_OPTIONS = {
    "cli.main(argv)": "the seam through which the tests run the CLI in process",
}


def used_names(node: ast.AST, strings: bool = False) -> set[str]:
    """Identifiers that node loads, as names or attributes, and with ``strings`` its string constants."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            found.add(n.value)
    return found


def defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.AnnAssign):
        return [stmt.target.id]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    return []


def unreached_names() -> list[str]:
    outside_bench = set().union(*(used_names(tree, strings=True) for tree in BENCH))
    statements = [(module, stmt) for module, tree in LIBRARY.items() for stmt in tree.body]
    used_by = [used_names(stmt) for _, stmt in statements]
    unreached = []
    for i, (module, stmt) in enumerate(statements):
        for name in defined_names(stmt):
            elsewhere = any(name in used for j, used in enumerate(used_by) if j != i)
            if not name.startswith("_") and not elsewhere and name not in outside_bench:
                unreached.append(f"{module}.{name}")
    return unreached


def is_optional_field(stmt: ast.stmt) -> bool:
    """A class-body assignment with a default: ``dataclasses.field`` without one marks a required field."""
    value = getattr(stmt, "value", None)
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return value is not None


def optional_parameters(fn: ast.FunctionDef, skip: int) -> list[tuple[str, int | None]]:
    """(name, position after the first ``skip``, or None for keyword-only) of fn's parameters with defaults."""
    positional = fn.args.posonlyargs + fn.args.args
    with_default = positional[len(positional) - len(fn.args.defaults):]
    keyword_only = [a for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return [(a.arg, positional.index(a) - skip) for a in with_default] + [(a.arg, None) for a in keyword_only]


def options():
    """(called name, label, option, position or None) of each optional parameter and field of the public surface.

    A class's fields are the annotated assignments of its body.  So Enum classes are left out: their members, plain
    assignments, are the values of the enum, not options of a constructor.
    """
    for module, tree in LIBRARY.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                for name, position in optional_parameters(stmt, 0):
                    yield stmt.name, f"{module}.{stmt.name}({name})", name, position
            if not isinstance(stmt, ast.ClassDef) or stmt.name.startswith("_"):
                continue
            fields = [s for s in stmt.body if isinstance(s, ast.AnnAssign)]
            for position, field in enumerate(fields):
                if is_optional_field(field):
                    yield stmt.name, f"{module}.{stmt.name}({field.target.id})", field.target.id, position
            for fn in stmt.body:
                if isinstance(fn, ast.FunctionDef) and (fn.name == "__init__" or not fn.name.startswith("_")):
                    called = stmt.name if fn.name == "__init__" else fn.name
                    for name, position in optional_parameters(fn, 1):
                        yield called, f"{module}.{stmt.name}.{fn.name}({name})", name, position


def passes() -> dict[str, list[tuple[int, set[str | None]]]]:
    """Per called name, each call's (positional arguments, or a large number past a ``*``; keyword names, with None
    for a ``**``) in src/ and bench/."""
    calls: dict[str, list] = {}
    for tree in [*LIBRARY.values(), *BENCH]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(called, []).append((1 << 30 if starred else len(node.args),
                                                     {k.arg for k in node.keywords}))
    return calls


def unpassed_options() -> list[str]:
    calls = passes()
    return [label for called, label, name, position in options()
            if not any(name in keywords or None in keywords or (position is not None and position < count)
                       for count, keywords in calls.get(called, []))]


def test_every_public_name_is_reached_from_src_or_bench():
    found = unreached_names()
    assert sorted(set(found) - UNREACHED_NAMES.keys()) == []
    assert UNREACHED_NAMES.keys() <= set(found), "a listed name now has a caller: take it off the list"


def test_every_optional_parameter_is_passed_from_src_or_bench():
    found = unpassed_options()
    assert sorted(set(found) - UNPASSED_OPTIONS.keys()) == []
    assert UNPASSED_OPTIONS.keys() <= set(found), "a listed option now has a caller: take it off the list"


def test_the_scan_sees_the_surface():
    """The scan finds known options, calls and names, so that an empty result is not a scan that saw nothing."""
    labels = {label for _, label, _, _ in options()}
    assert {"verify.DistributionSpec(aspect_hi)", "cost.estimate_flops(max_slices)", "config.AppConfig(dims)",
            "probes.SyntheticScene(background)", "cli.main(argv)"} <= labels
    assert "partition.PartitionPlan(slice_rects)" not in labels  # field(repr=False) has no default
    assert not any(label.startswith("schema.Sep(") for label in labels)
    assert {"cost.MAX_COUNT", "verify.run_proof_checks"}.isdisjoint(unreached_names())


def public_callables():
    """(qualified name, callable) of every public function of each slicekit module, and of each public method and
    __init__ of its public classes: for __init__ the class itself, which a call constructs."""
    for info in pkgutil.iter_modules(slicekit.__path__, "slicekit."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                yield from ((f"{info.name}.{name}.{m}", obj if m == "__init__" else f) for m, f in vars(obj).items()
                            if inspect.isfunction(f) and (m == "__init__" or not m.startswith("_")))
            elif callable(obj):
                yield f"{info.name}.{name}", obj


def test_no_public_callable_takes_a_private_parameter():
    # a test forces a private choice by patching the function that makes it, not through a public signature
    found = dict(public_callables())
    assert {"slicekit.verify.monte_carlo_statistics", "slicekit.cli.main", "slicekit.partition.ImageSize.__init__",
            "slicekit.verify.StatReport.to_json_dict"} <= found.keys()
    private = [(name, p) for name, obj in found.items() for p in inspect.signature(obj).parameters if p.startswith("_")]
    assert private == []

"""Every int, float, ndarray or holder argument of src/slicekit's public functions, methods and dataclasses (less the
CLI, whose refusals are test_cli.py's REFUSALS, the rules, which test_counts.py pins, and the exceptions) gives a result
or one ValueError that names it.  A parameter's resolved annotation gives its kind and edge values; a call passes one
edge value, and to each other parameter SMALL's value, its default or its kind's valid value."""

import dataclasses
import inspect
import math
import signal
import sys
import types
import typing
from collections import namedtuple

import numpy as np
import pytest

from slicekit.cost import ModelDims, StackDims, load_model_dims
from slicekit.partition import ImageSize, PartitionPlan, PatchGrid, PixelRect, SliceGrid, VitSpec, select_partition
from slicekit.patches import PosEmbedGrid
from slicekit.probes import SceneObject, SliceCover, SyntheticScene, TileStarts, overlap_tile_cover
from slicekit.resampler import AttentionParams, QuerySet, TokenMatrix, init_resampler
from slicekit.verify import DistributionSpec
from test_surface import public_callables

HUGE = 10**400
PAST_STR = 10**5000  # past Python's int-to-str limit of 4300 digits
MAX = sys.float_info.max
NO_HUGE = {"count_k", "dim", "tokens_per_block"}  # an in-range value of these sizes an allocation
NAMED = "a result, or a refusal that names the argument"
UNBOUNDED = "a result, or a refusal of the argument's site"  # one by its own name would be a bound BOUNDS lacks

IMAGE, OBJECT = ImageSize(672, 1008), SceneObject("circle", "red", (50.0, 100.0), 20.0)
QUERIES, PARAMS = init_resampler(3, 2, 0)
# a small valid argument of each holder kind
HOLDERS = {
    ImageSize: IMAGE, VitSpec: VitSpec(), SliceGrid: SliceGrid(2, 3), PatchGrid: PatchGrid(2, 3),
    PixelRect: PixelRect(0, 0, 1, 1), PartitionPlan: select_partition(IMAGE, VitSpec()), StackDims: StackDims(1, 1, 1),
    ModelDims: load_model_dims(), TokenMatrix: TokenMatrix(np.ones((3, 2))), DistributionSpec: DistributionSpec(),
    QuerySet: QUERIES, AttentionParams: PARAMS, PosEmbedGrid: PosEmbedGrid(np.ones((2, 3, 2))),
    SceneObject: OBJECT, SyntheticScene: SyntheticScene(ImageSize(100, 200), (OBJECT,)),
    TileStarts: TileStarts(1000, 2), SliceCover: overlap_tile_cover(IMAGE),
}
# (axes, a valid shape, and "samples" where the function takes any number of samples of any value) of each array
# argument, by its refusal's name
ARRAYS = {"tokens": (("count", "dim"), (3, 2)), "queries": (("K", "dim"), (3, 2)),
          "w_q": (("dim", "dim"), (2, 2)), "w_k": (("dim", "dim"), (2, 2)), "w_v": (("dim", "dim"), (2, 2)),
          "position embeddings": (("rows", "cols", "dim"), (2, 3, 2)), "seq": (("tokens", "dim"), (4, 3)),
          "area_ratio": (("samples",), (3,), "samples"), "aspect": (("samples",), (3,), "samples")}
# a valid argument by parameter name, where its kind's would not do or its default would be slow
SMALL = {"q": 2, "grid_step_px": 64, "samples": 1000, "grid_density": 1000, "p2": 1, "q2": 1, "slice_lens": ((1,),),
         "strategy": "uhd", "strategy_a": "uhd", "strategy_b": "uhd", "shape": "circle", "color": "red"}
# the name a refusal gives, where it is not the parameter's
NAMES = {"resampler.TokenMatrix(values)": "tokens", "resampler.QuerySet(values)": "queries",
         "patches.PosEmbedGrid(values)": "position embeddings", "probes.SceneObject(size)": "object size",
         "probes.SceneObject(center)": "object center", "probes.SyntheticScene.scaled(factor)": "scene scale",
         "probes.phase_classify(resolution_scale)": "scene scale"}
# each parameter of none of the kinds, with why: test_every_parameter_has_a_kind fails on a new one not listed here
OTHER = {case: why for why, cases in {
    "file bytes, read by their header": "binio.grid_from_bytes(data) binio.tokens_from_bytes(data)",
    "a path, or None for the packaged file": "config.load_config(path) cost.load_model_dims(path) "
    "jsonfile.load_json_file(path)",
    "a name, looked up in its own table": "cost.estimate_flops(strategy) cost.compare_strategies(strategy_a) "
    "cost.compare_strategies(strategy_b) probes.SceneObject(shape) probes.SceneObject(color) "
    "probes.SyntheticScene(background)",
    "a field of a record the library fills": "config.AppConfig(output_format) cost.CostReport(strategy) "
    "schema.ContentToken(block_id) schema.TokenLayout(slice_lens)",
    "unannotated: an int or an int array, compared exactly": "partition.grid_index(p2) partition.grid_index(q2)",
    "a token sequence, read item by item": "schema.parse_layout(sequence) schema.render_layout(sequence) "
    "schema.summary(sequence)",
}.items() for case in cases.split()}
# the least of each int argument whose least is not 1, by its refusal's name: -1 and the integer below the least are
# refused by exact text, so an int argument of another least fails until it is listed here
LEAST = {"tokens": 0, "input_tokens": 0, "text_tokens": 0, "seed": 0, "layers": 0, "hidden_dim": 0, "ffn_dim": 0,
         "grid_density": 1000}
# (the bound it must be above, or None, and the most it takes) of each bounded float argument, by its refusal's name:
# a float argument refused by its name at another edge value fails until its bounds are listed here
BOUNDS = {"object size": (0, MAX), "scene scale": (0, MAX), "aspect_w": (0, MAX), "aspect_h": (0, MAX),
          "object center": (None, MAX), "eps": (0, 0.001), "area_ratio_hi": (None, 1023), "aspect_hi": (None, 1e6)}
# the start of each refusal a callable gives for several of its arguments together, naming none of them
SITE = {"partition.fit_patch_grid": ("degenerate slice: ",), "resampler.check_fd_work": ("grad_check at K=",),
        "partition.VitSpec": ("pretraining resolution must be a multiple of the patch size",),
        **dict.fromkeys(("partition.select_partition", "cost.estimate_flops", "cost.compare_strategies"),
                        ("672x1008 would be cut into ",)),
        "verify.DistributionSpec": ("area ratio range must be positive", "aspect range must be >= 1 and non-empty"),
        "verify.slice_statistics": ("aspect must be of area_ratio's shape ",)}
# the exact refusal of a value that a site refuses for a reason of its own, by case id
EXACT = {
    "resampler.AttentionParams(w_q)=shape (3, 3)": "w_k must be square with matching dim",
    "resampler.AttentionParams(w_q)=shape (2, 3)": "w_q must be square with matching dim",
    "resampler.AttentionParams(w_k)=shape (3, 3)": "w_k must be square with matching dim",
    "resampler.AttentionParams(w_v)=shape (3, 3)": "w_v must be square with matching dim",
    "resampler.AttentionParams(w_v)=shape (2, 1)": "w_v must be square with matching dim",
    "patches.reshape_pos_embed_1d_to_2d(seq)=shape (5, 3)": "q must be the square root of the sequence length 5, got 2",
    "patches.reshape_pos_embed_1d_to_2d(seq)=shape (5, 4)": "q must be the square root of the sequence length 5, got 2",
    "patches.reshape_pos_embed_1d_to_2d(seq)=shape (1, 3)": "q must be <= 1, got 2",
    **dict.fromkeys(("cost.StackDims(layers)=-1", "cost.StackDims(hidden_dim)=-1", "cost.StackDims(ffn_dim)=-1"),
                    "stack dims must be non-negative"),
    **dict.fromkeys(("verify.slice_statistics(area_ratio)=nan", "verify.slice_statistics(area_ratio)=inf"),
                    "slice count must be >= 1"),
}
Param = namedtuple("Param", "name refused_as kind cls optional default")


def param(label: str, p: inspect.Parameter, annotation) -> Param:
    """Kind int, float, np.ndarray, "holder", list or tuple (of holders), "pair" (of floats), or None for another."""
    optional = isinstance(annotation, types.UnionType) and type(None) in typing.get_args(annotation)
    if optional:
        annotation = next(a for a in typing.get_args(annotation) if a is not type(None))
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    cls = args[0] if args else annotation
    kind = {int: int, float: float, np.ndarray: np.ndarray, tuple[float, float]: "pair"}.get(annotation)
    if annotation in HOLDERS:
        kind = "holder"
    elif origin in (list, tuple) and cls in HOLDERS and args[1:] in ((), (...,)):
        kind = origin
    return Param(p.name, NAMES.get(f"{label}({p.name})", p.name), kind, cls, optional, p.default)


def inventory():
    """(label, callable, whether it is a record, its Params) of each public callable the cases cover."""
    for qualified, obj in public_callables():
        module, *rest = qualified.removeprefix("slicekit.").removesuffix(".__init__").split(".")
        if module in ("cli", "counts", "arrays") or isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        if len(rest) == 2:  # a method, called on the holder of its class if it takes an argument
            if list(inspect.signature(obj).parameters) == ["self"]:
                continue
            obj = obj.__get__(HOLDERS[getattr(sys.modules[obj.__module__], rest[0])])
        label, hints = ".".join((module, *rest)), typing.get_type_hints(obj)
        record = dataclasses.is_dataclass(obj) and not hasattr(obj, "__post_init__")
        yield label, obj, record, [param(label, p, hints.get(p.name))
                                   for p in inspect.signature(obj).parameters.values()]


INVENTORY = list(inventory())


def shown(value) -> str:
    return {HUGE: "400 digits", PAST_STR: "5000 digits"}[value] if value in (HUGE, PAST_STR) else repr(value)


# Each edge generator yields (group, label, value, want) for one parameter.  The group is "refused" for a value that
# its kind's rule refuses whatever the argument's bounds, "taken" for one the call must take, or None for a value that
# is a case of its own.  want is the exact refusal, None for a result, NAMED or UNBOUNDED.

def int_edges(case: str, p: Param):
    name, least = p.refused_as, LEAST.get(p.refused_as, 1)
    not_integers = [True, np.True_, 1.5, 2.0, np.float64(2.0), "3", math.nan, math.inf]
    if not p.optional:
        not_integers.append(None)
    for v in not_integers:
        yield "refused", repr(v), v, f"{name} must be an integer, got {v!r}"
    for v in sorted({-1, 0, least - 1, least}):
        if v < least:
            yield None, str(v), v, EXACT.get(f"{case}={v}", f"{name} must be >= {least}, got {v}")
        else:
            yield None, str(v), v, NAMED
    integers = [np.int64(3)] if name in NO_HUGE else [np.int64(3), HUGE, PAST_STR]
    for v in integers:
        yield None, shown(v), v, NAMED


def float_edges(case: str, p: Param):
    name = p.refused_as
    above, most = BOUNDS.get(name, (None, None))
    for v in (True, np.True_, "3", [1.0], 1j, None):
        yield "refused", repr(v), v, f"{name} must be a real number, got {v!r}"
    for v in (math.nan, math.inf, -math.inf):
        yield "refused", repr(v), v, f"{name} must be finite, got {v}"
    for v in (0, 0.0, -1.0, -2.5, 1e-2, HUGE, PAST_STR):
        got = "<int too long to print>" if v is PAST_STR else v
        if above is not None and v <= above:
            yield None, shown(v), v, f"{name} must be > {above}, got {got}"
        elif most is not None and v > most:
            yield None, shown(v), v, f"{name} must be <= {most}, got {got}"
        else:
            yield None, shown(v), v, UNBOUNDED


def pair_edges(case: str, p: Param):
    """Each float edge value as either entry of the pair, the other 14.0."""
    for group, label, v, want in float_edges(case, p):
        yield group, f"[0]={label}", (v, 14.0), want
        yield group, f"[1]={label}", (14.0, v), want


def array_edges(case: str, p: Param):
    name = p.refused_as
    axes, shape, *samples = ARRAYS[name]
    ones = np.ones(shape)
    not_arrays = [("list", ones.tolist()), ("tuple", tuple(ones.tolist())), ("NoneType", None), ("float", 1.0),
                  ("float64", np.float64(1.0))]
    not_arrays += [(f"dtype {np.dtype(d)}", np.ones(shape, d)) for d in (bool, complex, object, "<U1")]
    for got, v in not_arrays:
        yield "refused", got, v, f"{name} must be an array of real numbers, got {got}"
    off_shape = [("0-d", ()), ("one axis fewer", shape[:-1]), ("one axis more", (*shape, 1))]
    off_shape += [(f"axis {i} empty", (*shape[:i], 0, *shape[i + 1:])) for i in range(len(shape))]
    off_shape.append(("every axis empty", (0,) * len(shape)))
    for label, bad in off_shape:
        if samples and len(bad) == len(shape):  # no samples
            yield None, label, np.ones(bad), NAMED
        else:
            must = f"must have shape ({', '.join(axes)}){'' if samples else ' with no empty axis'}"
            yield "refused", label, np.ones(bad), f"{name} {must}, got {bad}"
    for v in (math.nan, math.inf, -math.inf):
        a = ones.copy()
        a.flat[-1] = v
        if samples:
            yield None, repr(v), a, EXACT.get(f"{case}={v!r}", NAMED)
        else:
            yield "refused", repr(v), a, f"{name} must be finite"
    for dtype in (np.int8, np.uint16, np.int64, np.float32, np.float64):
        yield "taken", dtype.__name__, np.arange(1, math.prod(shape) + 1, dtype=dtype).reshape(shape), None
    near = {tuple(n + 1 for n in shape)}  # each axis at length 1 or one longer, or all one longer
    for i in range(len(shape)):
        near |= {(*shape[:i], 1, *shape[i + 1:]), (*shape[:i], shape[i] + 1, *shape[i + 1:])}
    for s in sorted(near - {shape}):
        yield None, f"shape {s}", np.ones(s), EXACT.get(f"{case}=shape {s}", NAMED)


def holder_edges(case: str, p: Param):
    """A list, a tuple, None, a bare array and a holder of another kind, as the argument and, where it takes a list or
    tuple of holders, as its element."""
    name, kind = p.refused_as, p.cls.__name__
    another = HOLDERS[VitSpec] if p.cls is ImageSize else IMAGE
    a_kind = f"{'an' if kind[0] in 'AEIOU' else 'a'} {kind}"
    bad = [[[1.0]], (672, 1008), None, np.ones(2), another]
    if p.kind == "holder":
        for v in bad:
            if v is not None or not p.optional:
                yield "refused", type(v).__name__, v, f"{name} must be {a_kind}, got {type(v).__name__}"
        return
    for v in (None, np.ones((2, 2)), HOLDERS[p.cls], another):
        yield "refused", type(v).__name__, v, f"{name} must be a list or tuple of {kind}, got {type(v).__name__}"
    for v in bad:
        yield "refused", f"[{type(v).__name__}]", p.kind((v,)), f"{name}[0] must be {a_kind}, got {type(v).__name__}"


EDGES = {int: int_edges, float: float_edges, "pair": pair_edges, np.ndarray: array_edges, "holder": holder_edges,
         list: holder_edges, tuple: holder_edges}


def valid(p: Param):
    """SMALL's value for the parameter, else its default, else a valid value of its kind."""
    if p.name in SMALL:
        return SMALL[p.name]
    if p.default is not inspect.Parameter.empty:
        return p.default
    if p.kind is np.ndarray:
        return np.ones(ARRAYS[p.refused_as][1])
    if p.kind in (list, tuple):
        return p.kind((HOLDERS[p.cls],))
    return {int: 1, float: 14.0, "pair": (14.0, 14.0), "holder": HOLDERS.get(p.cls)}[p.kind]


def outcome(call):
    """The call's ValueError text, or None if it returned; any other error, or a call still running after 1 s, fails."""
    def too_slow(signum, frame):
        raise TimeoutError("still running after 1 s")

    signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        call()
    except ValueError as e:
        return str(e)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def cases():
    for label, call, record, params in INVENTORY:
        for i, p in enumerate(params):
            if p.kind is None:
                continue
            groups = {}
            for group, *edge in EDGES[p.kind](f"{label}({p.name})", p):
                groups.setdefault(group or edge[0], []).append(edge)
            for group, edges in groups.items():
                yield pytest.param(label, call, record, params, i, edges, id=f"{label}({p.name})={group}")


@pytest.mark.parametrize("label, call, record, params, i, edges", cases())
def test_an_argument_gives_a_result_or_one_refusal_that_names_it(label, call, record, params, i, edges):
    others = {q.name: valid(q) for q in params if q is not params[i]}
    names_it = (f"{params[i].refused_as} must be ", *SITE.get(label, ()))
    for value_label, value, want in edges:
        got = outcome(lambda: call(**others, **{params[i].name: value}))
        if got is None and record:
            continue  # a dataclass without __post_init__ holds what it is given
        if want is NAMED:
            assert got is None or got.startswith(names_it), (value_label, got)
        elif want is UNBOUNDED:
            assert got is None or got.startswith(SITE.get(label, ())), (value_label, got, "list its bounds in BOUNDS?")
        else:
            assert got == want, (value_label, got)


def test_every_parameter_has_a_kind():
    found = {f"{label}({p.name})" for label, _, _, params in INVENTORY for p in params if p.kind is None}
    assert sorted(found - OTHER.keys()) == [], "a parameter of no kind: give it one, or list it in OTHER with why"
    assert sorted(OTHER.keys() - found) == [], "a listed parameter is gone or has a kind: take it off OTHER"

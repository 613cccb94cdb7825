"""Body-compiler correctness: equivalence, fallbacks, caching, shipping.

Two families of guarantees:

* every compiled kernel is element-for-element identical to running the
  scalar body in a loop — across ints, floats, NaN, bools, tuple
  records, field records and the empty batch;
* every body outside the subset falls back to the scalar path with a
  named reason in the OptReport, and the run's outputs are unchanged.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle

import pytest

from repro.core.config import ExecConfig
from repro.core.graph import Farm, GraphError, StageSpec, linear_graph
from repro.core.items import Multi
from repro.core.opt import bodycomp_stats, kernel_cache_stats, try_compile_spec
from repro.core.opt.bodycomp import UnsupportedConstruct, compile_body
from repro.core.plan import build_plan
from repro.core.run import execute
from repro.core.stage import FunctionStage, IterSource, Stage

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


# --- scalar bodies under test (module level: source + pickling) -------

BIAS = 3.5


def arith(item):
    return (item * 3 - 1) / 2 + item % 5


def int_ops(item):
    return ((item & 0xF) ^ (item << 2)) - (item >> 1) + (~item // 3)


def mathy(item):
    t = item / 16.0
    s = math.sqrt(t) if t >= 0 else 0.0
    return math.exp(-s) + math.log(1.0 + abs(item)) + math.floor(t)


def builtins_mix(item):
    lo = min(item, 10, 7)
    hi = max(item, -2)
    return (int(lo * 1.5), float(hi), bool(item), round(item / 3))


def chained(item):
    return 1 if 0 <= item < 8 else 0


def boolops(item):
    big = item > 2 and item < 9
    return item or -1 if not big else item


def branches(item):
    x = item * 2
    if x > 10:
        return x - 1
    if x > 4:
        x += 100
    y = x + BIAS
    return -y if y % 2 == 0 else y


def closure_maker(scale):
    def scaled(item):
        return item * scale
    return scaled


def tuple_body(item):
    a = item[0] + item[1]
    b = item[0] * item[1]
    lo, hi = (a, b) if a < b else (b, a)
    return (lo, hi - lo)


def walrus(item):
    return (y := item + 1) * y


SCALAR_FNS = [arith, int_ops, mathy, builtins_mix, chained, boolops,
              branches, closure_maker(2.5), walrus]

INT_ITEMS = list(range(-6, 14))
FLOAT_ITEMS = [0.0, -1.5, 3.25, 1e6, -1e-3, float("nan"), float("inf")]
BOOL_ITEMS = [True, False, True]


def _eq(a, b):
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_eq(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def assert_matches_scalar(fn, items):
    kernel = compile_body(fn, kind="function")
    got = kernel(list(items))
    want = [fn(i) for i in items]
    assert len(got) == len(want)
    for g, w, i in zip(got, want, items):
        assert _eq(g, w), (fn.__name__, i, g, w)


@pytest.mark.parametrize("fn", SCALAR_FNS,
                         ids=lambda f: f.__qualname__.split(".")[0])
def test_compiled_matches_scalar_on_ints(fn):
    assert_matches_scalar(fn, INT_ITEMS)


@pytest.mark.parametrize("fn", [arith, chained, boolops, branches,
                                closure_maker(0.5), walrus],
                         ids=lambda f: f.__qualname__.split(".")[0])
def test_compiled_matches_scalar_on_floats_nan_inf(fn):
    # mathy/builtins_mix are excluded: scalar math.floor/int() *raise*
    # on NaN, so there is no scalar behaviour to be equivalent to
    assert_matches_scalar(fn, FLOAT_ITEMS)


def test_compiled_matches_scalar_on_bools():
    assert_matches_scalar(arith, BOOL_ITEMS)


def test_compiled_on_empty_batch():
    assert compile_body(arith, kind="function")([]) == []


def test_compiled_on_tuple_records():
    items = [(1, 2), (5, 3), (-2, -2), (0, 7)]
    kernel = compile_body(tuple_body, kind="function")
    assert kernel(items) == [tuple_body(t) for t in items]


# --- field records + self constants ----------------------------------

class _Rec:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


class _FieldStage(Stage):
    def __init__(self, gain):
        self.gain = gain

    def process(self, item, ctx):
        return item.x * self.gain + item.y


class _ClassAttrStage(Stage):
    gain = 7

    def process(self, item, ctx):
        return item * self.gain


def test_field_reads_and_self_consts():
    stage = _FieldStage(4.0)
    kernel = compile_body(_FieldStage.process, kind="process",
                          self_obj=stage)
    items = [_Rec(1, 2), _Rec(-3, 0.5), _Rec(10, -4)]
    assert kernel(items) == [stage.process(i, None) for i in items]
    assert kernel.consts == {"self.gain": 4.0}


def test_self_consts_key_the_cache():
    k4 = compile_body(_FieldStage.process, kind="process",
                      self_obj=_FieldStage(4.0))
    k5 = compile_body(_FieldStage.process, kind="process",
                      self_obj=_FieldStage(5.0))
    assert k4 is not k5
    assert k4([_Rec(1, 0)]) == [4.0]
    assert k5([_Rec(1, 0)]) == [5.0]
    # same recipe -> the very same kernel object (vectorize-cache hits)
    assert compile_body(_FieldStage.process, kind="process",
                        self_obj=_FieldStage(4.0)) is k4
    assert bodycomp_stats()["compiled"] == 2


def test_class_factory_reads_class_attrs():
    kernel, reason = try_compile_spec(
        StageSpec(_ClassAttrStage, "s", vectorized="auto"))
    assert reason is None
    assert kernel([1, 2, 3]) == [7, 14, 21]


def test_dtype_signature_recorded_on_first_batch():
    kernel = compile_body(arith, kind="function")
    assert kernel.dtype_signature is None
    kernel([1, 2, 3])
    assert kernel.dtype_signature == ("int64",)


def test_compiled_kernel_pickles_as_recipe():
    kernel = compile_body(branches, kind="function")
    clone = pickle.loads(pickle.dumps(kernel))
    items = list(range(12))
    assert clone(items) == kernel(items)


# --- fallback bodies: every unsupported construct, by name ------------

def body_loop(item):
    s = 0
    for _ in range(3):
        s += item
    return s


def body_while(item):
    while item > 0:
        item -= 1
    return item


def body_comprehension(item):
    return sum(x for x in range(item))


def body_multi(item):
    return Multi([item, item + 1])


def body_none(item):
    if item % 2 == 0:
        return item
    return None


def body_implicit_none(item):
    if item > 0:
        return item


def body_raise(item):
    if item < 0:
        raise ValueError("negative")
    return item


def body_try(item):
    try:
        return 1 / item
    except ZeroDivisionError:
        return 0.0


_TABLE = [10, 20, 30]


def body_mutable_global(item):
    return _TABLE[0] + item


def make_mutable_closure():
    table = [1, 2, 3]

    def body(item):
        return table[0] * item
    return body


def body_unknown_call(item):
    return len(item)


def body_dynamic_subscript(item):
    return item[item]


FALLBACKS = [
    (body_loop, "loop"),
    (body_while, "loop"),
    (body_comprehension, "loop"),
    (body_multi, "multi-emission"),
    (body_none, "none-filtering"),
    (body_implicit_none, "none-filtering"),
    (body_raise, "exception-handling"),
    (body_try, "exception-handling"),
    (body_mutable_global, "global-not-constant:_TABLE"),
    (make_mutable_closure(), "closure-over-mutable"),
    (body_unknown_call, "unsupported-call:len"),
    (body_dynamic_subscript, "subscript"),
]


@pytest.mark.parametrize("fn,reason", FALLBACKS,
                         ids=[r for _, r in FALLBACKS])
def test_unsupported_constructs_name_their_reason(fn, reason):
    with pytest.raises(UnsupportedConstruct) as err:
        compile_body(fn, kind="function")
    assert err.value.reason == reason
    assert bodycomp_stats()["compiled"] == 0


def test_ctx_use_and_opaque_factory_fall_back():
    class _Ctxy(Stage):
        def process(self, item, ctx):
            return item * ctx.replica

    _, reason = try_compile_spec(
        StageSpec(_Ctxy, "c", vectorized="auto"))
    assert reason == "uses-context"
    _, reason = try_compile_spec(
        StageSpec(lambda: FunctionStage(arith), "o", vectorized="auto"))
    assert reason == "opaque-factory"
    assert bodycomp_stats()["fallbacks"] == 2


# --- end-to-end: dispositions, fallback safety, cache, validation -----

def _auto_graph(n=60):
    return linear_graph(
        IterSource(range(n)),
        Farm(StageSpec(FunctionStage(branches), "comp",
                       vectorized="auto"),
             replicas=2, ordered=True, name="farm"),
        StageSpec(FunctionStage(body_loop), "scalar", vectorized="auto"),
    )


def test_run_reports_per_stage_disposition():
    result = execute(_auto_graph(), ExecConfig(optimize=True, batch_size=8))
    assert result.details["opt"]["bodycomp"] == {
        "comp": "compiled", "scalar": "fallback:loop"}
    assert "comp" in result.details["opt"]["vectorized"]
    expected = [body_loop(branches(i)) for i in range(60)]
    assert result.outputs == expected


def test_fallback_runs_scalar_and_matches_reference():
    opt = execute(_auto_graph(), ExecConfig(optimize=True, batch_size=8))
    ref = execute(_auto_graph(), ExecConfig(optimize=False, batch_size=8))
    assert opt.outputs == ref.outputs
    assert "opt" not in ref.details


@pytest.mark.skipif(not HAS_FORK, reason="process backend requires fork")
def test_compiled_kernel_ships_to_process_workers():
    cfg = ExecConfig(optimize=True, batch_size=8, workers="process")
    result = execute(_auto_graph(), cfg)
    assert result.details["opt"]["bodycomp"]["comp"] == "compiled"
    assert result.outputs == [body_loop(branches(i)) for i in range(60)]


def test_repeated_plans_reuse_the_compiled_kernel():
    g = _auto_graph
    build_plan(g(), ExecConfig(optimize=True))
    assert bodycomp_stats()["compiled"] == 1
    first_misses = kernel_cache_stats()["misses"]
    build_plan(g(), ExecConfig(optimize=True))
    assert bodycomp_stats()["compiled"] == 1  # body cache hit
    stats = kernel_cache_stats()
    assert stats["misses"] == first_misses  # vectorize cache hit too
    assert stats["hits"] >= 1


def test_auto_hint_with_optimizer_off_stays_scalar():
    g = linear_graph(IterSource(range(8)),
                     StageSpec(FunctionStage(branches), "b",
                               vectorized="auto"))
    result = execute(g, ExecConfig(optimize=False))
    assert result.outputs == [branches(i) for i in range(8)]
    assert "opt" not in result.details
    assert bodycomp_stats()["compiled"] == 0


def test_vectorized_rejects_other_strings():
    with pytest.raises(GraphError):
        StageSpec(FunctionStage(arith), "a", vectorized="Auto")

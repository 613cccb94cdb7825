"""Body compiler: derive NumPy batch kernels from scalar ``process`` bodies.

PR 8 gave stages batch kernels, but only hand-written ones (a
``process_batch`` method or ``vectorized=fn``).  This module closes the
remaining gap named in the ROADMAP: a stage that opts in with
``vectorized="auto"`` gets its ordinary scalar body parsed via
:mod:`ast`, lowered to the typed mini-IR in :mod:`repro.core.opt.kir`,
and emitted as a compiled batch kernel — the same
``kernel(items) -> outputs`` shape the executors already run through
the keyed cache in :mod:`~repro.core.opt.vectorize`.

The accepted subset is deliberately small and *exactly* scalar-
equivalent: arithmetic/comparison/bitwise operators, ``math.*`` calls
mapped to numpy ufuncs, ``abs``/``min``/``max``/``int``/``float``/
``bool``/``round``, attribute reads of item fields, constant-index
subscripts of tuple items, locals, inlined scalar constants (closure,
global, and ``self`` attributes), conditional expressions, and simple
``if``/``else`` statements.  Branches lower to ``np.where`` by
*continuation splitting*: an ``if`` compiles the branch plus the rest of
the block under each arm and merges the two results — early returns,
guard patterns, and branch-local assignments all reduce to one pure
expression tree.  ``a and b`` / ``a or b`` lower to the value-preserving
``np.where(a, b, a)`` / ``np.where(a, a, b)``, so Python's operand-
returning semantics survive vectorization.

Anything else — loops, ``Multi`` fan-out, ``None`` filtering,
exceptions, closures over mutables, ``ctx`` access, factories we cannot
probe — raises :class:`~repro.core.opt.kir.UnsupportedConstruct`, and
the caller falls back *silently and safely* to the scalar path with the
reason slug recorded in the OptReport disposition
(``fallback:<reason>``).  Compilation can therefore never break a run:
the worst case is the behaviour the stage already had.

Compiled kernels are cached by ``(code object, kind, inlined-const
signature)`` so repeated plan builds return the *same* kernel object
(making the vectorize-layer cache hit), and two instances of one stage
class with different scalar attributes get distinct kernels.  Kernels
are dtype-generic — numpy dispatches per batch — and record the first
observed per-column dtype signature on ``CompiledKernel.dtype_signature``
for reports and tests.  Pickling ships a recipe (origin function +
inlined consts), so the process backend recompiles in each worker
instead of shipping code objects.
"""

from __future__ import annotations

import ast
import builtins
import inspect
import math
import textwrap
import threading
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.items import Multi
from repro.core.opt import kir
from repro.core.opt.kir import UnsupportedConstruct
from repro.core.stage import FunctionStage, InstanceFactory, Stage

__all__ = [
    "CompiledKernel",
    "UnsupportedConstruct",
    "bodycomp_stats",
    "clear_body_cache",
    "compile_body",
    "try_compile_spec",
]

#: math-module functions with a drop-in numpy ufunc (name differences
#: mapped); floor/ceil/trunc are handled separately because they return
#: Python ints and need the int64 cast.
_MATH_TO_NP = {
    "sqrt": "sqrt", "cbrt": "cbrt", "exp": "exp", "expm1": "expm1",
    "log": "log", "log2": "log2", "log10": "log10", "log1p": "log1p",
    "sin": "sin", "cos": "cos", "tan": "tan",
    "asin": "arcsin", "acos": "arccos", "atan": "arctan",
    "atan2": "arctan2", "hypot": "hypot",
    "sinh": "sinh", "cosh": "cosh", "tanh": "tanh",
    "asinh": "arcsinh", "acosh": "arccosh", "atanh": "arctanh",
    "fabs": "fabs", "fmod": "fmod", "copysign": "copysign",
    "degrees": "degrees", "radians": "radians", "pow": "power",
    "isnan": "isnan", "isinf": "isinf", "isfinite": "isfinite",
}
_MATH_INT_CASTS = {"floor": "floor_int", "ceil": "ceil_int",
                   "trunc": "trunc_int"}
_MATH_CONSTS = {"pi": math.pi, "e": math.e, "tau": math.tau,
                "inf": math.inf, "nan": math.nan}

_BIN_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
            ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**",
            ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^",
            ast.LShift: "<<", ast.RShift: ">>"}
_UNARY_OPS = {ast.USub: "-", ast.UAdd: "+", ast.Invert: "~"}
_CMP_OPS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
            ast.Eq: "==", ast.NotEq: "!="}

_SCALAR_TYPES = (bool, int, float, complex)


def _u(reason: str) -> UnsupportedConstruct:
    return UnsupportedConstruct(reason)


def _merge_where(cond: kir.Node, a: kir.Node, b: kir.Node) -> kir.Node:
    """Elementwise select, distributing over tuple-shaped results."""
    if isinstance(a, kir.Tup) or isinstance(b, kir.Tup):
        if not (isinstance(a, kir.Tup) and isinstance(b, kir.Tup)
                and len(a.parts) == len(b.parts)):
            raise _u("mixed-return-shape")
        return kir.Tup(tuple(_merge_where(cond, x, y)
                             for x, y in zip(a.parts, b.parts)))
    return kir.Where(cond, a, b)


def _fn_def(fn: Callable) -> ast.AST:
    """The parsed def/lambda for ``fn`` (the parir/prickle idiom)."""
    try:
        src = textwrap.dedent(inspect.getsource(fn))
        tree = ast.parse(src)
    except (OSError, TypeError, SyntaxError, IndentationError):
        raise _u("no-source") from None
    if fn.__name__ == "<lambda>":
        lambdas = [n for n in ast.walk(tree) if isinstance(n, ast.Lambda)]
        if len(lambdas) != 1:
            # several lambdas share the source line: no safe way to know
            # which one fn is, so never guess
            raise _u("ambiguous-lambda")
        return lambdas[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == fn.__name__:
            if node.decorator_list:
                raise _u("decorated")
            return node
    raise _u("no-source")


class _Compiler:
    """Lowers one scalar body to a :mod:`~repro.core.opt.kir` tree.

    ``kind`` names the parameter shape: ``"process"`` is
    ``(self, item, ctx)``, ``"method"`` is ``(self, item)``,
    ``"function"`` is ``(item,)``.
    """

    def __init__(self, fn: Callable, kind: str, self_obj: Any,
                 preset: Mapping[str, Any]):
        self.fn = fn
        self.kind = kind
        self.self_obj = self_obj
        self.preset = preset
        self.consts: Dict[str, Any] = {}
        self.inputs: Dict[Tuple[str, Any], kir.Input] = {}
        self.self_name: Optional[str] = None
        self.ctx_name: Optional[str] = None
        self.item_name: Optional[str] = None

    # -- entry ---------------------------------------------------------

    def compile(self) -> Tuple[kir.Node, Dict[Tuple[str, Any], kir.Input]]:
        fdef = _fn_def(self.fn)
        args = fdef.args
        if (args.vararg or args.kwarg or args.kwonlyargs or args.defaults
                or args.posonlyargs):
            raise _u("unsupported-signature")
        names = [a.arg for a in args.args]
        expected = {"process": 3, "method": 2, "function": 1}[self.kind]
        if len(names) != expected:
            raise _u("unsupported-signature")
        if self.kind == "process":
            self.self_name, self.item_name, self.ctx_name = names
        elif self.kind == "method":
            self.self_name, self.item_name = names
        else:
            self.item_name = names[0]
        if isinstance(fdef, ast.Lambda):
            result = self._expr(fdef.body, {})
        else:
            result = self._block(list(fdef.body), {})
        return result, self.inputs

    # -- statements ----------------------------------------------------

    def _block(self, stmts, env: Dict[str, kir.Node]) -> kir.Node:
        """Compile a statement suffix down to its result expression.

        ``if`` statements split the continuation: (branch + rest) is
        compiled under each arm and the two results merge elementwise.
        Falling off the end is an implicit ``return None`` — filtering —
        which stays scalar.
        """
        for i, st in enumerate(stmts):
            rest = stmts[i + 1:]
            if isinstance(st, ast.Return):
                if st.value is None or (isinstance(st.value, ast.Constant)
                                        and st.value.value is None):
                    raise _u("none-filtering")
                return self._expr(st.value, env)
            if isinstance(st, ast.If):
                cond = self._expr(st.test, env)
                then = self._block(list(st.body) + rest, dict(env))
                other = self._block(list(st.orelse) + rest, dict(env))
                return _merge_where(cond, then, other)
            if isinstance(st, ast.Assign):
                self._assign(st.targets, st.value, env)
                continue
            if isinstance(st, ast.AnnAssign):
                if st.value is not None and isinstance(st.target, ast.Name):
                    self._bind(st.target.id, self._expr(st.value, env), env)
                continue
            if isinstance(st, ast.AugAssign):
                if not isinstance(st.target, ast.Name):
                    raise _u("unsupported-syntax:AugAssign")
                op = _BIN_OPS.get(type(st.op))
                if op is None:
                    raise _u("unsupported-syntax:AugAssign")
                current = self._expr(ast.Name(id=st.target.id,
                                              ctx=ast.Load()), env)
                self._bind(st.target.id,
                           kir.Bin(op, current, self._expr(st.value, env)),
                           env)
                continue
            if isinstance(st, (ast.For, ast.AsyncFor, ast.While)):
                raise _u("loop")
            if isinstance(st, (ast.Try, ast.Raise, ast.Assert)):
                raise _u("exception-handling")
            if isinstance(st, ast.Expr):
                if isinstance(st.value, ast.Constant) and isinstance(
                        st.value.value, str):
                    continue  # docstring
                raise _u("expression-statement")
            if isinstance(st, ast.Pass):
                continue
            raise _u(f"unsupported-syntax:{type(st).__name__}")
        raise _u("none-filtering")  # implicit return None

    def _assign(self, targets, value, env) -> None:
        if len(targets) != 1:
            raise _u("unsupported-syntax:Assign")
        target = targets[0]
        if isinstance(target, ast.Name):
            self._bind(target.id, self._expr(value, env), env)
            return
        if isinstance(target, ast.Tuple) and all(
                isinstance(t, ast.Name) for t in target.elts):
            val = self._expr(value, env)
            if not (isinstance(val, kir.Tup)
                    and len(val.parts) == len(target.elts)):
                raise _u("unsupported-syntax:Assign")
            for t, part in zip(target.elts, val.parts):
                self._bind(t.id, part, env)
            return
        raise _u(f"unsupported-syntax:{type(target).__name__}")

    def _bind(self, name: str, value: kir.Node, env) -> None:
        if name in (self.item_name, self.self_name, self.ctx_name):
            raise _u("unsupported-syntax:rebind-param")
        env[name] = value

    # -- expressions ---------------------------------------------------

    def _input(self, kind: str, ref: Any) -> kir.Input:
        key = (kind, ref)
        node = self.inputs.get(key)
        if node is None:
            node = kir.Input(kind, ref)
            self.inputs[key] = node
        return node

    def _expr(self, node: ast.AST, env) -> kir.Node:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, _SCALAR_TYPES):
                return kir.Const(node.value)
            raise _u("none-filtering" if node.value is None
                     else "unsupported-constant")
        if isinstance(node, ast.Name):
            return self._name(node.id, env)
        if isinstance(node, ast.Attribute):
            return self._attribute(node, env)
        if isinstance(node, ast.Subscript):
            return self._subscript(node, env)
        if isinstance(node, ast.BinOp):
            op = _BIN_OPS.get(type(node.op))
            if op is None:
                raise _u(f"unsupported-syntax:{type(node.op).__name__}")
            return kir.Bin(op, self._expr(node.left, env),
                           self._expr(node.right, env))
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                return kir.Not(self._expr(node.operand, env))
            op = _UNARY_OPS.get(type(node.op))
            if op is None:
                raise _u(f"unsupported-syntax:{type(node.op).__name__}")
            return kir.Un(op, self._expr(node.operand, env))
        if isinstance(node, ast.Compare):
            return self._compare(node, env)
        if isinstance(node, ast.BoolOp):
            # value-preserving lowering keeps Python's operand-returning
            # semantics: a and b == (b if a else a), a or b == (a if a else b)
            parts = [self._expr(v, env) for v in node.values]
            acc = parts[0]
            for part in parts[1:]:
                if isinstance(node.op, ast.And):
                    acc = _merge_where(acc, part, acc)
                else:
                    acc = _merge_where(acc, acc, part)
            return acc
        if isinstance(node, ast.IfExp):
            return _merge_where(self._expr(node.test, env),
                                self._expr(node.body, env),
                                self._expr(node.orelse, env))
        if isinstance(node, ast.Call):
            return self._call(node, env)
        if isinstance(node, ast.Tuple):
            return kir.Tup(tuple(self._expr(e, env) for e in node.elts))
        if isinstance(node, ast.NamedExpr):
            val = self._expr(node.value, env)
            if isinstance(node.target, ast.Name):
                self._bind(node.target.id, val, env)
            return val
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            raise _u("loop")
        raise _u(f"unsupported-syntax:{type(node).__name__}")

    def _compare(self, node: ast.Compare, env) -> kir.Node:
        left = self._expr(node.left, env)
        acc: Optional[kir.Node] = None
        for op, comp in zip(node.ops, node.comparators):
            sym = _CMP_OPS.get(type(op))
            if sym is None:
                raise _u(f"unsupported-syntax:{type(op).__name__}")
            right = self._expr(comp, env)
            pair = kir.Cmp(sym, left, right)
            acc = pair if acc is None else _merge_where(acc, pair, acc)
            left = right
        return acc

    def _name(self, name: str, env) -> kir.Node:
        if name == self.ctx_name:
            raise _u("uses-context")
        if name == self.item_name:
            return self._input("item", None)
        if name == self.self_name:
            raise _u("self-attribute")
        if name in env:
            return env[name]
        value, origin = self._lookup(name)
        if isinstance(value, _SCALAR_TYPES):
            self.consts[name] = value
            return kir.Const(value)
        raise _u("closure-over-mutable" if origin == "closure"
                 else f"global-not-constant:{name}")

    def _lookup(self, name: str) -> Tuple[Any, str]:
        """Resolve a free name the way the scalar body would at run time."""
        if name in self.preset:
            return self.preset[name], "preset"
        code = self.fn.__code__
        if name in code.co_freevars and self.fn.__closure__ is not None:
            cell = self.fn.__closure__[code.co_freevars.index(name)]
            try:
                return cell.cell_contents, "closure"
            except ValueError:
                raise _u("closure-over-mutable") from None
        if name in self.fn.__globals__:
            return self.fn.__globals__[name], "global"
        if hasattr(builtins, name):
            return getattr(builtins, name), "builtin"
        raise _u(f"unbound-name:{name}")

    def _attribute(self, node: ast.Attribute, env) -> kir.Node:
        if isinstance(node.value, ast.Name):
            base = node.value.id
            if base == self.item_name:
                return self._input("field", node.attr)
            if base == self.self_name:
                return self._self_const(node.attr)
            if base == self.ctx_name:
                raise _u("uses-context")
            if base not in env:
                value, _ = self._lookup(base)
                if value is math:
                    const = _MATH_CONSTS.get(node.attr)
                    if const is None:
                        raise _u(f"unsupported-call:math.{node.attr}")
                    return kir.Const(const)
        raise _u("unsupported-attribute")

    def _self_const(self, attr: str) -> kir.Node:
        key = f"self.{attr}"
        if key in self.preset:
            value = self.preset[key]
        elif self.self_obj is None:
            raise _u(f"self-attribute:{attr}")
        else:
            try:
                value = getattr(self.self_obj, attr)
            except AttributeError:
                raise _u(f"self-attribute:{attr}") from None
        if not isinstance(value, _SCALAR_TYPES):
            raise _u(f"self-attribute:{attr}")
        self.consts[key] = value
        return kir.Const(value)

    def _subscript(self, node: ast.Subscript, env) -> kir.Node:
        idx = node.slice
        if not (isinstance(idx, ast.Constant) and isinstance(idx.value, int)
                and not isinstance(idx.value, bool)):
            raise _u("subscript")
        if isinstance(node.value, ast.Name) and node.value.id == self.item_name:
            return self._input("index", idx.value)
        base = self._expr(node.value, env)
        if isinstance(base, kir.Tup):
            try:
                return base.parts[idx.value]
            except IndexError:
                raise _u("subscript") from None
        raise _u("subscript")

    def _call(self, node: ast.Call, env) -> kir.Node:
        if node.keywords:
            raise _u("unsupported-call:keywords")
        if any(isinstance(a, ast.Starred) for a in node.args):
            raise _u("unsupported-call:starred")
        func = node.func
        # fan-out is identified before the arguments are lowered — the
        # payload is usually a list literal, which is itself unsupported
        # and would otherwise mask the real reason
        if isinstance(func, ast.Attribute) and func.attr == "Multi":
            raise _u("multi-emission")
        if (isinstance(func, ast.Name) and func.id not in env
                and func.id not in (self.item_name, self.self_name,
                                    self.ctx_name)
                and self._lookup(func.id)[0] is Multi):
            raise _u("multi-emission")
        args = tuple(self._expr(a, env) for a in node.args)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base = func.value.id
            if base not in env and base not in (self.item_name,
                                                self.self_name,
                                                self.ctx_name):
                value, _ = self._lookup(base)
                if value is math:
                    return self._math_call(func.attr, args)
            if func.attr == "Multi":
                raise _u("multi-emission")
            raise _u(f"unsupported-call:{func.attr}")
        if not isinstance(func, ast.Name):
            raise _u("unsupported-call")
        name = func.id
        if name in env or name in (self.item_name, self.self_name,
                                   self.ctx_name):
            raise _u(f"unsupported-call:{name}")
        value, _ = self._lookup(name)
        if value is Multi:
            raise _u("multi-emission")
        if value is abs and len(args) == 1:
            return kir.Call("abs", args)
        if value in (min, max) and len(args) >= 2:
            key = "min2" if value is min else "max2"
            acc = args[0]
            for arg in args[1:]:
                acc = kir.Call(key, (acc, arg))
            return acc
        if value is int and len(args) == 1:
            return kir.Call("int", args)
        if value is float and len(args) == 1:
            return kir.Call("float", args)
        if value is bool and len(args) == 1:
            return kir.Call("bool", args)
        if value is round:
            if len(args) == 1:
                return kir.Call("round_int", args)
            if len(args) == 2 and isinstance(args[1], kir.Const):
                return kir.Call("round_n", args)
            raise _u("unsupported-call:round")
        mod_name = getattr(value, "__name__", "")
        if callable(value) and getattr(math, mod_name, None) is value:
            return self._math_call(mod_name, args)
        raise _u(f"unsupported-call:{name}")

    def _math_call(self, name: str, args: Tuple[kir.Node, ...]) -> kir.Node:
        if name in _MATH_INT_CASTS and len(args) == 1:
            return kir.Call(_MATH_INT_CASTS[name], args)
        np_name = _MATH_TO_NP.get(name)
        if np_name is None:
            raise _u(f"unsupported-call:math.{name}")
        return kir.Call(f"np:{np_name}", args)


# -- compiled kernels and the body cache ------------------------------


class CompiledKernel:
    """A derived batch kernel: call with ``(items,)``, strict 1:1 map.

    Rides the existing callable-``vectorized`` path through
    :func:`~repro.core.opt.vectorize.get_kernel`; the vectorize-layer
    cache keys on this object, and the body cache below guarantees the
    same (code, consts) always yields the same object, so repeated plan
    builds hit instead of recompiling.
    """

    def __init__(self, fn: Callable, sig_fn: Callable, source: str,
                 origin: Callable, kind: str, consts: Dict[str, Any],
                 cols_fn: Optional[Callable] = None,
                 extract_fn: Optional[Callable] = None,
                 input_kinds: Tuple[Tuple[str, Any], ...] = (),
                 out_parts: Optional[int] = None):
        self._fn = fn
        self._sig_fn = sig_fn
        self.source = source
        self.origin = origin
        self.kind = kind
        self.consts = consts
        # column-level entry points (block-native transport)
        self._cols_fn = cols_fn
        self._extract_fn = extract_fn
        #: (kind, ref) of each input column, in extraction order
        self.input_kinds = input_kinds
        #: result tuple width, or None for a scalar result
        self.out_parts = out_parts
        #: per-column numpy dtype names of the first batch seen
        self.dtype_signature: Optional[Tuple[str, ...]] = None

    def __call__(self, items):
        if self.dtype_signature is None and items:
            self.dtype_signature = self._sig_fn(items)
        return self._fn(items)

    # -- block-native path (columnar transport) -----------------------

    def map_columns(self, block) -> Optional[Tuple[Any, ...]]:
        """Map an ItemBlock's columns onto this kernel's input columns.

        Returns ``None`` when the block layout cannot feed the kernel
        directly (field access, whole-item use of a tuple block, ...);
        the caller then falls back to materializing the items.
        """
        cols = []
        for kind, ref in self.input_kinds:
            if kind == "item" and block.layout == "scalar":
                cols.append(block.columns[0])
            elif (kind == "index" and block.layout == "tuple"
                  and type(ref) is int and 0 <= ref < len(block.columns)):
                cols.append(block.columns[ref])
            else:
                return None
        return tuple(cols)

    def _record_sig(self, cols) -> None:
        if self.dtype_signature is None:
            self.dtype_signature = tuple(
                np.asarray(c).dtype.name for c in cols)

    def _out_block(self, out_cols, count: int, seq_start: int, key):
        from repro.core.items import ItemBlock

        layout = "scalar" if self.out_parts is None else "tuple"
        return ItemBlock(out_cols, count, seq_start, layout, key=key)

    def call_block(self, block):
        """ItemBlock in, ItemBlock out — no per-item materialization.

        Returns ``None`` if the block's columns don't map onto the
        kernel inputs; outputs then take the item-level path instead.
        """
        if self._cols_fn is None:
            return None
        cols = self.map_columns(block)
        if cols is None:
            return None
        self._record_sig(cols)
        out = self._cols_fn(cols, block.count)
        return self._out_block(out, block.count, block.seq_start, block.key)

    def call_items_block(self, items, seq_start: int = 0):
        """Scalar items in, ItemBlock out (the scalar→block shim).

        Extraction reuses the rendered column expressions, so numerics
        and dtypes match the item-level kernel exactly.
        """
        if self._cols_fn is None or not items:
            return None
        try:
            cols = self._extract_fn(items)
        except Exception:
            return None
        self._record_sig(cols)
        out = self._cols_fn(cols, len(items))
        return self._out_block(out, len(items), seq_start, None)

    def __repr__(self) -> str:
        return (f"<CompiledKernel {self.origin.__qualname__} "
                f"consts={self.consts!r}>")

    def __reduce__(self):
        # ship the recipe, not the code: workers recompile (and cache)
        return (_recompile, (self.origin, self.kind,
                             tuple(sorted(self.consts.items()))))


_LOCK = threading.Lock()
_BODY_CACHE: Dict[Any, CompiledKernel] = {}
_STATS = {"compiled": 0, "fallbacks": 0}


def bodycomp_stats() -> Dict[str, int]:
    """Process-wide compiler counters (distinct kernels, fallbacks)."""
    with _LOCK:
        return dict(_STATS)


def clear_body_cache() -> None:
    """Test hook: drop compiled bodies and zero the counters."""
    with _LOCK:
        _BODY_CACHE.clear()
        _STATS["compiled"] = 0
        _STATS["fallbacks"] = 0


def compile_body(fn: Callable, *, kind: str, self_obj: Any = None,
                 preset: Optional[Mapping[str, Any]] = None,
                 ) -> CompiledKernel:
    """Compile one scalar body; raises UnsupportedConstruct on fallback."""
    compiler = _Compiler(fn, kind, self_obj, preset or {})
    result, inputs = compiler.compile()
    key = (fn.__code__, kind,
           tuple(sorted((k, repr(v)) for k, v in compiler.consts.items())))
    with _LOCK:
        cached = _BODY_CACHE.get(key)
        if cached is not None:
            return cached
        source = kir.render_kernel(result, inputs)
        namespace: Dict[str, Any] = {"_np": np}
        exec(source, namespace)  # noqa: S102 - compiler back end
        out_parts = (len(result.parts) if isinstance(result, kir.Tup)
                     else None)
        kernel = CompiledKernel(namespace["_kernel"], namespace["_sig"],
                                source, fn, kind, dict(compiler.consts),
                                cols_fn=namespace["_kernel_cols"],
                                extract_fn=namespace["_extract"],
                                input_kinds=tuple(inputs.keys()),
                                out_parts=out_parts)
        _BODY_CACHE[key] = kernel
        _STATS["compiled"] += 1
        return kernel


def _recompile(origin: Callable, kind: str,
               const_items: Tuple[Tuple[str, Any], ...]) -> CompiledKernel:
    return compile_body(origin, kind=kind, preset=dict(const_items))


def try_compile_spec(spec) -> Tuple[Optional[CompiledKernel], Optional[str]]:
    """Resolve and compile a spec's scalar body, or (None, reason).

    Never raises: every unsupported construct, opaque factory, or parse
    failure comes back as a named fallback reason — the stage simply
    stays on the scalar path it already had.
    """
    factory = spec.factory
    try:
        if isinstance(factory, InstanceFactory):
            inst = factory.instance
            if isinstance(inst, FunctionStage):
                if inst.wants_ctx:
                    raise _u("uses-context")
                fn = inst.fn
                if inspect.ismethod(fn):
                    return compile_body(fn.__func__, kind="method",
                                        self_obj=fn.__self__), None
                return compile_body(fn, kind="function"), None
            return compile_body(type(inst).process, kind="process",
                                self_obj=inst), None
        if isinstance(factory, type) and issubclass(factory, Stage):
            # class factory: scalar attrs must live on the class itself
            return compile_body(factory.process, kind="process",
                                self_obj=factory), None
        raise _u("opaque-factory")
    except UnsupportedConstruct as exc:
        with _LOCK:
            _STATS["fallbacks"] += 1
        return None, exc.reason

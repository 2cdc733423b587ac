"""Span tracer for almostalg, installed from outside the library.

``Tracer.install()`` replaces the traced functions of ``polys``,
``linalg``, ``modules``, ``almost``, ``suites`` and ``cli`` by wrappers.
Those modules bind each other's functions with ``from .x import f``, so
wrapping the defining module alone would miss most calls: install scans
every loaded ``almostalg.*`` module and rebinds each module global,
module-level dict value (such as ``cli.OPS``) and class attribute that
refers to a traced function.  ``remove()`` puts every original back.

Above ``polys`` each call records a span (name, start, end, parent, and a
group id shared by all spans of one check, request or module).  The
``polys`` kernels are called millions of times, so they record no spans:
their calls are counted per size bucket inside the enclosing span.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

clock = time.perf_counter

# polys kernels: aggregated per enclosing span, not recorded as spans
KERNELS = ("poly_mul", "poly_divmod", "poly_add")

# (module, attribute, span name); attribute "Cls.meth" is a class attribute
SPANNED = (
    ("almostalg.linalg", "snf", "linalg.snf"),
    ("almostalg.linalg", "_check_snf", "linalg.check_snf"),
    ("almostalg.linalg", "solve", "linalg.solve"),
    ("almostalg.linalg", "PolyMatrix.mul", "linalg.matmul"),
    ("almostalg.modules", "PresentedModule.__init__", "modules.init"),
    ("almostalg.modules", "PresentedModule.at_level", "modules.at_level"),
    ("almostalg.modules", "direct_sum", "modules.direct_sum"),
    ("almostalg.modules", "tensor", "modules.tensor"),
    ("almostalg.almost", "_residuals", "almost.residuals"),
    ("almostalg.almost", "is_almost_iso", "almost.is_almost_iso"),
    ("almostalg.almost", "is_firm", "almost.is_firm"),
    ("almostalg.suites", "SuiteReport.add", "suites.check"),
)

# layout of the per-span kernel accumulator
MUL_BUCKETS = (8, 64, 512)          # le8, le64, le512, else gt512
MUL_TIME, MUL_COEF_OPS, MUL_MONO = 4, 5, 6
DIV_CALLS, DIV_TIME, DIV_MONO = 7, 8, 9
ADD_CALLS, ADD_TIME = 10, 11
ACC_LEN = 12


class Span:
    __slots__ = ("id", "parent", "group", "name", "start", "end", "child",
                 "acc", "outer", "info")

    def to_json(self):
        return {"id": self.id, "parent": self.parent, "group": self.group,
                "name": self.name, "start": self.start, "end": self.end,
                "self": self.end - self.start - self.child,
                "polys": self.acc, "info": self.info}


def _one_term(a):
    return len(a) - a.count(0) == 1


def _presolved(A, divmod_):
    """Is A already diagonal with a monic divisibility chain (for the chain
    ring: diagonal entries exactly s^v, v ascending, zeros last)?"""
    ent = A.entries
    for i, row in enumerate(ent):
        for j, e in enumerate(row):
            if e and i != j:
                return False
    diag = [ent[i][i] for i in range(min(A.rows, A.cols))]
    for a, b in zip(diag, diag[1:]):
        if not a and b:
            return False
    diag = [d for d in diag if d]
    if A.modulus is not None:
        vals = [len(d) - 1 for d in diag if _one_term(d) and d[-1] == 1]
        return len(vals) == len(diag) and vals == sorted(vals)
    if any(d[-1] != 1 for d in diag):
        return False
    return all(not divmod_(b, a, A.p)[1] for a, b in zip(diag, diag[1:]))


class Tracer:
    """Records spans in memory; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.depth = {}
        self.loose = [0] * ACC_LEN  # kernel calls outside every span
        self.patches = []           # (setter, container, key, original)
        self.wrappers = {}          # id(original) -> wrapper

    # -- spans -------------------------------------------------------------

    def enter(self, name, info=None, group=False):
        sp = Span()
        parent = self.stack[-1] if self.stack else None
        sp.id = len(self.spans)
        sp.parent = parent.id if parent else None
        sp.group = sp.id if group else (parent.group if parent else None)
        sp.name = name
        sp.child = 0.0
        sp.acc = None
        sp.info = info
        d = self.depth.get(name, 0)
        sp.outer = d == 0
        self.depth[name] = d + 1
        self.spans.append(sp)
        self.stack.append(sp)
        sp.start = clock()
        return sp

    def exit(self, sp):
        sp.end = clock()
        self.stack.pop()
        self.depth[sp.name] -= 1
        if self.stack:
            self.stack[-1].child += sp.end - sp.start

    @contextlib.contextmanager
    def span(self, name, info=None, group=False):
        sp = self.enter(name, info, group)
        try:
            yield sp
        finally:
            self.exit(sp)

    def _acc(self, dt):
        if not self.stack:
            return self.loose
        sp = self.stack[-1]
        sp.child += dt
        if sp.acc is None:
            sp.acc = [0] * ACC_LEN
        return sp.acc

    # -- wrappers ----------------------------------------------------------

    def _wrap_kernel(self, name, fn):
        acc_for = self._acc
        if name == "poly_mul":
            b8, b64, b512 = MUL_BUCKETS

            def wrapper(a, b, p):
                t0 = clock()
                r = fn(a, b, p)
                dt = clock() - t0
                acc = acc_for(dt)
                la, lb = len(a), len(b)
                n = la if la > lb else lb
                acc[0 if n <= b8 else 1 if n <= b64 else 2 if n <= b512
                    else 3] += 1
                acc[MUL_TIME] += dt
                acc[MUL_COEF_OPS] += la * lb
                if _one_term(a) or _one_term(b):
                    acc[MUL_MONO] += 1
                return r
        elif name == "poly_divmod":
            def wrapper(a, b, p):
                t0 = clock()
                r = fn(a, b, p)
                dt = clock() - t0
                acc = acc_for(dt)
                acc[DIV_CALLS] += 1
                acc[DIV_TIME] += dt
                if _one_term(b):
                    acc[DIV_MONO] += 1
                return r
        else:
            def wrapper(a, b, p):
                t0 = clock()
                r = fn(a, b, p)
                dt = clock() - t0
                acc = acc_for(dt)
                acc[ADD_CALLS] += 1
                acc[ADD_TIME] += dt
                return r
        return functools.wraps(fn)(wrapper)

    def _wrap_span(self, name, fn, describe=None):
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            sp = enter(name, describe(*args) if describe else None,
                       name == "suites.check")
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(sp)
        return functools.wraps(fn)(wrapper)

    def _targets(self):
        """(original, wrapper) for every traced function."""
        polys = importlib.import_module("almostalg.polys")
        cli = importlib.import_module("almostalg.cli")
        divmod_ = polys.poly_divmod

        def snf_info(A):
            sdeg = max((len(e) - 1 for row in A.entries for e in row),
                       default=-1)
            return {"kind": "pid" if A.modulus is None else "chain",
                    "presolved": _presolved(A, divmod_), "sdeg": sdeg}

        def matmul_info(X, Y):
            # inner-product terms skipped because an operand entry is zero
            if X.cols != Y.rows:
                return None
            nnz_col = [sum(1 for row in X.entries if row[k])
                       for k in range(X.cols)]
            nnz_row = [sum(1 for e in row if e) for row in Y.entries]
            total = X.rows * X.cols * Y.cols
            used = sum(a * b for a, b in zip(nnz_col, nnz_row))
            return [total - used, total]

        describe = {"linalg.snf": snf_info, "linalg.matmul": matmul_info,
                    "suites.check": lambda rep, name, fn: name}
        out = [(getattr(polys, k), self._wrap_kernel(k, getattr(polys, k)))
               for k in KERNELS]
        for modname, attr, name in SPANNED:
            obj = importlib.import_module(modname)
            *owner, leaf = attr.split(".")
            for part in owner:
                obj = getattr(obj, part)
            fn = vars(obj)[leaf]
            out.append((fn, self._wrap_span(name, fn, describe.get(name))))
        for op, fn in cli.OPS.items():
            out.append((fn, self._wrap_span("cli.op." + op, fn)))
        return out

    # -- install / remove --------------------------------------------------

    def install(self):
        if self.patches:
            raise RuntimeError("tracer already installed")
        for fn, wrapper in self._targets():
            self.wrappers[id(fn)] = wrapper
        for container, key, value, setter in bindings():
            w = self.wrappers.get(id(value))
            if w is not None:
                setter(container, key, w)
                self.patches.append((setter, container, key, value))

    def remove(self):
        for setter, container, key, value in reversed(self.patches):
            setter(container, key, value)
        self.patches.clear()


def _set_item(d, k, v):
    d[k] = v


def bindings():
    """Every (container, key, value, setter) through which almostalg code
    can reach a function: module globals, values of module-level dicts,
    and attributes of classes defined in almostalg."""
    out = []
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == "almostalg"
                               or modname.startswith("almostalg.")):
            continue
        for key, value in list(vars(mod).items()):
            out.append((mod, key, value, setattr))
            if isinstance(value, dict) and not key.startswith("__"):
                out.extend((value, k, v, _set_item)
                           for k, v in list(value.items()))
            elif isinstance(value, type) and value.__module__ == modname:
                out.extend((value, k, v, setattr)
                           for k, v in list(vars(value).items()))
    return out


# -- layer metrics -----------------------------------------------------------

def _share(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, check_names=(), ops=()):
    """Per-layer metrics of one traced run, from its spans."""
    calls, incl, self_s = {}, {}, {}
    acc = list(tracer.loose)
    snf_kind = {"pid": 0, "chain": 0}
    presolved = max_sdeg = 0
    mm_skip = mm_total = 0
    check_s = dict.fromkeys(check_names, 0.0)
    for sp in tracer.spans:
        dur = sp.end - sp.start
        name = sp.name
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - sp.child
        if sp.outer:
            incl[name] = incl.get(name, 0.0) + dur
        if sp.acc is not None:
            acc = [x + y for x, y in zip(acc, sp.acc)]
        if name == "linalg.snf":
            snf_kind[sp.info["kind"]] += 1
            presolved += sp.info["presolved"]
            max_sdeg = max(max_sdeg, sp.info["sdeg"])
        elif name == "linalg.matmul" and sp.info:
            mm_skip += sp.info[0]
            mm_total += sp.info[1]
        elif name == "suites.check" and sp.info in check_s:
            check_s[sp.info] += dur
    mul_calls = sum(acc[:4])
    snf_calls = calls.get("linalg.snf", 0)
    out = {
        "polys.mul.calls.le8": acc[0],
        "polys.mul.calls.le64": acc[1],
        "polys.mul.calls.le512": acc[2],
        "polys.mul.calls.gt512": acc[3],
        "polys.mul.mono_share": _share(acc[MUL_MONO], mul_calls),
        "polys.mul.self_s": acc[MUL_TIME],
        "polys.mul.coef_ops": acc[MUL_COEF_OPS],
        "polys.divmod.calls": acc[DIV_CALLS],
        "polys.divmod.mono_share": _share(acc[DIV_MONO], acc[DIV_CALLS]),
        "polys.divmod.self_s": acc[DIV_TIME],
        "polys.add.calls": acc[ADD_CALLS],
        "polys.add.self_s": acc[ADD_TIME],
        "linalg.snf.calls.pid": snf_kind["pid"],
        "linalg.snf.calls.chain": snf_kind["chain"],
        "linalg.snf.self_s": self_s.get("linalg.snf", 0.0),
        "linalg.snf.incl_s": incl.get("linalg.snf", 0.0),
        "linalg.snf.max_sdeg": max_sdeg,
        "linalg.snf.presolved_share": _share(presolved, snf_calls),
        "linalg.check_snf.calls": calls.get("linalg.check_snf", 0),
        "linalg.check_snf.incl_s": incl.get("linalg.check_snf", 0.0),
        "linalg.matmul.calls": calls.get("linalg.matmul", 0),
        "linalg.matmul.zero_share": _share(mm_skip, mm_total),
        "linalg.matmul.self_s": self_s.get("linalg.matmul", 0.0),
        "linalg.solve.calls": calls.get("linalg.solve", 0),
        "linalg.solve.incl_s": incl.get("linalg.solve", 0.0),
    }
    for key in ("init", "at_level"):
        out[f"modules.{key}.calls"] = calls.get(f"modules.{key}", 0)
        out[f"modules.{key}.incl_s"] = incl.get(f"modules.{key}", 0.0)
    for key in ("direct_sum", "tensor"):
        out[f"modules.{key}.incl_s"] = incl.get(f"modules.{key}", 0.0)
    out["almost.residuals.calls"] = calls.get("almost.residuals", 0)
    out["almost.residuals.self_s"] = self_s.get("almost.residuals", 0.0)
    for key in ("is_almost_iso", "is_firm"):
        out[f"almost.{key}.incl_s"] = incl.get(f"almost.{key}", 0.0)
    for name, s in check_s.items():
        out[f"suites.check.{name}.s"] = s
    return out

"""Batch verification driver.

    almostalg run-suite {quillen,complexes,k0,algebra,tilting,tower,all} ...
    almostalg compute OP [--input FILE]   (JSON payload on stdin by default)

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
input error.  Reports are deterministic for a fixed (config, seed);
timings are only recorded with --time.  Output is JSON indented by two
spaces with sorted keys: the bytes of json.dumps(doc, indent=2,
sort_keys=True), written by a faster emitter of the same text.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _encode_str

from .base_ring import CHAR_P_TRUNCATED, RingConfig
from .exponents import PExp
from .linalg import PolyMatrix, snf
from .modules import PresentedModule
from .almost import firmify
from .complexes import PerfPlus
from .k0 import k0_class
from .suites import SUITE_NAMES, SuiteOptions, run_suite
from .tower import a_n_plus, tilt_basis_iso

USAGE_ERROR = 2
CHECK_FAILURE = 1
# the primes --p and a payload's "p" may name
PRIMES = (2, 3, 5, 7, 11, 13)
# tilt_basis_iso builds p^n basis entries and checks p^(2n) products of
# coefficient lists up to 2p^n long: in-process, 7^3 = 343 entries take
# about 1.7 s at c = 1 and 2.0 s at c = 100, 2^9 = 512 about 5 s and
# 3^6 = 729 about 14 s (CPython 3.11, 2-vCPU host)
TILT_MAX_ENTRIES = 343
# each of those products is taken mod p^c and folded through x^(p^n) = p;
# at c <= 100 that costs little more than at c = 1
TILT_MAX_PRECISION = 100
# a module payload may ask for rank * (rank + d) <= this, with d the largest
# s-degree of its factors and of a truncated ring's modulus
MODULE_MAX_SIZE = 1 << 20
# a_n_plus takes the Smith form of a (rank + 1)-generator relation matrix,
# whose time MODULE_MAX_SIZE does not bound: at rank 100 and the largest
# s-degree admitted it takes about a second, at rank 300 several
A_N_PLUS_MAX_RANK = 100
# snf's cost grows with the larger side n of the matrix and with the number
# S of coefficient slots an entry can reach: S = m over F_p[s]/(s^m), and
# (n + 1)d + 1 over F_p[s], d the largest input degree (no entry grows past
# the input degree plus the determinant's, at most nd).  Random dense inputs
# at p = 13 on the edges of these limits took at most 2.7 s in-process:
# 16x16 at m = 90, 8x8 at m = 256, 4x4 at m = 512, and over F_p[s] 16x16
# at d = 5, 8x8 at d = 28 and 2x2 at d = 682 (CPython 3.11, 2-vCPU host).
# Without them a 2x2 matrix at m = 20,000 took 26 s, and a 40x40 one over
# F_2[s] 7.8 s and 4.4 MB of output.
SNF_MAX_SIDE = 16
# a unit pivot is inverted mod s^m at a cost that grows like m^2 (like m^3
# when this limit was set, through an extended gcd), which the work bound
# below does not see at small n
SNF_MAX_MODULUS = 512
# n^3 * S^2
SNF_MAX_WORK = 1 << 25
# the fields a module payload may carry: rank and relations, or exponents
# and free_rank
MODULE_KEYS = ("p", "level", "rank", "relations", "exponents", "free_rank")


class UsageError(Exception):
    pass


def _build_config(args) -> RingConfig:
    p = args.p if args.p is not None else 2
    mode = args.mode or "perfect"
    if mode == "perfect":
        return RingConfig.perfect(p)
    if mode == "truncated":
        return RingConfig.truncated(
            p, 1 if args.truncation is None else args.truncation)
    raise UsageError(f"unknown mode {mode!r}")


def _validate(args):
    if args.p is not None and args.p not in PRIMES:
        raise UsageError(f"--p must be a small prime, got {args.p}")
    if args.command == "compute":
        if args.level is not None and not 0 <= args.level <= 6:
            raise UsageError("--level must be in [0, 6]")
        if args.truncation is not None and args.truncation < 1:
            raise UsageError("--truncation must be positive")
        return
    if args.depth is not None and not 1 <= args.depth <= 6:
        raise UsageError("--depth must be in [1, 6]")
    if args.working_level is not None and not 1 <= args.working_level <= 10:
        raise UsageError("--working-level must be in [1, 10]")
    if args.corpus_size is not None and args.corpus_size < 1:
        raise UsageError("--corpus-size must be positive")


# -- compute op registry ---------------------------------------------------

def _count(payload, key, default):
    """payload[key], or default when it is absent, as a non-negative
    integer (a bool is not one)."""
    n = payload.get(key, default)
    if type(n) is not int or n < 0:
        raise UsageError(
            f"payload {key} must be a non-negative integer, got {n!r}")
    return n


def _parse_entries(grid, p, modulus):
    """Matrix entries as coefficient lists or bare integers."""
    ent = []
    for row in grid:
        out = []
        for e in row:
            if type(e) is int:
                out.append([e % p] if e % p else [])
            elif isinstance(e, list) and all(type(c) is int for c in e):
                out.append([c % p for c in e])
            else:
                raise UsageError(f"bad matrix entry {e!r}")
        ent.append(out)
    if not ent or any(len(r) != len(ent[0]) for r in ent):
        raise UsageError("matrix rows must have equal length")
    return PolyMatrix(len(ent), len(ent[0]), p, ent, modulus)


def _payload_p(payload, args):
    """The payload's prime, held to the same set as --p: the kernels
    assume a field."""
    p = payload.get("p", args.p or 2)
    if type(p) is not int or p not in PRIMES:
        raise UsageError(f"payload p must be a small prime, got {p!r}")
    return p


def _op_snf(payload, args):
    p = _payload_p(payload, args)
    modulus = payload.get("modulus")
    if modulus is not None and (type(modulus) is not int or modulus < 1):
        raise UsageError(
            f"payload modulus must be a positive integer, got {modulus!r}")
    if modulus is not None and modulus > SNF_MAX_MODULUS:
        raise UsageError(f"snf with modulus {modulus} is over the limit "
                         f"modulus <= {SNF_MAX_MODULUS}")
    A = _parse_entries(payload["matrix"], p, modulus)
    _check_snf_size(A)
    res = snf(A)
    return {
        "U": res.U.entries,
        "D": res.D.entries,
        "W": res.W.entries,
        "invariant_factors": res.invariant_factors,
    }


def _check_snf_size(A):
    """Refuse an snf of A past SNF_MAX_SIDE or SNF_MAX_WORK."""
    n = max(A.rows, A.cols)
    if n > SNF_MAX_SIDE:
        raise UsageError(f"snf of a {A.rows}x{A.cols} matrix is over the "
                         f"limit rows, columns <= {SNF_MAX_SIDE}")
    if A.modulus is None:
        d = max([len(e) - 1 for row in A.nonzero for e in row.values()],
                default=0)
        slots = (n + 1) * d + 1
    else:
        slots = A.modulus
    if n ** 3 * slots ** 2 > SNF_MAX_WORK:
        raise UsageError(f"snf of a {A.rows}x{A.cols} matrix with {slots} "
                         f"coefficient slots per entry is over the limit "
                         f"n^3 * slots^2 <= {SNF_MAX_WORK}")


def _check_module_size(cfg, level, rank, exps):
    """Refuse a module of this rank with factors t^e, e in exps, at this
    level before it is built.  The s-degree e * p^level is found by exponent
    arithmetic: p^cap is past the limit, so no larger power is formed.
    Factors finer than the level are left to the builder, which refuses
    them."""
    if type(level) is not int or level < 0:
        raise UsageError(f"level must be a non-negative integer, got {level!r}")
    if cfg.mode == CHAR_P_TRUNCATED:
        exps = [*exps, cfg.trunc]
    cap = MODULE_MAX_SIZE.bit_length()
    degree = max([e.num * cfg.p ** min(level - e.k, cap)
                  for e in exps if e.k <= level], default=0)
    if rank * (rank + degree) > MODULE_MAX_SIZE:
        raise UsageError(f"module too large: rank * (rank + s-degree) is "
                         f"over the limit {MODULE_MAX_SIZE}")


def _module_from_payload(payload, args):
    cfg = _build_config(args)
    unknown = sorted(set(payload) - set(MODULE_KEYS))
    if unknown:
        raise UsageError(f"unknown module payload keys {unknown}, "
                         f"expected some of {list(MODULE_KEYS)}")
    if "p" in payload and payload["p"] != cfg.p:
        raise UsageError(f"payload p {payload['p']!r} differs from the "
                         f"configured prime {cfg.p} (--p)")
    if ("relations" in payload) != ("rank" in payload):
        raise UsageError("a module payload gives rank and relations together")
    if "relations" in payload and ("exponents" in payload
                                   or "free_rank" in payload):
        raise UsageError("a module payload gives either rank and relations "
                         "or exponents and free_rank")
    exps = payload.get("exponents", [])
    if not isinstance(exps, list):
        raise UsageError(f"payload exponents must be a list, got {exps!r}")
    exps = [PExp.from_fraction(cfg.p, e) for e in exps]
    level = payload.get("level", args.level)
    if level is None:
        level = max([0] + [e.k for e in exps])
    if "relations" in payload:
        rank = _count(payload, "rank", None)
        _check_module_size(cfg, level, rank, [])
        rel = _parse_entries(payload["relations"], cfg.p,
                             None) if payload["relations"] else \
            PolyMatrix(rank, 0, cfg.p)
        from .modules import ring_modulus
        rel = rel.with_modulus(ring_modulus(cfg, level))
        return PresentedModule(cfg, level, rank, rel)
    free_rank = _count(payload, "free_rank", 0)
    _check_module_size(cfg, level, len(exps) + free_rank, exps)
    return PresentedModule.from_factors(cfg, level, exps, free_rank)


def _decomposition(M):
    return {
        "free_rank": M.free_rank(),
        "torsion_exponents": [str(e.as_fraction())
                              for e in M.decompose_exponents()],
    }


def _op_decompose(payload, args):
    return _decomposition(_module_from_payload(payload, args))


def _op_firmify(payload, args):
    if payload == "V" or payload == {"module": "V"}:
        cfg = _build_config(args)
        M = PresentedModule.free(cfg, 0, 1)
    else:
        M = _module_from_payload(payload, args)
    T = firmify(M)
    return {"tag": T.tag, "name": T.name}


def _op_k0_class(payload, args):
    cfg = _build_config(args)
    mults = payload["mults"]
    if not isinstance(mults, dict) or not all(
            isinstance(ab, list) and len(ab) == 2
            and all(type(n) is int and n >= 0 for n in ab)
            for ab in mults.values()):
        raise UsageError("payload mults must map degrees to pairs [a, b] of "
                         f"non-negative integers, got {mults!r}")
    mults = {int(d): tuple(ab) for d, ab in mults.items()}

    def realize(j):
        from .complexes import ChainComplex
        terms = {d: PresentedModule.free(cfg, j, a + b)
                 for d, (a, b) in mults.items()}
        return ChainComplex(cfg, terms, {})

    E = PerfPlus(cfg, mults, realize, aperf=payload.get("aperf", False))
    return k0_class(E).to_json()


def _op_a_n_plus(payload, args):
    cfg = _build_config(args)
    rank, stage = _count(payload, "rank", 1), _count(payload, "stage", 3)
    n = PExp.from_fraction(cfg.p, payload["n"])
    if rank > A_N_PLUS_MAX_RANK:
        raise UsageError(f"a_n_plus with rank {rank} is over the limit "
                         f"rank <= {A_N_PLUS_MAX_RANK}")
    # rank + 1 generators, each related by t^n at level max(stage, 1)
    _check_module_size(cfg, max(stage, 1), rank + 1, [n])
    return _decomposition(a_n_plus(rank, n, stage, cfg)[0])


def _op_tilt_basis_iso(payload, args):
    p = _payload_p(payload, args)
    n = payload["n"]
    if type(n) is not int or n < 0:
        raise UsageError(f"payload n must be a non-negative integer, got {n!r}")
    # p >= 2, so p^10 is past the limit already: no huge power is formed
    if p ** min(n, 10) > TILT_MAX_ENTRIES:
        raise UsageError(f"tilt_basis_iso with p^n = {p}^{n} is over the "
                         f"limit p^n <= {TILT_MAX_ENTRIES}")
    c = payload.get("c", 1)
    if type(c) is not int or c < 1:
        raise UsageError(f"payload c must be a positive integer, got {c!r}")
    if c > TILT_MAX_PRECISION:
        raise UsageError(f"tilt_basis_iso with c = {c} is over the limit "
                         f"c <= {TILT_MAX_PRECISION}")
    table = tilt_basis_iso(p, n, c)
    return {str(k): ["1" if e.is_zero() else f"{x}^({e})"
                     for x, e in zip("xt", pair)]
            for k, pair in table.items()}


OPS = {
    "snf": _op_snf,
    "decompose": _op_decompose,
    "firmify": _op_firmify,
    "k0_class": _op_k0_class,
    "a_n_plus": _op_a_n_plus,
    "tilt_basis_iso": _op_tilt_basis_iso,
}


# -- entry point -----------------------------------------------------------

@functools.cache
def _parser():
    """The argument parser, built on the first call and shared by every
    later main() in the process: parse_args keeps no state between calls
    (defaults are immutable, each parse fills a fresh namespace, and usage
    and error text go to the sys.stdout/sys.stderr of the moment)."""
    ap = argparse.ArgumentParser(prog="almostalg", description=__doc__)
    sub = ap.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--p", type=int, default=None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--report", type=str, default=None,
                        help="write the JSON report to this path")

    rs = sub.add_parser("run-suite", help="run a verification suite")
    rs.add_argument("suite", help="one of %s or 'all'" % (SUITE_NAMES,))
    common(rs)
    rs.add_argument("--depth", type=int, default=None)
    rs.add_argument("--working-level", type=int, default=None)
    rs.add_argument("--corpus-size", type=int, default=None)
    rs.add_argument("--time", action="store_true",
                    help="record per-check wall time in the report")

    cp = sub.add_parser("compute", help="run a single operation")
    cp.add_argument("op", help="one of %s" % (tuple(OPS),))
    cp.add_argument("--input", type=str, default=None,
                    help="JSON payload file (default: stdin)")
    common(cp)
    cp.add_argument("--mode", choices=("perfect", "truncated"),
                    default=None)
    cp.add_argument("--level", type=int, default=None)
    cp.add_argument("--truncation", type=int, default=None)
    return ap


_encode = json.JSONEncoder(sort_keys=True).encode


def _json_text(obj, indent="\n"):
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte.

    With indent, json.dumps runs its pure-Python encoder; here every
    container is one str.join, a list of plain ints (bools excluded) is
    joined in a single call, and strings, keys and other scalars go through
    json's C encoder."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        sep = "," + inner
        if set(map(type, obj)) == {int}:
            body = sep.join(map(int.__repr__, obj))
        else:
            body = sep.join([_json_text(x, inner) for x in obj])
        return "[" + inner + body + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        # a key that is not a string is written as json writes it, quoted
        return "{" + inner + ("," + inner).join([
            (_encode_str(k) if isinstance(k, str) else _encode(_encode(k)))
            + ": " + _json_text(obj[k], inner) for k in sorted(obj)]) \
            + indent + "}"
    if type(obj) is str:
        return _encode_str(obj)
    return _encode(obj)


def _emit(text, report):
    """Write the report file, then print text.  A stdout that cannot be
    written (closed pipe, full disk) is an input error: stdout is pointed
    at os.devnull, so that the interpreter's final flush prints nothing."""
    if report:
        try:
            with open(report, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:  # a directory, no permission, a full disk
            raise UsageError(exc)
    try:
        print(text)
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):  # no file descriptor behind stdout
            pass
        os.close(devnull)
        raise UsageError(f"cannot write to stdout: {exc}")


def _run_suite_cmd(args) -> int:
    _validate(args)
    if args.suite != "all" and args.suite not in SUITE_NAMES:
        raise UsageError(f"unknown suite {args.suite!r}")
    opts = SuiteOptions(
        seed=args.seed,
        corpus_size=args.corpus_size or 30,
        working_level=args.working_level or 8,
        depth=args.depth or 4,
        timing=args.time,
        primes=(args.p,) if args.p is not None else (2, 3),
    )
    reports = run_suite(args.suite, opts)
    doc = [r.to_json() for r in reports]
    _emit(_json_text(doc if args.suite == "all" else doc[0]), args.report)
    return 0 if all(r.ok for r in reports) else CHECK_FAILURE


def _input_text(path):
    """The payload text from path, or from stdin when no path is given."""
    if not path and sys.stdin is None:
        raise UsageError("stdin is closed; give the payload with --input")
    try:
        if not path:
            return sys.stdin.read()
        with open(path) as fh:
            return fh.read()
    except OSError as exc:  # missing, a directory, no permission
        raise UsageError(exc)
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot decode {path or 'stdin'}: {exc}")


def _compute_cmd(args) -> int:
    _validate(args)
    if args.op not in OPS:
        raise UsageError(f"unknown op {args.op!r}")
    raw = _input_text(args.input)
    try:
        payload = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer past the interpreter's digit limit,
        # or arrays and objects nested past the recursion limit
        raise UsageError(f"malformed JSON input: {exc}")
    if not isinstance(payload, dict) and not (args.op == "firmify"
                                              and payload == "V"):
        raise UsageError(f"payload for {args.op} must be a JSON object")
    try:
        result = OPS[args.op](payload, args)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad payload for {args.op}: {exc}")
    doc = {"op": args.op, "seed": args.seed, "result": result}
    _emit(_json_text(doc), args.report)
    return 0


def main(argv=None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return USAGE_ERROR if exc.code else 0
    if args.command is None:
        ap.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        if args.command == "run-suite":
            return _run_suite_cmd(args)
        return _compute_cmd(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

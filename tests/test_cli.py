import argparse
import errno
import io
import json
import os
import pathlib
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import almostalg
from almostalg import cli
from almostalg.cli import main
from almostalg.linalg import PolyMatrix, is_unimodular


def run_cli(argv, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_suite_pass(capsys, monkeypatch):
    code, out, _ = run_cli(["run-suite", "complexes", "--seed", "1"],
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "complexes"
    assert doc["overall"] == "pass"
    names = [c["name"] for c in doc["checks"]]
    assert names == sorted(names)


def test_unknown_suite_is_usage_error(capsys, monkeypatch):
    code, _, err = run_cli(["run-suite", "nope"], capsys=capsys,
                           monkeypatch=monkeypatch)
    assert code == 2
    assert "unknown suite" in err


def test_invalid_working_level_is_usage_error(capsys, monkeypatch):
    code, _, _ = run_cli(["run-suite", "complexes", "--working-level", "99"],
                         capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2


def test_check_failure_exit_code(capsys, monkeypatch):
    import almostalg.suites as suites

    def broken(opts):
        rep = suites.SuiteReport("complexes", opts)
        rep.add("always-fails", lambda: False)
        return rep

    monkeypatch.setitem(suites.SUITES, "complexes", broken)
    code, out, _ = run_cli(["run-suite", "complexes"], capsys=capsys,
                           monkeypatch=monkeypatch)
    assert code == 1
    assert json.loads(out)["overall"] == "fail"


def test_compute_snf(capsys, monkeypatch):
    payload = json.dumps({"p": 2, "matrix": [[[0, 1], [1]], [[], [0, 0, 1]]]})
    code, out, _ = run_cli(["compute", "snf"], stdin_text=payload,
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    doc = json.loads(out)
    assert doc["op"] == "snf"
    assert doc["result"]["invariant_factors"] == [[1], [0, 0, 0, 1]]


def test_compute_firmify_constant(capsys, monkeypatch):
    code, out, _ = run_cli(["compute", "firmify"], stdin_text='"V"',
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["result"]["tag"] == "IDEAL_M"


def test_compute_malformed_json(capsys, monkeypatch):
    code, _, err = run_cli(["compute", "snf"], stdin_text="{oops",
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2
    assert "malformed JSON" in err


def test_compute_integer_past_the_digit_limit_is_one_error_line(capsys,
                                                               monkeypatch):
    # json.loads refuses integers over 4,300 digits with a plain ValueError
    # on interpreters that limit integer string conversion; elsewhere the
    # c cap refuses it
    payload = '{"p": 2, "n": 3, "c": 1' + "0" * 5000 + "}"
    code, out, err = run_cli(["compute", "tilt_basis_iso"], stdin_text=payload,
                             capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out


def test_compute_unknown_op(capsys, monkeypatch):
    code, _, _ = run_cli(["compute", "frobnicate"], stdin_text="{}",
                         capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2


def test_compute_bad_payload(capsys, monkeypatch):
    code, _, err = run_cli(["compute", "snf"], stdin_text='{"p": 2}',
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2
    assert "bad payload" in err


def test_report_file_deterministic(tmp_path, capsys, monkeypatch):
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    for path in (p1, p2):
        code, _, _ = run_cli(["run-suite", "tilting", "--seed", "5",
                              "--report", str(path)],
                             capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_elapsed_null_without_timing_flag(capsys, monkeypatch):
    code, out, _ = run_cli(["run-suite", "tilting"], capsys=capsys,
                           monkeypatch=monkeypatch)
    assert code == 0
    doc = json.loads(out)
    assert all(c["elapsed"] is None for c in doc["checks"])
    code, out, _ = run_cli(["run-suite", "tilting", "--time"], capsys=capsys,
                           monkeypatch=monkeypatch)
    doc = json.loads(out)
    assert all(isinstance(c["elapsed"], float) or c["elapsed"] == 0
               for c in doc["checks"])


def test_compute_a_n_plus(capsys, monkeypatch):
    payload = json.dumps({"n": 2, "rank": 1})
    code, out, _ = run_cli(["compute", "a_n_plus", "--p", "2"],
                           stdin_text=payload, capsys=capsys,
                           monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["result"]["torsion_exponents"] == ["2"]


@pytest.mark.parametrize("payload", [
    {"p": 4, "matrix": [[[1, 1], [0, 1]], [[1], [1, 1]]]},
    {"p": 0, "matrix": [[1]]},
    [1, 2],
    {"p": 3, "modulus": -1, "matrix": [[1]]},
    {"p": 3, "modulus": 0, "matrix": [[1]]},
], ids=["p4", "p0", "non-object", "modulus-1", "modulus0"])
def test_compute_snf_rejects_bad_payload(payload, capsys, monkeypatch):
    code, out, err = run_cli(["compute", "snf"], stdin_text=json.dumps(payload),
                             capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert not out


@pytest.mark.parametrize("payload", [
    {"p": 3, "matrix": [[1]]},
    {"p": 3, "relations": [[1]]},
    {"p": 2, "rank": 1, "relations": [[1]]},
], ids=["unknown-key", "relations-without-rank", "p-differs"])
def test_compute_decompose_rejects_unreadable_payload(payload, capsys,
                                                      monkeypatch):
    code, out, err = run_cli(["compute", "decompose", "--p", "3"],
                             stdin_text=json.dumps(payload), capsys=capsys,
                             monkeypatch=monkeypatch)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert not out


def test_compute_decompose_reads_relations(capsys, monkeypatch):
    payload = {"p": 3, "rank": 2, "relations": [[[0, 1], []], [[], 1]]}
    code, out, _ = run_cli(["compute", "decompose", "--p", "3"],
                           stdin_text=json.dumps(payload), capsys=capsys,
                           monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["result"] == {"free_rank": 0,
                                         "torsion_exponents": ["1"]}


@pytest.mark.parametrize("payload, limit", [
    ({"p": 3, "n": 7}, "p^n <= 343"),
    ({"p": 2, "n": 40}, "p^n <= 343"),
    ({"p": 2, "n": 3, "c": 100000000}, "c <= 100"),
    ({"p": 3, "n": 6}, "p^n <= 343"),
    ({"p": 2, "n": 9}, "p^n <= 343"),
], ids=["3-7", "2-40", "2-3-c", "3-6", "2-9"])
def test_compute_tilt_basis_iso_refuses_past_the_cap(payload, limit, capsys,
                                                     monkeypatch):
    import almostalg.cli as cli

    def never(*args):
        raise AssertionError("tilt_basis_iso ran past the cap")

    monkeypatch.setattr(cli, "tilt_basis_iso", never)
    code, out, err = run_cli(["compute", "tilt_basis_iso"],
                             stdin_text=json.dumps(payload),
                             capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2
    assert err.startswith("error:") and limit in err
    assert not out


@pytest.mark.parametrize("c", [0, -1, "2", 1.5, True, None],
                         ids=["zero", "negative", "string", "float", "true",
                              "null"])
def test_compute_tilt_basis_iso_refuses_a_precision_that_is_no_positive_int(
        c, capsys, monkeypatch):
    code, out, err = run_cli(["compute", "tilt_basis_iso"],
                             stdin_text=json.dumps({"p": 2, "n": 2, "c": c}),
                             capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "payload c must be a positive integer" in err
    assert not out


@pytest.mark.parametrize("op, payload", [
    ("k0_class", {"mults": [1]}),
    ("k0_class", {"mults": 5}),
    ("k0_class", {"mults": {"0": [-5, 0]}}),
    ("k0_class", {"mults": {"0": [1.5, 0]}}),
    ("decompose", {"exponents": "12"}),
    ("decompose", {"free_rank": True}),
    ("decompose", {"rank": True, "relations": [[1]]}),
    ("snf", {"matrix": [[[1.5]]]}),
    ("snf", {"matrix": [[True]]}),
    ("a_n_plus", {"n": 1, "rank": True}),
    ("a_n_plus", {"n": 1, "stage": -1}),
    ("decompose", {"exponents": [True]}),
    ("a_n_plus", {"n": True}),
], ids=["mults-list", "mults-int", "mults-negative", "mults-float",
        "exponents-string", "free-rank-true", "rank-true",
        "coefficient-float", "entry-true", "a-n-plus-rank-true",
        "a-n-plus-stage-negative", "exponent-true", "a-n-plus-n-true"])
def test_compute_refuses_a_malformed_payload(op, payload, capsys,
                                             monkeypatch):
    # each was read as something else (or raised) before: mults as a
    # list raised AttributeError, a negative mult gave "free": -5, the
    # string "12" was read as exponents 1 and 2, 1.5 truncated to 1 and
    # true read as 1 (as a count, a coefficient or an exponent)
    code, out, err = run_cli(["compute", op], stdin_text=json.dumps(payload),
                             capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err and not out


@pytest.mark.parametrize("argv", [
    ["--mode", "truncated", "--truncation", "0"],
    ["--mode", "truncated", "--truncation", "-2"],
    ["--mode", "mixed"],
], ids=["truncation-0", "truncation-negative", "mode-mixed"])
def test_compute_refuses_a_ring_it_cannot_build(argv, capsys, monkeypatch):
    code, out, err = run_cli(["compute", "decompose", "--p", "2"] + argv,
                             stdin_text='{"exponents": ["1"]}',
                             capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2
    assert err.startswith("error: --truncation must be positive") \
        or "invalid choice: 'mixed'" in err
    assert "Traceback" not in err and not out


class _UnwritableStdout(io.StringIO):
    """A stdout whose reader has gone (closed pipe) or whose disk is full."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize("error", [
    BrokenPipeError(errno.EPIPE, "Broken pipe"),
    OSError(errno.ENOSPC, "No space left on device"),
], ids=["closed-pipe", "full-disk"])
@pytest.mark.parametrize("argv, stdin_text", [
    (["compute", "tilt_basis_iso"], '{"p": 2, "n": 2}'),
    (["run-suite", "complexes"], None),
], ids=["compute", "run-suite"])
def test_unwritable_stdout_is_one_error_line(argv, stdin_text, error,
                                            capsys, monkeypatch):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    monkeypatch.setattr("sys.stdout", _UnwritableStdout(error))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write to stdout")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_report_is_written_when_stdout_is_closed(tmp_path, capsys,
                                                monkeypatch):
    path = tmp_path / "report.json"
    monkeypatch.setattr("sys.stdout",
                        _UnwritableStdout(BrokenPipeError(errno.EPIPE, "")))
    code = main(["run-suite", "complexes", "--seed", "1",
                 "--report", str(path)])
    assert code == 2
    assert json.loads(path.read_text())["overall"] == "pass"


@pytest.mark.parametrize("argv, payload, level", [
    ([], {"exponents": ["1/3"], "free_rank": 1}, 1),
    ([], {"exponents": ["2", "1/9", "1/3"]}, 2),
    (["--level", "3"], {"exponents": ["1/3"]}, 3),
    ([], {"exponents": ["1/3"], "level": 2}, 2),
], ids=["finest-exponent", "several", "flag", "payload-level"])
def test_compute_decompose_defaults_to_the_exponents_level(
        argv, payload, level, capsys, monkeypatch):
    import almostalg.cli as cli
    levels = []
    real = cli._module_from_payload

    def spy(payload, args):
        M = real(payload, args)
        levels.append(M.level)
        return M

    monkeypatch.setattr(cli, "_module_from_payload", spy)
    code, out, _ = run_cli(["compute", "decompose", "--p", "3"] + argv,
                           stdin_text=json.dumps(payload), capsys=capsys,
                           monkeypatch=monkeypatch)
    assert code == 0 and levels == [level]
    result = json.loads(out)["result"]
    assert result["free_rank"] == payload.get("free_rank", 0)
    assert sorted(result["torsion_exponents"]) == sorted(payload["exponents"])


@pytest.mark.parametrize("argv, payload", [
    (["--level", "0"], {"exponents": ["1/3"], "free_rank": 1}),
    ([], {"exponents": ["1/9"], "level": 1}),
], ids=["flag", "payload-level"])
def test_compute_decompose_refuses_a_level_coarser_than_an_exponent(
        argv, payload, capsys, monkeypatch):
    code, out, err = run_cli(["compute", "decompose", "--p", "3"] + argv,
                             stdin_text=json.dumps(payload), capsys=capsys,
                             monkeypatch=monkeypatch)
    assert code == 2
    assert err.startswith("error:") and "does not live at level" in err
    assert not out


@pytest.mark.parametrize("argv", [
    ["run-suite", "complexes", "--mode", "truncated"],
    ["run-suite", "complexes", "--level", "1"],
    ["run-suite", "complexes", "--truncation", "2"],
    ["compute", "snf", "--depth", "2"],
    ["compute", "snf", "--working-level", "4"],
    ["compute", "snf", "--corpus-size", "5"],
    ["compute", "snf", "--time"],
], ids=["run-suite-mode", "run-suite-level", "run-suite-truncation",
        "compute-depth", "compute-working-level", "compute-corpus-size",
        "compute-time"])
def test_subcommand_refuses_a_flag_it_does_not_read(argv, capsys,
                                                    monkeypatch):
    code, out, err = run_cli(argv, stdin_text='{"p": 2, "matrix": [[1]]}',
                             capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2
    assert "unrecognized arguments" in err and not out


@pytest.mark.parametrize("argv, stdin_bytes", [
    (["compute", "snf", "--report", "{dir}"], b'{"p": 2, "matrix": [[1]]}'),
    (["run-suite", "complexes", "--report", "{dir}"], None),
    (["compute", "snf", "--input", "{dir}"], None),
    (["compute", "snf", "--input", "{undecodable}"], None),
    (["compute", "snf"], b"\xff\xfe{"),
    (["compute", "snf"], "closed"),
], ids=["compute-report-dir", "run-suite-report-dir", "input-dir",
        "input-undecodable", "stdin-undecodable", "stdin-closed"])
def test_unreadable_or_unwritable_path_is_one_error_line(
        argv, stdin_bytes, tmp_path, capsys, monkeypatch):
    undecodable = tmp_path / "payload.json"
    undecodable.write_bytes(b"\xff\xfe{")
    argv = [a.format(dir=tmp_path, undecodable=undecodable) for a in argv]
    if stdin_bytes == "closed":  # started with file descriptor 0 closed
        monkeypatch.setattr("sys.stdin", None)
    elif stdin_bytes is not None:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(stdin_bytes), encoding="utf-8"))
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err and not out


def _address_space_limit():
    resource.setrlimit(resource.RLIMIT_AS, (10 ** 9, 10 ** 9))


@pytest.mark.parametrize("op, p, payload, limit", [
    ("decompose", 3, {"exponents": ["1000000000"], "free_rank": 0},
     "MODULE_MAX_SIZE"),
    ("decompose", 3, {"exponents": ["1"], "level": 40}, "MODULE_MAX_SIZE"),
    ("decompose", 2, {"free_rank": 100000000}, "MODULE_MAX_SIZE"),
    ("a_n_plus", 3, {"n": 1, "stage": 40}, "MODULE_MAX_SIZE"),
    ("a_n_plus", 3, {"n": 1, "rank": 1000}, "A_N_PLUS_MAX_RANK"),
], ids=["decompose-exponent", "decompose-level", "decompose-free-rank",
        "a-n-plus-stage", "a-n-plus-rank"])
def test_compute_refuses_an_oversized_module_up_front(op, p, payload, limit):
    # in a child under a 1 GB address-space limit: a module that is built
    # before it is refused ends in MemoryError there, not on the host
    src = str(pathlib.Path(almostalg.__file__).parent.parent)
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "almostalg.cli", "compute", op, "--p", str(p)],
        input=json.dumps(payload), capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=60,
        preexec_fn=_address_space_limit)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert str(getattr(cli, limit)) in proc.stderr and not proc.stdout
    assert elapsed < 1.0


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("prog") == "almostalg":  # not a subcommand's parser
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(10):
        code, _, _ = run_cli(["compute", "snf"],
                             stdin_text='{"p": 2, "matrix": [[1]]}',
                             capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
    assert len(built) <= 1


def test_reused_parser_answers_as_a_fresh_process(capsys, monkeypatch):
    # one process, one parser: every answer equals that of a new process
    snf = (["compute", "snf"],
           '{"p": 3, "matrix": [[[1, 2], [0, 1]], [[2], [1, 1, 1]]]}')
    sequence = [
        snf,
        (["compute", "snf", "--depth", "3"], ""),
        (["--help"], ""),
        (["compute", "snf"], '{"p": 2}'),
        (["run-suite", "complexes", "--mode", "truncated"], ""),
        snf,
    ]
    src = str(pathlib.Path(almostalg.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap width
    for argv, stdin_text in sequence:
        got = run_cli(argv, stdin_text=stdin_text, capsys=capsys,
                      monkeypatch=monkeypatch)
        proc = subprocess.run([sys.executable, "-m", "almostalg.cli"] + argv,
                              input=stdin_text, capture_output=True,
                              text=True, env=env)
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv


_scalars = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.text(st.characters(codec="utf-8")))
_documents = st.recursive(
    _scalars,
    lambda kids: (st.lists(kids, max_size=5)
                  | st.lists(kids, max_size=3).map(tuple)
                  | st.lists(st.integers() | st.booleans(), max_size=5)
                  | st.dictionaries(st.text(st.characters(codec="utf-8")),
                                    kids, max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_json_text_writes_the_bytes_of_json_dumps(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_json_text_keeps_bools_and_escapes_apart_from_ints():
    for doc in ({"b": [True, 1, False, 0], "\u00e9\n\"": [[1, 2], [], {}]},
                {2: [1], 1: 0.5, True: None}):
        assert cli._json_text(doc) == json.dumps(doc, indent=2,
                                                 sort_keys=True)
    assert cli._json_text([True, False]) == "[\n  true,\n  false\n]"


# sha256 of `compute` stdout per payload, as json.dumps and an snf that
# built its inverse transforms eagerly wrote it; the bytes must not move.
# D is unique but U and W are one choice among many (snf-1's follow the
# Euclidean clearing step), so each recorded snf output is also checked to
# be a Smith form of its payload
_GOLDEN = [
    (["snf"], {"p": 3, "matrix": [[[1, 2], [0, 1], [2]],
                                  [[0, 0, 1], [1], [1, 1]],
                                  [[2, 1], [1, 0, 2], [0, 1]]]},
     "b972ff6046641c39963062a1ff645f23036653b38d5d7d0fd9c8c887431afea9"),
    (["snf"], {"p": 5, "matrix": [[[1, 4], 3, [0, 2, 1]],
                                  [[2], [0, 0, 1], [3, 3]]]},
     "684945c5a079103a287ff7ac3c2036e5029e233b69d72d31494cf5ca8877039b"),
    (["snf"], {"p": 2, "modulus": 4,
               "matrix": [[[1, 1], [0, 1]], [[0, 1], [1, 0, 1]],
                          [[0, 0, 1], [1]]]},
     "3145d4b091cbcfadaa996c14a9eea0b67d71d1ee8fd754be0b5062a9f3b91e3a"),
    (["decompose", "--p", "3"],
     {"exponents": ["1/3", "2", "1/9"], "free_rank": 1},
     "209b184c0f45003231e16c66a1974fff754442bec630fe6b0131ef00171e7ae6"),
    (["decompose", "--p", "2", "--mode", "truncated", "--truncation", "2"],
     {"rank": 2, "relations": [[[0, 1], [1]], [[0, 0, 1], []]]},
     "fbe6e55ddcd7429bfdb85c4f9ba6ad787525e50e2a1e36d567f4bcca1ba7215c"),
    (["firmify"], "V",
     "1c0d86f1c649e8657cdc0c5fca228409339bc2609a3d431b6121b5fd858a76a2"),
    (["firmify", "--p", "2"], {"exponents": ["1"], "free_rank": 0},
     "3ebaf001589961ecb35f6ebddfcee218d3fba13f5347f95f802cd11b20a29248"),
    (["k0_class", "--p", "3"], {"mults": {"0": [1, 0], "1": [0, 2]}},
     "ed1ddb76494cdaefc59f22f05560614f79010c1634718e5cd61e3baa3739eb9d"),
    (["k0_class", "--p", "2", "--seed", "4"],
     {"mults": {"-1": [2, 1]}, "aperf": True},
     "c1762fb0575d49b25b2740bfb2730d1e76fc91ea7f2967cfcb43c7f024b287fe"),
    (["a_n_plus", "--p", "2"], {"n": 2, "rank": 1},
     "3bdaae27dae57dc6aae7ed9931cb29f0247ce2eb242972f8ac4cedfefb553663"),
    (["a_n_plus", "--p", "3"], {"n": "1/3", "rank": 2, "stage": 2},
     "9bfa40b3e19a87ec1f6c03eb351d30d7f87327b1795feb3d0fa6a514e6d5e5ab"),
    (["tilt_basis_iso"], {"p": 2, "n": 3},
     "218425c9f6dfc8bbc659fee158c835ef1d3a805b38229a8dcf7a4dcb444f874f"),
    (["tilt_basis_iso"], {"p": 3, "n": 2, "c": 2},
     "b4f292eddc581a39701b8848d74533f20f9fbc947ede3298588fdd5c26d2b3fb"),
]


@pytest.mark.parametrize("argv, payload, digest", _GOLDEN,
                         ids=[f"{a[0]}-{i}" for i, (a, _, _) in
                              enumerate(_GOLDEN)])
def test_compute_stdout_bytes_as_recorded(argv, payload, digest, capsys,
                                          monkeypatch):
    import hashlib
    code, out, err = run_cli(["compute", *argv],
                             stdin_text=json.dumps(payload),
                             capsys=capsys, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if argv == ["snf"]:
        # the recorded bytes are a valid Smith form of the payload
        p, m = payload["p"], payload.get("modulus")
        res = json.loads(out)["result"]
        U, D, W = (PolyMatrix(len(g), len(g[0]), p, g, m)
                   for g in (res["U"], res["D"], res["W"]))
        assert U.mul(D).mul(W) == cli._parse_entries(payload["matrix"], p, m)
        assert is_unimodular(U) and is_unimodular(W)

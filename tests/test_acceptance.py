"""End-to-end acceptance gate.

Each test evaluates one acceptance criterion against the suite reports
(one shared run, fixed seed) and records a PASS/FAIL line that conftest
prints in the terminal summary.
"""
import hashlib
import json
import os

import pytest

from almostalg.suites import SUITE_NAMES, SuiteOptions, run_suite

RESULTS = []


@pytest.fixture(scope="module")
def reports():
    opts = SuiteOptions(seed=0, corpus_size=50, working_level=8, depth=4)
    return {r.name: r.to_json() for r in run_suite("all", opts)}


def _checks(reports, suite):
    return {c["name"]: c for c in reports[suite]["checks"]}


def record(name, ok, detail=""):
    RESULTS.append((name, ok, detail))
    assert ok, f"{name}: {detail}"


def _all_pass(reports, suite, names):
    checks = _checks(reports, suite)
    bad = [n for n in names if checks[n]["verdict"] != "pass"]
    return not bad, ", ".join(f"{n}: {checks[n]['witness']}" for n in bad)


def test_criterion_01_quillen_mu_corpus(reports):
    ok, detail = _all_pass(reports, "quillen", [
        "mu-almost-iso", "mu-prime-almost-iso", "i-tilde-levelwise-iso",
        "colocal-ext-vanishing"])
    record("criterion-01 almost-iso corpus (mu, mu', I-tilde, Ext)", ok,
           detail)


def test_criterion_02_firm_closed_roundtrips(reports):
    ok, detail = _all_pass(reports, "quillen", [
        "firmify-idempotent", "closedify-idempotent", "shriek-roundtrip",
        "compactness"])
    record("criterion-02 firm/closed idempotence and round trips", ok, detail)


def test_criterion_03_linear_algebra_oracle(reports):
    ok, detail = _all_pass(reports, "quillen", [
        "snf-random-oracle", "cokernel-enumeration-oracle"])
    record("criterion-03 SNF oracle and cokernel enumeration", ok, detail)


def test_criterion_04_k0_splitting(reports):
    ok, detail = _all_pass(reports, "k0", [
        "split-projectors", "triangle-ledger", "class-elementary-moves"])
    record("criterion-04 K0 projector splitting and ledger descent", ok,
           detail)


def test_criterion_05_k_ideal(reports):
    ok, detail = _all_pass(reports, "k0", [
        "k-ideal", "aperf-class-surjectivity"])
    record("criterion-05 K-ideal kernel and basis decomposition", ok, detail)


def test_criterion_06_gersten(reports):
    ok, detail = _all_pass(reports, "k0", ["gersten-retraction"])
    record("criterion-06 Gersten retraction at pi_0", ok, detail)


def test_criterion_07_algebra_suite(reports):
    ok, detail = _all_pass(reports, "algebra", [
        "unitalize-axiom-search", "unitalize-roundtrips",
        "shriek-sequence-corpus"])
    record("criterion-07 unitalization axioms and shriek sequence", ok,
           detail)


def test_criterion_08_syntomic_ladder(reports):
    ok, detail = _all_pass(reports, "algebra", ["syntomic-ladder"])
    record("criterion-08 syntomic ladder with n-to-1 rescaling", ok, detail)


def test_criterion_09_tilting(reports):
    ok, detail = _all_pass(reports, "tilting", [
        "tilt-basis-tables", "lemma-a-pipelines", "tilting-zigzag"])
    record("criterion-09 tilting tables, lemma pipelines, zigzag", ok, detail)


def test_criterion_10_tower_roundtrips(reports):
    ok, detail = _all_pass(reports, "tower", [
        "limit-roundtrips", "firm-twist-roundtrips", "frobenius-checks"])
    record("criterion-10 tower limit round trips", ok, detail)


def test_criterion_11_nakayama_and_lift(reports):
    ok, detail = _all_pass(reports, "algebra", [
        "nakayama-search", "lift-search"])
    record("criterion-11 Nakayama search and congruent-lift checks", ok,
           detail)


def test_report_bytes_match_recorded(reports):
    # serialised as `run-suite all --report` writes it; the recorded sha256
    # is the benchmark's, so a byte change fails here as well
    text = json.dumps([reports[n] for n in SUITE_NAMES], indent=2,
                      sort_keys=True) + "\n"
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "expected.json")
    with open(path) as fh:
        want = json.load(fh)["acceptance-all"]["report_sha256"]
    assert hashlib.sha256(text.encode()).hexdigest() == want

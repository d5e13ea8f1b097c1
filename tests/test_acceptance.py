"""Acceptance suite, one test per criterion.

The suite is computed once per session (criteria 1-13 twice: the second
pass feeds the determinism check of criterion 14). Criterion 8 states the
collective end-control result with its certified exception, the half-chain
XX family N = 2k at kappa = 0, and goes red if any fixture leaves that
pattern or any certificate of the exception fails.
"""

import pytest

from spinctrl.acceptance import format_outcome, run_suite


@pytest.fixture(scope="session")
def outcome():
    return run_suite(seed=0)


def _assert_criterion(outcome, number):
    results = {r.number: r for r in outcome.results}
    results[outcome.determinism.number] = outcome.determinism
    r = results[number]
    detail = "\n".join(f"  {line}" for line in r.lines)
    assert r.passed, f"criterion {number} failed: {r.title}\n{detail}"


def test_criterion_01_seven_chain(outcome):
    _assert_criterion(outcome, 1)


def test_criterion_02_graded_controls(outcome):
    _assert_criterion(outcome, 2)


def test_criterion_03_inhomogeneous_matrix(outcome):
    _assert_criterion(outcome, 3)


def test_criterion_04_gcd_iff_sweep(outcome):
    _assert_criterion(outcome, 4)


def test_criterion_05_symmetric_kappa_table(outcome):
    _assert_criterion(outcome, 5)


def test_criterion_06_branch_tables(outcome):
    _assert_criterion(outcome, 6)


def test_criterion_07_end_control_random(outcome):
    _assert_criterion(outcome, 7)


def test_criterion_08_collective_end_control(outcome):
    _assert_criterion(outcome, 8)


def test_criterion_09_odd_even_robust(outcome):
    _assert_criterion(outcome, 9)


def test_criterion_10_mirror_symmetric(outcome):
    _assert_criterion(outcome, 10)


def test_criterion_11_internal_symmetries(outcome):
    _assert_criterion(outcome, 11)


def test_criterion_12_commutant_iff_dark(outcome):
    _assert_criterion(outcome, 12)


def test_criterion_13_float_exact_agreement(outcome):
    _assert_criterion(outcome, 13)


def test_criterion_14_determinism_and_runtime(outcome):
    _assert_criterion(outcome, 14)


def test_report_renders(outcome):
    text = format_outcome(outcome)
    assert "criterion  1" in text
    assert "elapsed" in text


def test_criterion_seconds_reported(outcome):
    # per-criterion time is printed next to elapsed and kept out of the
    # detail lines that the determinism digest hashes
    assert list(outcome.criterion_seconds) == list(range(1, 14))
    assert all(s >= 0 for s in outcome.criterion_seconds.values())
    lines = format_outcome(outcome, verbose=False).splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("elapsed:"))
    assert lines[at + 1].startswith("seconds per criterion, both passes: 1: ")
    assert not any("seconds" in line for r in outcome.results for line in r.lines)


def test_perturbed_tolerance_is_detected():
    # a deliberately loose rank threshold must surface as criterion failures
    from spinctrl.acceptance import criterion_04
    assert not criterion_04(tolerance=1e-1).passed


def test_broken_half_chain_witness_is_detected(monkeypatch):
    # a witness that no longer anticommutes must turn criterion 8 red
    import spinctrl.acceptance as acceptance
    from spinctrl.analytic import half_chain_witness

    def broken(k):
        s = half_chain_witness(k).copy()
        s[0, -1], s[-1, 0] = -s[0, -1], -s[-1, 0]
        return s

    monkeypatch.setattr(acceptance, "half_chain_witness", broken)
    result = acceptance.criterion_08()
    assert not result.passed
    assert any("anticommutes with both traceless generators False" in line
               for line in result.lines)

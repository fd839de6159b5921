"""One test per acceptance check; each prints its PASS/FAIL line.

These are the package's advertised guarantees.  Tolerances and calibration
constants live in maxkernel.acceptance and are shared verbatim with the
``maxkernel verify`` command; nothing here may loosen them.
"""
from maxkernel import acceptance


def _run(fn):
    r = fn()
    print(r.line())
    assert r.passed, r.detail
    return r


def test_01_exact_spectrum():
    _run(acceptance.check_exact_spectrum)


def test_02_trace_identity():
    _run(acceptance.check_trace_identity)


def test_03_hs_norm():
    _run(acceptance.check_hs_norm)


def test_04_asymptotics():
    _run(acceptance.check_asymptotics)


def test_05_volterra_limit():
    _run(acceptance.check_volterra_limit)


def test_06_exp_growth():
    _run(acceptance.check_exp_growth)


def test_07_step_rank():
    _run(acceptance.check_step_rank)


def test_08_kronecker_det():
    _run(acceptance.check_kronecker_det)


def test_09_positivity():
    _run(acceptance.check_positivity)


def test_10_factorization():
    _run(acceptance.check_factorization)


def test_11_schatten_verdicts():
    _run(acceptance.check_schatten_verdicts)


def test_12_cross_representation():
    _run(acceptance.check_cross_representation)


def test_runner_covers_every_family(monkeypatch):
    # only the registration is under test: the bodies become stubs
    for check in acceptance.CHECKS.values():
        monkeypatch.setattr(check, "__wrapped__", lambda tol: (True, "stub"))
    assert len(acceptance.CHECKS) == 12
    assert len(set(acceptance.FAMILIES)) == 12
    results = acceptance.run_checks(only="kronecker")
    assert [r.name for r in results] == ["kronecker-det"]
    names = set()
    for f in acceptance.FAMILIES:
        results = acceptance.run_checks(only=f)
        assert [r.family for r in results] == [f]
        names.add(results[0].name)
    assert len(names) == 12

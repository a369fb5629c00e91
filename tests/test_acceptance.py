"""The acceptance gate: every criterion at its stated scale and tolerance.

Each test runs one numbered suite from ossprim.checks at full parameters and
prints its one-line pass/fail verdict (run pytest with -s to see them all).
Criterion 15 (CLI determinism) lives in the CLI test,
``tests/test_cli.py::test_documented_examples_are_deterministic``.
"""

from ossprim import checks


def _run(fn, **kwargs):
    res = fn(**kwargs)
    print(res.line)
    assert res.ok, res.line
    if res.budget is not None:
        assert res.seconds <= res.budget, res.line
    return res


def test_crit01_merge_correctness():
    _run(checks.crit01_merge_correctness)


def test_crit02_merge_uniformity():
    _run(checks.crit02_merge_uniformity)


def test_crit03_neighbor_swap_correctness():
    _run(checks.crit03_merge_neighbor_swap)


def test_crit04_puncture_statistics():
    _run(checks.crit04_puncture_statistics)


def test_crit05_prp_suite():
    _run(checks.crit05_prp)


def test_crit06_decomposition_oracle():
    _run(checks.crit06_decomposition)


def test_crit07_opprp_owp():
    _run(checks.crit07_opprp_owp)


def test_crit08_sparse_trigger():
    _run(checks.crit08_trigger)


def test_crit09_hypergeometric():
    _run(checks.crit09_hypergeom)


def test_crit10_oss_oracle_triple():
    _run(checks.crit10_oss_triple)


def test_crit11_cpf_embedding():
    _run(checks.crit11_cpf_embedding)


def test_crit12_lwe_toy_hash():
    _run(checks.crit12_lwe)


def test_crit13_noncollapsing_gap():
    _run(checks.crit13_noncollapsing)


def test_crit14_sign_verify_demo():
    _run(checks.crit14_sign_verify)

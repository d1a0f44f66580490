"""Acceptance gate: the nine headline checks, one printed verdict each.

Every test computes its check, prints a single line of the form
"criterion N: PASS/FAIL (detail)", and then asserts.  Two sub-checks of
criterion 4 exercise catalogue pairings that are not actually zero-energy
states (the pair-sum family against the endpoint products, and the
odd-parity sum with its literal lower summation bound); those tests fail
by design and document the margin by which the claim misses.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from mpschain.classify import (CanonicalForm, CaseId, MU_CASES,
                               canonical_space, classify)
from mpschain.hamiltonian import FamilyId, FamilyParams, build_family
from mpschain.pauli import PauliQuartet, sl2_act, sl2_act_space, span_equal
from mpschain.states import (MPSSpec, constraint_residual,
                             ground_state_catalogue, mps_contract,
                             product_state, psi_k, psi_parity,
                             representation_for_case)
from mpschain.verify import family_report
from oracles import (check_zero_member, child_env, covariance_check,
                     kron_chain, minkowski, operator_sum, random_sl2,
                     trace_form)

MU_SAMPLES = (0.0, 1.0, 0.37 + 0.2j)

# Fibonacci with F(1) = F(2) = 1; the hard-core kernel on N sites has
# dimension F(N+2).
FIB = {2: 3, 3: 5, 4: 8, 5: 13, 6: 21, 7: 34, 8: 55, 9: 89, 10: 144}


def _line(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def _random_params(family: FamilyId, rng) -> FamilyParams:
    def cplx():
        return complex(rng.normal(), rng.normal())

    if family in (FamilyId.HARDCORE, FamilyId.HARDCORE_MIXED):
        return FamilyParams(family, g=float(rng.uniform(0.1, 3.0)))
    if family is FamilyId.EXCHANGE:
        return FamilyParams(family, g=float(rng.uniform(0.1, 3.0)),
                            nu=cplx(), nu_prime=cplx())
    if family is FamilyId.PINNED:
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        return FamilyParams(family, lambda3=a.conj().T @ a)
    g1, g2 = rng.uniform(0.0, 2.0, size=2)
    cap = np.sqrt(g1 * g2)
    mag = cap if rng.uniform() < 0.25 else rng.uniform(0.0, cap)
    g3 = mag * np.exp(2j * np.pi * rng.uniform())
    extra = {}
    if family in (FamilyId.PAIRSUM_EXCHANGE, FamilyId.HARDCORE_EXCHANGE):
        extra = {"nu": cplx(), "nu_prime": cplx()}
    return FamilyParams(family, g1=float(g1), g2=float(g2), g3=g3, **extra)


def _random_quartet(rng) -> PauliQuartet:
    vals = rng.normal(size=4) + 1j * rng.normal(size=4)
    return PauliQuartet(*vals)


# ---------------------------------------------------------------------------
# criterion 1


def test_criterion_1_classifier_orbit_round_trip():
    rng = np.random.default_rng(101)
    total = failures = 0
    for case_id in CaseId:
        mus = MU_SAMPLES if case_id in MU_CASES else (None,)
        for mu in mus:
            form = CanonicalForm(case_id, mu)
            base = canonical_space(form)
            for _ in range(100):
                g = random_sl2(rng, max_cond=20.0)
                moved = sl2_act_space(g, base)
                result = classify(moved)
                ok = result.form.case_id == case_id
                if ok and mu is not None:
                    ok = abs(result.form.mu - mu) <= 1e-6 * max(1.0, abs(mu))
                if ok:
                    image = sl2_act_space(result.gamma, moved)
                    ok = span_equal(image, canonical_space(result.form),
                                    1e-8)
                total += 1
                failures += 0 if ok else 1
    _line("1", failures == 0,
          f"{total - failures}/{total} orbit samples recovered with a "
          f"span-faithful witness at 1e-8")
    assert failures == 0


# ---------------------------------------------------------------------------
# criteria 2 and 3 share the sampling


def test_criterion_2_dual_route_agreement():
    rng = np.random.default_rng(102)
    worst = 0.0
    boundary_draws = 0
    for family in FamilyId:
        for _ in range(1000):
            p = _random_params(family, rng)
            if p.g1 is not None and abs(
                    p.g1 * p.g2 - abs(p.g3) ** 2) <= 1e-15:
                boundary_draws += 1
            via_ops = operator_sum(p)
            via_rows = build_family(p).matrix
            scale = max(1.0, float(np.max(np.abs(via_rows))))
            worst = max(worst, float(np.max(np.abs(via_ops - via_rows)))
                        / scale)
    ok = worst <= 1e-12
    _line("2", ok, f"9000 draws ({boundary_draws} on the weight boundary), "
                   f"worst entrywise gap {worst:.3e} <= 1e-12")
    assert ok


def test_criterion_3_psd_and_hermiticity():
    rng = np.random.default_rng(103)
    worst_herm = 0.0
    worst_neg = 0.0
    for family in FamilyId:
        for _ in range(1000):
            h = build_family(_random_params(family, rng)).matrix
            scale = max(1.0, float(np.max(np.abs(h))))
            worst_herm = max(worst_herm,
                             float(np.max(np.abs(h - h.conj().T))) / scale)
            evals = np.linalg.eigvalsh(h)
            worst_neg = max(worst_neg,
                            -float(evals[0]) / max(1.0, float(evals[-1])))
    ok = worst_herm <= 1e-12 and worst_neg <= 1e-10
    _line("3", ok, f"worst Hermitian defect {worst_herm:.3e} <= 1e-12, "
                   f"worst relative negativity {worst_neg:.3e} <= 1e-10")
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: catalogued memberships, plus two pairings that do not hold


def test_criterion_4_catalogued_memberships():
    rng = np.random.default_rng(104)
    worst = 0.0
    checks = 0
    for n in range(2, 11):
        for family in FamilyId:
            params = _random_params(family, rng)
            if family is FamilyId.PAIRSUM_EXCHANGE:
                # pin the branch with a known state on this size
                nu = complex(rng.normal(), rng.normal())
                params = FamilyParams(family, g1=params.g1, g2=params.g2,
                                      g3=params.g3, nu=nu,
                                      nu_prime=-nu if n % 2 == 0 else nu)
            chain = kron_chain(operator_sum(params), n)
            for ns in ground_state_catalogue(params, n):
                worst = max(worst, check_zero_member(chain, ns.state))
                checks += 1

    # exchange with ratio -1: every k-string state on even chains
    exchange = FamilyParams(FamilyId.EXCHANGE, g=1.0, nu=1.0, nu_prime=-1.0)
    local = operator_sum(exchange)
    for n in (2, 4, 6, 8):
        chain = kron_chain(local, n)
        for k in range(n // 2 + 1):
            worst = max(worst, check_zero_member(
                chain, psi_k(n, 2, k, -1.0)))
            checks += 1

    # hard-core kernel dimensions are exactly Fibonacci
    fib_ok = True
    hardcore = FamilyParams(FamilyId.HARDCORE, g=1.0)
    for n, expected in FIB.items():
        report = family_report(hardcore, n)
        fib_ok = fib_ok and report.kernel_dim == expected
        worst = max(worst, max(report.residuals.values()))
        checks += len(report.residuals)

    ok = worst <= 1e-9 and fib_ok
    _line("4", ok, f"{checks} state/chain residuals, worst {worst:.3e} "
                   f"<= 1e-9; hard-core kernels Fibonacci: {fib_ok}")
    assert worst <= 1e-9
    assert fib_ok


def test_criterion_4_pairsum_endpoint_products():
    """The catalogue pairs the pair-sum exchange family with the
    endpoint product states; the symmetric pair-sum row gives both
    products one unit of energy per bond, so the pairing fails for every
    valid parameter choice.  Kept red deliberately."""
    rng = np.random.default_rng(1040)
    worst = np.inf
    for n in range(2, 11):
        params = _random_params(FamilyId.PAIRSUM_EXCHANGE, rng)
        chain = kron_chain(operator_sum(params), n)
        for symbol in ("0", "1"):
            worst = min(worst, check_zero_member(
                chain, product_state(symbol, n)))
    ok = worst <= 1e-9
    _line("4 (pair-sum endpoint products)", ok,
          f"best residual across N=2..10 is {worst:.3e}, far above 1e-9: "
          f"the endpoint products are not zero modes of this family")
    assert ok


def test_criterion_4_literal_odd_parity_bounds():
    """With equal couplings the odd-parity sum taken with its literal
    lower bound (k starting at 1) drops every single-zero string: on two
    sites the sum is empty, and from three sites on the vector leaves the
    kernel.  Kept red deliberately; the corrected k=0 start is what the
    catalogue uses and it passes criterion 4 above."""
    params = FamilyParams(FamilyId.PAIRSUM_EXCHANGE, g1=1.0, g2=1.0,
                          g3=0.3, nu=1.0, nu_prime=1.0)
    empty_at_two = psi_parity(2, "odd", literal_bounds=True).norm() == 0.0
    worst = 0.0
    for n in range(3, 11):
        chain = kron_chain(operator_sum(params), n)
        state = psi_parity(n, "odd", literal_bounds=True)
        worst = max(worst, check_zero_member(chain, state))
    ok = worst <= 1e-9 and not empty_at_two
    _line("4 (literal odd-parity bounds)", ok,
          f"empty vector on two sites: {empty_at_two}; worst residual "
          f"N=3..10 is {worst:.3e} vs 1e-9")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5


def test_criterion_5_mps_against_brute_force():
    rng = np.random.default_rng(105)
    worst_amp = 0.0
    worst_z = 0.0
    for _ in range(12):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(2, 9))
        a = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
             for _ in range(2)]
        result = mps_contract(MPSSpec(a[0], a[1]), n)
        brute = np.empty(2 ** n, dtype=complex)
        for idx in range(2 ** n):
            m = np.eye(d, dtype=complex)
            for bit in format(idx, f"0{n}b"):
                m = m @ a[int(bit)]
            brute[idx] = np.trace(m)
        scale = max(1.0, float(np.max(np.abs(brute))))
        worst_amp = max(worst_amp, float(np.max(np.abs(
            result.state.amplitudes - brute))) / scale)
        s = float(np.sum(np.abs(brute) ** 2))
        worst_z = max(worst_z, abs(result.z - s) / max(1.0, s))
    ok = worst_amp <= 1e-12 and worst_z <= 1e-10
    _line("5", ok, f"12 random bond specs (D<=4, N<=8): worst amplitude "
                   f"gap {worst_amp:.3e} <= 1e-12, worst norm gap "
                   f"{worst_z:.3e} <= 1e-10")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6


def test_criterion_6_representation_residuals():
    targets = [
        ("antisymmetric line", CanonicalForm(CaseId.ANTISYMMETRIC_LINE),
         None),
        ("null line", CanonicalForm(CaseId.NULL_LINE), None),
        ("regular plane, anticommuting branch",
         CanonicalForm(CaseId.REGULAR_PLANE, mu=0.0), None),
        ("regular plane, commuting branch",
         CanonicalForm(CaseId.REGULAR_PLANE, mu=0.0),
         {"branch": "commuting"}),
    ]
    for m in (2, 3, 4):
        omega = np.exp(2j * np.pi / m)
        mu = (omega + 1.0) / (omega - 1.0)
        targets.append((f"non-null line, clock-shift order {m}",
                        CanonicalForm(CaseId.NONNULL_LINE, mu=mu), None))
    worst = 0.0
    for _, form, extra in targets:
        rep = representation_for_case(form, extra)
        worst = max(worst, constraint_residual(rep.space, rep.spec))
    ok = worst <= 1e-12
    _line("6", ok, f"{len(targets)} catalogued bond representations, "
                   f"worst residual {worst:.3e} <= 1e-12")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7


def test_criterion_7_covariance_triples():
    rng = np.random.default_rng(107)
    n = 6
    candidates = [FamilyId.EXCHANGE, FamilyId.HARDCORE,
                  FamilyId.HARDCORE_MIXED, FamilyId.ANTIALIGNED,
                  FamilyId.HARDCORE_SINGLET, FamilyId.HARDCORE_EXCHANGE,
                  FamilyId.MIXED_SINGLET, FamilyId.PINNED]
    worst = 0.0
    checks = 0
    for trial in range(20):
        family = candidates[trial % len(candidates)]
        params = _random_params(family, rng)
        local = operator_sum(params)
        g = random_sl2(rng, max_cond=10.0)
        for ns in ground_state_catalogue(params, n):
            worst = max(worst, covariance_check(local, ns.state, g, n))
            checks += 1
    ok = worst <= 1e-8
    _line("7", ok, f"20 (family, params, g) triples at N=6, {checks} "
                   f"transformed states, worst residual {worst:.3e} <= 1e-8")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8


def test_criterion_8_invariance_suite():
    rng = np.random.default_rng(108)
    sigma = PauliQuartet(0, 0, 0, 1)
    worst_sigma = 0.0
    worst_tf = 0.0
    worst_mink = 0.0
    for _ in range(10_000):
        g = random_sl2(rng, max_cond=20.0)
        moved = sl2_act(g, sigma)
        worst_sigma = max(worst_sigma, float(np.max(np.abs(
            moved.as_array() - sigma.as_array()))))
        c1 = _random_quartet(rng)
        c2 = _random_quartet(rng)
        tf = trace_form(c1, c2)
        tf_moved = trace_form(sl2_act(g, c1), sl2_act(g, c2))
        worst_tf = max(worst_tf,
                       abs(tf_moved - tf) / max(1.0, abs(tf)))
        mk = minkowski(c1, c2)
        mk_moved = minkowski(sl2_act(g, c1), sl2_act(g, c2))
        worst_mink = max(worst_mink,
                         abs(mk_moved - mk) / max(1.0, abs(mk)))
    ok = max(worst_sigma, worst_tf, worst_mink) <= 1e-10
    _line("8", ok, f"10000 draws: antisymmetric generator fixed to "
                   f"{worst_sigma:.3e}, trace form to {worst_tf:.3e}, "
                   f"light-cone form to {worst_mink:.3e}, all <= 1e-10")
    assert ok


# ---------------------------------------------------------------------------
# criterion 9


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "exchange", "--params",
     '{"g": 1.0, "nu": [1.0, 0.0], "nu_prime": [-0.5, 0.8660254037844386]}',
     "--n-sites", "6"),
    ("sweep", "--family", "antialigned", "--params",
     '{"g1": 1.0, "g2": 0.8}', "--grid", "g3:0..0.8:4", "--n-sites", "4"),
], ids=["verify", "sweep"])
def test_criterion_9_byte_identical_reruns(argv):
    runs = [subprocess.run([sys.executable, "-m", "mpschain", *argv],
                           capture_output=True, env=child_env())
            for _ in range(2)]
    ok = (runs[0].stdout == runs[1].stdout and bool(runs[0].stdout)
          and runs[0].returncode == runs[1].returncode)
    _line("9", ok, f"{argv[0]} rerun produced {len(runs[0].stdout)} "
                   f"identical bytes")
    assert ok

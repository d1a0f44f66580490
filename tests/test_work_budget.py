"""Work the hot paths may do, counted in calls, not timed.

A validated witness compares stored rows instead of running the SVD, the
witness is one raw 2x2 product checked once, the fixed steps carry their
action matrices, and mps_contract builds its words once.  The chain's
frame search rotates all its candidates in one batch, and a report
decides its frame, gauge and involution in that one search and builds
the involution's permutation only with a plan.  Counting calls keeps
each of these from creeping back, on any machine.
"""

import importlib
import zlib
from collections import OrderedDict

import numpy as np

from mpschain import hamiltonian, pauli, sectors, states, verify
from mpschain.classify import (CanonicalForm, CaseId, MU_CASES,
                               canonical_space, classify)
from mpschain.hamiltonian import build_family, params_from_mapping
from mpschain.pauli import sl2_act_space
from mpschain.states import (NoRepresentationError, mps_contract,
                             representation_for_case)
from oracles import benchmark_specs, conjugate_local, random_sl2

classify_module = importlib.import_module("mpschain.classify")

# every canonical kind, each mu form at mu = 0 and at a generic modulus
KINDS = [(case, mu) for case in CaseId
         for mu in ([0.0, 0.3 + 0.1j] if case in MU_CASES else [None])]


def _counting(calls: dict, key: str, fn, counts=lambda *args: True):
    def wrapper(*args, **kwargs):
        calls[key] += bool(counts(*args, **kwargs))
        return fn(*args, **kwargs)
    return wrapper


def test_validated_witnesses_stay_within_their_work_budget(monkeypatch):
    calls = dict.fromkeys(["svd", "fixed_actions"], 0)
    applied = set()
    fixed = {id(step[0]) for step in (classify_module._R_T2_TO_T1,
                                      classify_module._SWAP,
                                      classify_module._FLIP)}
    monkeypatch.setattr(pauli, "_row_spaces",
                        _counting(calls, "svd", pauli._row_spaces))
    monkeypatch.setattr(
        classify_module, "_action_matrix",
        _counting(calls, "fixed_actions", classify_module._action_matrix,
                  lambda g: id(g) in fixed))
    apply = classify_module._Pipeline.apply

    def recorded_apply(pipe, g, action=None):
        applied.add(id(g))
        apply(pipe, g, action)

    monkeypatch.setattr(classify_module._Pipeline, "apply", recorded_apply)
    for case, mu in KINDS:
        space = canonical_space(CanonicalForm(case, mu))
        rng = np.random.default_rng(zlib.crc32(case.value.encode()))
        for _ in range(10):
            res = classify(sl2_act_space(random_sl2(rng, 20.0), space))
            assert res.form.case_id is case
    assert calls == dict(svd=0, fixed_actions=0)
    # the draws do take the fixed steps: the rotation, the swap, the flip
    assert fixed <= applied


def test_mps_contract_builds_its_words_once(monkeypatch):
    calls = {"words": 0}
    monkeypatch.setattr(states, "_half_products",
                        _counting(calls, "words", states._half_products))
    contracted = 0
    for case, mu in KINDS:
        try:
            spec = representation_for_case(CanonicalForm(case, mu)).spec
        except NoRepresentationError:
            continue
        for n_sites in (1, 2, 9, 10):
            mps_contract(spec, n_sites)
            contracted += 1
            assert calls["words"] == contracted
    assert contracted > 0


def test_frame_rotates_its_candidates_in_one_batch(monkeypatch):
    # one _rotated call over every candidate, none where the identity
    # keeps the number already, then at most one per phase turn (a
    # hopping changes the number by at most 2); reversal is ranked, over
    # the whole stack of frames, only where no frame keeps the parity
    rotations, reversal = [], []
    rotated, commuting = verify._rotated, verify._commuting

    def counted_rotated(h, u):
        rotations.append(u.shape)
        return rotated(h, u)

    def counted_commuting(h):
        reversal.append(h.shape)
        return commuting(h)

    monkeypatch.setattr(verify, "_rotated", counted_rotated)
    monkeypatch.setattr(verify, "_commuting", counted_commuting)
    rng = np.random.default_rng(978)
    batched, ranked_by_reversal = 0, 0
    for spec in benchmark_specs(np.random.default_rng(1001)).values():
        local = build_family(params_from_mapping(*spec))
        for term in (local, conjugate_local(local, random_sl2(rng, 20.0))):
            rotations.clear()
            reversal.clear()
            _, framed, _ = verify._frame(term.matrix)
            kept = verify._conserved(verify._snapped(term.matrix))
            candidates = int(kept < 2)
            turns = rotations[candidates:]
            assert len(turns) <= 2 and all(t == (2, 2) for t in turns)
            if candidates:
                batch, *shape = rotations[0]
                assert shape == [2, 2] and batch > 1
            # the other _commuting call takes h' alone, for its involution
            ranked = [shape for shape in reversal if len(shape) == 3]
            if verify._conserved(framed):
                assert not ranked
            else:
                assert ranked == [(1 + batch, 4, 4)]
            batched += candidates
            ranked_by_reversal += bool(ranked)
    # both paths and the reversal rank are taken
    assert 0 < batched < 22 and ranked_by_reversal


def test_a_report_searches_its_basis_once(monkeypatch):
    # one _frame; _commuting at most twice (the reversal ranking, then
    # the involution h' holds) and _chain_table at most twice (the whole
    # table, then the basis states' rows), so no second search creeps in
    calls = dict.fromkeys(["frame", "commuting", "table"], 0)
    monkeypatch.setattr(verify, "_frame",
                        _counting(calls, "frame", verify._frame))
    monkeypatch.setattr(verify, "_commuting",
                        _counting(calls, "commuting", verify._commuting))
    table = _counting(calls, "table", hamiltonian._chain_table)
    monkeypatch.setattr(verify, "_chain_table", table)
    monkeypatch.setattr(sectors, "_chain_table", table)
    most = dict.fromkeys(calls, 0)
    for spec in benchmark_specs(np.random.default_rng(1001)).values():
        params = params_from_mapping(*spec)
        for n_sites in (4, 7):
            for key in calls:
                calls[key] = 0
            verify.family_report(params, n_sites)
            assert calls["frame"] == 1
            assert calls["commuting"] <= 2 and calls["table"] <= 2
            most = {key: max(most[key], calls[key]) for key in calls}
    # both bounds are reached
    assert most == dict(frame=1, commuting=2, table=2)


def test_a_report_builds_its_involution_with_its_plan(monkeypatch):
    # a cold report builds at most one (sigma, phi), for its plan; a warm
    # one, its plan cached, builds none
    calls = {"involution": 0}
    monkeypatch.setattr(sectors, "_involution",
                        _counting(calls, "involution", sectors._involution))
    monkeypatch.setattr(sectors, "_PLANS", OrderedDict())
    most = 0
    for spec in benchmark_specs(np.random.default_rng(1001)).values():
        params = params_from_mapping(*spec)
        for n_sites in (4, 7):
            sectors._PLANS.clear()
            for warm in (False, True):
                calls["involution"] = 0
                verify.family_report(params, n_sites)
                assert calls["involution"] <= (0 if warm else 1)
                most = max(most, calls["involution"])
    # a cold report does build one
    assert most == 1

"""Every input check of the data model raises its documented error class.

One row per check: bad input to a state, a map, an SDP program, a
spectral helper, a dynamical model or rate, or a discrimination task.  A
non-Hermitian input raises ``linalg.NotHermitianError`` wherever it enters
(``hermitize`` is its one owner); every other bad input raises a plain
``ValueError``.
"""

import json

import numpy as np
import pytest

from nonmarkov import _accel, discrimination, dynamics, entropy, linalg, maps, sdp, states
from nonmarkov.linalg import NotHermitianError
from nonmarkov.maps import QuantumMap, identity_map
from nonmarkov.sdp import SdpProblem
from nonmarkov.states import (
    BipartiteState,
    DensityOperator,
    Povm,
    StateEnsemble,
    TripartiteState,
    max_entangled,
    maximally_mixed,
)

EYE = np.eye(2, dtype=complex)
NILPOTENT = np.array([[0, 1], [0, 0]], dtype=complex)
EMPTY = np.zeros((0, 0))
TRACE_MAP_KRAUS = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]
# Two qubit identity maps as one family, where one map is needed.
FAMILY = QuantumMap(2, 2, np.stack([np.eye(4)] * 2))


def edited_doc(obj, **changes):
    """``obj.to_json()`` with ``changes`` applied; a None value drops its key."""
    doc = json.loads(obj.to_json())
    doc.update(changes)
    return json.dumps({k: v for k, v in doc.items() if v is not None})


def problem_doc(**changes):
    return edited_doc(SdpProblem(C=[EYE], A=EYE[None], b=[1.0]), **changes)


def retyped_doc(**changes):
    """``problem_doc()`` with ``changes`` applied, a None value kept as null."""
    return json.dumps({**json.loads(problem_doc()), **changes})


def per_block_doc(nb):
    """``problem_doc()`` of an nb-block program with ``"A"`` a list of nb
    stack documents, one per block."""
    doc = json.loads(problem_doc())
    return json.dumps({**doc, "C": doc["C"] * nb, "A": [doc["A"]] * nb})


CHECKS = [
    # Hermiticity, one owner for every kind of input
    pytest.param(lambda: linalg.hermitize(np.stack([EYE, NILPOTENT])), NotHermitianError,
                 "Hermitian", id="linalg.hermitize-stack"),
    pytest.param(lambda: DensityOperator(np.array([[0.5, 0.1], [0.0, 0.5]])), NotHermitianError,
                 "Hermitian", id="states.DensityOperator-hermitian"),
    pytest.param(lambda: Povm([EYE + NILPOTENT, -NILPOTENT]), NotHermitianError,
                 "Hermitian", id="states.Povm-hermitian"),
    # x -> x |1><0| on 1x1 inputs: its Choi matrix |1><0| is not Hermitian
    pytest.param(lambda: QuantumMap(1, 2, np.array([[0], [1], [0], [0]])), NotHermitianError,
                 "Hermitian", id="maps.QuantumMap-hermiticity-preserving"),
    pytest.param(lambda: SdpProblem(C=[NILPOTENT], A=EYE[None], b=[1.0]), NotHermitianError,
                 "Hermitian", id="sdp.SdpProblem-hermitian-C"),
    pytest.param(lambda: SdpProblem(C=[EYE], A=np.stack([EYE, NILPOTENT]), b=[1.0, 0.0]),
                 NotHermitianError, "Hermitian", id="sdp.SdpProblem-hermitian-A"),
    # linalg
    pytest.param(lambda: linalg.as_matrix(np.ones(3)), ValueError, "matrix",
                 id="linalg.as_matrix-ndim"),
    pytest.param(lambda: linalg.hermitize(np.stack([EYE, np.diag([np.nan, 1.0])])), ValueError,
                 "NaN or Inf", id="linalg.hermitize-nan"),
    pytest.param(lambda: linalg.hermitize(np.ones((2, 3))), ValueError, "square",
                 id="linalg.hermitize-square"),
    pytest.param(lambda: linalg.hermitize(np.zeros((2, 0, 0))), ValueError, "non-empty",
                 id="linalg.hermitize-0x0-stack"),
    pytest.param(lambda: linalg.as_matrix(EMPTY), ValueError, "non-empty",
                 id="linalg.as_matrix-0x0"),
    pytest.param(lambda: linalg.min_eig(EMPTY), ValueError, "non-empty", id="linalg.min_eig-0x0"),
    pytest.param(lambda: linalg.eigh(np.stack([EYE, EYE])), ValueError, "matrix",
                 id="linalg.eigh-stack"),
    pytest.param(lambda: linalg.check_psd(np.diag([1.0, -0.5])), ValueError,
                 "positive semidefinite", id="linalg.check_psd"),
    pytest.param(lambda: linalg.trace_norm(np.ones((2, 3))), ValueError, "square",
                 id="linalg.trace_norm-square"),
    pytest.param(lambda: linalg.operator_norm(np.ones((2, 3))), ValueError, "square",
                 id="linalg.operator_norm-square"),
    # states
    pytest.param(lambda: DensityOperator(np.ones((2, 3)) / 2), ValueError, "square",
                 id="states.DensityOperator-square"),
    pytest.param(lambda: BipartiteState(2, 3, maximally_mixed(4)), ValueError, "dimA",
                 id="states.BipartiteState-dims"),
    pytest.param(lambda: TripartiteState(2, 2, 2, maximally_mixed(4)), ValueError, "dimA",
                 id="states.TripartiteState-dims"),
    pytest.param(lambda: StateEnsemble([0.5, 0.5], [maximally_mixed(2), maximally_mixed(3)]),
                 ValueError, "mixed dimensions", id="states.StateEnsemble-dims"),
    pytest.param(lambda: Povm([]), ValueError, "at least one", id="states.Povm-empty"),
    pytest.param(lambda: Povm([EMPTY]), ValueError, "non-empty", id="states.Povm-0x0"),
    pytest.param(lambda: Povm([EYE, np.zeros((3, 3))]), ValueError, "mixed dimensions",
                 id="states.Povm-dims"),
    pytest.param(lambda: Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])]), ValueError,
                 "positive semidefinite", id="states.Povm-negative"),
    pytest.param(lambda: states.pure_state(np.zeros(2)), ValueError, "zero vector",
                 id="states.pure_state-zero"),
    # maps
    pytest.param(lambda: QuantumMap(2, 2, np.eye(3)), ValueError, "superop shape",
                 id="maps.QuantumMap-shape"),
    pytest.param(lambda: identity_map(2).apply(np.eye(3)), ValueError, "input shape",
                 id="maps.QuantumMap.apply-shape"),
    pytest.param(lambda: maps.from_kraus([]), ValueError, "at least one",
                 id="maps.from_kraus-empty"),
    pytest.param(lambda: maps.from_kraus([EYE, np.eye(3)]), ValueError, "mixed shapes",
                 id="maps.from_kraus-shapes"),
    pytest.param(lambda: maps.from_choi(np.eye(3), 2, 2), ValueError, "Choi matrix shape",
                 id="maps.from_choi-shape"),
    pytest.param(lambda: maps.compose(identity_map(2), identity_map(3)), ValueError,
                 "cannot compose", id="maps.compose-dims"),
    pytest.param(lambda: maps.inverse(maps.from_kraus(TRACE_MAP_KRAUS)), ValueError,
                 "square", id="maps.inverse-square"),
    pytest.param(lambda: maps.subtract(identity_map(2), identity_map(3)), ValueError,
                 "one shape", id="maps.subtract-dims"),
    pytest.param(lambda: maps.weighted_difference(identity_map(2), identity_map(3), 0.5, 0.5),
                 ValueError, "one shape", id="maps.weighted_difference-dims"),
    pytest.param(lambda: QuantumMap(2, 2, np.zeros((2, 4, 3))), ValueError, "superop shape",
                 id="maps.QuantumMap-family-shape"),
    pytest.param(lambda: FAMILY[0][0], ValueError, "only a family",
                 id="maps.QuantumMap-index-one-map"),
    # a family where one map is needed
    pytest.param(lambda: FAMILY.apply(EYE), ValueError, "apply takes one map",
                 id="maps.QuantumMap.apply-family"),
    pytest.param(lambda: maps.amplify(FAMILY, 2), ValueError, "amplify takes one map",
                 id="maps.amplify-family"),
    pytest.param(lambda: maps.mix([FAMILY, identity_map(2)], [0.5, 0.5]), ValueError,
                 "mix takes one map", id="maps.mix-family"),
    # a family needs a sequence of one seed per map
    pytest.param(lambda: maps.k_positivity(FAMILY, 1, 8, 0), ValueError,
                 "a family of 2 maps needs a sequence of one seed per map",
                 id="maps.k_positivity-family-int-seed"),
    pytest.param(lambda: maps.k_positivity(FAMILY, 1, 8, [0, 1, 2]), ValueError,
                 "a family of 2 maps needs a sequence of one seed per map",
                 id="maps.k_positivity-family-seed-count"),
    # sdp
    pytest.param(lambda: SdpProblem(C=[EYE], A=EYE[None], b=[[1.0]]), ValueError, "vector",
                 id="sdp.SdpProblem-b"),
    pytest.param(lambda: SdpProblem(C=[EYE], A=EYE, b=[1.0]), ValueError,
                 "stacks of square blocks", id="sdp.SdpProblem-stack"),
    # JSON documents: the one strict reader, then each constructor's checks
    pytest.param(lambda: DensityOperator.from_json(max_entangled(2).to_json()), ValueError,
                 "DensityOperator document", id="states.DensityOperator.from_json-factors"),
    pytest.param(lambda: BipartiteState.from_json(maximally_mixed(4).to_json()), ValueError,
                 "BipartiteState document", id="states.BipartiteState.from_json-factors"),
    pytest.param(lambda: BipartiteState.from_json(edited_doc(max_entangled(2), dimA=2.5)),
                 ValueError, "positive integer", id="states.BipartiteState.from_json-dims"),
    pytest.param(lambda: BipartiteState.from_json(edited_doc(max_entangled(2), dimA=3)),
                 ValueError, "state dim 4", id="states.BipartiteState.from_json-shape"),
    pytest.param(lambda: QuantumMap.from_json(edited_doc(identity_map(2), superop=None)),
                 ValueError, "exactly the keys", id="maps.QuantumMap.from_json-missing"),
    pytest.param(lambda: QuantumMap.from_json(json.dumps({"kraus": [linalg.to_jsonable(EYE)]})),
                 ValueError, "kraus", id="maps.QuantumMap.from_json-kraus"),
    pytest.param(lambda: SdpProblem.from_json(problem_doc(b=None)), ValueError,
                 "exactly the keys", id="sdp.SdpProblem.from_json-missing"),
    pytest.param(lambda: SdpProblem.from_json(problem_doc(sense="max")), ValueError, "sense",
                 id="sdp.SdpProblem.from_json-sense"),
    pytest.param(lambda: SdpProblem.from_json(problem_doc(sense="min")), ValueError, "sense",
                 id="sdp.SdpProblem.from_json-min"),
    pytest.param(lambda: SdpProblem.from_json(problem_doc(blocks=[2])), ValueError, "blocks",
                 id="sdp.SdpProblem.from_json-blocks"),
    pytest.param(lambda: SdpProblem.from_json("[]"), ValueError, "got list",
                 id="sdp.SdpProblem.from_json-not-an-object"),
    # a value of the wrong type, which the constructor cannot take
    pytest.param(lambda: DensityOperator.from_json('{"matrix": {"re": [[1.0]]}}'), ValueError,
                 r"DensityOperator document holds a value of the wrong type in \['matrix'\]",
                 id="states.DensityOperator.from_json-type"),
    pytest.param(lambda: SdpProblem.from_json(retyped_doc(C=None)), ValueError,
                 r"SdpProblem document holds a value of the wrong type in \['C'\]",
                 id="sdp.SdpProblem.from_json-type-C"),
    pytest.param(lambda: SdpProblem.from_json(retyped_doc(A=5)), ValueError,
                 r"stacks of square blocks, not shape \(\)", id="sdp.SdpProblem.from_json-type-A"),
    # the earlier layout, one constraint stack per block
    pytest.param(lambda: SdpProblem.from_json(per_block_doc(1)), ValueError,
                 "stacks of square blocks", id="sdp.SdpProblem.from_json-per-block-A"),
    pytest.param(lambda: SdpProblem.from_json(per_block_doc(2)), ValueError,
                 "stacks of square blocks", id="sdp.SdpProblem.from_json-per-block-A-two"),
    # dynamics: rates and models
    pytest.param(lambda: dynamics.rate_from_spec(True), ValueError, "finite number",
                 id="dynamics.rate_from_spec-bool"),
    pytest.param(lambda: dynamics.rate_from_spec(np.True_), ValueError, "finite number",
                 id="dynamics.rate_from_spec-numpy-bool"),
    pytest.param(lambda: dynamics.rate_from_spec(
        {"form": "sinusoid", "a": 1.0, "omega": 2.0, "phase": 0.3}), ValueError,
                 r"unexpected parameters for rate form 'sinusoid': \['phase'\]",
                 id="dynamics.rate_from_spec-unknown-key"),
    pytest.param(lambda: dynamics.rate_constant(np.nan), ValueError, "finite number",
                 id="dynamics.rate_constant-nan"),
    pytest.param(lambda: dynamics.rate_sinusoid(np.inf, 1.0), ValueError, "finite number",
                 id="dynamics.rate_sinusoid-inf"),
    pytest.param(lambda: dynamics.rate_piecewise_linear([(0.0, 1.0), (0.0, 2.0)]), ValueError,
                 "increasing times", id="dynamics.rate_piecewise_linear-order"),
    pytest.param(lambda: dynamics.RateForm("bogus"), ValueError, "unknown rate form 'bogus'",
                 id="dynamics.RateForm-form"),
    pytest.param(lambda: dynamics.model("amplitude_damping", {"gamma": True}), ValueError,
                 "finite number", id="dynamics.model-bool-rate"),
    pytest.param(lambda: dynamics.model("amplitude_damping", {"gamma": np.nan}), ValueError,
                 "finite number", id="dynamics.model-nan-rate"),
    pytest.param(lambda: dynamics.model("jaynes_cummings_toy", {"g": np.inf}), ValueError,
                 "finite number", id="dynamics.model-inf-coupling"),
    pytest.param(lambda: dynamics.GkslGenerator(2, np.eye(3), [], []), ValueError,
                 "h_eff dimension", id="dynamics.GkslGenerator-h_eff"),
    pytest.param(lambda: dynamics.GkslGenerator(2, EYE, [np.eye(3)], [1.0]), ValueError,
                 "jump operator dimension", id="dynamics.GkslGenerator-jumps"),
    pytest.param(lambda: dynamics.GkslGenerator(2, EYE, [NILPOTENT], []), ValueError,
                 "one rate function per jump", id="dynamics.GkslGenerator-rates"),
    pytest.param(lambda: dynamics.GkslGenerator(2, 0 * EYE, [dynamics.SIGMA_Z], [0.5]),
                 ValueError, "one rate function per jump", id="dynamics.GkslGenerator-rate-float"),
    pytest.param(lambda: dynamics.GkslGenerator(2, 0 * EYE, [dynamics.SIGMA_Z], [None]),
                 ValueError, "one rate function per jump", id="dynamics.GkslGenerator-rate-None"),
    pytest.param(lambda: dynamics.GkslGenerator(2, 0 * EYE, [dynamics.SIGMA_Z], 0.5),
                 ValueError, "one rate function per jump",
                 id="dynamics.GkslGenerator-rates-not-a-list"),
    pytest.param(lambda: dynamics.TotalSystemModel(2, 2, np.eye(3), maximally_mixed(2)),
                 ValueError, "h_total dimension", id="dynamics.TotalSystemModel-h_total"),
    pytest.param(lambda: dynamics.TotalSystemModel(2, 2, np.eye(4), maximally_mixed(3)),
                 ValueError, "environment state", id="dynamics.TotalSystemModel-env"),
    pytest.param(lambda: dynamics.DynamicalMap([0.0, 1.0], FAMILY[:1]), ValueError,
                 "one map per grid time", id="dynamics.DynamicalMap-count"),
    pytest.param(lambda: dynamics.DynamicalMap([0.0], identity_map(2)), ValueError,
                 "one map per grid time", id="dynamics.DynamicalMap-one-map"),
    pytest.param(lambda: dynamics.DynamicalMap([0.0], QuantumMap(
        2, 2, maps.depolarizing(0.5).superop[None])), ValueError, "identity",
                 id="dynamics.DynamicalMap-identity"),
    pytest.param(lambda: dynamics.DynamicalMap([0.0], QuantumMap(
        2, 1, maps.from_kraus(TRACE_MAP_KRAUS).superop[None])), ValueError, "square maps",
                 id="dynamics.DynamicalMap-square"),
    pytest.param(lambda: dynamics.divisibility_report(
        dynamics.DynamicalMap([0.0, 1.0], FAMILY), ks=[3]), ValueError,
                 r"k must lie in \[1, 2\]", id="dynamics.divisibility_report-k"),
    # discrimination
    pytest.param(lambda: discrimination.helstrom_guess(1.5, EYE / 2, EYE / 2), ValueError,
                 "p1 must lie", id="discrimination.helstrom_guess-p1"),
    pytest.param(lambda: discrimination.p_guess_channels(
        [0.5, 0.5], [identity_map(2), identity_map(3)], 1), ValueError,
                 "one shape", id="discrimination.p_guess_channels-dims"),
    pytest.param(lambda: discrimination.channel_distance(
        identity_map(2), identity_map(2), -0.1, 1), ValueError, "p must lie",
                 id="discrimination.channel_distance-p"),
    pytest.param(lambda: discrimination.channel_distance(
        identity_map(2), identity_map(2), 0.5, 3), ValueError, r"k must lie in \[1, 2\]",
                 id="discrimination.channel_distance-k"),
    pytest.param(lambda: discrimination.channel_distance(FAMILY, FAMILY, 0.5, 1), ValueError,
                 "channel_distance takes one map", id="discrimination.channel_distance-family"),
    pytest.param(lambda: discrimination.diamond_norm(FAMILY), ValueError,
                 "diamond_norm takes one map", id="discrimination.diamond_norm-family"),
    # _accel
    pytest.param(lambda: _accel.kpos_scan(np.zeros((2, 2, 2, 2, 2)), 2, 2, 1,
                                          np.zeros((3, 2, 1)), np.zeros((3, 2, 1))),
                 ValueError, "3 start rows do not split into 2 groups",
                 id="_accel.kpos_scan-groups"),
    pytest.param(lambda: _accel.kpos_scan(np.zeros((0, 2, 2, 2, 2)), 2, 2, 1,
                                          np.zeros((3, 2, 1)), np.zeros((3, 2, 1))),
                 ValueError, "at least one Choi tensor, got an empty stack",
                 id="_accel.kpos_scan-no-groups"),
    pytest.param(lambda: _accel.kpos_scan(np.zeros((1, 2, 2, 2, 2)), 2, 2, 1,
                                          np.zeros((0, 2, 1)), np.zeros((0, 2, 1))),
                 ValueError, "kpos_scan needs at least one start row",
                 id="_accel.kpos_scan-no-starts"),
    pytest.param(lambda: _accel.kpos_scan(np.zeros((1, 2, 2, 2, 2)), 2, 2, 1,
                                          np.zeros((2, 2, 1)), np.zeros((3, 2, 1))),
                 ValueError, "2 L start rows but 3 U start rows",
                 id="_accel.kpos_scan-start-rows"),
    pytest.param(lambda: _accel.tracenorm_scan(np.zeros((2, 2, 2, 2)), np.zeros((0, 2))),
                 ValueError, "tracenorm_scan needs at least one start row",
                 id="_accel.tracenorm_scan-no-starts"),
    # entropy
    pytest.param(lambda: entropy.relative_entropy(np.diag([1.0, -0.5]), EYE), ValueError,
                 "positive semidefinite", id="entropy._as_psd"),
    pytest.param(lambda: entropy.relative_entropy(EMPTY, EMPTY), ValueError, "non-empty",
                 id="entropy.relative_entropy-0x0"),
    pytest.param(lambda: entropy.q_corr(BipartiteState(3, 2, maximally_mixed(6))), ValueError,
                 "dimA <= dimB", id="entropy.q_corr-dims"),
]


@pytest.mark.parametrize("call, error, match", CHECKS)
def test_bad_input_raises_documented_class(call, error, match):
    with pytest.raises(ValueError, match=match) as info:
        call()
    assert info.type is error


def test_solve_optimal_raises_naming_the_program():
    # b = -1 asks for Tr X = -1 with X >= 0
    infeasible = SdpProblem(C=[EYE], A=EYE[None], b=[-1.0])
    with pytest.raises(sdp.SdpError, match="test-program SDP returned status 'infeasible"):
        sdp.solve_optimal(infeasible, "test-program")

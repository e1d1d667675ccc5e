"""Every input check of the data model raises its documented error class.

One row per check: bad input to a state, a map, an SDP program or a
spectral helper.  A non-Hermitian input raises ``linalg.NotHermitianError``
wherever it enters (``hermitize`` is its one owner); every other bad input
raises a plain ``ValueError``.
"""

import json

import numpy as np
import pytest

from nonmarkov import entropy, linalg, maps, sdp, states
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
TRACE_MAP_KRAUS = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]


def state_doc(dims, matrix):
    return json.dumps({"dims": dims, **linalg.to_jsonable(matrix)})


def problem_doc(**changes):
    doc = json.loads(SdpProblem(C=[EYE], A=[EYE[None]], b=[1.0]).to_json())
    doc.update(changes)
    return json.dumps({k: v for k, v in doc.items() if v is not None})


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
    pytest.param(lambda: SdpProblem(C=[NILPOTENT], A=[EYE[None]], b=[1.0]), NotHermitianError,
                 "Hermitian", id="sdp.SdpProblem-hermitian-C"),
    pytest.param(lambda: SdpProblem(C=[EYE], A=[np.stack([EYE, NILPOTENT])], b=[1.0, 0.0]),
                 NotHermitianError, "Hermitian", id="sdp.SdpProblem-hermitian-A"),
    # linalg
    pytest.param(lambda: linalg.as_matrix(np.ones(3)), ValueError, "matrix",
                 id="linalg.as_matrix-ndim"),
    pytest.param(lambda: linalg.hermitize(np.stack([EYE, np.diag([np.nan, 1.0])])), ValueError,
                 "NaN or Inf", id="linalg.hermitize-nan"),
    pytest.param(lambda: linalg.hermitize(np.ones((2, 3))), ValueError, "square",
                 id="linalg.hermitize-square"),
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
    pytest.param(lambda: DensityOperator.from_json(max_entangled(2).to_json()), ValueError,
                 "single-system", id="states.DensityOperator.from_json-factors"),
    pytest.param(lambda: BipartiteState(2, 3, maximally_mixed(4)), ValueError, "dimA",
                 id="states.BipartiteState-dims"),
    pytest.param(lambda: BipartiteState.from_json(maximally_mixed(4).to_json()), ValueError,
                 "bipartite", id="states.BipartiteState.from_json-factors"),
    pytest.param(lambda: TripartiteState(2, 2, 2, maximally_mixed(4)), ValueError, "dimA",
                 id="states.TripartiteState-dims"),
    pytest.param(lambda: StateEnsemble([0.5, 0.5], [maximally_mixed(2), maximally_mixed(3)]),
                 ValueError, "mixed dimensions", id="states.StateEnsemble-dims"),
    pytest.param(lambda: Povm([]), ValueError, "at least one", id="states.Povm-empty"),
    pytest.param(lambda: Povm([EYE, np.zeros((3, 3))]), ValueError, "mixed dimensions",
                 id="states.Povm-dims"),
    pytest.param(lambda: Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])]), ValueError,
                 "positive semidefinite", id="states.Povm-negative"),
    pytest.param(lambda: states.pure_state(np.zeros(2)), ValueError, "zero vector",
                 id="states.pure_state-zero"),
    pytest.param(lambda: states.loads_state(state_doc([3], EYE / 2)), ValueError,
                 "does not match dims", id="states.loads_state-shape"),
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
                 "share dimensions", id="maps.subtract-dims"),
    pytest.param(lambda: maps.weighted_difference(identity_map(2), identity_map(3), 0.5, 0.5),
                 ValueError, "share dimensions", id="maps.weighted_difference-dims"),
    # sdp
    pytest.param(lambda: SdpProblem(C=[EYE], A=[EYE[None]], b=[[1.0]]), ValueError, "vector",
                 id="sdp.SdpProblem-b"),
    pytest.param(lambda: SdpProblem(C=[EYE, EYE], A=[EYE[None]], b=[1.0]), ValueError,
                 "one block per objective block", id="sdp.SdpProblem-block-count"),
    pytest.param(lambda: SdpProblem(C=[EYE], A=[EYE], b=[1.0]), ValueError,
                 "stacks of square blocks", id="sdp.SdpProblem-stack"),
    pytest.param(lambda: SdpProblem.from_json(problem_doc(sense="min")), ValueError, "sense",
                 id="sdp.SdpProblem.from_json-min"),
    pytest.param(lambda: SdpProblem.from_json(problem_doc(sense=None)), ValueError, "sense",
                 id="sdp.SdpProblem.from_json-no-sense"),
    # entropy
    pytest.param(lambda: entropy.relative_entropy(np.diag([1.0, -0.5]), EYE), ValueError,
                 "positive semidefinite", id="entropy._as_psd"),
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
    infeasible = SdpProblem(C=[EYE], A=[EYE[None]], b=[-1.0])
    with pytest.raises(sdp.SdpError, match="test-program SDP returned status 'infeasible"):
        sdp.solve_optimal(infeasible, "test-program")

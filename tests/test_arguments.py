"""One table of bad arguments for every public entry point that takes a key, dims,
a size, a number, a state, a record, a list of states or a generator: each call
returns or raises an XLabError, never a raw TypeError or ValueError, and numpy
integers work wherever Python ints do."""

import math

import numpy as np
import pytest

from xlab import cli, convert, linalg, measures, states, tgx
from xlab.errors import ConfigError, DimensionError, DomainError, XLabError
from xlab.states import DensityMatrix, XParams

# True and np.float64(1.0) look like 1, "1" like a key or a number, ["phi"] like a family.
_BAD = [True, 1.0, 2.5, None, "1", "x", ["phi"], np.float64(1.0)]

_BELL = states.bell_state()
_OK_ROW = np.array([[0.5, 0.5, 0.0, 0.0]])
_RECORDS = [cli.SampleRecord(0.5, 0.75, 2, "general", 0)]

# name: one call with the argument under test in the place of `v`
_KEYS = {
    "theta_state-family": lambda v: states.theta_state(v, 0.3, 0.0),
    "bell_state-family": lambda v: states.bell_state(v),
    "bell_state-sign": lambda v: states.bell_state(states.PHI, v),
    "general_x_state-mode": lambda v: states.general_x_state(
        XParams((0.1, 0.2, 0.3), (0.4, 0.5, 0.6, 0.7)), v),
    "meb_state_2x3-family": lambda v: states.meb_state_2x3(v, 1, 0.3, 0.0),
    "meb_state_2x3-index": lambda v: states.meb_state_2x3(states.PHI, v, 0.3, 0.0),
    "l_state-index": lambda v: states.l_state(v, 0.3, 0.0),
    "rank_states-rank": lambda v: states.rank_states(states.RANK_X, [v], _OK_ROW, _OK_ROW),
    "random_mixed-rank": lambda v: states.random_mixed(4, v, np.random.default_rng(1)),
    "tgx_rank_state-rank": lambda v: states.tgx_rank_state(v, [0.3], [1.0]),
    "partial_trace-keep": lambda v: measures.partial_trace(_BELL, v),
    "partial_transpose-sub": lambda v: measures.partial_transpose(_BELL, v),
    "meb_basis_2x3-family": lambda v: tgx.meb_basis_2x3(v),
    "meb_basis_3x3-a": lambda v: tgx.meb_basis_3x3(v, 1),
    "meb_basis_3x3-b": lambda v: tgx.meb_basis_3x3(1, v),
    "diag_factorizable-mode": lambda v: convert.diag_factorizable([0.0] * 4, v),
    "emit_output-format": lambda v: cli.emit_output(_RECORDS, fmt=v),
}
_DIMS = {
    "DensityMatrix-dims": lambda v: DensityMatrix(np.eye(4) / 4, v),
    "anti_x_mask-dims": lambda v: tgx.anti_x_mask(v),
    "tgx_mask-dims": lambda v: tgx.tgx_mask(v),
    "meb_union_mask-dims": lambda v: tgx.meb_union_mask(tgx.bell_basis(), v),
    "random_mixed-dims": lambda v: states.random_mixed(4, 1, np.random.default_rng(1), v),
}
_SIZES = {
    "random_mixed-n": lambda v: states.random_mixed(v, 1, np.random.default_rng(1)),
    "ElementMask-n": lambda v: tgx.ElementMask(v, np.eye(1, dtype=bool)),
}
_NUMBERS = {
    "DensityMatrix-mat": lambda v: DensityMatrix(v, (2, 2)),
    "theta_state-theta": lambda v: states.theta_state(states.PHI, v, 0.0),
    "theta_state-phi": lambda v: states.theta_state(states.PSI, 0.3, v),
    "meb_state_2x3-theta": lambda v: states.meb_state_2x3(states.PHI, 1, v, 0.0),
    "l_state-phi": lambda v: states.l_state(2, 0.3, v),
    "hyperspherical_probs": lambda v: states.hyperspherical_probs(v),
    "general_x_state-probability": lambda v: states.general_x_state(
        XParams((0.1, v, 0.3), (0.4, 0.5, 0.6, 0.7))),
    "general_x_state-theta": lambda v: states.general_x_state(
        XParams((0.1, 0.2, 0.3), (0.4, 0.5, v, 0.7))),
    "general_x_state-phase": lambda v: states.general_x_state(
        XParams((0.1, 0.2, 0.3), (0.4, 0.5, 0.6, 0.7), (0.0, v, 0.0, 0.0)), "full-11"),
    "mems_2x2": lambda v: states.mems_2x2(v),
    "mems_2x3": lambda v: states.mems_2x3(v),
    "mems_boundary_2x2": lambda v: measures.mems_boundary_2x2(v),
    "mems_boundary_2x3": lambda v: measures.mems_boundary_2x3(v),
    "closed_form_x-C": lambda v: states.closed_form_x(v, 1.0),
    "closed_form_x-P": lambda v: states.closed_form_x(0.5, v),
    "h_state-C": lambda v: states.h_state(v, 0.9),
    "h_state-P": lambda v: states.h_state(0.5, v),
    "h_purity_floor": lambda v: states.h_purity_floor(v),
    "rank_states-thetas": lambda v: states.rank_states(
        states.RANK_X, [2], [[0.3, v, 0.0, 0.0]], _OK_ROW),
    "rank_states-probs": lambda v: states.rank_states(
        states.RANK_X, [2], _OK_ROW, [[0.5, v, 0.0, 0.0]]),
    "tgx_rank_state-thetas": lambda v: states.tgx_rank_state(2, [0.3, v], [0.5, 0.5]),
    "tgx_rank_state-probs": lambda v: states.tgx_rank_state(2, [0.3, 0.4], v),
    "x_preserving_unitary-eps": lambda v: convert.x_preserving_unitary(v, 0, 0, 0, 0, 0),
    "x_preserving_unitary-chi": lambda v: convert.x_preserving_unitary(0, 0, 0, 0, 0, v),
    "x_transform_unconstrained": lambda v: convert.x_transform_unconstrained(_BELL, v),
    "x_transform_unconstrained-angle": lambda v: convert.x_transform_unconstrained(
        _BELL, [v] * 6),
    "diag_factor_conditions": lambda v: convert.diag_factor_conditions(v),
    "diag_factor_conditions-phase": lambda v: convert.diag_factor_conditions([v] * 4),
    "diag_factorizable-phase": lambda v: convert.diag_factorizable([0.0, 0.0, 0.0, v]),
    "anti_x_measure": lambda v: measures.anti_x_measure(v),
    "factor_concurrence": lambda v: measures.factor_concurrence(v),
    "eig_hermitian": lambda v: linalg.eig_hermitian(v),
}
_CALLS = {**_KEYS, **_DIMS, **_SIZES, **_NUMBERS}


@pytest.mark.parametrize("value", _BAD, ids=repr)
@pytest.mark.parametrize("name", sorted(_CALLS))
def test_a_bad_argument_returns_or_raises_one_xlab_error(name, value):
    try:
        _CALLS[name](value)
    except XLabError:
        pass


@pytest.mark.parametrize("value", [True, 1.0, 2.5, "1", "x", ["phi"], np.float64(1.0)],
                         ids=repr)
@pytest.mark.parametrize("name", sorted({**_KEYS, **_DIMS, **_SIZES}))
def test_a_bad_key_dims_or_size_is_named(name, value):
    # None of the calls takes any of these as a key, dims or size.
    with pytest.raises(XLabError) as err:
        _CALLS[name](value)
    # A rank array names its first bad entry, so ["phi"] as ranks names 'phi'.
    names = {repr(value), str(value)} | ({repr(value[0])} if isinstance(value, list) else set())
    assert any(n in str(err.value) for n in names), str(err.value)


@pytest.mark.parametrize("value", ["x", "ab", ["phi"], None], ids=repr)
@pytest.mark.parametrize("name", sorted(_NUMBERS))
def test_a_non_number_is_one_domain_error_that_names_it(name, value):
    with pytest.raises(DomainError) as err:
        _CALLS[name](value)
    assert repr(value) in str(err.value)


# numpy reads None as NaN, so each of these once returned NaN or (False, None).
_NONE_INSIDE = {
    "purity": lambda: measures.purity([[1, None], [None, 0]]),
    "anti_x_measure": lambda: measures.anti_x_measure(
        [[0.5, None, 0, 0], [None, 0.5, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
    "diag_factor_conditions": lambda: convert.diag_factor_conditions([None] * 4),
    "diag_factorizable": lambda: convert.diag_factorizable([0.1, None, 0.2, 0.3]),
}


@pytest.mark.parametrize("name", sorted(_NONE_INSIDE))
def test_none_inside_a_list_is_not_a_number(name):
    with pytest.raises(DomainError, match="None.* is not a number$"):
        _NONE_INSIDE[name]()


def test_a_long_rejected_list_names_its_first_none():
    # Its whole repr would be 500,028 characters.  A nested list's None is named by its
    # row-major index, and a long list with no None by its repr cut at 80 characters.
    with pytest.raises(DomainError) as err:
        linalg.numbers([0.1] * 100000 + [None], "theta")
    assert str(err.value) == "theta entry 100000 (None) is not a number"
    with pytest.raises(DomainError) as err:
        linalg.numbers([[0.1] * 50] * 3 + [[1.0, None] * 25], "theta")
    assert str(err.value) == "theta entry 151 (None) is not a number"
    with pytest.raises(DomainError) as err:
        linalg.numbers([0.1] * 100000 + ["x"], "theta")
    assert str(err.value) == f"theta {str([0.1] * 100000):.80}... is not a number"


# name: (one call with the record or generator under test in the place of `v`, the argument
# its error names, the types of value in `_NOT_RECORDS` that it takes)
_RECORD_ARGS = {
    "general_x_state-params": (states.general_x_state, "params", ()),
    "rank_states-family": (lambda v: states.rank_states(v, [1], [[0.1]], [[1.0]]), "family", ()),
    "concurrence-es": (lambda v: measures.concurrence(_BELL, es=v), "es", ("NoneType",)),
    "sqrt_psd-es": (lambda v: linalg.sqrt_psd(np.eye(4) / 4, es=v), "es", ("NoneType",)),
    "random_mixed-rng": (lambda v: states.random_mixed(4, 2, v), "rng", ("Generator",)),
    "random_mixed-rngs": (lambda v: states.random_mixed(4, [1, 2], v), "rng", ()),
}
# A tuple for a record, an EigenSystem of no arrays, and one Generator for two ranks.
_NOT_RECORDS = [None, (1, 2, 3), "x", True, 2.5, linalg.EigenSystem(None, None),
                np.random.default_rng(1)]
# A RankFamily row whose dims are not ints, or one of whose tables is not an array.
_NOT_FAMILIES = {"lo-list": states.RANK_X._replace(lo=states.RANK_X.lo.tolist()),
                 "dims-None": states.RANK_X._replace(dims=None),
                 "phase-None": states.RANK_X._replace(phase=None)}


def _bad_records():
    for name, (call, arg, takes) in _RECORD_ARGS.items():
        for value in _NOT_RECORDS:
            if type(value).__name__ not in takes:
                yield pytest.param(call, value, arg, id=f"{name}-{type(value).__name__}")
    for case, value in _NOT_FAMILIES.items():
        yield pytest.param(_RECORD_ARGS["rank_states-family"][0], value, "family",
                           id=f"rank_states-family-{case}")


@pytest.mark.parametrize("call,value,arg", _bad_records())
def test_a_wrong_record_or_generator_is_one_dimension_error_that_names_it(call, value, arg):
    with pytest.raises(DimensionError) as err:
        call(value)
    assert str(err.value).startswith(f"{arg} "), str(err.value)


# name: (one call whose bad argument holds a 2-D array, its whole one-line message)
_ARRAY_INSIDE = {
    "sqrt_psd-es": (lambda: linalg.sqrt_psd(np.eye(2) / 2, es=linalg.EigenSystem(np.eye(2), None)),
                    "es EigenSystem(values=array([[1., 0.], [0., 1.]]), vectors=None) "
                    "is not EigenSystem of arrays"),
    "random_mixed-rng": (lambda: states.random_mixed(4, [1, 2], [np.eye(2), np.eye(3)]),
                         "rng array([[1., 0.], [0., 1.]]) is not a numpy Generator"),
    "square-object": (lambda: linalg.square(np.array([[None, 1], [2, 3]], dtype=object)),
                      "matrix array([[None, 1], [2, 3]], dtype=object) is not a number"),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_INSIDE))
def test_a_rejected_array_is_shown_on_one_line(name):
    call, message = _ARRAY_INSIDE[name]
    with pytest.raises(XLabError) as err:
        call()
    assert "\n" not in str(err.value)
    assert str(err.value) == message


def test_a_bad_format_is_the_config_error():
    with pytest.raises(ConfigError) as err:
        cli.emit_output(_RECORDS, fmt=True)
    assert str(err.value) == "format must be one of csv, json, got True"


def _state(dims, stack=False) -> DensityMatrix:
    n = math.prod(dims)
    return DensityMatrix(np.stack([np.eye(n) / n] * 2) if stack else np.eye(n) / n, dims)


# name: (the text its error holds, the dims it requires or None, whether it takes one
# matrix only, one call with the state under test in the place of `v`)
_STATES = {
    "concurrence": ("concurrence", (2, 2), False, measures.concurrence),
    "negativity_e": ("negativity_e", (2, 3), False, measures.negativity_e),
    "partial_trace": ("partial_trace", None, True, lambda v: measures.partial_trace(v, 1)),
    "partial_transpose": ("partial_transpose", None, False,
                          lambda v: measures.partial_transpose(v, 1)),
    "find_x_equivalent": ("find_x_equivalent", (2, 2), False, convert.find_x_equivalent),
    "conversion_unitary-rho_g": ("conversion_unitary", (2, 2), True,
                                 lambda v: convert.conversion_unitary(v, _BELL)),
    "conversion_unitary-rho_x": ("conversion_unitary's rho_x", (2, 2), True,
                                 lambda v: convert.conversion_unitary(_BELL, v)),
    "closed_form_conversion": ("closed_form_conversion", (2, 2), True,
                               convert.closed_form_conversion),
    "x_transform_unconstrained": ("x_transform_unconstrained", (2, 2), True,
                                  lambda v: convert.x_transform_unconstrained(v, [0.0] * 6)),
    "project_tgx": ("project_tgx", None, False, tgx.project_tgx),
    "is_simple_me_state": ("is_simple_me_state", None, True, tgx.is_simple_me_state),
    # A list of states names the member at fault.
    "meb_union_mask": ("member 0", (2, 2), True, lambda v: tgx.meb_union_mask([v], (2, 2))),
    "basis_resolution": ("member 1", (2, 2), True, lambda v: tgx.basis_resolution([_BELL, v])),
}
# Functions that read only the matrix, and so also take a square array or stack.
_MATRICES = {"purity": measures.purity, "anti_x_measure": measures.anti_x_measure,
             "concurrence_x": measures.concurrence_x}


def _bad_states():
    """(call, bad state, text its error holds) for every state-taking function: a plain
    array where a DensityMatrix is needed, None, the other of 2x2 and 2x3 where dims
    are required, and a stack where one matrix is."""
    for name, (says, dims, single, call) in _STATES.items():
        n = math.prod(dims or (2, 2))
        bad = {"array": np.eye(n) / n, "None": None}
        if dims:
            bad["dims"] = _state((2, 3) if dims == (2, 2) else (2, 2))
        if single:
            bad["stack"] = _state(dims or (2, 2), stack=True)
        for case, value in bad.items():
            yield pytest.param(call, value, says, id=f"{name}-{case}")
    for name, call in _MATRICES.items():
        for case, value in (("None", None), ("1d", np.ones(3))):
            yield pytest.param(call, value, name, id=f"{name}-{case}")
    # A list of states that is no sequence names the function.
    for name, call in (("meb_union_mask", lambda v: tgx.meb_union_mask(v, (2, 2))),
                       ("basis_resolution", tgx.basis_resolution)):
        for case, value in (("None", None), ("int", 5), ("state", _BELL)):
            yield pytest.param(call, value, name, id=f"{name}-list-{case}")


@pytest.mark.parametrize("call,value,says", _bad_states())
def test_a_bad_state_is_one_xlab_error_that_names_the_function(call, value, says):
    with pytest.raises(XLabError) as err:
        call(value)
    assert says in str(err.value), str(err.value)


def _same(a, b):
    """Equal results: states and arrays byte for byte, lists and tuples member by member."""
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, DensityMatrix):
        return a.dims == b.dims and a.mat.tobytes() == b.mat.tobytes()
    if isinstance(a, tgx.ElementMask):
        return a == b
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


_I = np.int64
_INT_CALLS = {
    "bell_state-sign": lambda i: states.bell_state(states.PSI, i(-1)),
    "meb_state_2x3-index": lambda i: states.meb_state_2x3(states.PSI, i(2), 0.3, 0.2),
    "l_state-index": lambda i: states.l_state(i(3), 0.3, 0.2),
    "partial_trace-keep": lambda i: measures.partial_trace(
        states.meb_state_2x3(states.PHI, 1, 0.3, 0.0), i(2)),
    "partial_transpose-sub": lambda i: measures.partial_transpose(_BELL, i(2)),
    "meb_basis_3x3": lambda i: tgx.meb_basis_3x3(i(-1), i(1)),
    "DensityMatrix-dims": lambda i: DensityMatrix(np.eye(6) / 6, (i(2), i(3))),
    "anti_x_mask-dims": lambda i: tgx.anti_x_mask([i(2), i(2), i(2)]),
    "ElementMask-n": lambda i: tgx.ElementMask(i(2), np.eye(2, dtype=bool)),
    "random_mixed": lambda i: states.random_mixed(i(6), i(2), np.random.default_rng(5),
                                                  (i(2), i(3))),
    "rank_states-ranks": lambda i: states.rank_states(
        states.RANK_X, [i(2), i(1)], [[0.3, 0.4, 0.0, 0.0]] * 2,
        [[0.5, 0.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]),
}


@pytest.mark.parametrize("name", sorted(_INT_CALLS))
def test_numpy_ints_give_what_python_ints_give(name):
    assert _same(_INT_CALLS[name](_I), _INT_CALLS[name](int))

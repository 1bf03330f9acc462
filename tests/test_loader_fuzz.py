"""Arbitrary JSON through the CLI loaders: each returns a valid object or
raises InputError, and never raises anything else."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wallman_lab import cli
from wallman_lab.cli import InputError, load_lattice, load_space, load_theory
from wallman_lab.fol import Theory, bind_constants, parse, print_formula
from wallman_lab.lattice import FiniteLattice, table_violations
from wallman_lab.spaces import FiniteSpace, make_space

KEYS = ("poset", "size", "le", "elements", "meet", "join", "bottom", "top", "points", "closed", "constants", "sentences")
FORMULA_TEXT = st.text(alphabet="AExyab01()=^v!&|-<>. ", max_size=30)

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-2, max_value=6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | FORMULA_TEXT
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=5),
    max_leaves=30,
)
# besides arbitrary JSON, objects with the fields each loader reads, so that
# the checks past the first missing key are reached too
small = st.integers(min_value=-1, max_value=5)
table = st.lists(st.lists(small | json_values, max_size=5), max_size=5)
lattice_json = (
    json_values
    | st.fixed_dictionaries(
        {
            "elements": st.lists(st.text(max_size=3), max_size=5) | json_values,
            "meet": table,
            "join": table,
            "bottom": small,
            "top": small,
        }
    )
    | st.fixed_dictionaries(
        {
            "poset": st.fixed_dictionaries(
                {"size": small | st.integers(), "le": st.lists(st.lists(small, max_size=3), max_size=6) | json_values}
            )
        }
    )
)
space_json = json_values | st.fixed_dictionaries(
    {
        "points": small | st.integers(),
        "closed": st.lists(st.lists(small | json_values, max_size=4), max_size=8) | json_values,
    }
)
theory_json = json_values | st.fixed_dictionaries(
    {
        "constants": st.lists(st.sampled_from("ab") | st.text(max_size=3), max_size=3) | json_values,
        "sentences": st.lists(FORMULA_TEXT | json_values, max_size=3) | json_values,
    }
)


def valid_lattice(L):
    return isinstance(L, FiniteLattice) and table_violations(L.names, L.meet, L.join, L.bottom, L.top) == []


def valid_space(X):
    return isinstance(X, FiniteSpace) and make_space(X.point_count, X.closed) == X


def valid_theory(T):
    # every sentence is a formula that prints and parses back to itself
    return (
        isinstance(T, Theory)
        and all(isinstance(c, str) for c in T.constants)
        and all(bind_constants(parse(print_formula(s)), T.constants) == s for s in T.sentences)
    )


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def load(loader, path, data):
    path.write_text(json.dumps(data))
    return loader(str(path))


def load_or_none(loader, path, data):
    try:
        return load(loader, path, data)
    except InputError:
        return None


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=lattice_json)
def test_load_lattice_returns_a_lattice_or_raises_input_error(path, data):
    out = load_or_none(load_lattice, path, data)
    assert out is None or valid_lattice(out)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=space_json)
def test_load_space_returns_a_space_or_raises_input_error(path, data):
    out = load_or_none(load_space, path, data)
    assert out is None or valid_space(out)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=theory_json)
def test_load_theory_returns_a_theory_or_raises_input_error(path, data):
    out = load_or_none(load_theory, path, data)
    assert out is None or valid_theory(out)


@pytest.mark.parametrize(
    "loader, data",
    [
        # used to end in RecursionError
        (load_theory, {"constants": [], "sentences": ["(" * 2000 + "0 = 0" + ")" * 2000]}),
        (load_theory, {"constants": [], "sentences": ["!" * 5000 + "0 = 0"]}),
        # used to build a mask of `points` bits: OverflowError, or a hang
        (load_space, {"points": 10**30, "closed": [[], [0]]}),
        (load_space, {"points": 2**40, "closed": [[], [2**39]]}),
        # used to allocate a size x size table (MemoryError) and scan all 2^size subsets
        (load_lattice, {"poset": {"size": 10**6, "le": []}}),
        # more down-sets than cli.MAX_DOWNSETS: an 11-element antichain has 2048,
        # a 1023-element one is refused after its first 11 elements
        (load_lattice, {"poset": {"size": 11, "le": []}}),
        (load_lattice, {"poset": {"size": 1023, "le": []}}),
    ],
)
def test_oversized_or_deep_input_is_an_input_error(path, loader, data):
    with pytest.raises(InputError):
        load(loader, path, data)


@pytest.mark.parametrize(
    "poset, n",
    [
        # a 10-element antichain: its down-set lattice is the 1024-element Boolean lattice
        ({"size": 10, "le": []}, 1024),
        # a long chain has few down-sets however many elements it has
        ({"size": 200, "le": [[i, i + 1] for i in range(199)]}, 201),
    ],
)
def test_posets_with_up_to_max_downsets_load(path, poset, n):
    assert n <= cli.MAX_DOWNSETS
    assert load(load_lattice, path, {"poset": poset}).n == n

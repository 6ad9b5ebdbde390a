"""Tests for the spec codec (``repro.scenario.spec.decode``): scenario
specs load by their declared field types, and a malformed file is one
path-qualified ScenarioError — never a traceback."""

import copy
import json

import pytest

from repro.cli import main
from repro.scenario import (
    RkvOptions,
    ScenarioError,
    from_dict,
    load_shipped,
    shipped_specs,
    to_dict,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:          # pragma: no cover - hypothesis is optional
    HAVE_HYPOTHESIS = False


# -- round trips --------------------------------------------------------------

@pytest.mark.parametrize("name", shipped_specs())
def test_shipped_specs_round_trip_through_the_codec(name):
    spec = load_shipped(name)
    assert from_dict(to_dict(spec)) == spec


def test_option_pairs_load_from_an_object_as_sorted_pairs():
    data = to_dict(load_shipped("paper-testbed"))
    data["apps"][0]["options"] = {"prefill_value_bytes": 420,
                                  "prefill_keys": 1000}
    app = from_dict(data).apps[0]
    assert app.options == RkvOptions(prefill_keys=1000,
                                     prefill_value_bytes=420)


def test_inf_and_pulse_true_load():
    data = to_dict(load_shipped("multi-rack-rkv"))
    data["observability"] = {"pulse": True}
    data["faults"] = [{"kind": "link_loss", "probability": 0.1,
                       "stop_us": "inf"}]
    spec = from_dict(data)
    assert spec.observability.pulse.period_us == 500.0
    assert spec.faults[0].stop_us == float("inf")


# -- malformed files: one FAIL line, naming the path --------------------------

def _rack_without_name(d):
    del d["racks"][0]["name"]


def _fleet_without_dst(d):
    del d["fleets"][0]["dst"]


def _options_not_pairs(d):
    d["apps"][0]["options"] = 5


def _slo_not_an_object(d):
    d["observability"]["slos"] = [5]


MALFORMED_SPECS = [
    (_rack_without_name, "racks[0]: missing field 'name'"),
    (lambda d: d.update(racks="r"), "racks: must be a list, not 'r'"),
    (_fleet_without_dst, "fleets[0]: missing field 'dst'"),
    (_options_not_pairs, "apps[0].options: must be an object, not 5"),
    (lambda d: d.update(duration_us="5ms"),
     "duration_us: must be a number, not '5ms'"),
    (_slo_not_an_object, "observability.slos[0]: must be an object"),
]


@pytest.mark.parametrize("mutate, message", MALFORMED_SPECS,
                         ids=["rack-name", "racks-str", "fleet-dst",
                              "options-int", "duration-str", "slos-int"])
def test_malformed_spec_file_fails_in_one_line(capsys, tmp_path, mutate,
                                               message):
    data = to_dict(load_shipped("multi-tenant-mixed"))
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["scenario", "validate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.count("\n") == 1 and out.startswith(f"FAIL {path}: ")
    assert message in out


# -- any one wrong value: the loader returns or raises its own error ----------

def _json_kind(value) -> str:
    if isinstance(value, bool) or value is None:
        return repr(value)
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def _locations(node, prefix=()):
    """Every path to a value in a JSON tree (the root included)."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _locations(child, prefix + (key,))


def _mutated(draw, base):
    data = copy.deepcopy(base)
    where = draw(st.sampled_from(list(_locations(data))))
    if not where:
        return draw(_json_values)
    parent = data
    for key in where[:-1]:
        parent = parent[key]
    old = parent[where[-1]]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[where[-1]]
    else:
        parent[where[-1]] = draw(_json_values.filter(
            lambda v: _json_kind(v) != _json_kind(old)))
    return data


if HAVE_HYPOTHESIS:
    _json_values = st.one_of(
        st.none(), st.booleans(), st.integers(-5, 10 ** 6),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=6), st.lists(st.integers(0, 3), max_size=3),
        st.dictionaries(st.text(max_size=4), st.integers(0, 3),
                        max_size=2))
    _SPEC_DICTS = [to_dict(load_shipped(name)) for name in shipped_specs()]

    @settings(max_examples=300)
    @given(st.data())
    def test_one_wrong_value_in_a_spec_is_a_scenario_error(data):
        base = data.draw(st.sampled_from(_SPEC_DICTS))
        mutated = _mutated(data.draw, base)
        try:
            from_dict(mutated).validate()
        except ScenarioError:
            pass
else:                        # pragma: no cover - hypothesis is optional
    @pytest.mark.skip(reason="hypothesis not installed")
    def test_one_wrong_value_in_a_spec_is_a_scenario_error():
        pass

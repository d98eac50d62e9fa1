"""The typed number readers of umm.jsonl return finite floats only."""

import json
import reprlib

import pytest

from umm.errors import MalformedInput
from umm.jsonl import want_number, want_numbers, want_pairs


@pytest.mark.parametrize("text,shown", [
    ("NaN", "nan"),
    ("Infinity", "inf"),
    ("-Infinity", "-inf"),
    ("1e400", "inf"),  # decodes past the float range
    (str(10**400), reprlib.repr(10**400)),  # an integer float() cannot convert
], ids=["nan", "infinity", "minus-infinity", "1e400", "10**400"])
@pytest.mark.parametrize("reader,value,field", [
    (want_number, "{}", "x"),
    (want_numbers, "[1.5, {}]", "x[1]"),
    (want_pairs, '[["a", 1.5], ["b", {}]]', "x[1]"),
], ids=["number", "numbers", "pairs"])
def test_a_number_that_is_not_finite_is_rejected_by_field(reader, value, field, text, shown):
    obj = json.loads('{"x": %s}' % value.format(text))
    with pytest.raises(MalformedInput) as exc:
        reader(obj, "x", where="config: ")
    assert str(exc.value) == f"config: {field} must be a finite number, got {shown}"

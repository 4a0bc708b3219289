import pickle

import pytest

from framelex import Record, attribute_names, record_type
from framelex.records import Lazy


def test_attribute_access_mirrors_item_access():
    r = Record(_type="frame", ID=7, name="Sample")
    assert r.ID == 7
    assert r["ID"] == 7
    assert r.name == "Sample"


def test_missing_attribute_and_key():
    r = Record(_type="frame", ID=7, name="Sample")
    with pytest.raises(AttributeError):
        r.nope
    with pytest.raises(KeyError):
        r["nope"]
    assert r.get("nope") is None
    assert r.get("nope", 5) == 5


def test_setattr_writes_through_to_mapping():
    r = Record(_type="semtype", ID=1, name="x")
    r.superType = None
    assert r["superType"] is None


def test_repr_shows_id_and_name():
    r = Record(_type="frame", ID=347, name="Revenge")
    assert repr(r) == str(r) == f"{r}" == "<frame ID=347 name=Revenge>"


def test_repr_without_id():
    r = Record(_type="fe", name="Avenger")
    assert repr(r) == "<fe name=Avenger>"


def test_record_type_and_attribute_names():
    r = Record(_type="lu", ID=1, name="a.v")
    assert record_type(r) == "lu"
    names = attribute_names(r)
    assert "ID" in names and "name" in names
    assert "_type" not in names


def test_lazy_resolves_once_and_writes_back():
    calls = []

    def thunk():
        calls.append(1)
        return 42

    r = Record(_type="frame", ID=1, name="x", payload=Lazy(thunk))
    assert r.payload == 42
    assert r.payload == 42
    assert calls == [1]
    # dict.__getitem__, bypassing the resolving path, sees the plain value
    assert dict.__getitem__(r, "payload") == 42


def test_lazy_get_also_resolves():
    r = Record(_type="frame", ID=1, name="x", payload=Lazy(lambda: "v"))
    assert r.get("payload") == "v"


def test_records_stay_plain_dicts():
    r = Record(_type="frame", ID=1, name="x")
    assert isinstance(r, dict)
    assert set(r.keys()) == {"_type", "ID", "name"}
    assert pickle.loads(pickle.dumps(dict(r))) == dict(r)


def test_a_record_keeps_no_instance_dict():
    r = Record(_type="frame", ID=1, name="x")
    assert not hasattr(r, "__dict__")
    r.payload = 5
    assert dict(r) == {"_type": "frame", "ID": 1, "name": "x", "payload": 5}

"""Uid and UidGenerator behaviour."""

import copy
import pickle

import pytest

from repro.cluster.message import decode_uid, encode_uid
from repro.util.uid import Uid, UidGenerator


def test_fresh_uids_are_unique():
    gen = UidGenerator("x")
    uids = [gen.fresh() for _ in range(100)]
    assert len(set(uids)) == 100


def test_uid_ordering_matches_creation_order():
    gen = UidGenerator("x")
    first, second, third = gen.fresh(), gen.fresh(), gen.fresh()
    assert first < second < third


def test_uids_are_namespaced():
    a = UidGenerator("alpha").fresh()
    b = UidGenerator("beta").fresh()
    assert a != b
    assert a.namespace == "alpha" and b.namespace == "beta"


def test_uid_is_hashable_and_usable_as_dict_key():
    gen = UidGenerator("x")
    uid = gen.fresh()
    table = {uid: "value"}
    assert table[Uid("x", uid.sequence)] == "value"


def test_uid_str_includes_namespace_and_sequence():
    assert str(Uid("obj", 42)) == "obj:42"


def test_generators_are_independent():
    gen_a, gen_b = UidGenerator("n"), UidGenerator("n")
    assert gen_a.fresh() == gen_b.fresh()  # same namespace, same sequence start


def test_uids_order_by_namespace_then_sequence():
    assert sorted([Uid("b", 1), Uid("a", 2), Uid("a", 1)]) == [
        Uid("a", 1), Uid("a", 2), Uid("b", 1)]
    assert Uid("a", 9) < Uid("b", 1)


def test_uid_fields_cannot_be_assigned():
    uid = Uid("x", 1)
    with pytest.raises(AttributeError):
        uid.sequence = 2


def test_uid_repr_names_its_fields():
    assert repr(Uid("obj", 42)) == "Uid(namespace='obj', sequence=42)"


def test_uid_hashes_as_its_field_tuple():
    """The hash a frozen dataclass of these fields had: every set and dict
    order the simulation counts rest on it."""
    assert hash(Uid("obj", 42)) == hash(("obj", 42))


def test_uid_survives_deepcopy_and_pickle():
    uid = Uid("obj", 42)
    for clone in (copy.deepcopy(uid), pickle.loads(pickle.dumps(uid))):
        assert clone == uid and type(clone) is Uid


def test_uid_equals_its_wire_encoding():
    """A uid is a tuple, so it equals what ``encode_uid`` puts on the wire
    (and ``decode_uid`` gives the uid back)."""
    uid = Uid("obj", 42)
    assert encode_uid(uid) == uid
    assert decode_uid(encode_uid(uid)) == uid

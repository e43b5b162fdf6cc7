"""Simulated network: delivery, faults, partitions, payload isolation."""

from dataclasses import dataclass, field

import pytest

from repro.cluster.message import Message
from repro.cluster.network import LOST, Network, NetworkConfig
from repro.errors import ClusterError
from repro.obs import Observability
from repro.sim.kernel import Kernel
from repro.util.rng import SplitRandom
from tests.oracle import Over


def kernel_and_network(config=None, seed=0):
    kernel = Kernel()
    network = Network(kernel, SplitRandom(seed), config)
    return kernel, network


def attach_sink(network, name):
    inbox = []
    network.attach(name, inbox.append)
    return inbox


def test_message_delivered_within_delay_bounds():
    kernel, network = kernel_and_network(NetworkConfig(min_delay=1.0, max_delay=3.0))
    inbox = attach_sink(network, "b")
    network.attach("a", lambda m: None)
    network.send(Message("a", "b", "ping", {}, msg_id=1))
    kernel.run()
    assert len(inbox) == 1
    assert 1.0 <= kernel.now <= 3.0


def test_send_to_unknown_endpoint_raises():
    _, network = kernel_and_network()
    network.attach("a", lambda m: None)
    with pytest.raises(ClusterError):
        network.send(Message("a", "ghost", "ping", {}))


def test_down_endpoint_drops_silently():
    kernel, network = kernel_and_network()
    inbox = attach_sink(network, "b")
    network.attach("a", lambda m: None)
    network.set_up("b", False)
    network.send(Message("a", "b", "ping", {}))
    kernel.run()
    assert inbox == []
    assert network.dropped_count == 1


def test_a_plan_made_drop_is_counted_like_any_other():
    """Whoever decides a loss, the network counts it: in ``by_kind`` and
    in the registry row pulled from it."""
    hub = Observability()
    kernel = Kernel()
    network = Network(kernel, SplitRandom(0), observability=hub)
    attach_sink(network, "b")
    network.attach("a", lambda m: None)
    Over(network, lambda message: LOST)
    network.send(Message("a", "b", "ping", {}))
    kernel.run()
    assert network.by_kind["dropped"] == {"ping": 1}
    assert hub.metrics.value("messages_dropped_total", kind="ping") \
        == network.dropped_count == 1


def test_crash_during_flight_loses_message():
    """Reachability is evaluated at delivery time."""
    kernel, network = kernel_and_network(NetworkConfig(min_delay=5.0, max_delay=5.0))
    inbox = attach_sink(network, "b")
    network.attach("a", lambda m: None)
    network.send(Message("a", "b", "ping", {}))
    kernel.schedule(1.0, lambda: network.set_up("b", False))
    kernel.run()
    assert inbox == []


def test_partition_blocks_both_directions_until_healed():
    kernel, network = kernel_and_network()
    inbox_a = attach_sink(network, "a")
    inbox_b = attach_sink(network, "b")
    network.partition("a", "b")
    network.send(Message("a", "b", "x", {}))
    network.send(Message("b", "a", "y", {}))
    kernel.run()
    assert inbox_a == [] and inbox_b == []
    network.heal("a", "b")
    network.send(Message("a", "b", "x", {}))
    kernel.run()
    assert len(inbox_b) == 1


def test_drop_probability_loses_some_messages():
    kernel, network = kernel_and_network(NetworkConfig(drop_probability=0.5), seed=3)
    inbox = attach_sink(network, "b")
    network.attach("a", lambda m: None)
    for i in range(200):
        network.send(Message("a", "b", "ping", {"i": i}))
    kernel.run()
    assert 0 < len(inbox) < 200
    assert network.dropped_count == 200 - len(inbox)


def test_duplicate_probability_duplicates_some_messages():
    kernel, network = kernel_and_network(
        NetworkConfig(duplicate_probability=0.5), seed=5)
    inbox = attach_sink(network, "b")
    network.attach("a", lambda m: None)
    for i in range(100):
        network.send(Message("a", "b", "ping", {"i": i}))
    kernel.run()
    assert len(inbox) > 100


def test_payload_deep_copied_at_send():
    """Mutating the payload after send must not affect the receiver."""
    kernel, network = kernel_and_network()
    inbox = attach_sink(network, "b")
    network.attach("a", lambda m: None)
    payload = {"xs": [1, 2]}
    network.send(Message("a", "b", "data", payload))
    payload["xs"].append(99)
    kernel.run()
    assert inbox[0].payload["xs"] == [1, 2]


def _send_and_receive(payload, mutate, config=None, seed=0):
    """Send ``payload``, mutate the sender's copy, return what arrives."""
    kernel, network = kernel_and_network(config, seed)
    inbox = attach_sink(network, "b")
    network.attach("a", lambda m: None)
    network.send(Message("a", "b", "data", payload))
    mutate(payload)
    kernel.run()
    return [message.payload for message in inbox]


def test_nested_wire_data_is_copied_at_send():
    """A nested dict, or a list inside a tuple, mutated after ``send`` is
    invisible to the receiver; a tuple arrives as a tuple."""
    def mutate(payload):
        payload["outer"]["inner"]["n"] = 99
        payload["outer"]["inner"]["new"] = True
        payload["pair"][1].append(99)

    sent = {"outer": {"inner": {"n": 1}}, "pair": ("uid", [1, 2]),
            "plain": ("ns", 7, 1.5, True, None, b"raw")}
    [received] = _send_and_receive(sent, mutate)
    assert received == {"outer": {"inner": {"n": 1}}, "pair": ("uid", [1, 2]),
                        "plain": ("ns", 7, 1.5, True, None, b"raw")}
    assert type(received["pair"]) is tuple
    assert type(received["plain"]) is tuple
    assert received["pair"][1] is not sent["pair"][1]


@dataclass
class _Box:
    items: list = field(default_factory=list)


def test_values_that_are_not_plain_wire_data_are_still_deep_copied():
    """A set, a dataclass, a dict subclass: anything but the exact plain
    types goes through ``copy.deepcopy``, however deep it sits."""
    class Tagged(dict):
        pass

    def mutate(payload):
        payload["seen"].add(3)
        payload["nested"][0]["box"].items.append("late")
        payload["tagged"]["xs"].append(2)

    sent = {"seen": {1, 2}, "nested": [{"box": _Box(["early"])}],
            "tagged": Tagged(xs=[1])}
    [received] = _send_and_receive(sent, mutate)
    assert received["seen"] == {1, 2}
    assert received["nested"][0]["box"] == _Box(["early"])
    assert type(received["tagged"]) is Tagged
    assert received["tagged"] == {"xs": [1]}


def test_the_two_copies_of_a_duplicated_message_are_independent():
    config = NetworkConfig(duplicate_probability=0.999)
    first, second = _send_and_receive({"xs": [1, {"k": "v"}]},
                                      lambda payload: None, config)
    assert first == second == {"xs": [1, {"k": "v"}]}
    assert first is not second
    assert first["xs"] is not second["xs"]
    assert first["xs"][1] is not second["xs"][1]
    first["xs"][1]["k"] = "changed by one receiver"
    assert second["xs"][1] == {"k": "v"}


def test_same_seed_same_fault_pattern():
    def run(seed):
        kernel, network = kernel_and_network(
            NetworkConfig(drop_probability=0.3, duplicate_probability=0.2), seed=seed
        )
        inbox = attach_sink(network, "b")
        network.attach("a", lambda m: None)
        for i in range(50):
            network.send(Message("a", "b", "ping", {"i": i}))
        kernel.run()
        return [m.payload["i"] for m in inbox]

    assert run(11) == run(11)
    assert run(11) != run(12)


def test_invalid_config_rejected():
    with pytest.raises(ClusterError):
        NetworkConfig(min_delay=2.0, max_delay=1.0).validate()
    with pytest.raises(ClusterError):
        NetworkConfig(drop_probability=1.5).validate()


def run_fault_pattern(config, seed=7, count=150):
    """Deliver ``count`` messages; return (dropped, duplicated) index sets."""
    kernel, network = kernel_and_network(config, seed=seed)
    inbox = attach_sink(network, "b")
    network.attach("a", lambda m: None)
    for i in range(count):
        network.send(Message("a", "b", "ping", {"i": i}))
    kernel.run()
    seen = {}
    for m in inbox:
        seen[m.payload["i"]] = seen.get(m.payload["i"], 0) + 1
    dropped = {i for i in range(count) if i not in seen}
    duplicated = {i for i, n in seen.items() if n == 2}
    return dropped, duplicated


def test_drop_decisions_independent_of_duplicate_knob():
    """The Nth message's drop fate depends only on (seed, N): turning
    duplication on must not reshuffle which messages get dropped."""
    dropped_plain, _ = run_fault_pattern(NetworkConfig(drop_probability=0.3))
    dropped_dup, _ = run_fault_pattern(
        NetworkConfig(drop_probability=0.3, duplicate_probability=0.5))
    assert dropped_plain == dropped_dup


def test_duplicate_decisions_independent_of_drop_knob():
    """Duplicate draws are consumed for every send — dropped or not — so
    the per-index duplicate pattern is fixed: under loss, the surviving
    duplicated messages are exactly the fixed pattern minus the drops."""
    _, dup_baseline = run_fault_pattern(
        NetworkConfig(duplicate_probability=0.4))
    dropped, dup_lossy = run_fault_pattern(
        NetworkConfig(drop_probability=0.3, duplicate_probability=0.4))
    assert dup_lossy == dup_baseline - dropped

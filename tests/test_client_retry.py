"""The client retry policy, table-driven.

One scripted request goes to an echo server that drops the first
``drops`` copies it sees and answers the rest after ``reply_delay_us``.
The client retransmits after timeout x min(2^(attempt-1), 8), so the
copies reach the server 1x, 2x, 4x, 8x, 8x, ... ``TIMEOUT_US`` apart,
and it stops after its budget of 20 attempts.  A reply that arrives
after a retransmit was already answered counts as one duplicate.
"""

import pytest

from repro.net import Fabric
from repro.scenario.build import ClientPort
from repro.sim import Simulator

TIMEOUT_US = 10.0

#: (case, drops, reply delay µs, expected gaps between copies in
#: timeouts, answered, retransmits, duplicates, unanswered)
CASES = [
    ("first-copy", 0, 0.0, [], 1, 0, 0, 0),
    ("one-drop", 1, 0.0, [1], 1, 1, 0, 0),
    ("two-drops", 2, 0.0, [1, 2], 1, 2, 0, 0),
    ("three-drops", 3, 0.0, [1, 2, 4], 1, 3, 0, 0),
    ("four-drops", 4, 0.0, [1, 2, 4, 8], 1, 4, 0, 0),
    ("capped", 5, 0.0, [1, 2, 4, 8, 8], 1, 5, 0, 0),
    ("budget-spent", 10_000, 0.0, [1, 2, 4] + [8] * 16, 0, 19, 0, 1),
    ("late-reply", 0, 1.5 * TIMEOUT_US, [1], 1, 1, 1, 0),
]


def _client(sim, net):
    port = ClientPort(sim, net, "client")
    net.attach("client", port.receive)
    return port.scripted(timeout_us=TIMEOUT_US)


def _ledger(client):
    return (client.answered, client.retransmits, client.duplicates,
            client.sent - client.answered, list(client.latency.samples))


@pytest.mark.parametrize(
    "drops, delay, gaps, answered, retransmits, duplicates, unanswered",
    [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_retransmit_schedule(drops, delay, gaps, answered, retransmits,
                             duplicates, unanswered):
    sim = Simulator()
    net = Fabric(sim, bandwidth_gbps=10)
    arrivals = []

    def server(packet):
        arrivals.append(sim.now)
        if len(arrivals) > drops:
            sim.post(delay, net.send, packet.reply(size=64))

    net.attach("server", server)
    client = _client(sim, net)
    client.request("server", "echo", {"n": 1}, size=128)
    sim.run(until=200 * TIMEOUT_US)

    seen = [later - earlier for earlier, later in zip(arrivals, arrivals[1:])]
    assert seen == pytest.approx([g * TIMEOUT_US for g in gaps])
    got_answered, got_retx, got_dups, got_unanswered, latencies = \
        _ledger(client)
    assert (got_answered, got_retx, got_dups, got_unanswered) == (
        answered, retransmits, duplicates, unanswered)
    # latency runs from the first copy, so it spans every timeout waited
    assert len(latencies) == answered
    if answered:
        assert latencies[0] >= sum(gaps[:drops]) * TIMEOUT_US + delay

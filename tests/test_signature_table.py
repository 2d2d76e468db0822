"""The header-signature table against the full path.

An engine, learning or active, judges a known TCP or UDP frame's
metadata by one probe of a table keyed on packet.header_signature, the
table of sent frames or that of all others; a learning judgment that
admits a flow empties both. These tests
switch the table off by making every signature None, so every frame is
parsed, keyed and observed, and require the same verdicts, the same
events and the same learned model either way.
"""

import pytest

from eids import bench, frames, sim
from eids.engine import SIGNATURE_CAPACITY, Engine, EngineConfig, replay
from eids.flows import Cause
from eids.packet import TCP_ACK, TCP_SYN, ArpOp, Direction, header_signature, parse_frame

S = 1_000_000
MS = 1000
S1_IP = "192.168.1.101"
S1_MAC = "02:00:ac:10:01:65"
PLC_IP = "192.168.1.50"
PLC_MAC = "02:00:ac:10:01:32"


def _table_off(monkeypatch):
    monkeypatch.setattr("eids.engine.header_signature", lambda data: None)


@pytest.fixture
def short_plant(monkeypatch):
    """The 100 s matrix of the golden test: learning to 60 s, attacks
    from 65 s."""
    monkeypatch.setattr(bench, "LEARNING_US", 60 * S)
    monkeypatch.setattr(bench, "ATTACK_START_US", 65 * S)
    monkeypatch.setattr(bench, "DURATION_US", 100 * S)
    return lambda seed: sim.Plant(sim.Topology.default(), sim.TrafficProfile(),
                                  bench.DURATION_US, seed)


def _row_results(plant):
    """Each matrix row's events and the model its engine learned."""
    results = [bench._observe(plant.trace([scenario]), sim.TrafficProfile())
               for scenario, _variant, _expected in bench._scenario_matrix()]
    return [(result.events, result.engine.export_model()) for result in results]


@pytest.mark.parametrize("seed", [3, 8])
def test_matrix_rows_raise_the_same_events_with_the_table_off(short_plant, monkeypatch,
                                                              seed):
    plant = short_plant(seed)
    with_table = _row_results(plant)
    _table_off(monkeypatch)
    assert _row_results(plant) == with_table
    assert any(events for events, _model in with_table)


def _row_verdicts(plant, monkeypatch):
    """Each matrix row's (verdict, events) pair from every ingest, in
    order, as bench drives the monitored engine."""
    pairs = []
    ingest = Engine.ingest

    def recording(self, direction, frame, now_us):
        pair = ingest(self, direction, frame, now_us)
        pairs.append(pair)
        return pair

    with monkeypatch.context() as patch:
        patch.setattr(Engine, "ingest", recording)
        for scenario, _variant, _expected in bench._scenario_matrix():
            bench._observe(plant.trace([scenario]), sim.TrafficProfile())
    return pairs


def test_every_frame_answers_the_same_verdict_with_the_table_off(short_plant, monkeypatch):
    """Per frame, not per event stream: a frame inside a burst answers
    True with no event, which the events alone do not show."""
    plant = short_plant(5)
    with_table = _row_verdicts(plant, monkeypatch)
    _table_off(monkeypatch)
    assert _row_verdicts(plant, monkeypatch) == with_table
    assert (True, []) in with_table


def _learned(stream):
    """The model and the baseline keys an engine learns on stream."""
    engine = Engine(EngineConfig(local_ip=S1_IP, learning_duration_us=1 << 62))
    for _event in replay(engine, stream):
        pass
    return engine.export_model(), set(engine.states)


def test_a_flow_admitted_while_learning_rekeys_a_kept_signature(monkeypatch):
    """X, a SYN from P:9000 to H:6000, admits tcp/P->H:6000, so S,
    P:5000 -> H:6000, keys to :6000. Z, a SYN from H:1234 to P:5000,
    admits tcp/P->H:5000 and the service P:5000; from then on the full
    path keys S to :5000, so the signature S was kept under must go."""
    x = frames.tcp_frame(PLC_MAC, S1_MAC, PLC_IP, S1_IP, 9000, 6000, TCP_SYN)
    s = frames.tcp_frame(PLC_MAC, S1_MAC, PLC_IP, S1_IP, 5000, 6000, 0x08 | TCP_ACK)
    z = frames.tcp_frame(S1_MAC, PLC_MAC, S1_IP, PLC_IP, 1234, 5000, TCP_SYN)
    # a pcap says no direction
    stream = [(k * 100 * MS, None, data) for k, data in enumerate([x, s, s, s, z, s, s, s])]
    with_table = _learned(stream)
    _table_off(monkeypatch)
    assert _learned(stream) == with_table
    model = with_table[0].decode()
    assert "TIMING\tTcp\t192.168.1.50\t192.168.1.101\t5000\t" in model


@pytest.fixture(scope="module")
def model_and_view():
    """A model learned on S1's first 60 s of a benign plant, and S1's
    view from then on."""
    trace = sim.run(duration_us=100 * S, seed=3,
                    profile=sim.TrafficProfile(arp_expiry_us=(20 * S, 40 * S)))
    view = list(trace.frames_for("S1"))
    learner = Engine(EngineConfig(local_ip=S1_IP, learning_duration_us=60 * S))
    for _event in replay(learner, (record for record in view if record[0] < 60 * S)):
        pass
    return learner.export_model(), [record for record in view if record[0] >= 60 * S]


def _mutants(data):
    yield from (data[:n] for n in range(61))
    for bit in range(12 * 8, 49 * 8):
        flipped = bytearray(data)
        if bit // 8 < len(flipped):
            flipped[bit // 8] ^= 1 << (bit % 8)
            yield bytes(flipped)


def _hostile_stream(view):
    """The view, then every mutant of one frame per signature and
    direction, each sent, received and of unknown direction, then the
    view again with each pair of neighbouring records swapped."""
    stream = list(view)
    bases = {}
    for _at, direction, data in view:
        bases.setdefault((direction, header_signature(data)), data)
    at = view[-1][0]
    for data in bases.values():
        for mutant in _mutants(data):
            for direction in (Direction.TX, Direction.RX, None):
                at += MS
                stream.append((at, direction, mutant))
    shift = at + S - view[0][0]
    for k in range(0, len(view) - 1, 2):
        stream += [(view[k + 1][0] + shift,) + view[k + 1][1:],
                   (view[k][0] + shift,) + view[k][1:]]
    return stream


def _imported_events(model, stream):
    engine = Engine(EngineConfig(local_ip=S1_IP))
    engine.import_model(model)
    return list(replay(engine, stream))


def test_mutated_frames_raise_the_same_events_with_the_table_off(model_and_view,
                                                                 monkeypatch):
    model, view = model_and_view
    stream = _hostile_stream(view)
    with_table = _imported_events(model, stream)
    _table_off(monkeypatch)
    assert _imported_events(model, stream) == with_table
    causes = {event.cause for event in with_table}
    assert {Cause.NEW_FLOW, Cause.L2L3_MISMATCH, Cause.TOO_FAST} <= causes


def test_entering_active_mode_drops_the_learning_judgments(monkeypatch):
    """Learning keeps a frame whose source MAC contradicts its source's
    ARP binding with no cause; active mode must judge it anew."""
    arp = frames.arp_frame(ArpOp.REPLY, PLC_MAC, PLC_IP, S1_MAC, S1_IP)
    rogue = frames.tcp_frame("02:00:ac:10:01:99", S1_MAC, PLC_IP, S1_IP, 49152, 502, 0x18)
    stream = [(0, None, arp)] + [(k * 100 * MS, None, rogue) for k in range(1, 15)]

    def events():
        engine = Engine(EngineConfig(local_ip=S1_IP, learning_duration_us=S))
        return list(replay(engine, stream))

    with_table = events()
    _table_off(monkeypatch)
    assert events() == with_table
    assert Cause.L2L3_MISMATCH in {event.cause for event in with_table}


def test_learning_on_mutated_frames_learns_the_same_model_with_the_table_off(
        model_and_view, monkeypatch):
    _model, view = model_and_view
    stream = _hostile_stream(view)
    with_table = _learned(stream)
    _table_off(monkeypatch)
    assert _learned(stream) == with_table


def test_table_stops_growing_at_its_capacity_and_still_judges_every_frame():
    engine = Engine(EngineConfig(local_ip=S1_IP, learning_duration_us=S))
    engine.tick(0)
    engine.tick(S)
    for k in range(5000):
        frame = frames.tcp_frame("02:00:ac:10:01:c8", "02:00:ac:10:01:65",
                                 "192.168.1.200", S1_IP, 10_000 + k, 9999, 0x18)
        _verdict, events = engine.ingest(Direction.RX, frame, 2 * S + 2 * k)
        assert [event.cause for event in events] == [Cause.NEW_FLOW]
        sent = frames.tcp_frame("02:00:ac:10:01:65", "02:00:ac:10:01:c8",
                                S1_IP, "192.168.1.200", 9999, 10_000 + k, 0x18)
        _verdict, events = engine.ingest(Direction.TX, sent, 2 * S + 2 * k + 1)
        assert [event.cause for event in events] == [Cause.NEW_FLOW]
        assert len(engine._judged_sent) <= SIGNATURE_CAPACITY
        assert len(engine._judged_other) <= SIGNATURE_CAPACITY
    assert min(len(engine._judged_sent), len(engine._judged_other)) > 0


def test_a_full_table_refills_so_a_learned_flow_is_probed_again(monkeypatch):
    """After fresh client ports fill the table, a learned poll flow's
    frames are parsed once and then judged by the probe."""
    def poll(client_port, k):
        return frames.tcp_frame("02:00:ac:10:01:32", "02:00:ac:10:01:65", "192.168.1.50",
                                S1_IP, client_port, 502, 0x18,
                                frames.modbus_read_request(k, 1))

    engine = Engine(EngineConfig(local_ip=S1_IP, learning_duration_us=10 * S))
    engine.tick(0)
    for k in range(100):
        engine.ingest(Direction.RX, poll(49152, k), (k + 1) * 100 * MS)
    engine.tick(10_100 * MS)
    for k in range(5000):
        engine.ingest(Direction.RX, poll(10_000 + k, k), 11 * S + k * 100)
    parses = []
    monkeypatch.setattr("eids.engine.parse_frame",
                        lambda data: parses.append(data) or parse_frame(data))
    for k in range(100):
        engine.ingest(Direction.RX, poll(49152, k), 20 * S + k * 100 * MS)
    assert len(parses) <= 1

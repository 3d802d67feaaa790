"""Cross-module integration tests: traffic -> MMS -> reassembly, and
platform-vs-platform consistency."""

import random


from repro.core import MMS, Command, CommandType, MmsConfig
from repro.net import Packet
from repro.sim.clock import SEC

#: Simple IMIX: 64 / 594 / 1518-byte packets in 7 : 4 : 1 proportion.
IMIX_SIZES = (64, 594, 1518)
IMIX_WEIGHTS = (7, 4, 1)


def test_imix_traffic_through_mms_preserves_flow_order():
    """Segment seeded IMIX packets into the MMS, dequeue everything, and
    verify per-flow packet order and byte conservation."""
    rng = random.Random(11)
    cfg = MmsConfig(num_flows=8, num_segments=8192, num_descriptors=4096)
    mms = MMS(cfg)
    packets = [Packet(rng.choices(IMIX_SIZES, IMIX_WEIGHTS)[0],
                      flow_id=rng.randrange(8))
               for _ in range(120)]
    sent = {flow: [] for flow in range(8)}
    for pkt in packets:
        sent[pkt.flow_id].append((pkt.pid, pkt.length_bytes))
        for cmd in mms.segmentation.segment(pkt):
            mms.apply(cmd)

    received = {flow: [] for flow in range(8)}
    done = 0
    while done < len(packets):
        for flow in range(8):
            if mms.pqm.queued_segments(flow) == 0:
                continue
            info = mms.apply(Command(type=CommandType.DEQUEUE, flow=flow))
            result = mms.reassembly.feed(flow, info)
            if result is not None:
                assert result.flow == flow
                received[flow].append((result.pid, result.length_bytes))
                done += 1

    assert received == sent
    assert sum(n for flow in received.values() for _pid, n in flow) == \
        sum(p.length_bytes for p in packets)
    assert mms.pqm.free_segments == cfg.num_segments

def test_timed_mms_pipeline_with_des_kernel():
    """Run a producer/consumer pair against the timed MMS: the consumer
    sees every packet the producer queued, in order, and the simulated
    rates respect the 10.5-cycle execution budget."""
    cfg = MmsConfig(num_flows=4, num_segments=1024, num_descriptors=512)
    mms = MMS(cfg)
    sim = mms.sim
    sent, received = [], []

    def producer():
        for i in range(30):
            pkt = Packet(64, flow_id=i % 4)
            sent.append(pkt.pid)
            for cmd in mms.segmentation.segment(pkt):
                yield from mms.submit(0, cmd)
            yield 2_000_000  # 2 us between packets

    def consumer():
        grabbed = 0
        while grabbed < 30:
            progress = False
            for flow in range(4):
                if mms.pqm.queued_packets(flow) == 0:
                    continue
                cmd = Command(type=CommandType.DEQUEUE, flow=flow)
                info = yield from mms.submit_and_wait(1, cmd)
                out = mms.reassembly.feed(flow, info)
                if out is not None:
                    received.append(out.pid)
                    grabbed += 1
                progress = True
            if not progress:
                yield 500_000  # poll every 0.5 us

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run(until_ps=SEC // 10)
    assert received == sent  # global FIFO here: one flow rotation
    assert mms.commands_executed == 60
    # 60 commands x >= 10 cycles at 8 ns: at least 4.8 us of execution
    assert sim.now >= 60 * 10 * 8000

def test_ixp_and_npu_models_agree_on_the_software_story():
    """Both software platforms land in the same regime: hundreds of
    Mbps at best for many-queue 64-byte traffic, far under the MMS."""
    from repro.core.mms import MmsConfig as MC, run_saturation
    from repro.ixp import simulate_ixp
    from repro.net import pps_to_gbps
    from repro.npu import CopyStrategy, QueueSwModel

    ixp_gbps = pps_to_gbps(simulate_ixp(1024, 6).pps, 64)
    npu_gbps = QueueSwModel().full_duplex_gbps(CopyStrategy.LINE)
    mms_gbps = run_saturation(
        num_commands=1500,
        config=MC(num_flows=512, num_segments=4096,
                  num_descriptors=2048)).achieved_gbps
    assert ixp_gbps < 0.25
    assert npu_gbps < 0.25
    assert mms_gbps > 5.5
    assert mms_gbps > 20 * max(ixp_gbps, npu_gbps)

#!/usr/bin/env python3
"""QoS egress scheduling over MMS flow queues: strict priority vs DRR.

Three tenants share an egress link: a voice flow (small packets), a
video flow (medium), and a bulk flow (jumbo).  Strict priority starves
bulk entirely; deficit round robin shares bytes by weight.  Both
schedulers dequeue through the MMS's flow queue manager, the state the
MMS dequeue command acts on.

Run:  python examples/qos_drr_demo.py
"""

from repro.core import MMS, MmsConfig
from repro.core.qos import DeficitRoundRobin, StrictPriorityScheduler
from repro.net import Packet

VOICE, VIDEO, BULK = 0, 1, 2
NAMES = {VOICE: "voice", VIDEO: "video", BULK: "bulk"}


def load_traffic(mms: MMS) -> None:
    sizes = {VOICE: 64, VIDEO: 320, BULK: 1024}
    counts = {VOICE: 60, VIDEO: 30, BULK: 12}
    for flow, size in sizes.items():
        for _ in range(counts[flow]):
            for cmd in mms.segmentation.segment(Packet(size, flow_id=flow)):
                mms.apply(cmd)
    for flow in (VOICE, VIDEO, BULK):
        print(f"  {NAMES[flow]:>5}: {mms.pqm.queued_packets(flow):>3} packets "
              f"({mms.pqm.queued_segments(flow) * 64:>5} buffered bytes)")


def main() -> None:
    print("loading identical traffic into two MMS instances...")
    mms_sp = MMS(MmsConfig(num_flows=3, num_segments=4096,
                           num_descriptors=2048))
    mms_drr = MMS(MmsConfig(num_flows=3, num_segments=4096,
                            num_descriptors=2048))
    load_traffic(mms_sp)
    load_traffic(mms_drr)

    budget = 48  # packets the egress link can send in our window

    print(f"\nstrict priority (voice > video > bulk), {budget} packets:")
    sp = StrictPriorityScheduler(mms_sp.pqm, flows=[VOICE, VIDEO, BULK])
    sp_bytes = {f: 0 for f in (VOICE, VIDEO, BULK)}
    for _ in range(budget):
        pkt = sp.next_packet()
        if pkt is None:
            break
        sp_bytes[pkt.flow] += pkt.length_bytes
    for flow, count in sp_bytes.items():
        print(f"  {NAMES[flow]:>5}: {count:>6} bytes")

    print(f"\ndeficit round robin (weights voice:video:bulk = 2:1:1), "
          f"{budget} packets:")
    drr = DeficitRoundRobin(mms_drr.pqm, flows=[VOICE, VIDEO, BULK],
                            weights=[2.0, 1.0, 1.0], quantum_bytes=1024)
    shares = drr.drain_fair_shares(budget)
    for flow, count in shares.items():
        print(f"  {NAMES[flow]:>5}: {count:>6} bytes")

    assert sp_bytes[BULK] == 0, "strict priority should starve bulk here"
    assert shares[BULK] > 0, "DRR must serve bulk its share"
    print("\nstrict priority starved bulk; DRR gave every tenant "
          "its weighted byte share -- same MMS queues underneath.")


if __name__ == "__main__":
    main()

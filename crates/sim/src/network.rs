//! The on-chip interconnect: a latency/ordering model of a 2D mesh.
//!
//! This stands in for GARNET.  Rather than simulating individual flits and
//! router pipelines, each message is assigned a delivery time of
//! `now + hops * link_latency + jitter`, where `hops` is the Manhattan
//! distance between the endpoints on the mesh and `jitter` is drawn from the
//! seeded simulation RNG (modelling contention).  Ordering guarantees match
//! what the coherence protocols assume of GARNET:
//!
//! * FIFO per (source, destination, virtual network) channel;
//! * no ordering across different channels — in particular an invalidation on
//!   the forward network may overtake a data response, which is exactly the
//!   race the `IS_I` transient state (and the `MESI,LQ+IS,Inv` bug) is about.

use crate::config::SystemConfig;
use crate::msg::{Msg, VirtualNetwork};
use crate::types::Cycle;
use mcversi_telemetry as telemetry;
use rand::Rng;
use std::collections::VecDeque;

/// Messages injected on the request virtual network.
static NET_REQUEST: telemetry::Counter = telemetry::Counter::new("sim.net.msg.request");
/// Messages injected on the forward virtual network.
static NET_FORWARD: telemetry::Counter = telemetry::Counter::new("sim.net.msg.forward");
/// Messages injected on the response virtual network.
static NET_RESPONSE: telemetry::Counter = telemetry::Counter::new("sim.net.msg.response");

/// Virtual networks per (source, destination) pair.
const VNETS: usize = 3;

/// The mesh interconnect.
#[derive(Debug)]
pub struct Network {
    nodes: usize,
    /// One FIFO per (source, destination, virtual network), at index
    /// `(src * nodes + dst) * VNETS + vnet`: ascending index order is the
    /// delivery order within a cycle.
    channels: Vec<VecDeque<(Cycle, Msg)>>,
    /// One bit per channel, set while the channel holds a message, so that
    /// delivery visits only those (a handful of the `nodes² × 3`).
    non_empty: Vec<u64>,
    /// The earliest head-of-channel delivery time (`None` when empty), kept
    /// up to date so the per-cycle "anything due?" question costs one compare.
    earliest: Option<Cycle>,
    in_flight: usize,
}

impl Network {
    /// Creates an empty network connecting the nodes of `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        let nodes = cfg.num_nodes();
        Network {
            nodes,
            channels: vec![VecDeque::new(); nodes * nodes * VNETS],
            non_empty: vec![0; (nodes * nodes * VNETS).div_ceil(64)],
            earliest: None,
            in_flight: 0,
        }
    }

    fn channel_index(&self, msg: &Msg, vnet: VirtualNetwork) -> usize {
        (msg.src.index() * self.nodes + msg.dst.index()) * VNETS + vnet as usize
    }

    /// Number of messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Returns `true` if no messages are in flight.
    pub fn is_empty(&self) -> bool {
        self.in_flight == 0
    }

    /// Injects a message at time `now`.
    ///
    /// The delivery time is computed from the mesh hop distance plus random
    /// jitter, then clamped so it never precedes the delivery time of the
    /// previously injected message on the same channel (FIFO per channel).
    pub fn send<R: Rng>(&mut self, msg: Msg, now: Cycle, cfg: &SystemConfig, rng: &mut R) {
        let hops = cfg.mesh_hops(msg.src, msg.dst);
        let jitter = if cfg.latency.network_jitter == 0 {
            0
        } else {
            rng.gen_range(0..=cfg.latency.network_jitter)
        };
        let mut deliver_at = now + 1 + hops * cfg.latency.link_hop + jitter;
        let vnet = msg.payload.vnet();
        // Data (response) messages are multi-flit and never overtake earlier
        // single-flit control messages to the same destination, while control
        // messages may overtake data — this is the asymmetry that makes the
        // IS_I race reachable without allowing a stale invalidation to arrive
        // after the data its transaction produced.
        if vnet == VirtualNetwork::Response {
            let forward = self.channel_index(&msg, VirtualNetwork::Forward);
            if let Some(&(last_fwd, _)) = self.channels[forward].back() {
                deliver_at = deliver_at.max(last_fwd);
            }
        }
        let index = self.channel_index(&msg, vnet);
        let queue = &mut self.channels[index];
        if let Some(&(last, _)) = queue.back() {
            deliver_at = deliver_at.max(last);
        }
        queue.push_back((deliver_at, msg));
        self.non_empty[index / 64] |= 1 << (index % 64);
        // A message joining a non-empty channel is no earlier than its head,
        // so the minimum over heads only ever moves when it is undercut.
        self.earliest = Some(self.earliest.map_or(deliver_at, |e| e.min(deliver_at)));
        self.in_flight += 1;
        match vnet {
            VirtualNetwork::Request => NET_REQUEST.incr(),
            VirtualNetwork::Forward => NET_FORWARD.incr(),
            VirtualNetwork::Response => NET_RESPONSE.incr(),
        }
    }

    /// Removes every message whose delivery time has been reached and appends
    /// it to `out`, in ascending (source, destination, virtual network)
    /// channel order and FIFO within a channel.
    pub fn deliver_due(&mut self, now: Cycle, out: &mut Vec<Msg>) {
        if self.earliest.is_none_or(|earliest| earliest > now) {
            return;
        }
        let mut earliest: Option<Cycle> = None;
        for (word_index, word) in self.non_empty.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let queue = &mut self.channels[word_index * 64 + bit];
                while let Some(&(ready, _)) = queue.front() {
                    if ready > now {
                        earliest = Some(earliest.map_or(ready, |e| e.min(ready)));
                        break;
                    }
                    let (_, msg) = queue.pop_front().expect("front exists");
                    out.push(msg);
                    self.in_flight -= 1;
                }
                if queue.is_empty() {
                    *word &= !(1 << bit);
                }
            }
        }
        self.earliest = earliest;
    }

    /// The earliest pending delivery time, if any (the network's deadline
    /// when the system jumps over cycles every component sleeps through).
    pub fn next_delivery(&self) -> Option<Cycle> {
        self.earliest
    }

    /// Drops all in-flight messages (used by the host-assisted hard reset).
    pub fn clear(&mut self) {
        if self.in_flight > 0 {
            self.channels.iter_mut().for_each(VecDeque::clear);
            self.non_empty.fill(0);
        }
        self.earliest = None;
        self.in_flight = 0;
    }
}

#[cfg(test)]
impl Network {
    /// The destination of every message [`deliver_due`](Self::deliver_due)
    /// would deliver at `now`, leaving them in flight.
    pub(crate) fn due_destinations(&self, now: Cycle) -> Vec<crate::types::NodeId> {
        let due = self
            .channels
            .iter()
            .flat_map(|channel| channel.iter().take_while(move |&&(ready, _)| ready <= now));
        due.map(|(_, msg)| msg.dst).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgPayload;
    use crate::types::{LineAddr, NodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> SystemConfig {
        SystemConfig::paper_default()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn deliver(net: &mut Network, now: Cycle) -> Vec<Msg> {
        let mut out = Vec::new();
        net.deliver_due(now, &mut out);
        out
    }

    fn gets(src: u32, dst: u32, line: u64) -> Msg {
        Msg::new(
            NodeId(src),
            NodeId(dst),
            MsgPayload::GetS {
                line: LineAddr(line),
            },
        )
    }

    #[test]
    fn messages_are_delivered_after_latency() {
        let cfg = cfg();
        let mut rng = rng();
        let mut net = Network::new(&cfg);
        net.send(gets(0, 8, 0x40), 100, &cfg, &mut rng);
        assert_eq!(net.in_flight(), 1);
        assert!(deliver(&mut net, 100).is_empty(), "not instantaneous");
        // Worst case latency: 1 + hops*link + jitter.
        let worst = 100
            + 1
            + cfg.mesh_hops(NodeId(0), NodeId(8)) * cfg.latency.link_hop
            + cfg.latency.network_jitter;
        let delivered = deliver(&mut net, worst);
        assert_eq!(delivered.len(), 1);
        assert!(net.is_empty());
    }

    #[test]
    fn fifo_per_channel() {
        let cfg = cfg();
        let mut rng = rng();
        let mut net = Network::new(&cfg);
        // Many messages on the same channel: delivery order must match send
        // order even though jitter varies.
        for i in 0..50u64 {
            net.send(gets(0, 8, 0x40 * (i + 1)), i, &cfg, &mut rng);
        }
        let delivered = deliver(&mut net, 10_000);
        assert_eq!(delivered.len(), 50);
        for (i, msg) in delivered.iter().enumerate() {
            assert_eq!(msg.payload.line(), LineAddr(0x40 * (i as u64 + 1)));
        }
    }

    #[test]
    fn different_vnets_can_reorder() {
        let cfg = cfg();
        let mut net = Network::new(&cfg);
        // Deterministically construct reordering by zeroing jitter and using
        // payloads on different vnets with different send times such that the
        // later-sent forward arrives earlier than the earlier-sent response
        // would only happen with jitter; instead verify independence: draining
        // one channel does not drain the other.
        let mut rng = rng();
        let data = MsgPayload::DataS {
            line: LineAddr(0x40),
            data: crate::types::LineData::zeroed(64),
            ts: None,
        };
        let inv = MsgPayload::Inv {
            line: LineAddr(0x40),
        };
        net.send(Msg::new(NodeId(8), NodeId(0), data), 0, &cfg, &mut rng);
        net.send(Msg::new(NodeId(8), NodeId(0), inv), 0, &cfg, &mut rng);
        let delivered = deliver(&mut net, 10_000);
        assert_eq!(delivered.len(), 2);
    }

    #[test]
    fn next_delivery_and_clear() {
        let cfg = cfg();
        let mut rng = rng();
        let mut net = Network::new(&cfg);
        assert_eq!(net.next_delivery(), None);
        net.send(gets(0, 8, 0x40), 7, &cfg, &mut rng);
        let next = net.next_delivery().expect("one message pending");
        assert!(next > 7);
        net.clear();
        assert!(net.is_empty());
        assert_eq!(net.next_delivery(), None);
    }

    #[test]
    fn next_delivery_tracks_the_earliest_head_and_channel_order_is_kept() {
        let cfg = cfg();
        let mut rng = rng();
        let mut net = Network::new(&cfg);
        // Three channels, sent from the highest (src, dst) pair down.
        for (src, dst) in [(9, 1), (8, 3), (8, 0), (8, 0)] {
            net.send(gets(src, dst, 0x40), 10, &cfg, &mut rng);
        }
        let heads: Vec<Cycle> = net
            .channels
            .iter()
            .filter_map(|q| q.front().map(|&(t, _)| t))
            .collect();
        assert_eq!(net.next_delivery(), heads.iter().copied().min());
        // Deliver only what is due at the earliest time: the cache moves on
        // to the earliest remaining head (or to None).
        let first = net.next_delivery().expect("pending");
        let delivered = deliver(&mut net, first);
        assert!(!delivered.is_empty());
        let remaining = net
            .channels
            .iter()
            .filter_map(|q| q.front().map(|&(t, _)| t))
            .min();
        assert_eq!(net.next_delivery(), remaining);
        assert!(remaining.is_none_or(|t| t > first));
        // Everything else comes out in ascending (src, dst) order, FIFO within.
        let rest = deliver(&mut net, 10_000);
        let mut all = delivered;
        all.extend(rest);
        assert_eq!(all.len(), 4);
        assert_eq!(net.next_delivery(), None);
        let mut net = Network::new(&cfg);
        for (src, dst) in [(9, 1), (8, 3), (8, 0)] {
            net.send(gets(src, dst, 0x40), 10, &cfg, &mut rng);
        }
        let order: Vec<(u32, u32)> = deliver(&mut net, 10_000)
            .iter()
            .map(|m| (m.src.0, m.dst.0))
            .collect();
        assert_eq!(order, [(8, 0), (8, 3), (9, 1)]);
    }

    /// The delivery the sparse walk must reproduce: every channel visited in
    /// index order.  Returns what is due at `now` and the earliest head left.
    fn dense_walk(
        channels: &mut [VecDeque<(Cycle, Msg)>],
        now: Cycle,
    ) -> (Vec<Msg>, Option<Cycle>) {
        let mut due = Vec::new();
        for queue in channels.iter_mut() {
            while queue.front().is_some_and(|&(ready, _)| ready <= now) {
                due.extend(queue.pop_front().map(|(_, msg)| msg));
            }
        }
        let earliest = channels
            .iter()
            .filter_map(|q| q.front())
            .map(|&(t, _)| t)
            .min();
        (due, earliest)
    }

    #[test]
    fn visiting_only_non_empty_channels_delivers_like_the_dense_walk() {
        let cfg = cfg();
        let nodes = cfg.num_nodes() as u32;
        let mut rng = rng();
        let mut net = Network::new(&cfg);
        let mut now = 0;
        let mut delivered = 0;
        for step in 0..3_000u64 {
            for _ in 0..rng.gen_range(0..4u32) {
                let (src, dst) = (
                    NodeId(rng.gen_range(0..nodes)),
                    NodeId(rng.gen_range(0..nodes)),
                );
                let line = LineAddr(0x40 * step);
                let payload = match rng.gen_range(0..3u32) {
                    0 => MsgPayload::GetS { line },
                    1 => MsgPayload::Inv { line },
                    _ => MsgPayload::DataS {
                        line,
                        data: crate::types::LineData::zeroed(64),
                        ts: None,
                    },
                };
                net.send(Msg::new(src, dst, payload), now, &cfg, &mut rng);
            }
            now += rng.gen_range(0..4u64);
            if step % 500 == 499 {
                net.clear();
                assert_eq!(net.next_delivery(), None);
            }
            let mut model = net.channels.clone();
            let (want, want_next) = dense_walk(&mut model, now);
            let got = deliver(&mut net, now);
            delivered += got.len();
            assert_eq!(got, want, "step {step}: delivery order");
            assert_eq!(net.next_delivery(), want_next, "step {step}: next delivery");
            assert_eq!(net.channels, model, "step {step}: what stays queued");
            for (index, queue) in net.channels.iter().enumerate() {
                let marked = net.non_empty[index / 64] & (1 << (index % 64)) != 0;
                assert_eq!(marked, !queue.is_empty(), "step {step}: channel {index}");
            }
        }
        assert!(
            delivered > 1_000,
            "only {delivered} messages were delivered"
        );
    }
}

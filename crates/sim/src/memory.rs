//! The main-memory controller.
//!
//! A single memory controller node serves line reads and writebacks from the
//! L2 banks with a latency drawn from the configured range (paper Table 2:
//! 120–230 cycles).  Memory contents are stored sparsely; unwritten lines read
//! as zero, matching the paper's convention that all test memory starts zeroed.

use crate::config::SystemConfig;
use crate::msg::{Msg, MsgPayload};
use crate::protocol::{earliest_release, release_due};
use crate::types::{Cycle, LineAddr, LineData, NodeId};
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};

/// The memory controller component.
#[derive(Debug)]
pub struct MemoryController {
    node: NodeId,
    line_bytes: u64,
    data: BTreeMap<LineAddr, LineData>,
    inbox: VecDeque<Msg>,
    pending: Vec<(Cycle, Msg)>,
}

impl MemoryController {
    /// Creates a memory controller for the given configuration.
    pub fn new(cfg: &SystemConfig) -> Self {
        MemoryController {
            node: cfg.node_of_memory(),
            line_bytes: cfg.line_bytes,
            data: BTreeMap::new(),
            inbox: VecDeque::new(),
            pending: Vec::new(),
        }
    }

    /// Queues an incoming message (from an L2 bank).
    pub fn push_msg(&mut self, msg: Msg) {
        self.inbox.push_back(msg);
    }

    /// Reads a line directly (host access; no latency).
    pub fn peek_line(&self, line: LineAddr) -> LineData {
        self.data
            .get(&line)
            .cloned()
            .unwrap_or_else(|| LineData::zeroed(self.line_bytes))
    }

    /// Full host-assisted reset: clears contents *and* any queued or pending
    /// requests.  Used between test executions so that a memory fetch still in
    /// flight when the previous iteration finished cannot deliver a stale
    /// response into the next iteration's (freshly reset) L2 state.
    pub fn reset(&mut self) {
        self.data.clear();
        self.inbox.clear();
        self.pending.clear();
    }

    /// Returns `true` if no requests are queued or pending.
    pub fn is_idle(&self) -> bool {
        self.inbox.is_empty() && self.pending.is_empty()
    }

    /// The earliest cycle at which a pending read response is released.
    pub fn next_release(&self) -> Option<Cycle> {
        earliest_release(&self.pending)
    }

    /// Advances the controller by one cycle, appending the response messages
    /// that are due to `out`.  Every queued request is accepted, so the
    /// controller is idle afterwards: until a message is pushed or
    /// [`next_release`](Self::next_release) comes, a tick changes nothing and
    /// draws nothing from `rng`.
    pub fn tick<R: Rng>(
        &mut self,
        cycle: Cycle,
        cfg: &SystemConfig,
        rng: &mut R,
        out: &mut Vec<Msg>,
    ) {
        // Accept new requests.
        while let Some(msg) = self.inbox.pop_front() {
            match msg.payload {
                MsgPayload::MemRead { line } => {
                    let latency = rng.gen_range(cfg.latency.mem_min..=cfg.latency.mem_max);
                    let data = self.peek_line(line);
                    let response = Msg::new(self.node, msg.src, MsgPayload::MemData { line, data });
                    self.pending.push((cycle + latency, response));
                }
                MsgPayload::MemWrite { line, data } => {
                    // Writes complete in place; no acknowledgement is required
                    // by either protocol (the L2 only needs the data durable).
                    self.data.insert(line, data);
                }
                other => {
                    // Memory only understands MemRead/MemWrite; anything else
                    // is a wiring bug in the simulator itself.
                    unreachable!("memory controller received {:?}", other.event_name());
                }
            }
        }
        // Emit responses that are due.
        release_due(&mut self.pending, cycle, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (MemoryController, SystemConfig, StdRng) {
        let cfg = SystemConfig::paper_default();
        (MemoryController::new(&cfg), cfg, StdRng::seed_from_u64(1))
    }

    /// Writes `value` to word `word` of `line` the way an L2 bank does: with
    /// a writeback of the whole line.
    fn write_back(
        mem: &mut MemoryController,
        cfg: &SystemConfig,
        line: LineAddr,
        word: usize,
        value: u64,
    ) {
        let mut data = LineData::zeroed(cfg.line_bytes);
        data.set_word(word, value);
        let payload = MsgPayload::MemWrite { line, data };
        mem.push_msg(Msg::new(cfg.node_of_l2(1), cfg.node_of_memory(), payload));
        let mut rng = StdRng::seed_from_u64(0);
        mem.tick(0, cfg, &mut rng, &mut Vec::new());
        assert!(mem.is_idle(), "a writeback is not acknowledged");
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let (mem, _, _) = setup();
        let line = mem.peek_line(LineAddr(0x1000));
        assert!(
            (0..line.num_words()).all(|i| line.word(i) == 0),
            "fresh memory must be zero"
        );
    }

    #[test]
    fn read_request_served_after_latency() {
        let (mut mem, cfg, mut rng) = setup();
        write_back(&mut mem, &cfg, LineAddr(0x1000), 2, 99);
        let l2 = cfg.node_of_l2(0);
        mem.push_msg(Msg::new(
            l2,
            cfg.node_of_memory(),
            MsgPayload::MemRead {
                line: LineAddr(0x1000),
            },
        ));
        // Not served before the minimum latency.
        let mut out = Vec::new();
        mem.tick(0, &cfg, &mut rng, &mut out);
        assert!(out.is_empty());
        assert!(!mem.is_idle());
        let due = mem.next_release().expect("one response pending");
        assert!((cfg.latency.mem_min..=cfg.latency.mem_max).contains(&due));
        mem.tick(due - 1, &cfg, &mut rng, &mut out);
        assert!(out.is_empty(), "nothing due yet");
        // Served by the maximum latency.
        mem.tick(cfg.latency.mem_max, &cfg, &mut rng, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, l2);
        match &out[0].payload {
            MsgPayload::MemData { line, data } => {
                assert_eq!(*line, LineAddr(0x1000));
                assert_eq!(data.word(2), 99);
            }
            other => panic!("unexpected payload {other:?}"),
        }
        assert!(mem.is_idle());
    }

    #[test]
    fn writeback_updates_contents() {
        let (mut mem, cfg, _) = setup();
        write_back(&mut mem, &cfg, LineAddr(0x2000), 0, 7);
        assert_eq!(mem.peek_line(LineAddr(0x2000)).word(0), 7);
    }

    #[test]
    fn clear_resets_contents() {
        let (mut mem, cfg, _) = setup();
        write_back(&mut mem, &cfg, LineAddr(0x40), 0, 5);
        mem.reset();
        assert_eq!(mem.peek_line(LineAddr(0x40)).word(0), 0);
    }
}

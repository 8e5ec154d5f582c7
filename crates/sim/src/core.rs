//! The out-of-order core models (load queue, store queue, store buffer).
//!
//! Each simulated core executes one thread of the test program.  Two pipeline
//! strengths share one engine, selected by
//! [`SystemConfig::core_strength`](crate::config::SystemConfig::core_strength):
//!
//! The **strong** (x86-ish) pipeline:
//!
//! * loads issue speculatively and out of order (hit-under-miss), bounded by
//!   the load-queue size;
//! * a load whose line loses read permission (an *invalidation notice* from
//!   the L1) while older loads are still unperformed is squashed together with
//!   all younger loads and retried — the standard "Peekaboo" handling the
//!   paper describes; the [`Bug::LqNoTso`] bug disables this squash;
//! * stores retire into a FIFO store buffer which drains to the L1 one store
//!   at a time, with store→load forwarding; [`Bug::SqNoFifo`] drains the
//!   buffer out of order;
//! * atomic read-modify-writes and fences drain the store buffer and execute
//!   at the head of the window (x86 locked-instruction semantics); every
//!   fence flavour is conservatively treated like a full fence.
//!
//! The **relaxed** (ARM/Power-ish) pipeline keeps the structural pieces but
//! actually reorders, bounded only by what the dependency-ordered relaxed
//! models ([`ModelKind::Armish`]/[`ModelKind::Powerish`]/[`ModelKind::Rmo`])
//! require:
//!
//! * loads issue *and perform* out of order past older loads and stores to
//!   different addresses — there is no invalidation squash; same-address
//!   ordering (coherence) is preserved by an issue stall instead;
//! * dependency-carrying operations stall until their source load performs
//!   ([`Bug::LqNoAddrDep`], [`Bug::SqNoDataDep`] and [`Bug::SqNoCtrlDep`]
//!   remove exactly one of these stalls each);
//! * fences are executed by *kind*: only flavours that order loads
//!   (full/acquire/load-load/lwsync) stall younger loads
//!   ([`Bug::FenceNoAcquire`] lets loads issue past a pending acquire
//!   fence), and only flavours that order stores (full/release/lwsync/
//!   store-store) act as store-buffer barriers;
//! * completed stores may commit into the store buffer past incomplete older
//!   loads to different addresses (making load→store reordering observable),
//!   and the buffer drains out of program order within a fence epoch
//!   ([`StoreBuffer::begin_drain_relaxed`]).
//!
//! [`Bug::LqNoTso`]: crate::bugs::Bug::LqNoTso
//! [`Bug::SqNoFifo`]: crate::bugs::Bug::SqNoFifo
//! [`Bug::LqNoAddrDep`]: crate::bugs::Bug::LqNoAddrDep
//! [`Bug::SqNoDataDep`]: crate::bugs::Bug::SqNoDataDep
//! [`Bug::SqNoCtrlDep`]: crate::bugs::Bug::SqNoCtrlDep
//! [`Bug::FenceNoAcquire`]: crate::bugs::Bug::FenceNoAcquire
//! [`ModelKind::Armish`]: mcversi_mcm::ModelKind::Armish
//! [`ModelKind::Powerish`]: mcversi_mcm::ModelKind::Powerish
//! [`ModelKind::Rmo`]: mcversi_mcm::ModelKind::Rmo

use crate::bugs::{Bug, BugConfig};
use crate::config::{CoreStrength, SystemConfig};
use crate::lsq::{StoreBuffer, StoreBufferEntry};
use crate::program::{TestOp, TestOpKind, ThreadProgram};
use crate::protocol::{CoreReqKind, CoreRequest, CoreRespKind, CoreResponse};
use crate::types::{Cycle, LineAddr};
use mcversi_mcm::{Address, FenceKind};
use mcversi_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;

/// Load-queue squashes (the invalidation "Peekaboo" repair).
static SQUASHES: telemetry::Counter = telemetry::Counter::new("sim.core.squashes");
/// Load issue stalls: blocked behind an incomplete fence or atomic.
static STALL_FENCE: telemetry::Counter = telemetry::Counter::new("sim.core.stall.fence");
/// Load issue stalls: same-address (coherence / po-loc) ordering.
static STALL_COHERENCE: telemetry::Counter = telemetry::Counter::new("sim.core.stall.coherence");
/// Load issue stalls: dependency on an unperformed source load.
static STALL_DEP: telemetry::Counter = telemetry::Counter::new("sim.core.stall.dep");
/// Loads satisfied by store→load forwarding from the store buffer.
static SB_FORWARDS: telemetry::Counter = telemetry::Counter::new("sim.core.sb.forward");
/// Stores drained from the store buffer to the L1.
static SB_DRAINS: telemetry::Counter = telemetry::Counter::new("sim.core.sb.drain");
/// Completed stores committed early past incomplete older ops (relaxed core).
static SB_EARLY_COMMITS: telemetry::Counter = telemetry::Counter::new("sim.core.sb.early_commit");
/// Requests issued by cores to their L1s (loads, RMWs, fences, flushes).
static ISSUED_REQUESTS: telemetry::Counter = telemetry::Counter::new("sim.core.requests");

/// Returns `true` if a fence of `kind` orders program-order-later *loads*
/// (so the relaxed core must not let younger loads issue past it while it is
/// incomplete).
fn fence_orders_later_loads(kind: FenceKind) -> bool {
    matches!(
        kind,
        FenceKind::Full | FenceKind::Acquire | FenceKind::LoadLoad | FenceKind::LightweightSync
    )
}

/// Returns `true` if a fence of `kind` orders *stores* across it (so the
/// relaxed core must bump the store-buffer epoch when it retires).
fn fence_orders_stores(kind: FenceKind) -> bool {
    matches!(
        kind,
        FenceKind::Full | FenceKind::Release | FenceKind::StoreStore | FenceKind::LightweightSync
    )
}

/// The issue-jitter draw of a core whose issue stage would act this cycle:
/// `false` holds the stage back for one cycle.  Draws nothing when jitter is
/// off.
#[inline]
fn jitter_lets_issue(issue_jitter: u16, rng: &mut StdRng) -> bool {
    issue_jitter == 0 || rng.gen_range(0u32..65536) >= u32::from(issue_jitter)
}

/// An architecturally performed operation, reported to the observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservedOp {
    /// A retired load and the value it read.
    Load {
        /// Program-order index of the instruction.
        poi: u32,
        /// Address read.
        addr: Address,
        /// Value read.
        value: u64,
    },
    /// A store that has been performed in the memory system.
    Store {
        /// Program-order index of the instruction.
        poi: u32,
        /// Address written.
        addr: Address,
        /// Value written.
        value: u64,
        /// The value the store overwrote (for coherence-order construction).
        overwritten: u64,
    },
    /// An atomic read-modify-write that has been performed.
    Rmw {
        /// Program-order index of the instruction.
        poi: u32,
        /// Address accessed.
        addr: Address,
        /// Value written.
        write_value: u64,
        /// Value read (and overwritten).
        read_value: u64,
    },
    /// A retired fence.
    Fence {
        /// Program-order index of the instruction.
        poi: u32,
    },
}

/// Everything a core produces in one cycle.
#[derive(Debug, Default)]
pub struct CoreTickOutput {
    /// Requests for the core's L1.
    pub requests: Vec<CoreRequest>,
    /// Architecturally performed operations for the observer.
    pub observed: Vec<ObservedOp>,
    /// `true` if the core is finished, or if this tick received nothing,
    /// produced nothing and changed nothing in the core, and its issue stage
    /// found nothing to complete or issue (so it drew no issue jitter).
    /// Until a response or a notice arrives or
    /// [`CoreModel::next_delay_expiry`] comes, every further tick then
    /// changes, counts and draws nothing (a load stall is counted when it
    /// starts, not per tick), so the system lets such a core sleep and owes
    /// it nothing.  A tick held back by its jitter draw is not quiescent:
    /// the next one draws again.
    pub quiescent: bool,
}

/// Why a waiting load may not issue this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stall {
    Fence,
    Coherence,
    Dep,
}

impl Stall {
    fn counter(self) -> &'static telemetry::Counter {
        match self {
            Stall::Fence => &STALL_FENCE,
            Stall::Coherence => &STALL_COHERENCE,
            Stall::Dep => &STALL_DEP,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpState {
    Waiting,
    Issued { tag: u64 },
    Done,
}

#[derive(Debug, Clone, Copy)]
struct InflightOp {
    idx: usize,
    op: TestOp,
    state: OpState,
    /// Value read (loads / RMW read half).
    read_value: Option<u64>,
    /// Earliest cycle at which the op may complete (delays).
    ready_at: Cycle,
    /// The reason a waiting load last stalled for, until it issues or
    /// completes: a stall is counted when this changes, once per episode.
    stalled: Option<Stall>,
}

impl InflightOp {
    fn is_load(&self) -> bool {
        matches!(self.op.kind, TestOpKind::Read | TestOpKind::ReadAddrDp)
    }

    fn is_read_like(&self) -> bool {
        self.is_load() || matches!(self.op.kind, TestOpKind::ReadModifyWrite { .. })
    }
}

/// The per-core execution engine.
#[derive(Debug)]
pub struct CoreModel {
    strength: CoreStrength,
    program: ThreadProgram,
    next_fetch: usize,
    window: VecDeque<InflightOp>,
    store_buffer: StoreBuffer,
    outstanding_store: Option<(u64, StoreBufferEntry)>,
    next_tag: u64,
    line_bytes: u64,
    lq_entries: usize,
    sq_entries: usize,
    rob_entries: usize,
    issue_jitter: u16,
    squashes: u64,
    /// Current store-ordering epoch (relaxed core): bumped whenever a
    /// store-ordering fence retires; committed stores carry it into the
    /// store buffer.
    store_epoch: u32,
    /// Loads and stores in the window, the occupancy of the load and store
    /// queues that `fetch` checks.
    loads_in_window: usize,
    stores_in_window: usize,
    /// Scratch of the issue stage (the window slots it decided complete this
    /// cycle, a forwarded load with its value, the requests it decided on,
    /// and the loads that started a stall episode), kept to reuse the
    /// buffers.
    issue_completed: Vec<(usize, Option<u64>)>,
    issue_requests: Vec<(usize, CoreReqKind, Address)>,
    issue_stalled: Vec<(usize, Stall)>,
    /// Scratch of [`CoreModel::commit_stores_early`], kept likewise.
    blocked_addrs: Vec<Address>,
}

impl CoreModel {
    /// Creates a core executing `program`.
    pub fn new(program: ThreadProgram, cfg: &SystemConfig) -> Self {
        CoreModel {
            strength: cfg.core_strength,
            program,
            next_fetch: 0,
            window: VecDeque::new(),
            store_buffer: StoreBuffer::new(cfg.sq_entries.max(1)),
            outstanding_store: None,
            next_tag: 1,
            line_bytes: cfg.line_bytes,
            lq_entries: cfg.lq_entries.max(1),
            sq_entries: cfg.sq_entries.max(1),
            rob_entries: cfg.rob_entries.max(1),
            issue_jitter: cfg.issue_jitter,
            squashes: 0,
            store_epoch: 0,
            loads_in_window: 0,
            stores_in_window: 0,
            issue_completed: Vec::new(),
            issue_requests: Vec::new(),
            issue_stalled: Vec::new(),
            blocked_addrs: Vec::new(),
        }
    }

    /// Returns the core to the state [`CoreModel::new`] left it in, ready to
    /// execute the same thread program again.
    pub fn reset(&mut self) {
        self.next_fetch = 0;
        self.window.clear();
        self.loads_in_window = 0;
        self.stores_in_window = 0;
        self.store_buffer.clear();
        self.outstanding_store = None;
        self.next_tag = 1;
        self.squashes = 0;
        self.store_epoch = 0;
        self.blocked_addrs.clear();
    }

    /// The pipeline strength this core runs with.
    pub fn strength(&self) -> CoreStrength {
        self.strength
    }

    fn is_relaxed(&self) -> bool {
        self.strength == CoreStrength::Relaxed
    }

    /// Returns `true` once every operation has retired and all stores have
    /// been written to the memory system.
    pub fn is_finished(&self) -> bool {
        self.next_fetch >= self.program.len()
            && self.window.is_empty()
            && self.store_buffer.is_empty()
            && self.outstanding_store.is_none()
    }

    /// Number of load-queue squashes performed (statistics / tests).
    pub fn squashes(&self) -> u64 {
        self.squashes
    }

    fn alloc_tag(&mut self) -> u64 {
        let t = self.next_tag;
        self.next_tag += 1;
        t
    }

    fn line_of(&self, addr: Address) -> LineAddr {
        LineAddr::containing(addr, self.line_bytes)
    }

    /// The occupancy count of the queue `kind` takes an entry of while it is
    /// in the window, if it takes one.
    fn queue_occupancy(&mut self, kind: TestOpKind) -> Option<&mut usize> {
        match kind {
            TestOpKind::Read | TestOpKind::ReadAddrDp => Some(&mut self.loads_in_window),
            TestOpKind::Write { .. }
            | TestOpKind::WriteDataDp { .. }
            | TestOpKind::WriteCtrlDp { .. } => Some(&mut self.stores_in_window),
            _ => None,
        }
    }

    // ---- 1. Invalidation notices (Peekaboo squash) ----

    fn process_notices(&mut self, notices: &[LineAddr], bugs: &BugConfig) {
        // The relaxed core keeps no load→load ordering across addresses, so
        // it has nothing to repair on an invalidation; coherence (same-address
        // ordering) is preserved by issue stalls instead of squashes.
        if notices.is_empty() || bugs.has(Bug::LqNoTso) || self.is_relaxed() {
            return;
        }
        for &line in notices {
            // Find the first load to this line that has already performed, or
            // is in flight (its response may carry pre-invalidation data, e.g.
            // the IS_I "use the data once" case), and that has an unperformed
            // read-like op older than it.  That load and every younger load
            // are squashed and retried — the paper's "if there exist any
            // unperformed older reads and an invalidation is received, all
            // newer reads are retried".
            let mut squash_from: Option<usize> = None;
            let mut seen_unperformed_read = false;
            for (pos, op) in self.window.iter().enumerate() {
                if op.is_load()
                    && op.state != OpState::Waiting
                    && self.line_of(op.op.addr) == line
                    && seen_unperformed_read
                {
                    squash_from = Some(pos);
                    break;
                }
                if op.is_read_like() && op.state != OpState::Done {
                    seen_unperformed_read = true;
                }
            }
            if let Some(from) = squash_from {
                self.squashes += 1;
                SQUASHES.incr();
                for op in self.window.iter_mut().skip(from) {
                    if op.is_load() && op.state != OpState::Waiting {
                        op.state = OpState::Waiting;
                        op.read_value = None;
                    }
                }
            }
        }
    }

    // ---- 2. Responses from the L1 ----

    fn process_responses(&mut self, responses: &[CoreResponse], out: &mut CoreTickOutput) {
        for resp in responses {
            // Outstanding store-buffer drain?
            if let Some((tag, entry)) = self.outstanding_store {
                if tag == resp.tag {
                    match resp.kind {
                        CoreRespKind::StoreDone { overwritten } => {
                            out.observed.push(ObservedOp::Store {
                                poi: entry.poi,
                                addr: entry.addr,
                                value: entry.value,
                                overwritten,
                            });
                            self.outstanding_store = None;
                        }
                        other => {
                            unreachable!("store drain answered with {other:?}");
                        }
                    }
                    continue;
                }
            }
            // Window operation.
            for op in self.window.iter_mut() {
                if op.state == (OpState::Issued { tag: resp.tag }) {
                    match resp.kind {
                        CoreRespKind::LoadDone { value } => {
                            op.read_value = Some(value);
                            op.state = OpState::Done;
                        }
                        CoreRespKind::RmwDone { read_value } => {
                            op.read_value = Some(read_value);
                            op.state = OpState::Done;
                        }
                        CoreRespKind::StoreDone { .. } => {
                            // Stores issued directly from the window are not
                            // part of this model (they drain post-retirement),
                            // so this cannot happen.
                            unreachable!("window store response");
                        }
                        CoreRespKind::FlushDone | CoreRespKind::FenceDone => {
                            op.state = OpState::Done;
                        }
                    }
                    break;
                }
            }
            // Responses for squashed loads simply find no matching Issued op
            // and are dropped.
        }
    }

    // ---- 3. Fetch ----

    fn fetch(&mut self, cycle: Cycle) {
        while self.next_fetch < self.program.len() && self.window.len() < self.rob_entries {
            let op = self.program[self.next_fetch];
            match op.kind {
                TestOpKind::Read | TestOpKind::ReadAddrDp
                    if self.loads_in_window >= self.lq_entries =>
                {
                    break;
                }
                TestOpKind::Write { .. }
                | TestOpKind::WriteDataDp { .. }
                | TestOpKind::WriteCtrlDp { .. }
                    if self.stores_in_window + self.store_buffer.len() >= self.sq_entries =>
                {
                    break;
                }
                _ => {}
            }
            let ready_at = match op.kind {
                TestOpKind::Delay { cycles } => cycle + cycles as u64,
                _ => cycle,
            };
            if let Some(occupancy) = self.queue_occupancy(op.kind) {
                *occupancy += 1;
            }
            self.window.push_back(InflightOp {
                idx: self.next_fetch,
                op,
                state: OpState::Waiting,
                read_value: None,
                ready_at,
                stalled: None,
            });
            self.next_fetch += 1;
        }
    }

    /// The newest program-order-earlier store value for `addr` among the
    /// writes that have not left the core: the window's stores (youngest
    /// first), then the undrained store buffer.
    ///
    /// A write that has reached the L1 (the in-flight drain, or an RMW that
    /// performed and has not retired) is not forwarded: the L1 may lose the
    /// line in the very cycle it performs the write, and its notice can then
    /// reach the core before the forwarding load performs, which no squash
    /// repairs.  A load behind such a write goes to the L1, where the
    /// request queue and the MSHR order it after the write.
    ///
    /// The store-buffer lookup is bounded by the load's program-order index:
    /// the relaxed core commits stores into the buffer past incomplete older
    /// loads, so the buffer may hold stores *younger* than the load, which
    /// must not be forwarded.  (Under the strong core's in-order commit the
    /// bound is vacuous.)
    fn forwarded_value(&self, addr: Address, before_idx: usize) -> Option<u64> {
        let newest_write = self.window.iter().rev().find(|op| {
            op.idx < before_idx && op.op.addr == addr && op.op.kind.written_value().is_some()
        });
        match newest_write.map(|op| op.op.kind) {
            // A load never issues past an RMW that has not performed.
            Some(TestOpKind::ReadModifyWrite { .. }) => None,
            Some(store) => store.written_value(),
            None => self
                .store_buffer
                .forward_entry_before(addr, before_idx as u32)
                .map(|entry| entry.value),
        }
    }

    // ---- 4. Issue ----

    /// Returns why a waiting load at window position `pos` must stall (may
    /// not issue this cycle), if it must.
    fn load_blocked(&self, pos: usize, op: &InflightOp, bugs: &BugConfig) -> Option<Stall> {
        let older = self.window.iter().take(pos);
        // An address-dependent read waits for the previous load.
        let source_load_pending = || {
            older
                .clone()
                .any(|o| o.is_load() && o.state != OpState::Done)
        };
        if !self.is_relaxed() {
            // Strong core: loads never issue past an incomplete fence or
            // atomic: MFENCE (and locked RMWs) order later loads after them,
            // and issuing speculatively past them could not be repaired by
            // the invalidation-squash mechanism (fences are not reads, so the
            // Peekaboo rule would not fire).  Weaker fence flavours are
            // conservatively treated the same way.
            if older.clone().any(|o| {
                matches!(
                    o.op.kind,
                    TestOpKind::Fence { .. } | TestOpKind::ReadModifyWrite { .. }
                ) && o.state != OpState::Done
            }) {
                return Some(Stall::Fence);
            }
            if matches!(op.op.kind, TestOpKind::ReadAddrDp)
                && !bugs.has(Bug::LqNoAddrDep)
                && source_load_pending()
            {
                return Some(Stall::Dep);
            }
            return None;
        }
        // Relaxed core: loads issue and perform past older loads and stores
        // to different addresses; only genuinely ordering constructs stall
        // them.
        for o in older.clone() {
            if o.state == OpState::Done {
                continue;
            }
            let blocking = match o.op.kind {
                // Only fence flavours that order later loads stall them; the
                // Fence+no-acquire bug drops exactly the acquire stall.
                TestOpKind::Fence { kind } => (fence_orders_later_loads(kind)
                    && !(kind == FenceKind::Acquire && bugs.has(Bug::FenceNoAcquire)))
                .then_some(Stall::Fence),
                // Locked RMWs keep their full-fence semantics.
                TestOpKind::ReadModifyWrite { .. } => Some(Stall::Fence),
                // Same-address ordering (coherence / po-loc) is preserved by
                // stalling, since the relaxed core has no squash to repair it.
                TestOpKind::Read | TestOpKind::ReadAddrDp => {
                    (o.op.addr == op.op.addr).then_some(Stall::Coherence)
                }
                _ => None,
            };
            if blocking.is_some() {
                return blocking;
            }
        }
        // Dependency-carrying loads stall on their source load; the
        // LQ+no-addr-dep bug drops the stall (the dependency edge is still
        // recorded by the observer, which is what makes the bug detectable).
        if matches!(op.op.kind, TestOpKind::ReadAddrDp)
            && !bugs.has(Bug::LqNoAddrDep)
            && source_load_pending()
        {
            return Some(Stall::Dep);
        }
        None
    }

    /// Returns `true` once every program-order-older read-like operation has
    /// performed (the completion condition of the relaxed core's locally
    /// executed fences).
    fn older_reads_done(&self, pos: usize) -> bool {
        let mut older = self.window.iter().take(pos);
        older.all(|o| !o.is_read_like() || o.state == OpState::Done)
    }

    /// The issue stage.  Returns `true` if it found nothing to complete or
    /// issue, and so left every window slot in the state it found it in (a
    /// load that starts a stall episode only remembers its reason).
    ///
    /// Every decision is made against the window as the stage found it: a
    /// slot that completes or issues this cycle still reads as waiting to the
    /// younger ones.  So the stage decides first and changes slots afterwards.
    /// The issue-jitter draw comes between the two, and only if there is
    /// something to change: a stage held back by it changes nothing but the
    /// stall reasons, and is not idle.
    fn issue(
        &mut self,
        cycle: Cycle,
        bugs: &BugConfig,
        out: &mut CoreTickOutput,
        rng: &mut StdRng,
    ) -> bool {
        let mut issued = 0usize;
        let issue_width = 4usize;
        let sb_empty = self.store_buffer.is_empty() && self.outstanding_store.is_none();
        let mut completed = std::mem::take(&mut self.issue_completed);
        let mut new_requests = std::mem::take(&mut self.issue_requests);
        let mut stalled = std::mem::take(&mut self.issue_stalled);

        // Pass 1: decide which window slots complete or issue this cycle.
        for (pos, op) in self.window.iter().enumerate() {
            if issued >= issue_width {
                break;
            }
            if op.state != OpState::Waiting {
                continue;
            }
            match op.op.kind {
                TestOpKind::Read | TestOpKind::ReadAddrDp => {
                    if let Some(stall) = self.load_blocked(pos, op, bugs) {
                        if op.stalled != Some(stall) {
                            stall.counter().incr();
                            stalled.push((pos, stall));
                        }
                        continue;
                    }
                    if let Some(value) = self.forwarded_value(op.op.addr, op.idx) {
                        completed.push((pos, Some(value)));
                    } else {
                        new_requests.push((pos, CoreReqKind::Load, op.op.addr));
                    }
                    issued += 1;
                }
                TestOpKind::Write { .. } => {
                    // Stores complete in the window immediately; they perform
                    // later, from the store buffer.
                    completed.push((pos, None));
                }
                TestOpKind::WriteDataDp { .. } | TestOpKind::WriteCtrlDp { .. } => {
                    // A dependent store cannot compute its data (or resolve
                    // its guarding branch) until the load it depends on has
                    // performed; it completes in the window only then.  The
                    // SQ+no-data-dep / SQ+no-ctrl-dep bugs drop the wait for
                    // their dependency kind, which only the relaxed core's
                    // early store commit can turn into an observable
                    // reordering (the strong core retires in order).
                    let dep_ignored = match op.op.kind {
                        TestOpKind::WriteDataDp { .. } => bugs.has(Bug::SqNoDataDep),
                        TestOpKind::WriteCtrlDp { .. } => bugs.has(Bug::SqNoCtrlDep),
                        _ => unreachable!(),
                    };
                    let mut older = self.window.iter().take(pos);
                    let prior_load_pending = older.any(|o| o.is_load() && o.state != OpState::Done);
                    if dep_ignored || !prior_load_pending {
                        completed.push((pos, None));
                    }
                }
                TestOpKind::ReadModifyWrite { value } => {
                    if pos == 0 && sb_empty {
                        new_requests.push((
                            pos,
                            CoreReqKind::Rmw { write_value: value },
                            op.op.addr,
                        ));
                        issued += 1;
                    }
                }
                TestOpKind::Fence { kind } => {
                    if self.is_relaxed() && kind != FenceKind::Full {
                        // The relaxed core executes the weaker fence flavours
                        // locally, by kind.  Store-store and release fences
                        // complete immediately: in-order retirement already
                        // delays them past everything older, and their
                        // store-side ordering is the store-buffer epoch bumped
                        // at retirement.  The flavours that order later loads
                        // (acquire, load-load, lwsync) complete only once
                        // every older read has performed, so the load stall
                        // on them is meaningful.
                        let done = match kind {
                            FenceKind::StoreStore | FenceKind::Release => true,
                            _ => self.older_reads_done(pos),
                        };
                        if done {
                            completed.push((pos, None));
                        }
                    } else if pos == 0 && sb_empty {
                        // Full fences (and every flavour on the strong core)
                        // execute at the head of the window with the store
                        // buffer drained.
                        new_requests.push((pos, CoreReqKind::Fence, op.op.addr));
                        issued += 1;
                    }
                }
                TestOpKind::CacheFlush => {
                    new_requests.push((pos, CoreReqKind::Flush, op.op.addr));
                    issued += 1;
                }
                TestOpKind::Delay { .. } => {
                    if cycle >= op.ready_at {
                        completed.push((pos, None));
                    }
                }
            }
        }
        let idle = completed.is_empty() && new_requests.is_empty();
        if !idle && !jitter_lets_issue(self.issue_jitter, rng) {
            completed.clear();
            new_requests.clear();
        }

        // Pass 2: change the slots.
        for (pos, stall) in stalled.drain(..) {
            self.window[pos].stalled = Some(stall);
        }
        for (pos, forwarded) in completed.drain(..) {
            let slot = &mut self.window[pos];
            slot.state = OpState::Done;
            slot.stalled = None;
            if forwarded.is_some() {
                SB_FORWARDS.incr();
                slot.read_value = forwarded;
            }
        }
        ISSUED_REQUESTS.add(new_requests.len() as u64);
        for (pos, kind, addr) in new_requests.drain(..) {
            let tag = self.alloc_tag();
            let slot = &mut self.window[pos];
            slot.state = OpState::Issued { tag };
            slot.stalled = None;
            out.requests.push(CoreRequest { tag, addr, kind });
        }
        self.issue_completed = completed;
        self.issue_requests = new_requests;
        self.issue_stalled = stalled;
        idle
    }

    /// The earliest cycle at which a waiting `Delay` op completes, if any:
    /// the one thing that ends a [quiescent] core's wait from the inside.
    ///
    /// [quiescent]: CoreTickOutput::quiescent
    pub fn next_delay_expiry(&self) -> Option<Cycle> {
        self.window
            .iter()
            .filter(|o| {
                o.state == OpState::Waiting && matches!(o.op.kind, TestOpKind::Delay { .. })
            })
            .map(|o| o.ready_at)
            .min()
    }

    // ---- 5. Retire ----

    fn retire(&mut self, out: &mut CoreTickOutput) {
        while let Some(front) = self.window.front() {
            if front.state != OpState::Done {
                break;
            }
            match front.op.kind {
                TestOpKind::Write { value }
                | TestOpKind::WriteDataDp { value }
                | TestOpKind::WriteCtrlDp { value } => {
                    if self.store_buffer.is_full() {
                        break;
                    }
                    self.store_buffer.push(StoreBufferEntry {
                        poi: front.idx as u32,
                        addr: front.op.addr,
                        value,
                        epoch: self.store_epoch,
                    });
                }
                TestOpKind::Read | TestOpKind::ReadAddrDp => {
                    let Some(value) = front.read_value else {
                        unreachable!("retired load has a value");
                    };
                    out.observed.push(ObservedOp::Load {
                        poi: front.idx as u32,
                        addr: front.op.addr,
                        value,
                    });
                }
                TestOpKind::ReadModifyWrite { value } => {
                    let Some(read_value) = front.read_value else {
                        unreachable!("retired RMW has a read value");
                    };
                    out.observed.push(ObservedOp::Rmw {
                        poi: front.idx as u32,
                        addr: front.op.addr,
                        write_value: value,
                        read_value,
                    });
                }
                TestOpKind::Fence { kind } => {
                    if self.is_relaxed() && fence_orders_stores(kind) {
                        // Later stores commit into a fresh store-buffer epoch,
                        // so the relaxed drain cannot reorder them with stores
                        // from before the fence.
                        self.store_epoch += 1;
                    }
                    out.observed.push(ObservedOp::Fence {
                        poi: front.idx as u32,
                    });
                }
                TestOpKind::CacheFlush | TestOpKind::Delay { .. } => {}
            }
            let kind = front.op.kind;
            self.window.pop_front();
            if let Some(occupancy) = self.queue_occupancy(kind) {
                *occupancy -= 1;
            }
        }
        if self.is_relaxed() {
            self.commit_stores_early();
        }
    }

    /// Relaxed-core load→store reordering: completed stores commit into the
    /// store buffer past incomplete older operations, as long as every
    /// skipped operation is a plain load (or flush) to a *different* address.
    ///
    /// The scan walks the window front-to-back and stops at the first fence,
    /// atomic or delay still in flight, so fence-separated stores can never
    /// leapfrog their barrier, and same-address stores always commit in
    /// program order (a skipped or stuck access blocks every younger access
    /// to its address).
    fn commit_stores_early(&mut self) {
        let mut blocked_addrs = std::mem::take(&mut self.blocked_addrs);
        blocked_addrs.clear();
        self.commit_stores_past(&mut blocked_addrs);
        self.blocked_addrs = blocked_addrs;
    }

    /// The scan of [`CoreModel::commit_stores_early`]; `blocked_addrs` starts
    /// empty and collects the addresses no younger store may commit to.
    fn commit_stores_past(&mut self, blocked_addrs: &mut Vec<Address>) {
        let mut pos = 0;
        while pos < self.window.len() {
            let op = self.window[pos];
            let is_store = matches!(
                op.op.kind,
                TestOpKind::Write { .. }
                    | TestOpKind::WriteDataDp { .. }
                    | TestOpKind::WriteCtrlDp { .. }
            );
            if is_store && op.state == OpState::Done {
                if self.store_buffer.is_full() {
                    return;
                }
                if blocked_addrs.contains(&op.op.addr) {
                    // A younger same-address store must not overtake; keep
                    // scanning, but nothing to this address may commit.
                    pos += 1;
                    continue;
                }
                let Some(value) = op.op.kind.written_value() else {
                    unreachable!("stores carry a value");
                };
                SB_EARLY_COMMITS.incr();
                self.store_buffer.push(StoreBufferEntry {
                    poi: op.idx as u32,
                    addr: op.op.addr,
                    value,
                    epoch: self.store_epoch,
                });
                let _ = self.window.remove(pos);
                self.stores_in_window -= 1;
                continue; // the next op shifted into `pos`
            }
            match op.op.kind {
                // Incomplete loads and flushes are skippable; their address
                // blocks younger stores (po-loc must survive the reorder).
                TestOpKind::Read | TestOpKind::ReadAddrDp | TestOpKind::CacheFlush => {
                    if op.state != OpState::Done {
                        blocked_addrs.push(op.op.addr);
                    }
                }
                // A not-yet-completed (dependency-stalled or stuck) store
                // pins its address but does not stop the scan.
                TestOpKind::Write { .. }
                | TestOpKind::WriteDataDp { .. }
                | TestOpKind::WriteCtrlDp { .. } => {
                    blocked_addrs.push(op.op.addr);
                }
                // Delays are timing perturbation, not ordering: skippable.
                TestOpKind::Delay { .. } => {}
                // Fences and atomics are hard barriers for the early commit:
                // a store committing past an unretired store-ordering fence
                // would land in the pre-fence epoch.
                TestOpKind::Fence { .. } | TestOpKind::ReadModifyWrite { .. } => return,
            }
            pos += 1;
        }
    }

    // ---- 6. Store buffer drain ----

    fn drain_store_buffer(&mut self, bugs: &BugConfig, out: &mut CoreTickOutput, rng: &mut StdRng) {
        if self.outstanding_store.is_some() {
            return;
        }
        let out_of_order = bugs.has(Bug::SqNoFifo);
        let next = if self.is_relaxed() && !out_of_order {
            // Out of program order within a fence epoch, same-address entries
            // in order; the SQ+no-FIFO bug (above) ignores even those fences.
            self.store_buffer.begin_drain_relaxed(rng)
        } else {
            self.store_buffer.begin_drain(out_of_order, rng)
        };
        if let Some(entry) = next {
            SB_DRAINS.incr();
            let tag = self.alloc_tag();
            self.outstanding_store = Some((tag, entry));
            out.requests.push(CoreRequest {
                tag,
                addr: entry.addr,
                kind: CoreReqKind::Store { value: entry.value },
            });
        }
    }

    /// Advances the core by one cycle.
    pub fn tick(
        &mut self,
        cycle: Cycle,
        bugs: &BugConfig,
        responses: &[CoreResponse],
        notices: &[LineAddr],
        rng: &mut StdRng,
    ) -> CoreTickOutput {
        let mut out = CoreTickOutput::default();
        if self.is_finished() {
            out.quiescent = true;
            return out;
        }
        // Notices are processed before responses so that a self-invalidation
        // delivered together with a load's data still squashes younger
        // speculative loads (the older load is still unperformed at that
        // point).
        self.process_notices(notices, bugs);
        self.process_responses(responses, &mut out);
        let fetched = self.next_fetch;
        self.fetch(cycle);
        let issue_idle = self.issue(cycle, bugs, &mut out, rng);
        // Retirement (and the early store commit) only ever shrinks the window.
        let in_window = self.window.len();
        self.retire(&mut out);
        self.drain_store_buffer(bugs, &mut out, rng);
        out.quiescent = issue_idle
            && responses.is_empty()
            && notices.is_empty()
            && self.next_fetch == fetched
            && self.window.len() == in_window
            && out.requests.is_empty()
            && out.observed.is_empty();
        out
    }
}

/// Builds the per-core models for a whole test program.
pub fn cores_for_program(
    program: &crate::program::TestProgram,
    cfg: &SystemConfig,
) -> Vec<CoreModel> {
    let threads = program.threads();
    (0..cfg.num_cores)
        .map(|c| CoreModel::new(threads.get(c).cloned().unwrap_or_default(), cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolKind;
    use rand::SeedableRng;

    fn cfg() -> SystemConfig {
        let mut c = SystemConfig::small(ProtocolKind::Mesi);
        c.issue_jitter = 0;
        c
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(9)
    }

    #[test]
    fn empty_program_is_immediately_finished() {
        let core = CoreModel::new(vec![], &cfg());
        assert!(core.is_finished());
    }

    #[test]
    fn loads_issue_out_of_order_and_retire_in_order() {
        let cfg = cfg();
        let mut rng = rng();
        let program = vec![TestOp::read(Address(0x100)), TestOp::read(Address(0x200))];
        let mut core = CoreModel::new(program, &cfg);
        let bugs = BugConfig::none();
        let out = core.tick(1, &bugs, &[], &[], &mut rng);
        assert_eq!(out.requests.len(), 2, "both loads issue in the same cycle");
        let tag0 = out.requests[0].tag;
        let tag1 = out.requests[1].tag;
        // Answer the *younger* load first.
        let out = core.tick(
            2,
            &bugs,
            &[CoreResponse {
                tag: tag1,
                kind: CoreRespKind::LoadDone { value: 7 },
            }],
            &[],
            &mut rng,
        );
        assert!(out.observed.is_empty(), "younger load cannot retire first");
        // Now the older one.
        let out = core.tick(
            3,
            &bugs,
            &[CoreResponse {
                tag: tag0,
                kind: CoreRespKind::LoadDone { value: 3 },
            }],
            &[],
            &mut rng,
        );
        assert_eq!(
            out.observed,
            vec![
                ObservedOp::Load {
                    poi: 0,
                    addr: Address(0x100),
                    value: 3
                },
                ObservedOp::Load {
                    poi: 1,
                    addr: Address(0x200),
                    value: 7
                },
            ],
            "loads retire in program order with their observed values"
        );
        assert!(core.is_finished());
    }

    #[test]
    fn store_forwarding_satisfies_younger_load_without_cache_access() {
        let cfg = cfg();
        let mut rng = rng();
        let program = vec![
            TestOp::write(Address(0x100), 42),
            TestOp::read(Address(0x100)),
        ];
        let mut core = CoreModel::new(program, &cfg);
        let bugs = BugConfig::none();
        let out = core.tick(1, &bugs, &[], &[], &mut rng);
        // The only cache request is the store-buffer drain of the write; the
        // load was forwarded.
        assert_eq!(out.requests.len(), 1);
        assert!(matches!(
            out.requests[0].kind,
            CoreReqKind::Store { value: 42 }
        ));
        assert!(out
            .observed
            .iter()
            .any(|o| matches!(o, ObservedOp::Load { value: 42, .. })));
        // Finish the drain.
        let tag = out.requests[0].tag;
        let out = core.tick(
            2,
            &bugs,
            &[CoreResponse {
                tag,
                kind: CoreRespKind::StoreDone { overwritten: 0 },
            }],
            &[],
            &mut rng,
        );
        assert!(out.observed.iter().any(|o| matches!(
            o,
            ObservedOp::Store {
                value: 42,
                overwritten: 0,
                ..
            }
        )));
        assert!(core.is_finished());
    }

    /// Whether `out` asks the L1 for a load of `addr`.
    fn loads(out: &CoreTickOutput, addr: Address) -> bool {
        let mut requests = out.requests.iter();
        requests.any(|r| r.addr == addr && r.kind == CoreReqKind::Load)
    }

    #[test]
    fn a_load_behind_an_unacknowledged_store_goes_to_the_l1() {
        // R z; W x; Rdep x on the relaxed core: the store commits past the
        // load of z and drains at once, while the dependent load of x waits
        // for z.  When z performs, the store has reached the L1 (which may
        // already have lost the line again), so the load asks the L1 too.
        let (x, z) = (Address(0x100), Address(0x200));
        let program = vec![
            TestOp::read(z),
            TestOp::write(x, 7),
            TestOp::read_addr_dp(x),
        ];
        let mut core = CoreModel::new(program, &cfg_relaxed());
        let (bugs, mut rng) = (BugConfig::none(), rng());
        let out = core.tick(1, &bugs, &[], &[], &mut rng);
        assert!(loads(&out, z) && !loads(&out, x));
        assert!(out
            .requests
            .iter()
            .any(|r| r.kind == CoreReqKind::Store { value: 7 }));
        let z_done = CoreResponse {
            tag: out.requests[0].tag,
            kind: CoreRespKind::LoadDone { value: 0 },
        };
        let out = core.tick(2, &bugs, &[z_done], &[], &mut rng);
        assert!(loads(&out, x), "forwarded from a store that left the core");
        assert!(!core.is_finished());
    }

    #[test]
    fn a_load_behind_a_performed_rmw_goes_to_the_l1() {
        // RMW x; R x on the strong core: the load waits for the atomic, and
        // the cycle the atomic performs it is still in the window, unretired.
        let x = Address(0x100);
        let program = vec![TestOp::rmw(x, 7), TestOp::read(x)];
        let mut core = CoreModel::new(program, &cfg());
        let (bugs, mut rng) = (BugConfig::none(), rng());
        let out = core.tick(1, &bugs, &[], &[], &mut rng);
        assert_eq!(out.requests.len(), 1, "only the atomic issues");
        let rmw_done = CoreResponse {
            tag: out.requests[0].tag,
            kind: CoreRespKind::RmwDone { read_value: 0 },
        };
        let out = core.tick(2, &bugs, &[rmw_done], &[], &mut rng);
        assert!(
            loads(&out, x),
            "forwarded from an atomic that performed in the L1"
        );
        assert!(out
            .observed
            .iter()
            .all(|o| !matches!(o, ObservedOp::Load { .. })));
    }

    #[test]
    fn stores_drain_in_fifo_order_without_the_bug() {
        let cfg = cfg();
        let mut rng = rng();
        let program = vec![
            TestOp::write(Address(0x100), 1),
            TestOp::write(Address(0x200), 2),
            TestOp::write(Address(0x300), 3),
        ];
        let mut core = CoreModel::new(program, &cfg);
        let bugs = BugConfig::none();
        let mut drained = Vec::new();
        // A trivial cache stub: every store request is acknowledged on the
        // following cycle.
        let mut pending_acks: Vec<CoreResponse> = Vec::new();
        for cycle in 1..200 {
            let responses = std::mem::take(&mut pending_acks);
            let out = core.tick(cycle, &bugs, &responses, &[], &mut rng);
            for req in &out.requests {
                if let CoreReqKind::Store { value } = req.kind {
                    drained.push(value);
                    pending_acks.push(CoreResponse {
                        tag: req.tag,
                        kind: CoreRespKind::StoreDone { overwritten: 0 },
                    });
                }
            }
            if core.is_finished() {
                break;
            }
        }
        assert_eq!(drained, vec![1, 2, 3], "FIFO drain order");
        assert!(core.is_finished());
    }

    #[test]
    fn rmw_waits_for_store_buffer_drain() {
        let cfg = cfg();
        let mut rng = rng();
        let program = vec![
            TestOp::write(Address(0x100), 1),
            TestOp::rmw(Address(0x200), 2),
        ];
        let mut core = CoreModel::new(program, &cfg);
        let bugs = BugConfig::none();
        let out = core.tick(1, &bugs, &[], &[], &mut rng);
        // Only the store drain may be outstanding; the RMW must wait.
        assert_eq!(out.requests.len(), 1);
        assert!(matches!(out.requests[0].kind, CoreReqKind::Store { .. }));
        let store_tag = out.requests[0].tag;
        let out = core.tick(
            2,
            &bugs,
            &[CoreResponse {
                tag: store_tag,
                kind: CoreRespKind::StoreDone { overwritten: 0 },
            }],
            &[],
            &mut rng,
        );
        // Now (or next cycle) the RMW issues.
        let rmw_req = out
            .requests
            .iter()
            .chain(core.tick(3, &bugs, &[], &[], &mut rng).requests.iter())
            .find(|r| matches!(r.kind, CoreReqKind::Rmw { .. }))
            .copied()
            .expect("RMW issues after the store buffer drained");
        let out = core.tick(
            4,
            &bugs,
            &[CoreResponse {
                tag: rmw_req.tag,
                kind: CoreRespKind::RmwDone { read_value: 9 },
            }],
            &[],
            &mut rng,
        );
        assert!(out.observed.iter().any(|o| matches!(
            o,
            ObservedOp::Rmw {
                read_value: 9,
                write_value: 2,
                ..
            }
        )));
        assert!(core.is_finished());
    }

    #[test]
    fn invalidation_notice_squashes_younger_performed_load() {
        let cfg = cfg();
        let rng = rng();
        // Older load to X (will stay unperformed), younger load to Y
        // (performed early); an invalidation for Y must squash the younger
        // load so it re-executes.
        let program = vec![TestOp::read(Address(0x100)), TestOp::read(Address(0x200))];
        for (bugs, expect_requeue) in [
            (BugConfig::none(), true),
            (BugConfig::single(Bug::LqNoTso), false),
        ] {
            let mut core = CoreModel::new(program.clone(), &cfg);
            let mut rng2 = StdRng::seed_from_u64(13);
            let out = core.tick(1, &bugs, &[], &[], &mut rng2);
            assert_eq!(out.requests.len(), 2);
            let young_tag = out.requests[1].tag;
            // The younger load performs.
            core.tick(
                2,
                &bugs,
                &[CoreResponse {
                    tag: young_tag,
                    kind: CoreRespKind::LoadDone { value: 5 },
                }],
                &[],
                &mut rng2,
            );
            // An invalidation for the younger load's line arrives.
            let out = core.tick(3, &bugs, &[], &[LineAddr(0x200)], &mut rng2);
            let reissued = out
                .requests
                .iter()
                .any(|r| r.addr == Address(0x200) && matches!(r.kind, CoreReqKind::Load));
            assert_eq!(
                reissued, expect_requeue,
                "squash-and-retry must track the LQ+no-TSO bug"
            );
            assert_eq!(core.squashes() > 0, expect_requeue);
            let _ = rng;
        }
    }

    #[test]
    fn dependent_store_waits_for_its_load() {
        let cfg = cfg();
        let mut rng = rng();
        // R x; Wdata y: the store may not drain before the load performs.
        let program = vec![
            TestOp::read(Address(0x100)),
            TestOp::write_data_dp(Address(0x200), 9),
        ];
        let mut core = CoreModel::new(program, &cfg);
        let bugs = BugConfig::none();
        let out = core.tick(1, &bugs, &[], &[], &mut rng);
        assert_eq!(out.requests.len(), 1, "only the load may issue");
        assert!(matches!(out.requests[0].kind, CoreReqKind::Load));
        let load_tag = out.requests[0].tag;
        // Nothing drains while the load is outstanding.
        let out = core.tick(2, &bugs, &[], &[], &mut rng);
        assert!(out.requests.is_empty(), "dependent store must wait");
        // Once the load completes, the store retires into the buffer and
        // drains.
        let out = core.tick(
            3,
            &bugs,
            &[CoreResponse {
                tag: load_tag,
                kind: CoreRespKind::LoadDone { value: 1 },
            }],
            &[],
            &mut rng,
        );
        let drained = out
            .requests
            .iter()
            .chain(core.tick(4, &bugs, &[], &[], &mut rng).requests.iter())
            .any(|r| matches!(r.kind, CoreReqKind::Store { value: 9 }));
        assert!(drained, "dependent store drains after its load performs");
    }

    #[test]
    fn weak_fences_execute_like_full_fences() {
        let cfg = cfg();
        let mut rng = rng();
        let program = vec![
            TestOp::write(Address(0x100), 1),
            TestOp::fence_of(mcversi_mcm::FenceKind::LightweightSync),
            TestOp::read(Address(0x200)),
        ];
        let mut core = CoreModel::new(program, &cfg);
        let bugs = BugConfig::none();
        let mut pending: Vec<CoreResponse> = Vec::new();
        let mut fence_retired = false;
        for cycle in 1..100 {
            let responses = std::mem::take(&mut pending);
            let out = core.tick(cycle, &bugs, &responses, &[], &mut rng);
            for req in &out.requests {
                let kind = match req.kind {
                    CoreReqKind::Store { .. } => CoreRespKind::StoreDone { overwritten: 0 },
                    CoreReqKind::Fence => CoreRespKind::FenceDone,
                    CoreReqKind::Load => CoreRespKind::LoadDone { value: 0 },
                    _ => continue,
                };
                pending.push(CoreResponse { tag: req.tag, kind });
            }
            fence_retired |= out
                .observed
                .iter()
                .any(|o| matches!(o, ObservedOp::Fence { poi: 1 }));
            if core.is_finished() {
                break;
            }
        }
        assert!(fence_retired, "lwsync-flavoured fence retires");
        assert!(core.is_finished());
    }

    #[test]
    fn delay_and_flush_ops_complete() {
        let cfg = cfg();
        let mut rng = rng();
        let program = vec![TestOp::delay(3), TestOp::flush(Address(0x100))];
        let mut core = CoreModel::new(program, &cfg);
        let bugs = BugConfig::none();
        let mut flush_tag = None;
        for cycle in 1..20 {
            let out = core.tick(cycle, &bugs, &[], &[], &mut rng);
            if let Some(req) = out
                .requests
                .iter()
                .find(|r| matches!(r.kind, CoreReqKind::Flush))
            {
                flush_tag = Some(req.tag);
                break;
            }
        }
        let tag = flush_tag.expect("flush issued");
        for cycle in 20..40 {
            let responses = [CoreResponse {
                tag,
                kind: CoreRespKind::FlushDone,
            }];
            core.tick(cycle, &bugs, &responses, &[], &mut rng);
            if core.is_finished() {
                break;
            }
        }
        assert!(core.is_finished());
    }

    #[test]
    fn fence_waits_for_store_buffer_and_reports_retirement() {
        let cfg = cfg();
        let mut rng = rng();
        let program = vec![TestOp::write(Address(0x100), 1), TestOp::fence()];
        let mut core = CoreModel::new(program, &cfg);
        let bugs = BugConfig::none();
        let out = core.tick(1, &bugs, &[], &[], &mut rng);
        assert_eq!(out.requests.len(), 1);
        assert!(matches!(out.requests[0].kind, CoreReqKind::Store { .. }));
        let store_tag = out.requests[0].tag;
        let out = core.tick(
            2,
            &bugs,
            &[CoreResponse {
                tag: store_tag,
                kind: CoreRespKind::StoreDone { overwritten: 0 },
            }],
            &[],
            &mut rng,
        );
        let fence_req = out
            .requests
            .iter()
            .chain(core.tick(3, &bugs, &[], &[], &mut rng).requests.iter())
            .find(|r| matches!(r.kind, CoreReqKind::Fence))
            .copied()
            .expect("fence issues after the drain");
        let out = core.tick(
            4,
            &bugs,
            &[CoreResponse {
                tag: fence_req.tag,
                kind: CoreRespKind::FenceDone,
            }],
            &[],
            &mut rng,
        );
        assert!(out
            .observed
            .iter()
            .any(|o| matches!(o, ObservedOp::Fence { poi: 1 })));
        assert!(core.is_finished());
    }

    #[test]
    fn a_tick_that_changes_nothing_is_quiescent_until_a_delay_expires() {
        let cfg = cfg();
        let mut rng = rng();
        let bugs = BugConfig::none();
        let program = vec![TestOp::delay(5), TestOp::read(Address(0x100))];
        let mut core = CoreModel::new(program.clone(), &cfg);
        let out = core.tick(1, &bugs, &[], &[], &mut rng);
        assert_eq!(out.requests.len(), 1, "the load issues past the delay");
        assert!(!out.quiescent);
        assert_eq!(core.next_delay_expiry(), Some(6));
        for cycle in 2..6 {
            let out = core.tick(cycle, &bugs, &[], &[], &mut rng);
            assert!(out.quiescent, "cycle {cycle}: nothing to do but wait");
            assert!(out.requests.is_empty() && out.observed.is_empty());
        }
        let out = core.tick(6, &bugs, &[], &[], &mut rng);
        assert!(!out.quiescent, "the delay expired and retired");
        assert_eq!(core.next_delay_expiry(), None);
        assert!(core.tick(7, &bugs, &[], &[], &mut rng).quiescent);
        let response = CoreResponse {
            tag: 1,
            kind: CoreRespKind::LoadDone { value: 0 },
        };
        assert!(!core.tick(8, &bugs, &[response], &[], &mut rng).quiescent);
        assert!(core.is_finished());
        assert!(core.tick(9, &bugs, &[], &[], &mut rng).quiescent);

        // A core held back by its jitter draw is not quiescent: its next
        // tick has the same work to do, and draws again.
        let mut jittery = cfg;
        jittery.issue_jitter = u16::MAX;
        let mut core = CoreModel::new(program, &jittery);
        core.tick(1, &bugs, &[], &[], &mut rng);
        let held = (2..40)
            .filter(|&cycle| !core.tick(cycle, &bugs, &[], &[], &mut rng).quiescent)
            .count();
        assert!(held > 30, "only {held} of 38 ticks were held back");
    }

    #[test]
    fn an_idle_issue_stage_draws_no_jitter() {
        // RMW x; R y: until the atomic issues, every issue stage has work and
        // draws; once it has, the load waits for its response, and the issue
        // stage, finding nothing to do, leaves the generator alone.
        let mut jittery = cfg();
        jittery.issue_jitter = 30_000;
        let program = vec![TestOp::rmw(Address(0x100), 1), TestOp::read(Address(0x200))];
        let mut core = CoreModel::new(program, &jittery);
        let (bugs, mut rng) = (BugConfig::none(), rng());
        let next_draw = |rng: &StdRng| rng.clone().gen::<u64>();
        let mut cycle = 0;
        loop {
            cycle += 1;
            let before = next_draw(&rng);
            let out = core.tick(cycle, &bugs, &[], &[], &mut rng);
            assert_ne!(
                next_draw(&rng),
                before,
                "cycle {cycle}: work to do, no draw"
            );
            assert!(!out.quiescent);
            if !out.requests.is_empty() {
                break;
            }
        }
        let before = next_draw(&rng);
        for cycle in cycle + 1..cycle + 50 {
            assert!(core.tick(cycle, &bugs, &[], &[], &mut rng).quiescent);
        }
        assert_eq!(next_draw(&rng), before, "a waiting core drew");
    }

    #[test]
    fn reset_returns_a_core_to_its_initial_state() {
        let cfg = cfg();
        let bugs = BugConfig::none();
        let program = vec![
            TestOp::write(Address(0x100), 1),
            TestOp::read(Address(0x200)),
        ];
        let run = |core: &mut CoreModel| {
            let mut rng = rng();
            (1..4)
                .map(|cycle| {
                    let out = core.tick(cycle, &bugs, &[], &[], &mut rng);
                    (out.requests, out.observed, out.quiescent)
                })
                .collect::<Vec<_>>()
        };
        let mut core = CoreModel::new(program, &cfg);
        let first = run(&mut core);
        core.reset();
        assert!(!core.is_finished());
        assert_eq!(
            run(&mut core),
            first,
            "same tags, same requests, same order"
        );
    }

    #[test]
    fn queue_occupancy_counts_follow_the_window() {
        // Long random programs of every op kind on both pipelines (the relaxed
        // one also removes stores from the middle of the window), answered by
        // a stub cache two cycles later: after every tick, also those after a
        // reset in mid-flight, the counts `fetch` checks are those of a
        // recount.
        let kinds = |rng: &mut StdRng, value: u64| {
            let addr = Address(0x100 * rng.gen_range(1..6u64));
            match rng.gen_range(0..9u32) {
                0 | 1 => TestOp::read(addr),
                2 => TestOp::read_addr_dp(addr),
                3 | 4 => TestOp::write(addr, value),
                5 => TestOp::write_data_dp(addr, value),
                6 => TestOp::rmw(addr, value),
                7 => TestOp::fence(),
                _ => TestOp::delay(rng.gen_range(1..6u32)),
            }
        };
        let recount = |core: &CoreModel| {
            let loads = core.window.iter().filter(|o| o.is_load()).count();
            let stores = core
                .window
                .iter()
                .filter(|o| o.op.kind.written_value().is_some());
            let stores = stores
                .filter(|o| !matches!(o.op.kind, TestOpKind::ReadModifyWrite { .. }))
                .count();
            (loads, stores)
        };
        let bugs = BugConfig::none();
        for cfg in [cfg(), cfg_relaxed()] {
            let mut rng = rng();
            let program: Vec<TestOp> = (1..=120).map(|value| kinds(&mut rng, value)).collect();
            let mut core = CoreModel::new(program, &cfg);
            for round in 0..2 {
                let mut in_flight: VecDeque<(Cycle, CoreResponse)> = VecDeque::new();
                let mut full = (false, false);
                for cycle in 1..5_000 {
                    let due = in_flight.iter().take_while(|(at, _)| *at <= cycle).count();
                    let responses: Vec<CoreResponse> = in_flight
                        .drain(..due)
                        .map(|(_, response)| response)
                        .collect();
                    let out = core.tick(cycle, &bugs, &responses, &[], &mut rng);
                    for req in out.requests {
                        let kind = match req.kind {
                            CoreReqKind::Load => CoreRespKind::LoadDone { value: 0 },
                            CoreReqKind::Store { .. } => CoreRespKind::StoreDone { overwritten: 0 },
                            CoreReqKind::Rmw { .. } => CoreRespKind::RmwDone { read_value: 0 },
                            CoreReqKind::Flush => CoreRespKind::FlushDone,
                            CoreReqKind::Fence => CoreRespKind::FenceDone,
                        };
                        in_flight.push_back((cycle + 2, CoreResponse { tag: req.tag, kind }));
                    }
                    assert_eq!(
                        (core.loads_in_window, core.stores_in_window),
                        recount(&core),
                        "{:?} round {round} cycle {cycle}",
                        cfg.core_strength
                    );
                    full.0 |= core.loads_in_window == core.lq_entries;
                    full.1 |= core.stores_in_window + core.store_buffer.len() == core.sq_entries;
                    // The first round is cut short, so `reset` finds a
                    // window with loads and stores in it.
                    if core.is_finished() || (round == 0 && cycle == 60) {
                        break;
                    }
                }
                assert_eq!(core.is_finished(), round == 1, "{:?}", cfg.core_strength);
                assert!(full.0 || full.1, "neither queue ever filled up");
                core.reset();
                assert_eq!((core.loads_in_window, core.stores_in_window), (0, 0));
            }
        }
    }

    // ---- Relaxed pipeline ----

    fn cfg_relaxed() -> SystemConfig {
        let mut c = SystemConfig::small(ProtocolKind::Mesi);
        c.core_strength = CoreStrength::Relaxed;
        c.issue_jitter = 0;
        c
    }

    #[test]
    fn relaxed_core_does_not_squash_on_invalidation() {
        let cfg = cfg_relaxed();
        let mut rng = rng();
        let program = vec![TestOp::read(Address(0x100)), TestOp::read(Address(0x200))];
        let mut core = CoreModel::new(program, &cfg);
        assert_eq!(core.strength(), CoreStrength::Relaxed);
        let bugs = BugConfig::none();
        let out = core.tick(1, &bugs, &[], &[], &mut rng);
        assert_eq!(out.requests.len(), 2, "both loads issue out of order");
        let young_tag = out.requests[1].tag;
        core.tick(
            2,
            &bugs,
            &[CoreResponse {
                tag: young_tag,
                kind: CoreRespKind::LoadDone { value: 5 },
            }],
            &[],
            &mut rng,
        );
        // An invalidation for the younger load's line arrives while the older
        // load is unperformed: the relaxed core keeps the performed value.
        let out = core.tick(3, &bugs, &[], &[LineAddr(0x200)], &mut rng);
        assert!(out.requests.is_empty(), "no squash-and-retry");
        assert_eq!(core.squashes(), 0);
    }

    #[test]
    fn relaxed_core_stalls_same_address_younger_load() {
        let cfg = cfg_relaxed();
        let mut rng = rng();
        let program = vec![TestOp::read(Address(0x100)), TestOp::read(Address(0x100))];
        let mut core = CoreModel::new(program, &cfg);
        let bugs = BugConfig::none();
        let out = core.tick(1, &bugs, &[], &[], &mut rng);
        assert_eq!(
            out.requests.len(),
            1,
            "the same-address younger load must wait (coherence)"
        );
    }

    #[test]
    fn a_load_stall_counts_once_per_episode() {
        // Relaxed core, F; R x; Rdep y: both loads wait out the full fence,
        // then the dependent one waits out the load of x.
        telemetry::enable();
        telemetry::reset_local();
        let stalls = || {
            let mut counters = telemetry::local_snapshot().counters;
            counters.retain(|name, _| name.starts_with("sim.core.stall."));
            counters
        };
        let count = |pairs: &[(&str, u64)]| {
            let named = pairs
                .iter()
                .map(|&(why, n)| (format!("sim.core.stall.{why}"), n));
            named.collect::<std::collections::BTreeMap<_, _>>()
        };
        let cfg = cfg_relaxed();
        let mut rng = rng();
        let bugs = BugConfig::none();
        let program = vec![
            TestOp::fence(),
            TestOp::read(Address(0x100)),
            TestOp::read_addr_dp(Address(0x200)),
        ];
        let mut core = CoreModel::new(program, &cfg);
        let out = core.tick(1, &bugs, &[], &[], &mut rng);
        let fence = out.requests[0].tag;
        for cycle in 2..50 {
            assert!(core.tick(cycle, &bugs, &[], &[], &mut rng).quiescent);
        }
        assert_eq!(stalls(), count(&[("fence", 2)]), "one episode per load");

        // The fence completes: the load of x issues, and the dependent load
        // stalls for a new reason, which starts a new episode.
        let done = |tag, kind| [CoreResponse { tag, kind }];
        let out = core.tick(
            50,
            &bugs,
            &done(fence, CoreRespKind::FenceDone),
            &[],
            &mut rng,
        );
        let load_x = out.requests[0].tag;
        assert_eq!(out.requests.len(), 1);
        for cycle in 51..100 {
            core.tick(cycle, &bugs, &[], &[], &mut rng);
        }
        assert_eq!(stalls(), count(&[("dep", 1), ("fence", 2)]));

        // Issuing ends the episode: the slot forgets its reason, so a load
        // squashed after it issued counts its next stall afresh.  (None does
        // stall again today: only the strong core squashes, it issued the
        // load past every older fence and atomic, and it issues an
        // address-dependent load only once every older load has performed.)
        let value = CoreRespKind::LoadDone { value: 0 };
        let out = core.tick(100, &bugs, &done(load_x, value), &[], &mut rng);
        assert_eq!(out.requests.len(), 1, "the dependent load issues");
        assert!(core.window.iter().all(|op| op.stalled.is_none()));
        assert_eq!(stalls(), count(&[("dep", 1), ("fence", 2)]));
    }

    #[test]
    fn relaxed_store_commits_past_incomplete_load() {
        let cfg = cfg_relaxed();
        let mut rng = rng();
        // R x; W y: the store drains while the load is still outstanding —
        // the load→store reordering the strong core can never exhibit.
        let program = vec![
            TestOp::read(Address(0x100)),
            TestOp::write(Address(0x200), 9),
        ];
        let mut core = CoreModel::new(program, &cfg);
        let bugs = BugConfig::none();
        let out = core.tick(1, &bugs, &[], &[], &mut rng);
        let kinds: Vec<_> = out.requests.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&CoreReqKind::Load));
        let drained = out
            .requests
            .iter()
            .chain(core.tick(2, &bugs, &[], &[], &mut rng).requests.iter())
            .any(|r| matches!(r.kind, CoreReqKind::Store { value: 9 }));
        assert!(drained, "store must drain before the older load performs");
    }

    #[test]
    fn relaxed_store_does_not_pass_same_address_load_or_fence() {
        let cfg = cfg_relaxed();
        let bugs = BugConfig::none();
        // Same address: R x; W x must not drain early.
        let mut rng2 = rng();
        let program = vec![
            TestOp::read(Address(0x100)),
            TestOp::write(Address(0x100), 9),
        ];
        let mut core = CoreModel::new(program, &cfg);
        let out = core.tick(1, &bugs, &[], &[], &mut rng2);
        assert!(
            !out.requests
                .iter()
                .any(|r| matches!(r.kind, CoreReqKind::Store { .. })),
            "same-address store must not overtake the load"
        );
        // Fenced: R x; lwsync; W y must not drain before the load performs.
        let program = vec![
            TestOp::read(Address(0x100)),
            TestOp::fence_of(mcversi_mcm::FenceKind::LightweightSync),
            TestOp::write(Address(0x200), 9),
        ];
        let mut core = CoreModel::new(program, &cfg);
        let out = core.tick(1, &bugs, &[], &[], &mut rng2);
        assert!(
            !out.requests
                .iter()
                .any(|r| matches!(r.kind, CoreReqKind::Store { .. })),
            "a store must not leapfrog a pending lwsync"
        );
    }

    #[test]
    fn relaxed_store_buffer_drains_out_of_order_unless_fenced() {
        let cfg = cfg_relaxed();
        let bugs = BugConfig::none();
        let drain_order = |program: Vec<TestOp>, seed: u64| -> Vec<u64> {
            let mut core = CoreModel::new(program, &cfg);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut drained = Vec::new();
            let mut pending: Vec<CoreResponse> = Vec::new();
            for cycle in 1..300 {
                let responses = std::mem::take(&mut pending);
                let out = core.tick(cycle, &bugs, &responses, &[], &mut rng);
                for req in &out.requests {
                    match req.kind {
                        CoreReqKind::Store { value } => {
                            drained.push(value);
                            pending.push(CoreResponse {
                                tag: req.tag,
                                kind: CoreRespKind::StoreDone { overwritten: 0 },
                            });
                        }
                        CoreReqKind::Fence => pending.push(CoreResponse {
                            tag: req.tag,
                            kind: CoreRespKind::FenceDone,
                        }),
                        _ => {}
                    }
                }
                if core.is_finished() {
                    break;
                }
            }
            drained
        };
        let unfenced = vec![
            TestOp::write(Address(0x100), 1),
            TestOp::write(Address(0x200), 2),
            TestOp::write(Address(0x300), 3),
            TestOp::write(Address(0x400), 4),
        ];
        let mut reordered = false;
        for seed in 0..40 {
            if drain_order(unfenced.clone(), seed) != vec![1, 2, 3, 4] {
                reordered = true;
                break;
            }
        }
        assert!(reordered, "unfenced relaxed drain never reordered");
        // Store-store fences between every pair pin the order.
        let fenced = vec![
            TestOp::write(Address(0x100), 1),
            TestOp::fence_of(mcversi_mcm::FenceKind::StoreStore),
            TestOp::write(Address(0x200), 2),
            TestOp::fence_of(mcversi_mcm::FenceKind::StoreStore),
            TestOp::write(Address(0x300), 3),
        ];
        for seed in 0..40 {
            assert_eq!(
                drain_order(fenced.clone(), seed),
                vec![1, 2, 3],
                "sfence-separated stores must drain in order"
            );
        }
    }

    #[test]
    fn relaxed_acquire_fence_stalls_younger_loads_unless_bugged() {
        let cfg = cfg_relaxed();
        // R y; acq; R x — the younger load may not issue until the older load
        // performs; the Fence+no-acquire bug lets it.
        let program = vec![
            TestOp::read(Address(0x100)),
            TestOp::fence_of(mcversi_mcm::FenceKind::Acquire),
            TestOp::read(Address(0x200)),
        ];
        for (bugs, expect_early) in [
            (BugConfig::none(), false),
            (BugConfig::single(Bug::FenceNoAcquire), true),
        ] {
            let mut core = CoreModel::new(program.clone(), &cfg);
            let mut rng = StdRng::seed_from_u64(21);
            let out = core.tick(1, &bugs, &[], &[], &mut rng);
            let early = out
                .requests
                .iter()
                .any(|r| r.addr == Address(0x200) && matches!(r.kind, CoreReqKind::Load));
            assert_eq!(early, expect_early, "acquire stall must track the bug");
        }
    }

    #[test]
    fn relaxed_release_fence_does_not_stall_younger_loads() {
        let cfg = cfg_relaxed();
        let mut rng = rng();
        let program = vec![
            TestOp::read(Address(0x100)),
            TestOp::fence_of(mcversi_mcm::FenceKind::Release),
            TestOp::read(Address(0x200)),
        ];
        let mut core = CoreModel::new(program, &cfg);
        let bugs = BugConfig::none();
        let out = core.tick(1, &bugs, &[], &[], &mut rng);
        assert_eq!(
            out.requests.len(),
            2,
            "a release fence orders only later writes; both loads issue"
        );
    }

    #[test]
    fn relaxed_addr_dep_stall_tracks_the_lq_no_addr_dep_bug() {
        let cfg = cfg_relaxed();
        let program = vec![
            TestOp::read(Address(0x100)),
            TestOp::read_addr_dp(Address(0x200)),
        ];
        for (bugs, expect_early) in [
            (BugConfig::none(), false),
            (BugConfig::single(Bug::LqNoAddrDep), true),
        ] {
            let mut core = CoreModel::new(program.clone(), &cfg);
            let mut rng = StdRng::seed_from_u64(23);
            let out = core.tick(1, &bugs, &[], &[], &mut rng);
            let early = out
                .requests
                .iter()
                .any(|r| r.addr == Address(0x200) && matches!(r.kind, CoreReqKind::Load));
            assert_eq!(early, expect_early, "addr-dep stall must track the bug");
        }
    }

    #[test]
    fn relaxed_dependent_store_commit_tracks_the_dep_bugs() {
        let cfg = cfg_relaxed();
        for (make_store, bug) in [
            (
                TestOp::write_data_dp as fn(Address, u64) -> TestOp,
                Bug::SqNoDataDep,
            ),
            (TestOp::write_ctrl_dp, Bug::SqNoCtrlDep),
        ] {
            let program = vec![TestOp::read(Address(0x100)), make_store(Address(0x200), 9)];
            for (bugs, expect_early) in [(BugConfig::none(), false), (BugConfig::single(bug), true)]
            {
                let mut core = CoreModel::new(program.clone(), &cfg);
                let mut rng = StdRng::seed_from_u64(29);
                let out = core.tick(1, &bugs, &[], &[], &mut rng);
                let drained = out
                    .requests
                    .iter()
                    .chain(core.tick(2, &bugs, &[], &[], &mut rng).requests.iter())
                    .any(|r| matches!(r.kind, CoreReqKind::Store { value: 9 }));
                assert_eq!(
                    drained, expect_early,
                    "{bug}: dependent-store commit must track the bug"
                );
            }
        }
    }

    #[test]
    fn relaxed_forwarding_never_reads_younger_committed_stores() {
        let cfg = cfg_relaxed();
        let mut rng = rng();
        // R x (slow); W x=7 would be *younger*: it cannot early-commit (same
        // address), and even a different-address early commit must not be
        // forwarded to an older load.  Shape: R y; W x; R x — the trailing
        // load forwards 7, the leading load must not.
        let program = vec![
            TestOp::read(Address(0x100)),
            TestOp::write(Address(0x200), 7),
            TestOp::read(Address(0x200)),
        ];
        let mut core = CoreModel::new(program, &cfg);
        let bugs = BugConfig::none();
        let out = core.tick(1, &bugs, &[], &[], &mut rng);
        // The younger load forwards from the (possibly committed) store...
        let mut observed = Vec::new();
        let mut pending: Vec<CoreResponse> = Vec::new();
        observed.extend(out.observed.iter().copied());
        for req in &out.requests {
            let kind = match req.kind {
                CoreReqKind::Load => CoreRespKind::LoadDone { value: 0 },
                CoreReqKind::Store { .. } => CoreRespKind::StoreDone { overwritten: 0 },
                _ => continue,
            };
            pending.push(CoreResponse { tag: req.tag, kind });
        }
        for cycle in 2..50 {
            let responses = std::mem::take(&mut pending);
            let out = core.tick(cycle, &bugs, &responses, &[], &mut rng);
            for req in &out.requests {
                let kind = match req.kind {
                    CoreReqKind::Load => CoreRespKind::LoadDone { value: 0 },
                    CoreReqKind::Store { .. } => CoreRespKind::StoreDone { overwritten: 0 },
                    _ => continue,
                };
                pending.push(CoreResponse { tag: req.tag, kind });
            }
            observed.extend(out.observed.iter().copied());
            if core.is_finished() {
                break;
            }
        }
        assert!(observed.iter().any(|o| matches!(
            o,
            ObservedOp::Load {
                poi: 2,
                value: 7,
                ..
            }
        )));
        assert!(observed.iter().any(|o| matches!(
            o,
            ObservedOp::Load {
                poi: 0,
                value: 0,
                ..
            }
        )));
    }

    #[test]
    fn cores_for_program_pads_idle_cores() {
        let cfg = cfg();
        let program = crate::program::TestProgram::new(vec![
            vec![TestOp::read(Address(0x100))],
            vec![TestOp::write(Address(0x100), 1)],
        ]);
        let cores = cores_for_program(&program, &cfg);
        assert_eq!(cores.len(), cfg.num_cores);
        assert_eq!(cores[0].program, [TestOp::read(Address(0x100))]);
        assert_eq!(cores[1].program, [TestOp::write(Address(0x100), 1)]);
        assert!(cores[2].is_finished(), "cores without a thread are idle");
    }
}

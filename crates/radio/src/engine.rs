//! The lock-step execution engine.
//!
//! # Round structure (cell-sharded)
//!
//! Every round runs in three passes over the node-id cells of the
//! installed [`ShardPlan`] (a single implicit cell unless one is set):
//!
//! 1. **Act** — each due node's `act()` fills flat struct-of-arrays
//!    scratch tables: `tx_on` (transmit channel per id), `listen_on`,
//!    and `tx_msg` (the message, stored only for transmitters).
//! 2. **Resolve** — each listening node scans its row of the graph's
//!    flattened adjacency ([`Graph::flat`], built once per topology and
//!    shared by every run over it) against the *global* `tx_on` table,
//!    buffers its dropped receptions in per-cell scratch, and applies
//!    `on_receive` for clean single-transmitter rounds. Writes stay
//!    within the node's own cell, so cells resolve independently (and,
//!    with more than one worker, concurrently).
//! 3. **Merge** — the per-cell buffers are serialised into the trace
//!    in canonical global id order and the done/undone counters are
//!    aggregated, in deterministic cell order.
//!
//! Delivery is a pure function of the transmit table, graph, failure
//! plan and the stateless per-(seed, link, round) loss hash, so the
//! cell structure and worker count are invisible in every output: the
//! event stream, energy meters and counters are byte-identical across
//! 1 cell, N cells, 1 thread and N threads.
//!
//! # Sleep skipping
//!
//! Programs may implement [`NodeProgram::next_wake`] to declare the
//! next round they could possibly act in. The engine then skips their
//! `act()` calls entirely for the intervening rounds, crediting the
//! skipped rounds to the sleep meter in one batch. Because a skipped
//! node neither transmits, listens, nor mutates state, the run is
//! observationally identical to consulting it every round — this is
//! what makes 100k-node fields cheap: per Theorem 1 a CFF node is
//! awake O(δ·k + Δ) rounds, so the program callbacks, reception scans
//! and meter updates track *energy*. The act pass still checks each
//! id's wake round once per round (an `n × rounds` scan of one integer
//! per id), so that part of the cost does not. Hints are ignored when a
//! failure plan is installed (dead rounds must not be mis-credited as
//! sleep).

use crate::action::Action;
use crate::energy::{EnergyMeter, EnergyReport};
use crate::failure::FailurePlan;
use crate::loss::LossModel;
use crate::shard::ShardPlan;
use crate::trace::{Trace, TraceEvent};
use crate::Round;
use dsnet_graph::{Graph, NodeId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// Read-only per-callback context handed to node programs.
#[derive(Debug, Clone, Copy)]
pub struct NodeCtx {
    /// The node this callback concerns.
    pub id: NodeId,
    /// Current round, 1-based.
    pub round: Round,
    /// Number of available radio channels `k`.
    pub channels: u8,
}

/// A per-node protocol state machine.
///
/// Programs only see their own callbacks — all coordination must go through
/// transmitted messages, exactly as on real hardware. Collisions are
/// silent: a round in which two neighbours transmit simultaneously is
/// indistinguishable from a round in which nobody did.
pub trait NodeProgram {
    /// Message type carried over the air.
    type Msg: Clone;

    /// Decide this round's action. Called once per round while the node is
    /// alive.
    fn act(&mut self, ctx: &NodeCtx) -> Action<Self::Msg>;

    /// Called when the node was listening and exactly one neighbour
    /// transmitted on its channel. `from` models the sender id carried in
    /// every packet header.
    fn on_receive(&mut self, ctx: &NodeCtx, from: NodeId, msg: &Self::Msg);

    /// Whether this node considers the protocol locally complete. The run
    /// ends early once every live node is done.
    fn done(&self) -> bool {
        false
    }

    /// Earliest future round in which this node might do anything other
    /// than sleep, given its state after the `now` callbacks. Returning
    /// `Some(w)` promises that every `act()` between `now` and `w`
    /// (exclusive) would return [`Action::Sleep`] *without mutating any
    /// state* — the engine then skips those calls and batch-credits the
    /// sleep meter. `None` (the default) means "consult me every round".
    ///
    /// The hint is consulted again after every callback, so a program
    /// woken early by `on_receive` can shorten its own schedule. Hints
    /// are ignored while a failure plan is installed.
    fn next_wake(&self, now: Round) -> Option<Round> {
        let _ = now;
        None
    }
}

/// Engine settings.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of radio channels `k ≥ 1`.
    pub channels: u8,
    /// Hard round limit (the run fails over to [`StopReason::RoundLimit`]).
    pub max_rounds: Round,
    /// Record a full event trace.
    ///
    /// Defaults to `true` (matching `RunConfig` in `dsnet-protocols`):
    /// collision counts are only measurable from the trace, and a silent
    /// zero from an unrecorded run is worse than the memory cost of
    /// recording. Large sweeps that don't need collision data should
    /// disable it explicitly.
    pub record_trace: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            channels: 1,
            max_rounds: 1_000_000,
            record_trace: true,
        }
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every live node reported `done()`.
    AllDone,
    /// `max_rounds` elapsed first.
    RoundLimit,
}

/// Result of [`Engine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Rounds actually executed.
    pub rounds: Round,
    /// Why the run ended.
    pub stop: StopReason,
}

/// Sentinel in the per-round transmit-channel table: "not transmitting".
/// Valid channels are `< config.channels ≤ 255`, so 255 never collides.
const NO_TX: u8 = u8::MAX;

/// Wake sentinel for id slots that never act (no program).
const NEVER: Round = Round::MAX;

/// A reception destroyed by channel loss, buffered per cell during the
/// resolve pass. `pos` is the index of `from` in `to`'s adjacency row,
/// so sorting by `(to, pos)` reproduces the order a sequential
/// listener-by-listener scan would have emitted the drops in.
#[derive(Debug, Clone, Copy)]
struct DropRec {
    to: u32,
    pos: u32,
    from: u32,
}

/// Per-cell scratch, reused across rounds. Written only by the worker
/// that owns the cell; read by the main thread during the merge pass.
#[derive(Debug, Default)]
struct CellScratch {
    /// Nodes consulted this round (ascending ids — cell order).
    active: Vec<u32>,
    /// Dropped receptions recorded by this cell's listeners.
    drops: Vec<DropRec>,
    /// Net change this round to the global not-yet-done count.
    undone_delta: i64,
}

/// Raw views of the per-node struct-of-arrays tables, so the act and
/// resolve passes run the same code inline and on scoped workers.
/// Within a round, each node id is touched by exactly one cell and each
/// cell by exactly one worker, so all writes through these pointers are
/// disjoint; cross-cell *reads* (`tx_on`, `tx_msg`) only target values
/// frozen by the previous pass barrier.
struct Tables<P: NodeProgram> {
    programs: *mut Option<P>,
    meters: *mut EnergyMeter,
    wake: *mut Round,
    last_acct: *mut Round,
    done_flag: *mut bool,
    tx_on: *mut u8,
    listen_on: *mut u8,
    tx_msg: *mut Option<P::Msg>,
    rx_count: *mut u32,
    rx_from: *mut u32,
}

impl<P: NodeProgram> Clone for Tables<P> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P: NodeProgram> Copy for Tables<P> {}

// Safety: see `Tables` — per-node writes are partitioned by cell, and
// the barrier protocol orders cross-cell reads after the writes they
// observe. `P: Send` lets `&mut P` callbacks run on a worker thread;
// `P::Msg: Sync + Send` covers cross-thread `&Msg` reads and the final
// drop of buffered messages on the main thread.
unsafe impl<P: NodeProgram + Send> Send for Tables<P> where P::Msg: Send + Sync {}
unsafe impl<P: NodeProgram + Send> Sync for Tables<P> where P::Msg: Send + Sync {}

/// Pointer to the per-cell scratch array, shared across workers that
/// index disjoint cells.
struct CellsPtr(*mut CellScratch);
unsafe impl Send for CellsPtr {}
unsafe impl Sync for CellsPtr {}

/// Shared read-only inputs of the act/resolve passes.
struct PassEnv<'a> {
    csr_off: &'a [u32],
    csr_adj: &'a [NodeId],
    failures: &'a FailurePlan,
    failures_empty: bool,
    loss: LossModel,
    channels: u8,
    /// Sleep-skip hints honoured (no failure plan installed).
    hints: bool,
    trace_enabled: bool,
}

/// Act pass over one cell: clear the previous round's marks, consult
/// every due node, and fill the transmit/listen tables.
///
/// Safety: `sc` must be the exclusive scratch of this cell and `cell`
/// must contain only ids owned by it (guaranteed by `ShardPlan`).
unsafe fn pass_act<P: NodeProgram>(
    env: &PassEnv<'_>,
    t: Tables<P>,
    cell: &[u32],
    sc: &mut CellScratch,
    round: Round,
) {
    for &iu in &sc.active {
        let i = iu as usize;
        *t.tx_on.add(i) = NO_TX;
        *t.listen_on.add(i) = NO_TX;
    }
    sc.active.clear();
    sc.drops.clear();
    sc.undone_delta = 0;
    for &iu in cell {
        let i = iu as usize;
        if *t.wake.add(i) > round {
            continue;
        }
        let id = NodeId(iu);
        if !env.failures_empty && env.failures.node_dead(id, round) {
            continue;
        }
        if env.hints {
            let last = *t.last_acct.add(i);
            if round > last + 1 {
                // Rounds skipped on a wake hint are, by contract, sleep.
                (*t.meters.add(i)).sleep_rounds += round - last - 1;
            }
        }
        *t.last_acct.add(i) = round;
        let ctx = NodeCtx {
            id,
            round,
            channels: env.channels,
        };
        match (*t.programs.add(i)).as_mut().unwrap().act(&ctx) {
            Action::Transmit { channel, msg } => {
                assert!(
                    channel < env.channels,
                    "node {id} used channel {channel} but only {} exist",
                    env.channels
                );
                *t.tx_on.add(i) = channel;
                *t.tx_msg.add(i) = Some(msg);
            }
            Action::Listen { channel } => {
                assert!(
                    channel < env.channels,
                    "node {id} used channel {channel} but only {} exist",
                    env.channels
                );
                *t.listen_on.add(i) = channel;
            }
            Action::Sleep => {}
        }
        sc.active.push(iu);
    }
}

/// Resolve pass over one cell: meter energy, scan listeners' CSR rows
/// against the global transmit table, apply receptions, and refresh
/// each consulted node's wake hint and done flag.
///
/// Safety: as for [`pass_act`]; additionally all `pass_act` writes must
/// be complete (barrier in the parallel path), and every id in
/// `env.csr_adj` must index the tables. It does: the rows are the
/// engine graph's own, and a graph's ids stay below its capacity, which
/// sized the tables.
unsafe fn pass_resolve<P: NodeProgram>(
    env: &PassEnv<'_>,
    t: Tables<P>,
    sc: &mut CellScratch,
    round: Round,
) {
    let CellScratch {
        active,
        drops,
        undone_delta,
    } = sc;
    for &iu in active.iter() {
        let i = iu as usize;
        let id = NodeId(iu);
        if *t.tx_on.add(i) != NO_TX {
            (*t.meters.add(i)).record_tx(round);
        } else {
            let ch = *t.listen_on.add(i);
            if ch == NO_TX {
                (*t.meters.add(i)).record_sleep();
            } else {
                (*t.meters.add(i)).record_listen(round);
                // Count live neighbours transmitting on our channel over a
                // live link. The flat `tx_on` byte table filters out silent
                // neighbours before any map probe or message access.
                let row = env.csr_off[i] as usize..env.csr_off[i + 1] as usize;
                let mut tx_count = 0u32;
                let mut tx_from = 0u32;
                for (pos, &v) in env.csr_adj[row].iter().enumerate() {
                    if *t.tx_on.add(v.index()) != ch {
                        continue;
                    }
                    if !env.failures_empty && env.failures.link_dead(id, v, round) {
                        continue;
                    }
                    if env.loss.dropped(v, id, round) {
                        if env.trace_enabled {
                            drops.push(DropRec {
                                to: iu,
                                pos: pos as u32,
                                from: v.0,
                            });
                        }
                        continue;
                    }
                    tx_count += 1;
                    tx_from = v.0;
                }
                *t.rx_count.add(i) = tx_count;
                *t.rx_from.add(i) = tx_from;
                if tx_count == 1 {
                    // Hand the message over by reference straight out of
                    // the sender's slot — no per-delivery clone. The slot
                    // was filled this round (the sender is on the air) and
                    // no act pass runs concurrently with resolve.
                    let msg = (*t.tx_msg.add(tx_from as usize)).as_ref().unwrap();
                    let ctx = NodeCtx {
                        id,
                        round,
                        channels: env.channels,
                    };
                    (*t.programs.add(i))
                        .as_mut()
                        .unwrap()
                        .on_receive(&ctx, NodeId(tx_from), msg);
                }
            }
        }
        let p = (*t.programs.add(i)).as_ref().unwrap();
        *t.wake.add(i) = if env.hints {
            match p.next_wake(round) {
                Some(w) => w.max(round + 1),
                None => round + 1,
            }
        } else {
            round + 1
        };
        let now_done = p.done();
        let flag = &mut *t.done_flag.add(i);
        if now_done != *flag {
            *undone_delta += if now_done { -1 } else { 1 };
            *flag = now_done;
        }
    }
}

/// Merge pass (main thread): serialise the per-cell buffers into the
/// trace in canonical global id order. Reproduces byte-for-byte the
/// event order of a plain sequential scan over all nodes: per active
/// node either its `Transmit`, or — for listeners — its `LinkDrop`s in
/// adjacency order followed by its `Deliver`/`Collision`.
#[allow(clippy::too_many_arguments)]
unsafe fn emit_round<P: NodeProgram>(
    t: Tables<P>,
    cells: &CellsPtr,
    n_cells: usize,
    trace: &mut Trace,
    order: &mut Vec<u32>,
    drop_buf: &mut Vec<DropRec>,
    round: Round,
) {
    order.clear();
    drop_buf.clear();
    for c in 0..n_cells {
        let sc = &*cells.0.add(c);
        order.extend_from_slice(&sc.active);
        drop_buf.extend_from_slice(&sc.drops);
    }
    order.sort_unstable();
    drop_buf.sort_unstable_by_key(|d| (d.to, d.pos));
    let mut next_drop = 0usize;
    for &iu in order.iter() {
        let i = iu as usize;
        let id = NodeId(iu);
        let txc = *t.tx_on.add(i);
        if txc != NO_TX {
            trace.push(TraceEvent::Transmit {
                round,
                node: id,
                channel: txc,
            });
            continue;
        }
        let ch = *t.listen_on.add(i);
        if ch == NO_TX {
            continue;
        }
        while next_drop < drop_buf.len() && drop_buf[next_drop].to == iu {
            trace.push(TraceEvent::LinkDrop {
                round,
                from: NodeId(drop_buf[next_drop].from),
                to: id,
                channel: ch,
            });
            next_drop += 1;
        }
        match *t.rx_count.add(i) {
            0 => {}
            1 => trace.push(TraceEvent::Deliver {
                round,
                from: NodeId(*t.rx_from.add(i)),
                to: id,
                channel: ch,
            }),
            n => trace.push(TraceEvent::Collision {
                round,
                node: id,
                channel: ch,
                transmitters: n,
            }),
        }
    }
}

/// Borrow the shared pass inputs field-by-field (not via `&self`, so
/// the trace and scratch fields stay independently borrowable).
macro_rules! pass_env {
    ($e:expr) => {{
        let flat = $e.graph.flat();
        PassEnv {
            csr_off: flat.offsets(),
            csr_adj: flat.ids(),
            failures: &$e.failures,
            failures_empty: $e.failures_empty,
            loss: $e.loss,
            channels: $e.config.channels,
            hints: $e.failures_empty,
            trace_enabled: $e.trace.is_enabled(),
        }
    }};
}

/// Build the raw table views out of the engine's field vectors.
macro_rules! tables {
    ($e:expr) => {
        Tables {
            programs: $e.programs.as_mut_ptr(),
            meters: $e.meters.as_mut_ptr(),
            wake: $e.wake.as_mut_ptr(),
            last_acct: $e.last_acct.as_mut_ptr(),
            done_flag: $e.done_flag.as_mut_ptr(),
            tx_on: $e.tx_on.as_mut_ptr(),
            listen_on: $e.listen_on.as_mut_ptr(),
            tx_msg: $e.tx_msg.as_mut_ptr(),
            rx_count: $e.rx_count.as_mut_ptr(),
            rx_from: $e.rx_from.as_mut_ptr(),
        }
    };
}

/// Lock-step simulator binding one [`NodeProgram`] to each live graph node.
pub struct Engine<'g, P: NodeProgram> {
    graph: &'g Graph,
    config: EngineConfig,
    programs: Vec<Option<P>>,
    meters: Vec<EnergyMeter>,
    failures: FailurePlan,
    /// Cached `failures.is_empty()` — lets the per-node liveness and link
    /// checks skip HashMap probes entirely on the (common) clean runs.
    failures_empty: bool,
    /// Failure-affected nodes in id order, precomputed once per plan so the
    /// round loop never re-collects/re-sorts HashMap keys.
    affected_sorted: Vec<NodeId>,
    loss: LossModel,
    trace: Trace,
    round: Round,
    /// Installed cell partition (single implicit cell until set).
    plan: Option<Arc<ShardPlan>>,
    /// Worker threads for [`Engine::run`] (capped at the cell count).
    threads: usize,
    /// Scratch: this round's transmit channel per node id ([`NO_TX`] =
    /// silent).
    tx_on: Vec<u8>,
    /// Scratch: this round's listen channel per node id ([`NO_TX`] = not
    /// listening).
    listen_on: Vec<u8>,
    /// Scratch: in-flight message per *transmitting* node id. Stale slots
    /// of earlier rounds are never read (the `tx_on` filter runs first).
    tx_msg: Vec<Option<P::Msg>>,
    /// Scratch: resolved transmitter count / sole sender per listener.
    rx_count: Vec<u32>,
    rx_from: Vec<u32>,
    /// Next round each node must be consulted in ([`NEVER`] = no program).
    wake: Vec<Round>,
    /// Last round accounted in the node's energy meter (sleep batching).
    last_acct: Vec<Round>,
    /// Cached `done()` per node, maintained incrementally.
    done_flag: Vec<bool>,
    /// Number of program-bearing nodes with `done_flag == false`.
    undone: usize,
    /// Per-cell scratch, one entry per plan cell.
    cells_scratch: Vec<CellScratch>,
    /// Merge-pass scratch (id order / sorted drops).
    order: Vec<u32>,
    drop_buf: Vec<DropRec>,
}

impl<'g, P: NodeProgram> Engine<'g, P> {
    /// Create an engine over `graph`, instantiating a program for every
    /// live node via `make`.
    pub fn new(graph: &'g Graph, config: EngineConfig, mut make: impl FnMut(NodeId) -> P) -> Self {
        assert!(config.channels >= 1, "at least one radio channel required");
        let cap = graph.capacity();
        let mut programs: Vec<Option<P>> = Vec::with_capacity(cap);
        let mut wake = vec![NEVER; cap];
        let mut done_flag = vec![false; cap];
        let mut undone = 0usize;
        for i in 0..cap {
            let id = NodeId(i as u32);
            let p = graph.is_live(id).then(|| make(id));
            if let Some(p) = &p {
                wake[i] = 1;
                done_flag[i] = p.done();
                if !done_flag[i] {
                    undone += 1;
                }
            }
            programs.push(p);
        }
        Self {
            graph,
            config,
            programs,
            meters: vec![EnergyMeter::default(); cap],
            failures: FailurePlan::new(),
            failures_empty: true,
            affected_sorted: Vec::new(),
            loss: LossModel::none(),
            trace: if config.record_trace {
                // Typical runs log a handful of events per node per phase;
                // reserving up-front avoids growth reallocations mid-run.
                Trace::enabled_with_capacity(cap * 4)
            } else {
                Trace::disabled()
            },
            round: 0,
            plan: None,
            threads: 1,
            tx_on: vec![NO_TX; cap],
            listen_on: vec![NO_TX; cap],
            tx_msg: (0..cap).map(|_| None).collect(),
            rx_count: vec![0; cap],
            rx_from: vec![0; cap],
            wake,
            last_acct: vec![0; cap],
            done_flag,
            undone,
            cells_scratch: Vec::new(),
            order: Vec::new(),
            drop_buf: Vec::new(),
        }
    }

    /// Install a failure schedule (replaces any previous one).
    pub fn set_failures(&mut self, plan: FailurePlan) {
        self.failures_empty = plan.is_empty();
        self.affected_sorted = plan.affected_nodes().collect();
        // HashMap iteration order is arbitrary; the trace must not be.
        self.affected_sorted.sort_unstable();
        self.failures = plan;
    }

    /// Install a lossy-channel model (replaces any previous one).
    pub fn set_loss(&mut self, loss: LossModel) {
        self.loss = loss;
    }

    /// Install a cell partition and a worker-thread count for
    /// [`Engine::run`]. The plan must cover exactly the
    /// program-bearing node ids. The partition and thread count are
    /// invisible in every output — they only change *where* each node's
    /// round is resolved. The plan is shared, not copied, so one plan
    /// serves every run over the same structure.
    pub fn set_shards(&mut self, plan: Arc<ShardPlan>, threads: usize) {
        let cap = self.programs.len();
        let mut covered = vec![false; cap];
        for cell in plan.cells() {
            for &iu in cell {
                let i = iu as usize;
                assert!(
                    i < cap && self.programs[i].is_some(),
                    "shard plan names node {iu} which has no program"
                );
                covered[i] = true;
            }
        }
        for (i, p) in self.programs.iter().enumerate() {
            assert!(p.is_none() || covered[i], "shard plan misses live node {i}");
        }
        self.plan = Some(plan);
        self.threads = threads.max(1);
        self.cells_scratch.clear();
    }

    /// The connectivity graph the engine runs against.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The (possibly disabled) event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Energy meter of one node.
    pub fn meter(&self, id: NodeId) -> &EnergyMeter {
        &self.meters[id.index()]
    }

    /// Energy report over all nodes that have a program.
    pub fn energy_report(&self) -> EnergyReport {
        EnergyReport::from_meters(
            self.programs
                .iter()
                .enumerate()
                .filter(|(_, p)| p.is_some())
                .map(|(i, _)| &self.meters[i]),
        )
    }

    /// Immutable view of a node's program (None for dead-id slots).
    pub fn program(&self, id: NodeId) -> Option<&P> {
        self.programs.get(id.index()).and_then(|p| p.as_ref())
    }

    /// Consume the engine, returning every node's final program state.
    pub fn into_programs(self) -> Vec<Option<P>> {
        self.programs
    }

    /// Consume the engine, returning the trace and every node's final
    /// program state — for callers that need both without cloning the
    /// (possibly large) event log.
    pub fn into_parts(self) -> (Trace, Vec<Option<P>>) {
        (self.trace, self.programs)
    }

    /// Materialise the default single-cell plan and size the per-cell
    /// scratch. Idempotent.
    fn ensure_plan(&mut self) {
        if self.plan.is_none() {
            let ids = (0..self.programs.len() as u32)
                .filter(|&i| self.programs[i as usize].is_some())
                .collect();
            self.plan = Some(Arc::new(ShardPlan::single_ascending(ids)));
        }
        let n_cells = self.plan.as_ref().unwrap().cell_count();
        if self.cells_scratch.len() != n_cells {
            self.cells_scratch = (0..n_cells).map(|_| CellScratch::default()).collect();
        }
    }

    /// Credit every remaining hinted-away round as sleep, so meters read
    /// identically to a run that consulted each node every round.
    fn flush_sleep(&mut self) {
        if !self.failures_empty {
            return;
        }
        let end = self.round;
        for (i, p) in self.programs.iter().enumerate() {
            if p.is_some() && end > self.last_acct[i] {
                self.meters[i].sleep_rounds += end - self.last_acct[i];
                self.last_acct[i] = end;
            }
        }
    }

    /// Run until all live nodes are done or the round limit is hit.
    ///
    /// With one effective worker (`threads` from [`Engine::set_shards`],
    /// capped at the cell count) the act and resolve passes run inline
    /// on the calling thread; with more, scoped workers resolve the
    /// cells concurrently behind per-pass barriers. Either way the
    /// main thread serialises the trace and checks completion, so the
    /// outputs are byte-identical at any worker count.
    pub fn run(&mut self) -> RunOutcome
    where
        P: Send,
        P::Msg: Send + Sync,
    {
        self.ensure_plan();
        let n_cells = self.cells_scratch.len();
        let workers = self.threads.min(n_cells).max(1);
        let max_rounds = self.config.max_rounds;
        let cap = self.programs.len();
        let t = tables!(self);
        let cells_ptr = CellsPtr(self.cells_scratch.as_mut_ptr());
        let env = pass_env!(self);
        let cells = self.plan.as_ref().unwrap().cells();
        let trace = &mut self.trace;
        let order = &mut self.order;
        let drop_buf = &mut self.drop_buf;
        let affected = &self.affected_sorted;
        let round_now = AtomicU64::new(self.round);
        let stop_flag = AtomicBool::new(false);
        let gate_a = Barrier::new(workers + 1);
        let gate_b = Barrier::new(workers + 1);
        let gate_c = Barrier::new(workers + 1);
        let (round, undone, stop) = std::thread::scope(|s| {
            if workers > 1 {
                for w in 0..workers {
                    let (env, cells_ptr) = (&env, &cells_ptr);
                    let (round_now, stop_flag) = (&round_now, &stop_flag);
                    let (gate_a, gate_b, gate_c) = (&gate_a, &gate_b, &gate_c);
                    s.spawn(move || loop {
                        gate_a.wait();
                        if stop_flag.load(Ordering::Acquire) {
                            break;
                        }
                        let round = round_now.load(Ordering::Acquire);
                        // Static cell → worker map: any map works (outputs
                        // are partition-invariant); a fixed one keeps each
                        // cell's scratch on one thread for the whole run.
                        // SAFETY: cells are striped over workers, so this
                        // worker alone touches cell `c`'s scratch and ids;
                        // the main thread waits at `gate_b` meanwhile.
                        unsafe {
                            for c in (w..cells.len()).step_by(workers) {
                                pass_act(env, t, &cells[c], &mut *cells_ptr.0.add(c), round);
                            }
                        }
                        gate_b.wait();
                        // SAFETY: as above; every act write landed before
                        // `gate_b`, so cross-cell `tx_on`/`tx_msg` reads
                        // see the finished round.
                        unsafe {
                            for c in (w..cells.len()).step_by(workers) {
                                pass_resolve(env, t, &mut *cells_ptr.0.add(c), round);
                            }
                        }
                        gate_c.wait();
                    });
                }
            }
            let (mut round, mut undone) = (self.round, self.undone as i64);
            let mut stop = StopReason::RoundLimit;
            while round < max_rounds {
                round += 1;
                // Death/revival notifications (trace only — the network
                // can't observe them), in the id order `set_failures`
                // precomputed.
                if trace.is_enabled() && !affected.is_empty() {
                    for &node in affected.iter() {
                        if env.failures.dies_at(node, round) {
                            trace.push(TraceEvent::NodeDeath { round, node });
                        } else if env.failures.revives_at(node, round) {
                            trace.push(TraceEvent::NodeRevive { round, node });
                        }
                    }
                }
                if workers > 1 {
                    round_now.store(round, Ordering::Release);
                    gate_a.wait();
                    gate_b.wait();
                    gate_c.wait();
                } else {
                    // SAFETY: one thread touches every cell, and the raw
                    // table views don't alias the plan/scratch/trace.
                    unsafe {
                        for (c, cell) in cells.iter().enumerate() {
                            pass_act(&env, t, cell, &mut *cells_ptr.0.add(c), round);
                        }
                        for c in 0..n_cells {
                            pass_resolve(&env, t, &mut *cells_ptr.0.add(c), round);
                        }
                    }
                }
                // SAFETY (this and the done check): the workers, if any,
                // are parked at `gate_a`, so the main thread has the
                // tables and cell scratch to itself.
                if trace.is_enabled() {
                    unsafe {
                        emit_round(t, &cells_ptr, n_cells, trace, order, drop_buf, round);
                    }
                }
                let done = if env.failures_empty {
                    unsafe {
                        for c in 0..n_cells {
                            undone += (*cells_ptr.0.add(c)).undone_delta;
                        }
                    }
                    undone == 0
                } else {
                    // Nodes dead in `round + 1` don't block completion
                    // while they're dark.
                    unsafe {
                        (0..cap).all(|i| match (*t.programs.add(i)).as_ref() {
                            None => true,
                            Some(p) => {
                                p.done() || env.failures.node_dead(NodeId(i as u32), round + 1)
                            }
                        })
                    }
                };
                if done {
                    stop = StopReason::AllDone;
                    break;
                }
            }
            if workers > 1 {
                stop_flag.store(true, Ordering::Release);
                gate_a.wait();
            }
            (round, undone, stop)
        });
        self.round = round;
        self.undone = undone.max(0) as usize;
        self.flush_sleep();
        RunOutcome {
            rounds: round,
            stop,
        }
    }
}

//! The lock-step execution engine.
//!
//! # Round structure (cell-sharded)
//!
//! Every round runs in three passes over the node-id cells of the
//! installed [`ShardPlan`] (a single implicit cell unless one is set):
//!
//! 1. **Act** — each cell takes this round's bucket off its wake
//!    calendar and calls `act()` on those ids only, filling flat
//!    struct-of-arrays scratch tables: `tx_on` (transmit channel per id),
//!    `listen_on`, and `tx_msg` (the message, stored only for
//!    transmitters). Each cell also lists its transmitters.
//! 2. **Resolve** — every transmitter's row of the graph's flattened
//!    adjacency ([`Graph::flat`], built once per topology and shared by
//!    every run over it) is walked once: the transmitter is counted at
//!    each neighbour listening on its channel over a live link, unless
//!    the loss model drops that reception (buffered as a drop record).
//!    Then each cell meters its consulted nodes, applies `on_receive`
//!    for listeners with exactly one sender, and queues every consulted
//!    node's next wake in its calendar. With several workers, each walks
//!    every transmitter but counts only at listeners of its own cells (a
//!    per-id owner column says which), so writes stay within the
//!    worker's cells and cells resolve concurrently.
//! 3. **Merge** — the per-cell and per-worker buffers are serialised
//!    into the trace in canonical global id order and the done/undone
//!    counters are aggregated, in deterministic cell order.
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
//! next round they could possibly act in. Each cell keeps a wake
//! calendar — one list of ids per upcoming round, linked through a
//! per-id column — and the act pass consults only the ids listed for
//! its round, crediting the skipped rounds to the sleep meter in one
//! batch. Because a skipped node neither transmits, listens, nor
//! mutates state, the run is observationally identical to consulting it
//! every round. Per Theorem 1 a CFF node is awake O(δ·k + Δ) rounds,
//! and delivery walks only the transmitters' rows, so program
//! callbacks, reception counting and meter updates all track *energy*.
//! Besides building the engine, the per-id work left in a run is
//! seeding the calendars when it starts (one `next_wake` call per
//! program) and crediting the trailing sleep when it ends. Hints are ignored when a failure plan is installed
//! (dead rounds must not be mis-credited as sleep): every node is then
//! due every round, and a node found dead is queued again for the next.

use crate::action::Action;
use crate::energy::{EnergyMeter, EnergyReport};
use crate::failure::FailurePlan;
use crate::loss::LossModel;
use crate::shard::ShardPlan;
use crate::trace::{Trace, TraceEvent};
use crate::Round;
use dsnet_graph::{Graph, NodeId};
use std::collections::VecDeque;
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
    /// The engine asks once when a run starts (`now` = the last round
    /// already run, so 0 on a fresh engine) and again after every round
    /// in which it consulted the node, so a program woken early by
    /// `on_receive` can shorten its own schedule. Hints are ignored while
    /// a failure plan is installed.
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

/// End of a wake-calendar list (ids stay below `u32::MAX`).
const NIL: u32 = u32::MAX;

/// A reception destroyed by channel loss, buffered per worker during
/// the resolve pass.
#[derive(Debug, Clone, Copy)]
struct DropRec {
    to: u32,
    from: u32,
}

/// One cell's wake calendar: `due[j]` heads the list (linked through
/// the engine's per-id `next` column) of the cell's ids to consult in
/// round `base + j`.
#[derive(Debug, Default)]
struct Calendar {
    due: VecDeque<u32>,
    base: Round,
    /// The round limit: a later wake is dropped, as its round never runs.
    last: Round,
}

impl Calendar {
    /// Empty the calendar, its first bucket now round `base`.
    fn reset(&mut self, base: Round, last: Round) {
        self.due.clear();
        self.base = base;
        self.last = last;
    }

    /// Head of the list due in round `base` ([`NIL`] if none); the
    /// calendar moves on to the next round.
    fn take(&mut self) -> u32 {
        self.base += 1;
        self.due.pop_front().unwrap_or(NIL)
    }

    /// Queue id `i` for round `wake ≥ base`.
    ///
    /// # Safety
    /// `next` must be the engine's per-id link column, `i` must index
    /// it, and no other thread may touch `next[i]` (true for ids of a
    /// cell the caller owns).
    unsafe fn queue(&mut self, next: *mut u32, i: u32, wake: Round) {
        if wake > self.last {
            return;
        }
        let j = (wake - self.base) as usize;
        if self.due.len() <= j {
            self.due.resize(j + 1, NIL);
        }
        *next.add(i as usize) = self.due[j];
        self.due[j] = i;
    }
}

/// The round to consult `p` in after the `now` callbacks: its wake
/// hint when hints are honoured, else the next round.
fn wake_round<P: NodeProgram>(p: &P, now: Round, hints: bool) -> Round {
    let hint = if hints { p.next_wake(now) } else { None };
    hint.map_or(now + 1, |w| w.max(now + 1))
}

/// Per-cell scratch, reused across rounds. Written only by the worker
/// that owns the cell; read by the main thread during the merge pass.
#[derive(Debug, Default)]
struct CellScratch {
    calendar: Calendar,
    /// Nodes consulted this round (calendar order).
    active: Vec<u32>,
    /// Net change this round to the global not-yet-done count.
    undone_delta: i64,
}

/// Raw views of the per-node struct-of-arrays tables, so the act and
/// resolve passes run the same code inline and on scoped workers.
/// Within a round, each node id is touched by exactly one cell and each
/// cell by exactly one worker, so all writes through these pointers are
/// disjoint; cross-cell *reads* (`tx_on`, `listen_on`, `tx_msg`) only
/// target values frozen by the previous pass barrier.
struct Tables<P: NodeProgram> {
    programs: *mut Option<P>,
    meters: *mut EnergyMeter,
    next: *mut u32,
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

// SAFETY: see `Tables` — per-node writes are partitioned: `programs`,
// `meters`, `next`, `last_acct`, `done_flag`, `tx_on`, `listen_on` and
// `tx_msg` of an id are written only by the worker owning its cell, and
// `rx_count`/`rx_from` by that same worker (the owner column maps each id
// to the worker of its cell). The barrier protocol orders cross-cell
// reads after the writes they observe. `P: Send` lets `&mut P` callbacks
// run on a worker thread; `P::Msg: Sync + Send` covers cross-thread
// `&Msg` reads and the final drop of buffered messages on the main
// thread.
unsafe impl<P: NodeProgram + Send> Send for Tables<P> where P::Msg: Send + Sync {}
unsafe impl<P: NodeProgram + Send> Sync for Tables<P> where P::Msg: Send + Sync {}

/// Pointer to a per-cell or per-worker scratch array, shared across
/// workers that index disjoint entries (or only read, in a pass where
/// nobody writes).
struct Shared<T>(*mut T);
// SAFETY: workers only reach entries they own, or read entries that no
// thread writes until the next barrier; `T: Send` covers entries that
// are written on a worker and read or dropped on the main thread.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

/// Shared read-only inputs of the act/resolve passes.
struct PassEnv<'a> {
    csr_off: &'a [u32],
    csr_adj: &'a [NodeId],
    /// Worker owning each id's cell; empty with one worker.
    owner: &'a [u32],
    failures: &'a FailurePlan,
    failures_empty: bool,
    loss: LossModel,
    channels: u8,
    /// Sleep-skip hints honoured (no failure plan installed).
    hints: bool,
    trace_enabled: bool,
}

/// Act pass over one cell: clear the previous round's marks, consult
/// the ids of this round's calendar bucket, and fill the transmit/listen
/// tables and the cell's transmitter list `tx`.
///
/// # Safety
/// `sc` and `tx` must be the exclusive scratch of this cell, and its
/// calendar must hold only ids the cell owns (guaranteed by
/// `ShardPlan`, which `Engine::seed_calendars` reads).
unsafe fn pass_act<P: NodeProgram>(
    env: &PassEnv<'_>,
    t: Tables<P>,
    sc: &mut CellScratch,
    tx: &mut Vec<u32>,
    round: Round,
) {
    for &iu in &sc.active {
        let i = iu as usize;
        *t.tx_on.add(i) = NO_TX;
        *t.listen_on.add(i) = NO_TX;
    }
    sc.active.clear();
    tx.clear();
    sc.undone_delta = 0;
    let mut due = sc.calendar.take();
    while due != NIL {
        let iu = due;
        let i = iu as usize;
        due = *t.next.add(i);
        let id = NodeId(iu);
        if !env.failures_empty && env.failures.node_dead(id, round) {
            // A revival must be seen in its own round.
            sc.calendar.queue(t.next, iu, round + 1);
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
        let program = (*t.programs.add(i))
            .as_mut()
            .expect("calendars hold only program-bearing ids");
        match program.act(&ctx) {
            Action::Transmit { channel, msg } => {
                assert!(
                    channel < env.channels,
                    "node {id} used channel {channel} but only {} exist",
                    env.channels
                );
                *t.tx_on.add(i) = channel;
                *t.tx_msg.add(i) = Some(msg);
                tx.push(iu);
            }
            Action::Listen { channel } => {
                assert!(
                    channel < env.channels,
                    "node {id} used channel {channel} but only {} exist",
                    env.channels
                );
                *t.listen_on.add(i) = channel;
                *t.rx_count.add(i) = 0;
            }
            Action::Sleep => {}
        }
        sc.active.push(iu);
    }
}

/// First half of the resolve pass for worker `me`: walk every cell's
/// transmitters' rows and count each transmitter at the same-channel
/// listeners this worker owns, over live links the loss model spares.
///
/// # Safety
/// All `pass_act` writes must be complete (barrier in the parallel
/// path) and nobody may write `txs` until the next act pass; worker `me`
/// alone may write the `rx_*` entries of ids whose `env.owner` is `me`
/// (every id when `owner` is empty); and every id in `env.csr_adj` must
/// index the tables. It does: the rows are the engine graph's own, and
/// a graph's ids stay below its capacity, which sized the tables.
unsafe fn pass_count<P: NodeProgram>(
    env: &PassEnv<'_>,
    t: Tables<P>,
    txs: &[Vec<u32>],
    me: u32,
    drops: &mut Vec<DropRec>,
    round: Round,
) {
    drops.clear();
    for &u in txs.iter().flatten() {
        let ui = u as usize;
        let ch = *t.tx_on.add(ui);
        let from = NodeId(u);
        let row = env.csr_off[ui] as usize..env.csr_off[ui + 1] as usize;
        for &v in &env.csr_adj[row] {
            let vi = v.index();
            if *t.listen_on.add(vi) != ch || (!env.owner.is_empty() && env.owner[vi] != me) {
                continue;
            }
            if !env.failures_empty && env.failures.link_dead(v, from, round) {
                continue;
            }
            if env.loss.dropped(from, v, round) {
                if env.trace_enabled {
                    drops.push(DropRec { to: v.0, from: u });
                }
                continue;
            }
            *t.rx_count.add(vi) += 1;
            *t.rx_from.add(vi) = u;
        }
    }
}

/// Second half of the resolve pass, over one cell: meter energy, apply
/// receptions to listeners with exactly one sender, and queue each
/// consulted node's next wake and refresh its done flag.
///
/// # Safety
/// As for [`pass_act`]; additionally every `pass_count` write to this
/// cell's listeners must be complete (the same worker ran it first).
unsafe fn pass_settle<P: NodeProgram>(
    env: &PassEnv<'_>,
    t: Tables<P>,
    sc: &mut CellScratch,
    round: Round,
) {
    let CellScratch {
        calendar,
        active,
        undone_delta,
    } = sc;
    for &iu in active.iter() {
        let i = iu as usize;
        let id = NodeId(iu);
        let program = (*t.programs.add(i))
            .as_mut()
            .expect("calendars hold only program-bearing ids");
        if *t.tx_on.add(i) != NO_TX {
            (*t.meters.add(i)).record_tx(round);
        } else if *t.listen_on.add(i) == NO_TX {
            (*t.meters.add(i)).record_sleep();
        } else {
            (*t.meters.add(i)).record_listen(round);
            if *t.rx_count.add(i) == 1 {
                // Hand the message over by reference straight out of the
                // sender's slot — no per-delivery clone. The slot was
                // filled this round (the sender is on the air) and no act
                // pass runs concurrently with resolve.
                let from = *t.rx_from.add(i);
                let msg = (*t.tx_msg.add(from as usize))
                    .as_ref()
                    .expect("a counted sender transmitted this round");
                let ctx = NodeCtx {
                    id,
                    round,
                    channels: env.channels,
                };
                program.on_receive(&ctx, NodeId(from), msg);
            }
        }
        calendar.queue(t.next, iu, wake_round(program, round, env.hints));
        let now_done = program.done();
        let flag = &mut *t.done_flag.add(i);
        if now_done != *flag {
            *undone_delta += if now_done { -1 } else { 1 };
            *flag = now_done;
        }
    }
}

/// Merge pass (main thread): serialise the per-cell and per-worker
/// buffers into the trace in canonical global id order. Reproduces
/// byte-for-byte the event order of a plain sequential scan over all
/// nodes: per active node either its `Transmit`, or — for listeners —
/// its `LinkDrop`s in ascending sender order followed by its
/// `Deliver`/`Collision`.
unsafe fn emit_round<P: NodeProgram>(
    t: Tables<P>,
    cells: &[CellScratch],
    drops: &[Vec<DropRec>],
    trace: &mut Trace,
    order: &mut Vec<u32>,
    drop_buf: &mut Vec<DropRec>,
    round: Round,
) {
    order.clear();
    drop_buf.clear();
    for sc in cells {
        order.extend_from_slice(&sc.active);
    }
    for d in drops {
        drop_buf.extend_from_slice(d);
    }
    order.sort_unstable();
    // `FlatAdjacency` rows are sorted by id, so ascending sender order is
    // the order a listener's own row scan would meet its senders in.
    drop_buf.sort_unstable_by_key(|d| (d.to, d.from));
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
            owner: &$e.owner,
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
            next: $e.next.as_mut_ptr(),
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
    /// Installed cell partition (`None` = one implicit cell of every
    /// program-bearing id).
    plan: Option<Arc<ShardPlan>>,
    /// Worker threads for [`Engine::run`]: the requested count capped at
    /// the cell count.
    workers: usize,
    /// Worker owning each id's cell (cells are striped over workers);
    /// empty with one worker.
    owner: Vec<u32>,
    /// Scratch: this round's transmit channel per node id ([`NO_TX`] =
    /// silent).
    tx_on: Vec<u8>,
    /// Scratch: this round's listen channel per node id ([`NO_TX`] = not
    /// listening).
    listen_on: Vec<u8>,
    /// Scratch: in-flight message per *transmitting* node id. Stale slots
    /// of earlier rounds are never read (only this round's transmitters
    /// are counted).
    tx_msg: Vec<Option<P::Msg>>,
    /// Scratch: counted senders / last counted sender per listener.
    rx_count: Vec<u32>,
    rx_from: Vec<u32>,
    /// Wake-calendar links: the next id in the same calendar bucket.
    next: Vec<u32>,
    /// Last round accounted in the node's energy meter (sleep batching).
    last_acct: Vec<Round>,
    /// Cached `done()` per node, maintained incrementally.
    done_flag: Vec<bool>,
    /// Number of program-bearing nodes with `done_flag == false`.
    undone: usize,
    /// Per-cell scratch, one entry per plan cell.
    cells_scratch: Vec<CellScratch>,
    /// Per-cell transmitters of the current round, apart from
    /// `cells_scratch` because every worker reads them all.
    cell_tx: Vec<Vec<u32>>,
    /// Per-worker drop records of the current round.
    worker_drops: Vec<Vec<DropRec>>,
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
        let mut done_flag = vec![false; cap];
        let mut undone = 0usize;
        for (i, flag) in done_flag.iter_mut().enumerate() {
            let id = NodeId(i as u32);
            let p = graph.is_live(id).then(|| make(id));
            if let Some(p) = &p {
                *flag = p.done();
                if !*flag {
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
            workers: 1,
            owner: Vec::new(),
            tx_on: vec![NO_TX; cap],
            listen_on: vec![NO_TX; cap],
            tx_msg: (0..cap).map(|_| None).collect(),
            rx_count: vec![0; cap],
            rx_from: vec![0; cap],
            next: vec![NIL; cap],
            last_acct: vec![0; cap],
            done_flag,
            undone,
            cells_scratch: Vec::new(),
            cell_tx: Vec::new(),
            worker_drops: Vec::new(),
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
        let workers = threads.min(plan.cell_count()).max(1);
        let mut covered = vec![false; cap];
        let mut owner = vec![0; if workers > 1 { cap } else { 0 }];
        for (c, cell) in plan.cells().iter().enumerate() {
            for &iu in cell {
                let i = iu as usize;
                assert!(
                    i < cap && self.programs[i].is_some(),
                    "shard plan names node {iu} which has no program"
                );
                covered[i] = true;
                if workers > 1 {
                    owner[i] = (c % workers) as u32;
                }
            }
        }
        for (i, p) in self.programs.iter().enumerate() {
            assert!(p.is_none() || covered[i], "shard plan misses live node {i}");
        }
        self.plan = Some(plan);
        self.workers = workers;
        self.owner = owner;
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

    /// Size the per-cell and per-worker scratch and fill every cell's
    /// wake calendar for a run continuing after `self.round`: under
    /// hints each program is queued for its `next_wake` (its first wake
    /// on a fresh engine), otherwise every program for the next round.
    fn seed_calendars(&mut self) {
        let n_cells = self.plan.as_ref().map_or(1, |p| p.cell_count());
        if self.cells_scratch.len() != n_cells {
            self.cells_scratch = (0..n_cells).map(|_| CellScratch::default()).collect();
            self.cell_tx = vec![Vec::new(); n_cells];
        }
        self.worker_drops.resize_with(self.workers, Vec::new);
        let (now, hints, last) = (self.round, self.failures_empty, self.config.max_rounds);
        let programs = &self.programs;
        let next = self.next.as_mut_ptr();
        let seed = |sc: &mut CellScratch, iu: u32| {
            let p = programs[iu as usize]
                .as_ref()
                .expect("cells hold only program-bearing ids");
            // SAFETY: `next` is this engine's link column, sized to the
            // graph capacity that bounds every program-bearing id, and no
            // worker runs yet.
            unsafe { sc.calendar.queue(next, iu, wake_round(p, now, hints)) };
        };
        match &self.plan {
            Some(plan) => {
                for (sc, cell) in self.cells_scratch.iter_mut().zip(plan.cells()) {
                    sc.calendar.reset(now + 1, last);
                    for &iu in cell {
                        seed(sc, iu);
                    }
                }
            }
            None => {
                let sc = &mut self.cells_scratch[0];
                sc.calendar.reset(now + 1, last);
                for (i, p) in programs.iter().enumerate() {
                    if p.is_some() {
                        seed(sc, i as u32);
                    }
                }
            }
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

    /// Run until all live nodes are done or the round limit is hit. A
    /// second call continues from the round the first one stopped at.
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
        self.seed_calendars();
        let n_cells = self.cells_scratch.len();
        let workers = self.workers;
        let max_rounds = self.config.max_rounds;
        let cap = self.programs.len();
        let t = tables!(self);
        let cells_ptr = Shared(self.cells_scratch.as_mut_ptr());
        let txs_ptr = Shared(self.cell_tx.as_mut_ptr());
        let drops_ptr = Shared(self.worker_drops.as_mut_ptr());
        let env = pass_env!(self);
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
                    let (env, cells_ptr, txs_ptr, drops_ptr) =
                        (&env, &cells_ptr, &txs_ptr, &drops_ptr);
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
                        // cell's scratch on one thread for the whole run,
                        // and `set_shards` built the owner column from it.
                        // SAFETY: cells are striped over workers, so this
                        // worker alone touches cell `c`'s scratch, its
                        // transmitter list and its ids; the main thread
                        // waits at `gate_b` meanwhile.
                        unsafe {
                            for c in (w..n_cells).step_by(workers) {
                                pass_act(
                                    env,
                                    t,
                                    &mut *cells_ptr.0.add(c),
                                    &mut *txs_ptr.0.add(c),
                                    round,
                                );
                            }
                        }
                        gate_b.wait();
                        // SAFETY: every act write landed before `gate_b`,
                        // so the transmitter lists and the `tx_on`,
                        // `listen_on` and `tx_msg` tables are frozen until
                        // `gate_c`; this worker writes only the `rx_*`
                        // entries the owner column gives it, its own drop
                        // buffer and its own cells.
                        unsafe {
                            let txs = std::slice::from_raw_parts(txs_ptr.0, n_cells);
                            let drops = &mut *drops_ptr.0.add(w);
                            pass_count(env, t, txs, w as u32, drops, round);
                            for c in (w..n_cells).step_by(workers) {
                                pass_settle(env, t, &mut *cells_ptr.0.add(c), round);
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
                        for c in 0..n_cells {
                            let (sc, tx) = (&mut *cells_ptr.0.add(c), &mut *txs_ptr.0.add(c));
                            pass_act(&env, t, sc, tx, round);
                        }
                        let txs = std::slice::from_raw_parts(txs_ptr.0, n_cells);
                        pass_count(&env, t, txs, 0, &mut *drops_ptr.0, round);
                        for c in 0..n_cells {
                            pass_settle(&env, t, &mut *cells_ptr.0.add(c), round);
                        }
                    }
                }
                // SAFETY (this and the done check): the workers, if any,
                // are parked at `gate_a`, so the main thread has the
                // tables and the cell and worker scratch to itself.
                if trace.is_enabled() {
                    unsafe {
                        let cells = std::slice::from_raw_parts(cells_ptr.0, n_cells);
                        let drops = std::slice::from_raw_parts(drops_ptr.0, workers);
                        emit_round(t, cells, drops, trace, order, drop_buf, round);
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

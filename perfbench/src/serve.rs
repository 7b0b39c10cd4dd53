//! `serve_mix`: wire commands from 2 TCP-loopback connections to an
//! in-process daemon (default reactor engine and shard count) holding
//! ~2,000 resident 60-node tenants with 2 multicast groups.
//!
//! Each connection owns half of the tenants and drives them in a closed
//! loop: every operation picks one of its tenants by seed and sends that
//! tenant the next command of its [`SCRIPT`]. Reads are CFF, DFO and
//! multicast broadcasts, snapshot and peek; writes are kill/revive,
//! move_in/move_out, repair, 1-epoch mobility, lossy reliable CFF with
//! retries, and create/destroy churn. Because a tenant only ever hears
//! from one connection, its command stream — and so its deterministic
//! event stream — is a pure function of the seed, whatever the
//! interleaving.
//!
//! The client side is this crate's own: `protocol::encode_request_bytes`,
//! the frame round trip, and `decode_response_bytes` are called here so
//! that each gets its own span.

use crate::report::{end_to_end, peak_rss_mib, ratio, Layers, Load, Report, Split};
use crate::trace::Tracer;
use crate::{fnv, timed, traced_op, Gen, Params, Size, FNV_BASIS};
use dsnet::geom::rng::derive_seed;
use dsnet::{CommandRecord, CommandStatus, NetSession, Protocol, SessionCommand, SessionSpec};
use dsnet_server::json::Json;
use dsnet_server::protocol::{
    decode_response_bytes, encode_request_bytes, read_frame_bytes, write_frame_bytes, Body,
    ErrKind, FrameFormat, Op, Request, WireError,
};
use dsnet_server::{ServeOptions, Server};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "serve_mix";
/// Tail percentile reported as `op_tail_ms`: p90. p99 has thousands of
/// samples beyond it, but its quartile spread across ten runs reached
/// 15.3%, past the tenth it must hold within (see README.md).
pub const TAIL_PCT: f64 = 90.0;
/// Load connections, one closed-loop thread each.
const CONNS: usize = 2;
/// Multicast groups per tenant. Every other part of a tenant's spec is
/// `SessionSpec::default()`: 60 nodes on the paper's 10×10 field, 10%
/// membership per group.
const GROUPS: u16 = 2;

fn tenants(size: Size) -> usize {
    match size {
        Size::Full => 2_000,
        Size::Tiny => 16,
    }
}

fn setups(size: Size) -> usize {
    match size {
        Size::Full => 5,
        Size::Tiny => 1,
    }
}

/// Operations per connection whose outputs are pinned.
pub fn pinned_ops(size: Size) -> u64 {
    match size {
        Size::Full => 2_000,
        Size::Tiny => 200,
    }
}

/// What one operation asks of a tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Cff,
    Dfo,
    Multicast,
    Snapshot,
    Peek,
    Rcff,
    Kill,
    Revive,
    MoveIn,
    MoveOut,
    Repair,
    Mobility,
    Churn,
}

/// One tenant lifetime, command by command. It starts with the
/// repository's `serve_sessions` script (`crates/server/src/perf.rs`):
/// CFF broadcast, kill, DFO broadcast, move-out, snapshot, one of each,
/// with a revive after the DFO broadcast so the kill is undone. It goes
/// on with one command of each kind that script leaves out: multicast,
/// peek, move-in, repair, 1-epoch mobility and lossy reliable CFF. Every
/// command takes the wire protocol's defaults for what the script does
/// not set. `Churn` ends the lifetime: the tenant is destroyed and its
/// successor created, two operations. So each kind is one in fourteen
/// operations, and churn bounds every session's record history, which
/// keeps the daemon's memory and per-command cost steady along a run.
const SCRIPT: &[Kind] = &[
    Kind::Cff,
    Kind::Kill,
    Kind::Dfo,
    Kind::Revive,
    Kind::MoveOut,
    Kind::Snapshot,
    Kind::Multicast,
    Kind::Peek,
    Kind::MoveIn,
    Kind::Repair,
    Kind::Mobility,
    Kind::Rcff,
    Kind::Churn,
];

/// Lossy reliable CFF: the loss and retries of `campaign_sweep`'s lossy
/// cell (10%, 3 retries).
const RCFF_LOSS_PPM: u32 = 100_000;
const RCFF_RETRIES: u32 = 3;

/// Per-kind label of `session.apply_us.<label>`.
fn apply_label(k: Kind) -> Option<&'static str> {
    Some(match k {
        Kind::Cff => "session.apply_us.cff",
        Kind::Dfo => "session.apply_us.dfo",
        Kind::Rcff => "session.apply_us.rcff",
        Kind::Multicast => "session.apply_us.multicast",
        Kind::Snapshot => "session.apply_us.snapshot",
        Kind::Kill => "session.apply_us.kill",
        Kind::Revive => "session.apply_us.revive",
        Kind::MoveIn => "session.apply_us.move_in",
        Kind::MoveOut => "session.apply_us.move_out",
        Kind::Repair => "session.apply_us.repair",
        Kind::Mobility => "session.apply_us.mobility",
        Kind::Peek | Kind::Churn => return None,
    })
}

fn broadcast(protocol: Protocol, loss_ppm: u32, retries: u32, floor: u32) -> SessionCommand {
    SessionCommand::Broadcast {
        protocol,
        source: None,
        channels: 1,
        loss_ppm,
        retries,
        min_delivery_ppm: floor,
    }
}

/// One tenant as its connection tracks it.
#[derive(Debug)]
struct Tenant {
    name: String,
    spec: SessionSpec,
    digest: u64,
    /// Node ids handed out so far (arrivals plus accepted move-ins).
    id_cap: u32,
    /// Node killed and not yet revived: broadcasts in between run with a
    /// failure and are exempt from the completion check.
    killed: Option<u32>,
    generation: u32,
    /// Position of the next command in [`SCRIPT`].
    step: usize,
    log: Option<(Vec<Option<SessionCommand>>, Vec<String>)>,
}

/// A tenant's command log and stream digest, for replay checks.
#[derive(Debug, Clone)]
pub struct TenantLog {
    /// Session name.
    pub name: String,
    /// Build spec.
    pub spec: SessionSpec,
    /// Every command applied, in order; `None` is a peek.
    pub commands: Vec<Option<SessionCommand>>,
    /// The deterministic text the daemon returned for each.
    pub lines: Vec<String>,
    /// Digest of the deterministic records the daemon returned.
    pub digest: u64,
}

impl Tenant {
    fn new(seed: u64, conn: usize, slot: usize, generation: u32, log: bool) -> Self {
        Self {
            name: format!("c{conn}-t{slot}-g{generation}"),
            spec: SessionSpec {
                seed: derive_seed(
                    seed,
                    ((conn as u64) << 40) | ((slot as u64) << 8) | u64::from(generation),
                ),
                groups: GROUPS,
                ..SessionSpec::default()
            },
            digest: FNV_BASIS,
            id_cap: SessionSpec::default().nodes as u32,
            killed: None,
            generation,
            step: 0,
            log: log.then(Default::default),
        }
    }

    fn absorb(&mut self, line: &str) {
        self.digest = fnv(fnv(self.digest, line.as_bytes()), b"\n");
    }

    fn into_log(self) -> Option<TenantLog> {
        let (commands, lines) = self.log?;
        Some(TenantLog {
            name: self.name,
            spec: self.spec,
            commands,
            lines,
            digest: self.digest,
        })
    }
}

/// The deterministic text of a command record, as the library returns it.
pub fn record_line(r: &CommandRecord) -> String {
    match &r.status {
        CommandStatus::Applied => {
            let fields: Vec<String> = r.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{}|{}|{}|{}", r.seq, r.kind, r.attempts, fields.join(","))
        }
        CommandStatus::Rejected(reason) => format!("rejected|seq {}: {reason}", r.seq),
    }
}

/// The deterministic text of a peek, as the library serves it. A peek
/// reads through the session's knowledge cache, so it moves the cache
/// counters later snapshot records report: it belongs in the stream.
pub fn peek_line(s: &NetSession) -> String {
    let net = s.network();
    let k = net.knowledge();
    let (hits, misses, patched) = net.knowledge_stats();
    format!(
        "peek|version={},nodes={},backbone={},height={},commands={},cache_hits={hits},cache_misses={misses},cache_patched={patched}",
        net.structure_version(),
        k.nodes,
        k.backbone_size,
        k.height,
        s.records().len()
    )
}

/// The same text from a `peek` response on the wire.
fn wire_peek_line(body: &Body) -> Option<String> {
    let Body::Ok(Json::Obj(pairs)) = body else {
        return None;
    };
    let fields = pairs
        .iter()
        .map(|(k, v)| Some(format!("{k}={}", v.as_i64()?)))
        .collect::<Option<Vec<_>>>()?;
    Some(format!("peek|{}", fields.join(",")))
}

/// The same text as [`record_line`] from a `cmd` response on the wire;
/// `None` for any other outcome.
fn wire_line(body: &Body) -> Option<String> {
    match body {
        Body::Ok(v) => {
            let int = |k: &str| v.get(k).and_then(Json::as_i64);
            let fields = match v.get("fields")? {
                Json::Obj(pairs) => pairs
                    .iter()
                    .map(|(k, v)| Some(format!("{k}={}", v.as_i64()?)))
                    .collect::<Option<Vec<_>>>()?,
                _ => return None,
            };
            Some(format!(
                "{}|{}|{}|{}",
                int("seq")?,
                v.get("cmd")?.as_str()?,
                int("attempts")?,
                fields.join(",")
            ))
        }
        Body::Err {
            kind: ErrKind::CommandRejected,
            detail,
        } => Some(format!("rejected|{detail}")),
        _ => None,
    }
}

/// One client connection speaking the wire protocol.
struct Wire {
    stream: TcpStream,
    next_id: u64,
    bytes_out: u64,
    bytes_in: u64,
}

impl Wire {
    fn connect(addr: &str) -> std::io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Wire {
            stream,
            next_id: 1,
            bytes_out: 0,
            bytes_in: 0,
        })
    }

    /// One request/response exchange; returns the body and the span of
    /// the frame round trip.
    fn call(&mut self, op: Op, tr: &mut Tracer) -> Result<(Body, Option<u32>), WireError> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Request { id, op };
        let bytes = tr.span("codec.encode", || {
            encode_request_bytes(&req, FrameFormat::Json)
        });
        tr.enter("net.round_trip");
        let sent = write_frame_bytes(&mut self.stream, &bytes);
        let payload = sent.and_then(|()| read_frame_bytes(&mut self.stream));
        let rt = tr.exit();
        let payload = payload?;
        self.bytes_out += 4 + bytes.len() as u64;
        self.bytes_in += 4 + payload.len() as u64;
        let resp = tr
            .span("codec.decode", || {
                decode_response_bytes(&payload, FrameFormat::Json)
            })
            .map_err(|f| WireError::Malformed(f.detail().to_string()))?;
        if resp.id != id {
            return Err(WireError::Malformed(format!(
                "response id {} for request {id}",
                resp.id
            )));
        }
        Ok((resp.body, rt))
    }
}

/// What one connection measured.
#[derive(Debug, Default)]
struct ConnStats {
    load: Load,
    split: Split,
    rejected: u64,
    errors: Vec<String>,
    incomplete: u64,
    incomplete_lines: Vec<String>,
    prefix: Option<(u64, u64)>,
    apply_us: Vec<(&'static str, u64, u64)>,
    overhead_ns: (u64, u64),
    summary: crate::trace::Summary,
    bytes: (u64, u64),
    logs: Vec<TenantLog>,
}

impl ConnStats {
    /// Run `call` as the connection's next operation: count it, trace it
    /// if it is a traced one, and record its latency.
    fn operation<T>(
        &mut self,
        p: &Params,
        tr: &mut Tracer,
        call: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, bool) {
        let op = self.load.lat_ns.len() as u64 + 1;
        let traced = traced_op(p, op);
        tr.begin_op(op, traced);
        let t0 = Instant::now();
        tr.enter("op");
        let out = call(tr);
        tr.exit();
        let ns = t0.elapsed().as_nanos() as u64;
        self.load.lat_ns.push(ns);
        self.split.add(traced, ns);
        (out, traced)
    }

    fn apply(&mut self, label: &'static str, us: u64) {
        match self.apply_us.iter_mut().find(|(l, _, _)| *l == label) {
            Some(e) => {
                e.1 += us;
                e.2 += 1;
            }
            None => self.apply_us.push((label, us, 1)),
        }
    }
}

/// Fold of every tenant digest a connection has produced, in slot order
/// then retirement order.
fn conn_digest(tenants: &[Tenant], retired: &[(String, u64)]) -> u64 {
    let mut h = FNV_BASIS;
    let live = tenants.iter().map(|t| (t.name.as_str(), t.digest));
    for (name, d) in live.chain(retired.iter().map(|(n, d)| (n.as_str(), *d))) {
        h = fnv(fnv(h, name.as_bytes()), &d.to_le_bytes());
    }
    h
}

struct Conn {
    wire: Wire,
    tenants: Vec<Tenant>,
}

fn create(wire: &mut Wire, t: &Tenant, tr: &mut Tracer) -> Result<(), String> {
    let op = Op::Create {
        session: t.name.clone(),
        spec: t.spec.clone(),
    };
    match wire.call(op, tr) {
        Ok((Body::Ok(_), _)) => Ok(()),
        Ok((body, _)) => Err(format!("create {}: {body:?}", t.name)),
        Err(e) => Err(format!("create {}: {e}", t.name)),
    }
}

/// Boot a daemon and create every tenant over the load connections.
fn setup(p: &Params, log: bool) -> (Server, Vec<Conn>) {
    let n = tenants(p.size);
    let server = Server::start(&ServeOptions {
        tcp: Some("127.0.0.1:0".into()),
        max_sessions: n + 64,
        ..ServeOptions::default()
    })
    .expect("bind an ephemeral loopback port");
    let addr = server
        .tcp_addr()
        .expect("a TCP listener was requested")
        .to_string();
    let conns = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let addr = &addr;
                s.spawn(move || {
                    let mut wire = Wire::connect(addr).expect("connect to the daemon");
                    let mut off = Tracer::new(false, Instant::now());
                    // Stagger the first lifetimes so churn runs at its
                    // steady rate from the first operation on; no tenant
                    // starts between a kill and its revive.
                    let mut g = Gen::new(p.seed, 0xA6E + c as u64);
                    let starts: Vec<usize> = (0..SCRIPT.len())
                        .filter(|&i| !matches!(SCRIPT[i], Kind::Dfo | Kind::Revive))
                        .collect();
                    let tenants: Vec<Tenant> = (c..n)
                        .step_by(CONNS)
                        .map(|slot| {
                            let mut t = Tenant::new(p.seed, c, slot, 0, log);
                            t.step = starts[g.below(starts.len() as u64) as usize];
                            t
                        })
                        .collect();
                    for t in &tenants {
                        create(&mut wire, t, &mut off).expect("resident tenants fit the capacity");
                    }
                    Conn { wire, tenants }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up thread"))
            .collect()
    });
    (server, conns)
}

fn stop(server: Server, conns: Vec<Conn>) {
    drop(conns);
    server.begin_shutdown();
    server.wait();
}

/// Drive one connection until `window` has passed.
fn drive(
    p: &Params,
    c: usize,
    conn: &mut Conn,
    start: Instant,
    window: Duration,
    epoch: Instant,
) -> ConnStats {
    let mut st = ConnStats::default();
    let mut g = Gen::new(p.seed, 0x5E7E + c as u64);
    let mut tr = Tracer::new(false, epoch);
    let mut retired: Vec<(String, u64)> = Vec::new();
    let pin_at = pinned_ops(p.size);
    'load: while start.elapsed() < window {
        let slot = g.below(conn.tenants.len() as u64) as usize;
        let t = &mut conn.tenants[slot];
        let kind = SCRIPT[t.step];
        t.step += 1;
        // Node ids are drawn from the tenant's non-sink ids.
        let node = 1 + g.below(u64::from(t.id_cap - 1)) as u32;
        let field = u64::from(t.spec.field_milli);
        let cmd = match kind {
            Kind::Cff => Some(broadcast(Protocol::ImprovedCff, 0, 0, 0)),
            Kind::Dfo => Some(broadcast(Protocol::Dfo, 0, 0, 0)),
            Kind::Rcff => Some(broadcast(
                Protocol::ReliableCff,
                RCFF_LOSS_PPM,
                RCFF_RETRIES,
                0,
            )),
            Kind::Multicast => Some(SessionCommand::Multicast {
                group: (g.below(u64::from(GROUPS))) as u16,
                source: None,
            }),
            Kind::Snapshot => Some(SessionCommand::Snapshot),
            Kind::Kill => {
                t.killed = Some(node);
                Some(SessionCommand::Kill { node })
            }
            Kind::Revive => Some(SessionCommand::Revive {
                node: t.killed.take().expect("the script revives after a kill"),
            }),
            Kind::MoveIn => Some(SessionCommand::MoveIn {
                x_milli: g.below(field + 1) as i64,
                y_milli: g.below(field + 1) as i64,
                groups: Vec::new(),
            }),
            Kind::MoveOut => Some(SessionCommand::MoveOut { node }),
            Kind::Repair => Some(SessionCommand::Repair { node }),
            Kind::Mobility => Some(SessionCommand::Mobility {
                epochs: 1,
                movers: 1,
                step_milli: 500,
            }),
            Kind::Peek | Kind::Churn => None,
        };
        let session = t.name.clone();
        let op = match (&cmd, kind) {
            (Some(cmd), _) => Op::Cmd {
                session,
                cmd: cmd.clone(),
            },
            (None, Kind::Peek) => Op::Peek { session },
            _ => Op::Destroy { session },
        };
        let exempt = t.killed.is_some();
        let (result, traced) = st.operation(p, &mut tr, |tr| conn.wire.call(op, tr));
        let (body, rt) = match result {
            Ok(r) => r,
            Err(e) => {
                st.errors.push(format!("wire: {e}"));
                break 'load;
            }
        };
        let t = &mut conn.tenants[slot];
        match (&cmd, &body) {
            (Some(c), _) => {
                let line = wire_line(&body);
                match &line {
                    Some(line) => t.absorb(line),
                    None => st.errors.push(format!("{}: {body:?}", t.name)),
                }
                if let Some((cmds, lines)) = &mut t.log {
                    cmds.push(Some(c.clone()));
                    lines.extend(line);
                }
                match &body {
                    Body::Ok(v) => {
                        if let (Some(label), Some(us)) =
                            (apply_label(kind), v.get("wall_us").and_then(Json::as_i64))
                        {
                            let us = us as u64;
                            st.apply(label, us);
                            st.apply("session.apply_us", us);
                            tr.inner(rt, "session.apply", us * 1_000);
                            if traced {
                                let rt_ns = tr.spans()[rt.expect("traced") as usize];
                                let span = rt_ns.end_ns - rt_ns.start_ns;
                                st.overhead_ns.0 += span.saturating_sub(us * 1_000);
                                st.overhead_ns.1 += 1;
                            }
                        }
                        let f = v.get("fields");
                        let field = |k| f.and_then(|f| f.get(k)).and_then(Json::as_i64);
                        if kind == Kind::MoveIn {
                            let id = field("node").unwrap_or(0) as u32;
                            t.id_cap = t.id_cap.max(id + 1);
                        }
                        // The paper's multicast reuses broadcast slots and
                        // carries no delivery guarantee (muted transmitters
                        // can break Time-Slot Condition 2), so only
                        // broadcasts are held to completion.
                        let checked = matches!(kind, Kind::Cff | Kind::Dfo);
                        if checked
                            && !exempt
                            && (field("delivered").is_none()
                                || field("delivered") != field("targets"))
                        {
                            st.incomplete += 1;
                            if st.incomplete_lines.len() < 3 {
                                st.incomplete_lines.push(format!(
                                    "{}: {kind:?} {:?}",
                                    t.name,
                                    wire_line(&body)
                                ));
                            }
                        }
                    }
                    Body::Err {
                        kind: ErrKind::CommandRejected,
                        ..
                    } => st.rejected += 1,
                    _ => {}
                }
            }
            (None, Body::Ok(_)) if kind == Kind::Churn => {
                // Destroyed: retire the digest, then create the
                // successor as a second operation.
                let next = Tenant::new(p.seed, c, slot, t.generation + 1, t.log.is_some());
                let old = std::mem::replace(t, next);
                retired.push((old.name.clone(), old.digest));
                st.logs.extend(old.into_log());
                let wire = &mut conn.wire;
                let successor = &conn.tenants[slot];
                let (created, _) = st.operation(p, &mut tr, |tr| create(wire, successor, tr));
                if let Err(e) = created {
                    st.errors.push(e);
                    break 'load;
                }
            }
            (None, Body::Ok(_)) => {
                let line = wire_peek_line(&body);
                match &line {
                    Some(line) => t.absorb(line),
                    None => st.errors.push(format!("{}: {body:?}", t.name)),
                }
                if let Some((cmds, lines)) = &mut t.log {
                    cmds.push(None);
                    lines.extend(line);
                }
            }
            (None, other) => st.errors.push(format!("{kind:?}: {other:?}")),
        }
        if st.prefix.is_none() && st.load.lat_ns.len() as u64 >= pin_at {
            st.prefix = Some((conn_digest(&conn.tenants, &retired), st.rejected));
        }
    }
    st.load.wall_s = start.elapsed().as_secs_f64();
    st.summary = tr.summary();
    st.bytes = (conn.wire.bytes_out, conn.wire.bytes_in);
    st
}

/// Run the workload.
pub fn run(p: &Params) -> Report {
    run_logged(p, false).0
}

/// Run the workload; with `log`, also return every tenant's command log
/// and stream digest.
pub fn run_logged(p: &Params, log: bool) -> (Report, Vec<TenantLog>) {
    let mut r = Report::new(NAME);
    let epoch = Instant::now();
    // The load runs on the first daemon; the other set-ups come after
    // it, so they cannot move the loaded daemon's peak resident set.
    let ((server, mut conns), first) = timed(|| setup(p, log));
    let mut setups_s = vec![first];

    let window = Duration::from_secs_f64(p.seconds);
    let start = Instant::now();
    let stats: Vec<ConnStats> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| s.spawn(move || drive(p, c, conn, start, window, epoch)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    // The loaded daemon's peak, read before the set-ups that follow: in
    // four of six 8-s runs their fresh daemons raised the process peak
    // by 4-11 MiB, while the peak at this point stayed within 88-89 MiB.
    let peak_mib = peak_rss_mib();
    let mut logs = Vec::new();
    for (st, conn) in stats.iter().zip(&mut conns) {
        logs.extend(st.logs.iter().cloned());
        logs.extend(
            std::mem::take(&mut conn.tenants)
                .into_iter()
                .filter_map(Tenant::into_log),
        );
    }
    stop(server, conns);
    for _ in 1..setups(p.size) {
        let ((server, conns), secs) = timed(|| setup(p, false));
        setups_s.push(secs);
        stop(server, conns);
    }

    let mut load = Load::default();
    let mut split = Split::default();
    let mut summary = crate::trace::Summary::default();
    let (mut rejected, mut incomplete, mut errors) = (0u64, 0u64, Vec::new());
    let mut observed = Vec::new();
    const PIN_NAMES: [(&str, &str); CONNS] = [
        ("conn0_digest", "conn0_rejected"),
        ("conn1_digest", "conn1_rejected"),
    ];
    for (st, (dn, rn)) in stats.iter().zip(PIN_NAMES) {
        load.merge(&st.load);
        split.merge(&st.split);
        summary.merge(&st.summary);
        rejected += st.rejected;
        incomplete += st.incomplete;
        errors.extend(st.errors.iter().cloned());
        if let Some((d, rj)) = st.prefix {
            observed.extend([(dn, d), (rn, rj)]);
        }
    }
    let ops = load.lat_ns.len() as u64;
    r.attempted = ops;
    r.failed = errors.len() as u64 + incomplete;
    r.check("operations completed", ops > 0, format!("{ops} commands"));
    r.check(
        "no wire errors and no typed errors but command_rejected",
        errors.is_empty(),
        errors
            .iter()
            .take(3)
            .cloned()
            .collect::<Vec<_>>()
            .join("; "),
    );
    r.check(
        "every loss-free broadcast without a killed node completes",
        incomplete == 0,
        format!(
            "{incomplete} did not {}",
            stats
                .iter()
                .flat_map(|s| s.incomplete_lines.iter().cloned())
                .collect::<Vec<_>>()
                .join("; ")
        ),
    );
    if observed.len() == 2 * CONNS {
        r.check_pins(&observed, p.expected_pins(NAME).as_deref());
    } else {
        r.check(
            "pinned prefix reached",
            false,
            format!(
                "{ops} commands, {} per connection pinned",
                pinned_ops(p.size)
            ),
        );
    }

    if !p.trace {
        end_to_end(&mut r, &load, TAIL_PCT, &setups_s, peak_mib);
        return (r, logs);
    }
    let mut l = Layers::new();
    let mut apply: Vec<(&'static str, u64, u64)> = Vec::new();
    for st in &stats {
        for &(label, us, n) in &st.apply_us {
            match apply.iter_mut().find(|(l, _, _)| *l == label) {
                Some(e) => {
                    e.1 += us;
                    e.2 += n;
                }
                None => apply.push((label, us, n)),
            }
        }
    }
    for (label, us, n) in apply {
        l.set(label, ratio(us as f64, n as f64));
    }
    let (ovh_ns, ovh_n) = stats.iter().fold((0, 0), |a, st| {
        (a.0 + st.overhead_ns.0, a.1 + st.overhead_ns.1)
    });
    let (out_b, in_b) = stats
        .iter()
        .fold((0, 0), |a, st| (a.0 + st.bytes.0, a.1 + st.bytes.1));
    l.set("codec.encode_us", summary.mean_us("codec.encode"));
    l.set("codec.decode_us", summary.mean_us("codec.decode"));
    l.set("codec.bytes_out", ratio(out_b as f64, ops as f64));
    l.set("codec.bytes_in", ratio(in_b as f64, ops as f64));
    l.set(
        "server.overhead_us",
        ratio(ovh_ns as f64 / 1e3, ovh_n as f64),
    );
    l.set("server.rejected", rejected as f64);
    l.set("server.errors", errors.len() as f64);
    l.overhead(&split, CONNS);
    l.finish(&mut r, &summary);
    (r, logs)
}

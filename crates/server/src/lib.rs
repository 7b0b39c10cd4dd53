#![warn(missing_docs)]

//! # dsnet-server — a long-lived multi-tenant simulation service
//!
//! This crate turns the `dsnet` library into a daemon: many concurrent,
//! fully isolated network sessions (tenants), each an executor over one
//! [`dsnet::SensorNetwork`], driven over a length-prefixed JSON wire
//! protocol on TCP and unix sockets.
//!
//! ## Layers
//!
//! | module | what it provides |
//! |---|---|
//! | [`json`] | re-export of the integer-only JSON value model of [`dsnet_codec`] |
//! | [`protocol`] | framing, request/response grammar, error taxonomy |
//! | [`host`] | the multi-tenant session host (capacity, drain, watch) |
//! | [`server`] | the daemon on the sharded `dsnet-netio` reactor, plus graceful shutdown and SIGINT |
//! | [`client`] | blocking client + scripted session runner |
//! | [`perf`] | the `serve_sessions` ledger scenarios (600/5k/20k) |
//!
//! The readiness layer itself (poller, wakers, frame buffers, the
//! sharded reactor) lives below this crate in `dsnet-netio`, which
//! knows nothing about the wire grammar.
//!
//! ## Determinism contract
//!
//! A scripted command sequence executed through the daemon yields a
//! per-session event stream (`stream` op, [`dsnet::session::render_stream`]
//! with timing off) byte-identical to the same sequence applied directly
//! to a [`dsnet::NetSession`]. Both paths run the same executor; the
//! server adds transport, never semantics. CI pins this with the
//! `server-reactor` determinism-smoke axis, and `tests/reactor.rs`
//! asserts it in-process.

pub mod client;
pub mod host;
pub mod json;
pub mod perf;
pub mod protocol;
pub mod server;

pub use client::{run_script, Client, ClientError, ScriptReport};
pub use host::{Host, HostConfig, HostError, PeekReport};
pub use protocol::{Body, ErrKind, Op, PayloadFault, Request, Response, WireError, MAX_FRAME};
pub use server::{install_sigint_handler, ServeOptions, Server};

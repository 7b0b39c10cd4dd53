//! The wire protocol's JSON value model.
//!
//! The codec itself lives in [`dsnet_codec`] so the campaign journal can
//! share it without depending on this crate. This module is a re-export
//! shim kept only because the benchmark (`perfbench/src/serve.rs`)
//! imports `dsnet_server::json::Json`; the next benchmark change moves
//! it to [`dsnet_codec`] and removes this module, together with the
//! one-variant [`crate::protocol::FrameFormat`] shim.

pub use dsnet_codec::{obj, parse, Json, ParseError};

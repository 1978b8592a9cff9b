//! # qb-serve
//!
//! The verify-on-change serving layer: a long-lived daemon that keeps
//! one warm [`qb_core::VerifySession`] per loaded program and re-checks
//! the paper's safe-uncomputation conditions (6.1)/(6.2) after every
//! edit, over a JSON-lines Unix-socket protocol.
//!
//! The paper's workflow is compile–verify iteration: a developer edits a
//! program that borrows dirty qubits and re-checks it after every
//! change. A one-shot `qborrow verify` pays full parse + symbolic
//! execution + encoding + solving each time; the daemon instead keeps
//! the elaborated circuit, the formula arena, the incremental encoder
//! and the CDCL solver (with all its learnt clauses) alive between
//! requests, and [`qb_core::VerifySession::apply_edit`] confines the
//! cost of an edit to the changed gate suffix.
//!
//! * [`Server`] — the socket-free request handler (sessions keyed by
//!   [`qb_lang::structural_hash`], names as aliases);
//! * [`run`] / [`ServeOptions`] — the Unix-socket accept loop behind
//!   `qborrow serve --socket <path>`;
//! * [`Client`] — the thin synchronous client behind `qborrow client`
//!   and `qborrow watch`;
//! * [`Request`] / [`Json`] — the wire protocol.
//!
//! # Examples
//!
//! Drive a server in-process (the socket layer adds only framing):
//!
//! ```
//! use qb_serve::{Json, Request, Server};
//! use qb_core::VerifyOptions;
//!
//! let mut server = Server::new(VerifyOptions::default());
//! let load = Request::Load {
//!     name: "demo".into(),
//!     source: "borrow a; X[a]; X[a];".into(),
//!     backend: None, // the daemon's default; "bdd"/"auto"/… select per session
//! };
//! let (response, _) = server.handle_line(&load.to_line());
//! let response = Json::parse(&response).unwrap();
//! assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
//!
//! let verify = Request::Verify {
//!     name: "demo".into(),
//!     targets: None,
//!     deadline_ms: None,
//!     trace: false, // true: the response carries Chrome trace-event JSON
//! };
//! let (response, _) = server.handle_line(&verify.to_line());
//! let response = Json::parse(&response).unwrap();
//! assert_eq!(response.get("all_safe").and_then(Json::as_bool), Some(true));
//! ```

mod actor;
mod client;
mod daemon;
mod json;
mod protocol;
mod router;
mod snapshot;

pub use client::{shed_retry_after, Client, RetryBudget};
pub use daemon::{run, ServeOptions, Server, ServerLimits};
pub use json::Json;
pub use protocol::{coded_error_response, error_response, render_facts, render_verdict, Request};

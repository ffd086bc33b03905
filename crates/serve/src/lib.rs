//! Real-socket serving tier for the OGSA container.
//!
//! Everything else in this workspace measures the two stacks on a
//! virtual-time simulation — deterministic, paper-faithful, and immune to
//! host noise. This crate is the wall-clock complement: it puts the same
//! container pipeline behind an actual TCP listener with HTTP/1.1
//! keep-alive and pipelining, so the throughput claims can be checked
//! under real connection concurrency instead of an in-process loop.
//!
//! Layout:
//! * [`epoll`] (Linux) — raw `epoll`/`eventfd` FFI shim; no external deps.
//! * [`http`] — zero-copy request-head parser and response writers.
//! * [`conn`] — per-connection state machine (buffered nonblocking I/O,
//!   pipelined dispatch, precise error answers).
//! * [`server`] — acceptor + per-worker epoll loops dispatching into
//!   [`ogsa_transport::Network`] handlers.
//! * [`admin`] — the live observability plane: `/metrics`, `/healthz`,
//!   `/readyz`, `/vars`, and the `/debug/trace` flight-recorder dump,
//!   served on a dedicated admin port by the same worker loops.
//! * [`loadgen`] — closed/open-loop keep-alive load generator recording
//!   into the same wall histogram the server exports, with an optional
//!   mid-run `/metrics` scrape for server-vs-client cross-checks.
//!
//! The serving tier deliberately charges **no virtual time**: the
//! simulation twin stays the paper-invariant instrument, and nothing here
//! can perturb its figures.

#[cfg(target_os = "linux")]
pub mod epoll;

pub mod admin;
pub mod conn;
pub mod http;
pub mod loadgen;
pub mod server;

pub use admin::{AdminPlane, ObsConfig, ReadyState};
pub use conn::{Advance, Conn, Dispatch, Request};
pub use http::{Head, HeadParse, HttpError, Method};
pub use loadgen::{LoadConfig, LoadMode, LoadReport, ScrapeCheck};
pub use server::{ServeConfig, ServeStats, Server};

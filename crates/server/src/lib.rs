//! `cqa serve`: a concurrent consistent-query-answering server.
//!
//! The pieces, bottom up:
//!
//! * [`json`] — a minimal, dependency-free JSON codec: integers only
//!   (so `encode ∘ decode` is an exact fixpoint), order-preserving
//!   objects, positioned decode errors.
//! * [`protocol`] — line-delimited request/response frames over that
//!   codec, plus [`FrameReader`](protocol::FrameReader): timeout-safe
//!   incremental framing that drains oversized lines and survives
//!   non-UTF-8 garbage.
//! * [`deltas`] — the signed-fact-line grammar of the `update` verb
//!   ([`parse_delta_script`]): a delta script is a fact file whose
//!   lines may carry `+`/`-` signs.
//! * [`manager`] — [`SessionManager`]:
//!   path-keyed [`SharedSession`](cqa::SharedSession)s with
//!   single-flight loading and LRU eviction under a byte budget;
//!   [`SessionManager::apply_update`] applies a delta atomically by
//!   swapping in a warm successor session.
//! * [`server`] — the TCP accept loop; control-plane requests and
//!   cache hits are answered on the connection thread, and work that
//!   may load, solve or update fans out over one shared
//!   [`minipool::Pool`] behind a bounded admission queue (excess
//!   requests are shed with `overloaded` + a `retry_after_ms` hint),
//!   per-request deadlines are enforced at pickup *and* mid-solve via a
//!   [`CancelToken`](cqa::solvers::CancelToken) polled inside the
//!   fixpoint, and worker panics are contained per request.
//! * [`client`] — the blocking client behind `cqa client` and the
//!   parity/load harnesses, with opt-in bounded exponential backoff
//!   that retries only `overloaded` and transport errors.
//! * [`chaos`] — a seeded fault-injection TCP proxy (delays, splits,
//!   drops, resets) for soak-testing the above under misbehaving
//!   networks.
//!
//! The wire grammar, error-code table and operational notes live in
//! `docs/SERVER.md`; the differential guarantee (server verdicts are
//! byte-identical to single-shot `cqa batch`) is pinned by the
//! `server_parity` suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod deltas;
pub mod json;
pub mod manager;
pub mod protocol;
pub mod server;

pub use chaos::{chaos_proxy, ChaosPlan, ChaosProxy, FaultTally};
pub use client::{backoff_delays_ms, is_retryable, render_verdicts, Client, RetryPolicy};
pub use deltas::{parse_delta_script, parse_update_script, DeltaScript};
pub use json::{decode, obj, Json, JsonError};
pub use manager::{Loader, ManagerStats, SessionManager, UpdateError};
pub use protocol::{Method, Request, Response, WireError, MAX_FRAME};
pub use server::{serve, ServeConfig, ServerHandle};

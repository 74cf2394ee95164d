//! # mwp-msg — threaded message layer with a one-port master arbiter
//!
//! The paper's experiments run over MPI on a cluster whose NICs serialize
//! concurrent transfers ("asynchronous MPI sends get serialized as soon as
//! message sizes exceed a hundred kilobytes", Section 2.2). Rust MPI
//! bindings being immature, this crate is the **custom message layer** that
//! replaces MPI for the runtime experiments:
//!
//! * [`Frame`] — a typed, length-delimited message (block payloads travel
//!   as [`bytes::Bytes`], so forwarding never copies coefficients),
//! * [`OnePort`] — a FIFO arbiter enforcing the paper's one-port model:
//!   at most one master-side transfer (send *or* receive) in flight,
//! * [`link::link`] — a bandwidth-paced link between the master and one
//!   worker: a channel to the worker, and an inbox at the master that
//!   files each frame the worker sends under its run generation as it
//!   arrives; pacing holds the port for `blocks · c_i · time_scale` wall
//!   seconds (`time_scale = 0` disables pacing for fast tests while
//!   preserving ordering semantics),
//! * [`StarNetwork`] — builds the full star from a
//!   [`mwp_platform::Platform`] and hands out master/worker endpoints,
//! * [`BufferPool`] — recycling payload buffers: every payload either
//!   endpoint builds lives in pooled storage that returns to the sender
//!   once the receiver drops the last view, making steady-state traffic
//!   allocation-free,
//! * [`Session`] — a persistent worker pool over the star: worker threads
//!   spawn once and park on blocking receives between
//!   `RUN_BEGIN`/`RUN_END` delimited runs. There is one run protocol:
//!   `Session::begin_run_on` draws a **run generation**, registers it on
//!   every link and stamps the lifecycle frames it sends the run's
//!   workers with it; the run's driver stamps every frame it sends and
//!   scopes every receive ([`MasterEndpoint::recv_deadline`]) to that
//!   generation, so any number of runs share one session's links, each
//!   link filing replies per generation. Whether runs *may* overlap, and
//!   on which workers, is the caller's business (worker memory, a one-run
//!   worker program): the layers above admit and place them, not this
//!   crate,
//! * [`sched`] — the multi-job serving tier: a
//!   [`sched::JobScheduler`] queues jobs from many caller threads and
//!   dispatches each as its own interleaved run on one shared session,
//!   plus the small-job batching hooks,
//! * [`transport`] — the socket backend ([`TransportMode::Tcp`] /
//!   [`TransportMode::Uds`]): length-prefixed, CRC32C-trailed frames over TCP or Unix-domain
//!   sockets — one socket stream type, one dial/enroll path, one
//!   master-side enrollment — so master and workers can run as separate
//!   processes or hosts; the one-port arbiter and pacing stay on the
//!   master side, and worker programs are transport-blind.
//!   Enrollment is authenticated: an HMAC challenge/response over the
//!   shared fleet secret ([`config::Config::fleet_secret`]) with protocol-version
//!   negotiation and membership-epoch checks, so only fleet members of
//!   the current generation get past the master's front door. No fault
//!   injection ships: the framing functions are public, and a test that
//!   needs a misbehaving worker builds its own faulty stream on them,
//! * [`config`] — a deployment's settings as one plain value,
//!   [`config::Config`]: handed to the master's door
//!   (`Session::accept_remote`) and the worker's dial
//!   ([`transport::enroll_with_retry`]), `Config::default()` everywhere
//!   in-process. `Config::from_env` is the one function of this crate
//!   that reads the process environment, through strict parsers.
//!
//! Worker-side receives do **not** take the port — only the master is
//! port-limited, exactly as in the model (each worker has its own link).

pub mod auth;
pub mod checksum;
pub mod config;
pub mod endpoint;
pub mod frame;
pub mod lifecycle;
pub mod link;
pub mod net;
pub mod pool;
pub mod port;
pub mod sched;
pub mod session;
pub mod transport;

pub use endpoint::{MasterEndpoint, WorkerEndpoint};
pub use frame::{Frame, FrameKind, Tag};
pub use net::StarNetwork;
pub use pool::BufferPool;
pub use port::OnePort;
pub use session::Session;
pub use transport::{TransportListener, TransportMode};

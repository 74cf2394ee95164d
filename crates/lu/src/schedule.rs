//! The blocked factorization as plain data: the ordered port operations
//! of the master.
//!
//! Section 7.2's LU is, like the paper's products, *an order of port
//! operations* on the one-port master. [`lu_schedule`] is that order — a
//! pure function of the matrix size and panel width in blocks and of each
//! worker's chunk side — and two executors walk it:
//!
//! * [`crate::runtime`] sends each op's frames through the product
//!   runtime's one master executor (`mwp_core::runtime::execute`), which
//!   answers a worker's death by re-dispatching what it lost;
//! * [`lower`] turns the ops into the [`Decision`]s of the frames the
//!   runtime sends, and [`replay`] puts them through the simulator, so the
//!   simulation ([`crate::homogeneous::simulate_homogeneous_lu`]), the
//!   pivot-size search ([`crate::heterogeneous::best_pivot_size`]) and
//!   `replay_diff` replay the very frames a run puts on the wire.
//!
//! A factorization takes one of two paths, by one rule computed from the
//! fleet's memory: **owner-computes** when every worker with a chunk side
//! holds its share of the rows, one step's pivot and `U₁₂` (`µ·r` blocks)
//! and a block in flight within the `µ_i² + 4µ_i` blocks its side
//! reserves, **streamed** otherwise.
//!
//! # Owner-computes
//!
//! The matrix's `µ`-row groups are dealt once, group `g` to the
//! `g mod P'`-th of the `P'` workers ([`LuOp::Deal`], one frame per block
//! row) — the first pivot's owner its rows and [`LuOp::Request`] first,
//! then the others — and each worker keeps its rows to the end. Step `k`,
//! pivot group `p`, with `rest` blocks after it:
//!
//! 1. **[`LuOp::Pivot`]**: the reply to `p`'s request from its owner, which
//!    factors `A₁₁`, solves its `U₁₂ = L₁₁⁻¹·A₁₂` and replies with both,
//!    final. Then its own rows that wait on the pivot take the step. The
//!    reply is a barrier: everything after it reads it.
//! 2. **[`LuOp::Forward`]** of that reply, as it is, to every other worker
//!    holding trailing rows, the next pivot's owner first: each solves its
//!    own `L₂₁ = A₂₁·U₁₁⁻¹` and updates its rows with `−L₂₁·U₁₂`.
//! 3. **[`LuOp::Lower`]** from each worker holding trailing rows: their
//!    `L₂₁` blocks, final.
//!
//! With two owners or more the steps overlap by one pivot: the request
//! for pivot `k+1` goes to its owner *ahead of* the forward of pivot `k`,
//! which starts that owner's step `k`. The owner holds it pending, updates
//! the pivot rows first when the forward comes, factors and answers, and
//! only then updates its other rows. So after step `k`'s forwards come
//! pivot `k+1`'s reply and forwards, and only then step `k`'s `L₂₁`: on
//! each link a pivot reply comes before the `L₂₁` of the step before. A
//! lone owner's step starts inside its own request, so it is asked for
//! each pivot after its `L₂₁` of the step before.
//!
//! # Streamed
//!
//! 1. **`Panel`** on worker 0: the pivot `(p, p)`, the vertical panel
//!    `(rest, p)` and the horizontal panel `(p, rest)` go out in one frame
//!    and come back factored and solved in one reply (the last step is the
//!    pivot alone) — a barrier on both sides: it reads rows the whole step
//!    before it updated, and everything after it reads its reply.
//! 2. **The trailing update** — the product `C ← C + A·B` with C the
//!    `rest × rest` trailing grid, A the solved vertical panel (negated),
//!    B the solved horizontal panel, `t = µ` — as `mwp_core`'s chunk
//!    exchanges ([`PortOp`], the step index as their `job`, coordinates in
//!    the trailing grid): the trailing rows are dealt as one band per
//!    worker that can hold a chunk, band `b` cut into pieces of worker
//!    `b`'s chunk side, and round `i` of Algorithm 1 gives each worker its
//!    band's `i`-th piece. Every chunk goes out and comes back within its
//!    step, so between steps the master holds the whole matrix.

use mwp_core::chunks::Chunk;
use mwp_core::schedule::{holding, lost, Lowering, PortOp, Schedule};
use mwp_core::MemoryLayout;
use mwp_platform::{Platform, WorkerId};
use mwp_sim::{Decision, SimError, SimReport, Simulator};
use std::ops::Range;

/// One port operation of the factorization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LuOp {
    /// The pivot chain of the step whose pivot is the block range `pivot`,
    /// with `rest` blocks of the matrix after it, on `worker`: one frame
    /// out and its reply, each `p² + 2p·rest` blocks for a `p`-wide pivot.
    Panel {
        /// The worker it is on.
        worker: WorkerId,
        /// The pivot's block rows (and columns).
        pivot: Range<usize>,
        /// Blocks of the matrix after the pivot.
        rest: usize,
    },
    /// One chunk-exchange op of a step's trailing update, or of the
    /// rebuild of rows a lost worker held.
    Chunk(PortOp),
    /// Block rows `rows`, block columns `cols` of each, dealt to `worker`,
    /// which keeps them: one frame per row.
    Deal {
        /// The worker that keeps them.
        worker: WorkerId,
        /// The block rows.
        rows: Range<usize>,
        /// Their block columns, to the matrix's right edge.
        cols: Range<usize>,
    },
    /// The request for the pivot `pivot`, with `rest` blocks after it, to
    /// the worker whose rows it is: answered once those rows wait on it —
    /// at once, or, sent ahead of the forward that starts the worker's step
    /// before, in that step once the rows have taken it. After answering,
    /// the worker's own `rows` block rows that wait on the pivot take its
    /// step.
    Request {
        /// The pivot rows' owner.
        worker: WorkerId,
        /// The pivot's block rows (and columns).
        pivot: Range<usize>,
        /// Blocks of the matrix after the pivot.
        rest: usize,
        /// Block rows of the owner's that wait on the pivot.
        rows: usize,
    },
    /// The requested pivot's reply from its rows' owner: the factored
    /// pivot and its solved `U₁₂`, `p² + p·rest` blocks for a `p`-wide
    /// pivot with `rest` blocks after it.
    Pivot {
        /// The pivot rows' owner.
        worker: WorkerId,
        /// The pivot's block rows (and columns).
        pivot: Range<usize>,
        /// Blocks of the matrix after the pivot.
        rest: usize,
    },
    /// The pivot's reply, as it came back, to `worker`, whose `rows` block
    /// rows wait on it and take the step.
    Forward {
        /// The worker it goes to.
        worker: WorkerId,
        /// The pivot's block rows (and columns).
        pivot: Range<usize>,
        /// Blocks of the matrix after the pivot.
        rest: usize,
        /// Block rows of `worker`'s that wait on the pivot.
        rows: usize,
    },
    /// The `L₂₁` blocks of `worker`'s `rows` block rows that took the step
    /// of `pivot`, back: `p` blocks a row.
    Lower {
        /// The worker they come from.
        worker: WorkerId,
        /// The pivot's block rows (and columns).
        pivot: Range<usize>,
        /// Block rows that took the step.
        rows: usize,
    },
}

impl LuOp {
    /// The chunk-exchange op it is, if any.
    pub fn chunk(&self) -> Option<&PortOp> {
        match self {
            LuOp::Chunk(op) => Some(op),
            _ => None,
        }
    }

    /// The worker it is on.
    pub fn worker(&self) -> WorkerId {
        match self {
            LuOp::Chunk(op) => op.target().1,
            LuOp::Panel { worker, .. }
            | LuOp::Deal { worker, .. }
            | LuOp::Request { worker, .. }
            | LuOp::Pivot { worker, .. }
            | LuOp::Forward { worker, .. }
            | LuOp::Lower { worker, .. } => *worker,
        }
    }

    /// Whether it brings back a step's pivot: a `Panel`, a barrier on both
    /// sides, or an owned pivot's reply, after which every op reads it.
    pub fn is_pivot(&self) -> bool {
        matches!(self, LuOp::Panel { .. } | LuOp::Pivot { .. })
    }
}

/// The right-looking factorization of an `r × r`-block matrix in panels
/// `mu` blocks wide (the last one narrower when `mu` does not divide `r`)
/// over the workers whose chunk side `sides[i]` is positive: owner-computes
/// when [`owners`] deals the rows, streamed otherwise — the module docs
/// give a step's order on either path.
///
/// # Panics
/// If the matrix has a trailing update and no worker a chunk side.
pub fn lu_schedule(r: usize, mu: usize, sides: &[usize]) -> Vec<LuOp> {
    match owners(r, mu, sides) {
        Some(owners) => owned_schedule(r, mu, &owners),
        None => streamed_schedule(r, mu, sides),
    }
}

/// Block rows of `µ`-row group `g` of an `r`-block matrix.
fn group(r: usize, mu: usize, g: usize) -> Range<usize> {
    g * mu..((g + 1) * mu).min(r)
}

/// The workers an owner-computes factorization of an `r`-block matrix in
/// `mu`-block panels deals its rows over — every worker with a chunk side,
/// `µ`-row group `g` to the `g mod P'`-th of the `P'` — when each one's
/// rows, one step's pivot and `U₁₂` (`min(µ, r)·r` blocks) and a block in
/// flight fit the `µ_i² + 4µ_i` blocks its side `sides[i]` reserves;
/// `None` when one's do not.
pub fn owners(r: usize, mu: usize, sides: &[usize]) -> Option<Vec<WorkerId>> {
    let workers: Vec<WorkerId> = (0..sides.len()).filter(|&i| sides[i] > 0).map(WorkerId).collect();
    let groups = r.div_ceil(mu);
    let fits = |n: usize, w: &WorkerId| {
        let rows: usize = (n..groups).step_by(workers.len()).map(|g| group(r, mu, g).len()).sum();
        rows * r + mu.min(r) * r < MemoryLayout::MaxReuseOverlapped.buffers_used(sides[w.index()])
    };
    (!workers.is_empty() && workers.iter().enumerate().all(|(n, w)| fits(n, w))).then_some(workers)
}

/// The owner-computes schedule over `owners` (module docs).
fn owned_schedule(r: usize, mu: usize, owners: &[WorkerId]) -> Vec<LuOp> {
    let (groups, n) = (r.div_ceil(mu), owners.len());
    let owner = |g: usize| owners[g % n];
    // Block rows of `w`'s that wait on the pivot of step `k`.
    let waiting = |k: usize, w: WorkerId| -> usize { (k + 1..groups).filter(|&g| owner(g) == w).map(|g| group(r, mu, g).len()).sum() };
    let rest = |k: usize| r - group(r, mu, k).end;
    let request = |k: usize| LuOp::Request { worker: owner(k), pivot: group(r, mu, k), rest: rest(k), rows: waiting(k, owner(k)) };
    let lowers = |k: usize| {
        owners.iter().filter(move |&&w| waiting(k, w) > 0).map(move |&worker| LuOp::Lower { worker, pivot: group(r, mu, k), rows: waiting(k, worker) })
    };
    let deal = |g: usize| LuOp::Deal { worker: owner(g), rows: group(r, mu, g), cols: 0..r };
    // The first pivot's owner gets its rows and the request before the
    // other workers get theirs.
    let (first, others): (Vec<usize>, Vec<usize>) = (0..groups).partition(|&g| owner(g) == owner(0));
    let mut ops: Vec<LuOp> = first.into_iter().map(deal).collect();
    ops.push(request(0));
    ops.extend(others.into_iter().map(deal));
    for k in 0..groups {
        ops.push(LuOp::Pivot { worker: owner(k), pivot: group(r, mu, k), rest: rest(k) });
        // Forwards start at the next pivot's owner, whose request goes
        // ahead of its forward when it is another worker.
        for w in (1..n).map(|d| owners[(k + d) % n]).filter(|&w| waiting(k, w) > 0) {
            if k + 1 < groups && w == owner(k + 1) {
                ops.push(request(k + 1));
            }
            ops.push(LuOp::Forward { worker: w, pivot: group(r, mu, k), rest: rest(k), rows: waiting(k, w) });
        }
        // The step's L₂₁ come back behind the next pivot and its forwards;
        // a lone owner's, before its next request.
        if n == 1 {
            ops.extend(lowers(k));
            if k + 1 < groups {
                ops.push(request(k + 1));
            }
        } else if k > 0 {
            ops.extend(lowers(k - 1));
        }
    }
    ops
}

/// The streamed schedule over the workers with a chunk side (module docs).
fn streamed_schedule(r: usize, mu: usize, sides: &[usize]) -> Vec<LuOp> {
    let workers: Vec<WorkerId> = (0..sides.len()).filter(|&i| sides[i] > 0).map(WorkerId).collect();
    let mut ops = Vec::new();
    for (step, k0) in (0..r).step_by(mu).enumerate() {
        let pivot = k0..(k0 + mu).min(r);
        let rest = r - pivot.end;
        ops.push(LuOp::Panel { worker: WorkerId(0), pivot, rest });
        if rest > 0 {
            // Band `b` is the trailing rows `b·rest/bands ..`, cut into
            // pieces of worker `b`'s side; round `i` seats each worker's
            // `i`-th piece.
            let bands = workers.len().min(rest);
            let pieces: Vec<Vec<Chunk>> = (0..bands)
                .map(|b| {
                    let (i0, i1) = (b * rest / bands, (b + 1) * rest / bands);
                    let band = Chunk { i0, j0: 0, height: i1 - i0, width: rest };
                    Schedule::pieces(vec![(step, band)], &workers[b..=b], sides).into_iter().map(|(_, c)| c).collect()
                })
                .collect();
            let rounds = pieces.iter().map(Vec::len).max().unwrap_or(0);
            for i in 0..rounds {
                let (seated, chunks): (Vec<WorkerId>, Vec<(usize, Chunk)>) =
                    (0..bands).filter_map(|b| Some((workers[b], (step, *pieces[b].get(i)?)))).unzip();
                ops.extend(Schedule::rounds(&chunks, &seated, mu).ops.into_iter().map(LuOp::Chunk));
            }
        }
    }
    ops
}

/// The chunk side each worker of `platform` is dealt when an `r`-block
/// matrix is factored in `mu`-block panels: the side its memory `m_i`
/// admits (`µ_i² + 4µ_i ≤ m_i`), but no wider than the first trailing
/// grid, `max(r − mu, 1)`, since no chunk is — a wider side would only
/// reserve memory the chunks never use.
pub fn chunk_sides(platform: &Platform, r: usize, mu: usize) -> Vec<usize> {
    let largest = r.saturating_sub(mu).max(1);
    platform.workers().iter().map(|w| MemoryLayout::MaxReuseOverlapped.mu(w.m).min(largest)).collect()
}

/// The simulator's replay of [`lu_schedule`]`(r, mu, sides)` on
/// `platform`: the [`lower`]ed frames through the one-port engine, which
/// holds every worker to its memory `m_i` and makes each receive wait
/// for its worker to drain — the barrier before each pivot.
///
/// # Panics
/// If the matrix has a trailing update and no worker a chunk side.
pub fn replay(platform: &Platform, r: usize, mu: usize, sides: &[usize]) -> Result<SimReport, SimError> {
    let frames = lower(&lu_schedule(r, mu, sides));
    Simulator::new(platform.clone()).without_trace().run(&mut frames.into_iter())
}

/// The ops that redo, on the `live` workers (ascending), what the `undone`
/// ops of one phase of a streamed factorization in `mu`-wide panels lost.
/// A lost `Panel` runs as it was, on the lowest live worker — its operands
/// come from the master's matrix, untouched until a reply validates. A
/// lost chunk of step `s`'s trailing update is [`rebuild`]t. `None` when
/// no live worker can adopt them.
pub fn redispatch(
    undone: Vec<LuOp>,
    live: &[WorkerId],
    sides: &[usize],
    mu: usize,
    fresh: impl Fn(usize, usize) -> usize,
) -> Option<Vec<LuOp>> {
    let lowest = *live.first()?;
    if let Some(LuOp::Panel { pivot, rest, .. }) = undone.first() {
        return Some(vec![LuOp::Panel { worker: lowest, pivot: pivot.clone(), rest: *rest }]);
    }
    let chunks: Vec<PortOp> = undone.iter().filter_map(LuOp::chunk).copied().collect();
    let ops = rebuild(lost(&chunks).collect(), live, sides, mu, fresh)?;
    Some(ops.into_iter().map(LuOp::Chunk).collect())
}

/// The chunk exchanges that rebuild `lost` — each a chunk of step `s`'s
/// trailing grid with `s` — on the `live` workers with a chunk side, from
/// the master's images: `fresh(i, j)` is the step at whose start the
/// master's image of block `(i, j)` was current, and the blocks of one
/// `fresh = s₀` are shipped from that image and streamed every update of
/// steps `s₀..=s`, the factors those steps stored, in the order the rows'
/// worker met them; then they come back whole. The rebuilt chunks are
/// split to fit their adopters and seated as `Schedule::redispatch` seats
/// them, one whole exchange at a time. `None` when no live worker holds a
/// chunk.
pub fn rebuild(
    lost: Vec<(usize, Chunk)>,
    live: &[WorkerId],
    sides: &[usize],
    mu: usize,
    fresh: impl Fn(usize, usize) -> usize,
) -> Option<Vec<PortOp>> {
    let live = holding(live, sides);
    if live.is_empty() {
        return None;
    }
    // Step `s`'s grid starts at block `(s + 1)·µ`: only the last pivot is
    // narrower, and it has no trailing update.
    let at = |step: usize| (step + 1) * mu;
    let mut groups = Vec::new();
    for (step, chunk) in lost {
        // Each row's columns as runs `(first, width, fresh)` of one `fresh`;
        // the rows whose runs agree make one group per run.
        let cols: Vec<usize> = chunk.cols().collect();
        let runs = |i: usize| -> Vec<(usize, usize, usize)> {
            let from = |j: usize| fresh(at(step) + i, at(step) + j);
            cols.chunk_by(|&a, &b| from(a) == from(b)).map(|run| (run[0], run.len(), from(run[0]))).collect()
        };
        for rows in chunk.rows().collect::<Vec<_>>().chunk_by(|&a, &b| runs(a) == runs(b)) {
            for (j0, width, from) in runs(rows[0]) {
                groups.push(((from, step), Chunk { i0: rows[0], j0, height: rows.len(), width }));
            }
        }
    }
    let seats: Vec<(usize, Chunk)> = groups.iter().enumerate().map(|(g, &(_, chunk))| (g, chunk)).collect();
    let mut ops = Vec::new();
    for (n, (g, piece)) in Schedule::pieces(seats, &live, sides).into_iter().enumerate() {
        let (worker, ((from, step), _)) = (live[n % live.len()], groups[g]);
        ops.push(PortOp::SendC { job: step, worker, chunk: piece });
        for s in from..=step {
            // The same blocks in step `s`'s coordinates.
            let shift = at(step) - at(s);
            let chunk = Chunk { i0: piece.i0 + shift, j0: piece.j0 + shift, ..piece };
            ops.extend((0..mu).map(|k| PortOp::Step { job: s, worker, chunk, k }));
        }
        ops.push(PortOp::Collect { job: step, worker, chunk: piece });
    }
    Some(ops)
}

/// Block updates a worker's `rows` block rows spawn when they take the
/// step of a `p`-wide pivot with `rest` blocks after it: their share of
/// the vertical solve, `⌊p²/2⌋` a row, and of the core update, `p·rest` a
/// row. (With an odd `p` the half block a row's solve leaves over is
/// charged to the pivot.)
fn share(p: usize, rest: usize, rows: usize) -> u64 {
    (rows * (p * p / 2 + p * rest)) as u64
}

/// The one lowering of a factorization into simulator frames, one
/// [`Decision`] per frame the runtime sends — and, on the owner-computes
/// path, one of no blocks where a worker goes on with rows no frame
/// starts: the model's start of that work.
///
/// * A `Panel` is its frame out, spawning its step's pivot chain
///   (`p³ + p²·rest` block operations for a `p`-wide pivot), and its
///   reply; the panel exchange's transient blocks stay outside the memory
///   model.
/// * The chunk ops go through the product's own [`Lowering`], so each
///   worker's C chunk, B row and A block are charged against its memory
///   exactly as for a product.
/// * A `Deal` is a frame per row, each charged to the worker until it
///   comes back; the first to a worker also charges one step's pivot and
///   `U₁₂`, and a block in flight, to the end of the run.
/// * A `Request` answered at once is its frame, of no blocks, spawning
///   the pivot factor and the `U₁₂` solve (`p³ + p²·rest/2`); its `Pivot`
///   is the reply, then the start of the owner's own rows' share of the
///   step — `⌊p²/2⌋` a row of the vertical solve and `p·rest` of the core
///   update.
/// * A `Request` sent ahead spawns nothing. The `Forward` of the step
///   before, to that worker, spawns its pivot rows' share of that step and
///   the pivot's factor and solve; the `Pivot` is the reply, then the
///   start of the rest of the worker's share; and the worker's `Lower` of
///   that step is its `L₂₁` back, then the start of its own rows' share of
///   the requested pivot's step.
/// * Any other `Forward` spawns its rows' share, and a `Lower` is its
///   reply.
pub fn lower(ops: &[LuOp]) -> Vec<Decision> {
    let mut chunks = Lowering::new(ops.iter().filter_map(LuOp::chunk));
    // What a worker's first dealt row charges besides itself.
    let step = |op: &LuOp| match op {
        LuOp::Pivot { pivot, rest, .. } => pivot.len() * (pivot.len() + rest),
        _ => 0,
    };
    let fixed = ops.iter().map(step).max().unwrap_or(0) as i64 + 1;
    let workers = ops.iter().map(|op| op.worker().index() + 1).max().unwrap_or(0);
    let mut charged: Vec<WorkerId> = Vec::new();
    // Per worker: the block updates it starts once its pivot reply is
    // taken, once its L₂₁ reply is, and a request sent ahead — its pivot
    // rows, factor and own rows' share — until the forward that starts it.
    let (mut after_reply, mut after_lower) = (vec![0u64; workers], vec![0u64; workers]);
    let mut ahead: Vec<Option<(usize, u64, u64)>> = vec![None; workers];
    let mut frames = Vec::new();
    let own = |to: WorkerId, spawn_updates: u64, frames: &mut Vec<Decision>| {
        if spawn_updates > 0 {
            frames.push(Decision::Send { to, blocks: 0, spawn_updates, mem_delta: 0, label: "own rows".into() });
        }
    };
    for (n, op) in ops.iter().enumerate() {
        match op {
            LuOp::Panel { worker, pivot, rest } => {
                let p = pivot.len();
                let blocks = (p * (p + 2 * rest)) as u64;
                let spawn_updates = (p * p * (p + rest)) as u64;
                let (to, label) = (*worker, "Panel".into());
                frames.push(Decision::Send { to, blocks, spawn_updates, mem_delta: 0, label });
                frames.push(Decision::Recv { from: to, blocks, mem_delta: 0, label: "Panel back".into() });
            }
            LuOp::Chunk(op) => chunks.lower(op, &mut frames),
            LuOp::Deal { worker, rows, cols } => {
                for _ in rows.clone() {
                    let first = !charged.contains(worker);
                    if first {
                        charged.push(*worker);
                    }
                    let (blocks, mem_delta) = (cols.len() as u64, cols.len() as i64 + if first { fixed } else { 0 });
                    frames.push(Decision::Send { to: *worker, blocks, spawn_updates: 0, mem_delta, label: "LU row".into() });
                }
            }
            LuOp::Request { worker, pivot, rest, rows } => {
                let (p, w) = (pivot.len(), worker.index());
                let factor = (p * p * (p + rest) - rest * (p * p / 2)) as u64;
                let starts = ops[n + 1..].iter().find(|next| next.worker() == *worker);
                let sent_ahead = matches!(starts, Some(LuOp::Forward { pivot: before, .. }) if before.end == pivot.start);
                let spawn_updates = if sent_ahead {
                    ahead[w] = Some((p, factor, share(p, *rest, *rows)));
                    0
                } else {
                    after_reply[w] += share(p, *rest, *rows);
                    factor
                };
                frames.push(Decision::Send { to: *worker, blocks: 0, spawn_updates, mem_delta: 0, label: "pivot request".into() });
            }
            LuOp::Pivot { worker, pivot, rest } => {
                let blocks = (pivot.len() * (pivot.len() + rest)) as u64;
                frames.push(Decision::Recv { from: *worker, blocks, mem_delta: -(blocks as i64), label: "pivot back".into() });
                own(*worker, std::mem::take(&mut after_reply[worker.index()]), &mut frames);
            }
            LuOp::Forward { worker, pivot, rest, rows } => {
                let (p, w) = (pivot.len(), worker.index());
                let spawn_updates = match ahead[w].take() {
                    Some((pivot_rows, factor, own_rows)) => {
                        after_reply[w] += share(p, *rest, rows - pivot_rows);
                        after_lower[w] += own_rows;
                        share(p, *rest, pivot_rows) + factor
                    }
                    None => share(p, *rest, *rows),
                };
                let blocks = (p * (p + rest)) as u64;
                frames.push(Decision::Send { to: *worker, blocks, spawn_updates, mem_delta: 0, label: "pivot forward".into() });
            }
            LuOp::Lower { worker, pivot, rows } => {
                let blocks = (rows * pivot.len()) as u64;
                frames.push(Decision::Recv { from: *worker, blocks, mem_delta: -(blocks as i64), label: "L back".into() });
                own(*worker, std::mem::take(&mut after_lower[worker.index()]), &mut frames);
            }
        }
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{owned_comm, scheduled_comm, LuProblem};
    use mwp_blockmat::Partition;
    use proptest::prelude::*;

    /// Blocks and block operations of `ops`' frames, and how many frames.
    fn volume(ops: &[LuOp]) -> (u64, u64, usize) {
        let frames = lower(ops);
        let (mut blocks, mut work) = (0, 0);
        for frame in &frames {
            match *frame {
                Decision::Send { blocks: b, spawn_updates, .. } => (blocks, work) = (blocks + b, work + spawn_updates),
                Decision::Recv { blocks: b, .. } => blocks += b,
                _ => unreachable!("lowering only transfers"),
            }
        }
        (blocks, work, frames.len())
    }

    /// The steps of `ops`: each a `Panel` and the chunk ops after it.
    fn steps(ops: &[LuOp]) -> impl Iterator<Item = (&LuOp, Vec<PortOp>)> {
        ops.chunk_by(|_, next| next.chunk().is_some())
            .map(|step| (&step[0], step[1..].iter().filter_map(LuOp::chunk).copied().collect()))
    }

    proptest! {
        /// Each step is its `Panel` on worker 0, then the chunk exchanges of
        /// a product over the `rest × rest` trailing grid, `µ` deep, whose
        /// job is the step: every chunk within its worker's side, one chunk
        /// per worker at a time, the grid tiled exactly once — ragged last
        /// panels and uneven sides included.
        #[test]
        fn every_step_is_a_panel_then_the_trailing_product(
            r in 1usize..15, mu in 1usize..6, sides in (0usize..5, 0usize..5, 1usize..5), n in 1usize..4,
        ) {
            // At least one worker holds a chunk: the last one drawn.
            let sides = [sides.0, sides.1, sides.2][3 - n..].to_vec();
            let ops = streamed_schedule(r, mu, &sides);
            let mut steps = steps(&ops);
            for (step, k0) in (0..r).step_by(mu).enumerate() {
                let (panel, chunks) = steps.next().expect("one step per panel");
                let pivot = k0..(k0 + mu).min(r);
                let rest = r - pivot.end;
                prop_assert_eq!(panel, &LuOp::Panel { worker: WorkerId(0), pivot, rest });
                prop_assert_eq!(chunks.is_empty(), rest == 0);
                let mut resident = vec![None; sides.len()];
                let mut tiles = Vec::new();
                for op in &chunks {
                    let (job, worker, chunk) = op.target();
                    prop_assert_eq!(job, step);
                    let side = sides[worker.index()];
                    prop_assert!(chunk.height <= side && chunk.width <= side, "{:?} over side {}", chunk, side);
                    let seat = &mut resident[worker.index()];
                    match *op {
                        PortOp::SendC { .. } => { prop_assert!(seat.is_none()); *seat = Some((chunk, 0)); }
                        PortOp::Step { k, .. } => { prop_assert_eq!(*seat, Some((chunk, k))); *seat = Some((chunk, k + 1)); }
                        PortOp::Collect { .. } => { prop_assert_eq!(*seat, Some((chunk, mu))); *seat = None; tiles.push(chunk); }
                    }
                }
                prop_assert!(resident.iter().all(Option::is_none));
                if rest > 0 {
                    prop_assert!(mwp_core::chunks::covers_exactly(&Partition::from_blocks(rest, rest, mu, 1), &tiles));
                }
            }
            prop_assert!(steps.next().is_none());
        }

        /// The lowered frames carry the cost model's work exactly and the
        /// scheduled volume — which, with every band one chunk, is the
        /// model's less what sending the horizontal panel once per band
        /// rather than the vertical one per group saves: `rem² − P'·µ·rem`
        /// a step, a saving while the bands are at least µ rows deep.
        #[test]
        fn lowered_volume_is_the_models_less_the_shared_panel(steps in 1usize..8, mu in 1usize..6, enrolled in 1usize..5) {
            let problem = LuProblem::new(steps * mu, mu);
            let side = problem.r;
            let (blocks, work, _) = volume(&streamed_schedule(problem.r, mu, &vec![side; enrolled]));
            prop_assert_eq!(blocks as f64, scheduled_comm(problem, enrolled, side));
            prop_assert_eq!(work as f64, problem.total().comp);
            let saved: f64 = (1..=steps)
                .map(|k| problem.r - k * mu)
                .map(|rem| (rem * rem) as f64 - (enrolled.min(rem) * mu * rem) as f64)
                .sum();
            prop_assert_eq!(blocks as f64, problem.total().comm - saved);
        }

        /// Chunks cut to a smaller side re-ship A and B per chunk: the
        /// closed form still counts every block.
        #[test]
        fn the_closed_form_counts_split_bands(steps in 1usize..8, mu in 1usize..5, enrolled in 1usize..4, side in 1usize..6) {
            let problem = LuProblem::new(steps * mu, mu);
            let (blocks, work, _) = volume(&streamed_schedule(problem.r, mu, &vec![side; enrolled]));
            prop_assert_eq!(blocks as f64, scheduled_comm(problem, enrolled, side));
            prop_assert_eq!(work as f64, problem.total().comp);
        }

        /// Owner-computes deals every block row once, over the workers with
        /// a chunk side, `µ`-row group `g` to the `g mod P'`-th — the first
        /// pivot's owner its rows and the request before any other worker's
        /// rows. Each step is one pivot reply from the pivot rows' owner, a
        /// forward to every other worker whose rows wait on it and an `L₂₁`
        /// reply from every worker whose rows do — ragged last groups
        /// included. With two owners or more, the next pivot is requested
        /// ahead of the forward that starts its owner's step, and its reply
        /// and forwards come before the step's `L₂₁` replies. No reply is
        /// taken before the frames its worker needs to send it. Each dealt
        /// block comes back exactly once, and the frames carry the cost
        /// model's work and the closed form's blocks.
        #[test]
        fn each_owned_step_is_a_pivot_its_forwards_and_its_l21_replies(
            r in 1usize..15, mu in 1usize..6, sides in (0usize..3, 1usize..3, 0usize..3),
        ) {
            let sides = [sides.0, sides.1, sides.2];
            let owners: Vec<WorkerId> = (0..3).filter(|&i| sides[i] > 0).map(WorkerId).collect();
            let ops = owned_schedule(r, mu, &owners);
            let groups = r.div_ceil(mu);
            let owner = |g: usize| owners[g % owners.len()];
            let waiting = |k: usize, w: WorkerId| (k + 1..groups).filter(|&g| owner(g) == w).map(|g| group(r, mu, g).len()).sum::<usize>();
            let at = |want: &LuOp| ops.iter().position(|op| op == want);
            // The deal.
            let deals: Vec<(WorkerId, Range<usize>)> = ops.iter().filter_map(|op| match op {
                LuOp::Deal { worker, rows, cols } => { assert_eq!(cols, &(0..r)); Some((*worker, rows.clone())) }
                _ => None,
            }).collect();
            let mut dealt: Vec<(WorkerId, Range<usize>)> = (0..groups).map(|g| (owner(g), group(r, mu, g))).collect();
            dealt.sort_by_key(|(w, rows)| (*w != owner(0), rows.start));
            prop_assert_eq!(deals, dealt);
            let first = LuOp::Request { worker: owner(0), pivot: group(r, mu, 0), rest: r - group(r, mu, 0).end, rows: waiting(0, owner(0)) };
            let others = ops.iter().position(|op| matches!(op, LuOp::Deal { worker, .. } if *worker != owner(0))).unwrap_or(ops.len());
            prop_assert!(at(&first).is_some_and(|n| n < others), "the first request goes before the other rows");
            for k in 0..groups {
                let (pivot, rest) = (group(r, mu, k), r - group(r, mu, k).end);
                let o = owner(k);
                let request = LuOp::Request { worker: o, pivot: pivot.clone(), rest, rows: waiting(k, o) };
                let reply = at(&LuOp::Pivot { worker: o, pivot: pivot.clone(), rest });
                prop_assert!(reply.is_some() && at(&request) < reply, "step {}: the request, then the reply", k);
                prop_assert_eq!(ops.iter().filter(|op| op.is_pivot()).nth(k), Some(&LuOp::Pivot { worker: o, pivot: pivot.clone(), rest }));
                for &w in &owners {
                    let forward = at(&LuOp::Forward { worker: w, pivot: pivot.clone(), rest, rows: waiting(k, w) });
                    let lower = at(&LuOp::Lower { worker: w, pivot: pivot.clone(), rows: waiting(k, w) });
                    let count = |f: &dyn Fn(&LuOp) -> bool| ops.iter().filter(|op| f(op)).count();
                    prop_assert_eq!(count(&|op| matches!(op, LuOp::Forward { worker, pivot: p, .. } if *worker == w && *p == pivot)), usize::from(w != o && waiting(k, w) > 0));
                    prop_assert_eq!(count(&|op| matches!(op, LuOp::Lower { worker, pivot: p, .. } if *worker == w && *p == pivot)), usize::from(waiting(k, w) > 0));
                    // A reply is taken after what starts it: the step's
                    // forward, or the owner's own request.
                    prop_assert!(forward.is_none_or(|f| reply < Some(f)));
                    prop_assert!(lower.is_none_or(|l| forward.or(at(&request)) < Some(l)));
                    if k + 1 < groups && owners.len() > 1 {
                        // The next pivot's reply and forwards come first.
                        let next = at(&LuOp::Pivot { worker: owner(k + 1), pivot: group(r, mu, k + 1), rest: r - group(r, mu, k + 1).end });
                        prop_assert!(lower.is_none_or(|l| next < Some(l)), "step {}: L₂₁ of {} after the next pivot", k, w);
                    }
                }
                if k + 1 < groups && owners.len() > 1 {
                    // The next request rides ahead of its owner's forward.
                    let n = owner(k + 1);
                    let next = LuOp::Request { worker: n, pivot: group(r, mu, k + 1), rest: r - group(r, mu, k + 1).end, rows: waiting(k + 1, n) };
                    let forward = at(&LuOp::Forward { worker: n, pivot: pivot.clone(), rest, rows: waiting(k, n) });
                    prop_assert!(forward.is_some_and(|f| at(&next) == Some(f - 1)), "step {}", k);
                }
            }
            prop_assert_eq!(ops.len(), groups + groups + groups + (0..groups).map(|k| owners.iter().filter(|&&w| waiting(k, w) > 0).count() * 2 - usize::from(waiting(k, owner(k)) > 0)).sum::<usize>());
            // Every block dealt comes back once: what each worker is sent
            // as rows is what its pivot and L₂₁ replies return.
            let frames = lower(&ops);
            let mut held = vec![0i64; 3];
            for frame in &frames {
                match frame {
                    Decision::Send { to, blocks, label, .. } if label.starts_with("LU row") => held[to.index()] += *blocks as i64,
                    Decision::Recv { from, blocks, .. } => held[from.index()] -= *blocks as i64,
                    _ => {}
                }
            }
            prop_assert_eq!(held, vec![0; 3]);
            if r.is_multiple_of(mu) {
                let problem = LuProblem::new(r, mu);
                let (blocks, work, _) = volume(&ops);
                prop_assert_eq!(blocks as f64, owned_comm(problem, owners.len()));
                prop_assert_eq!(work as f64, problem.total().comp);
            }
        }
    }

    #[test]
    fn the_bench_shape_owner_computes_368_blocks_in_38_frames() {
        // 12 × 12 blocks, µ = 2, 2 workers of m = 100 000, each of side 10:
        // 6 rows of 12 blocks, one step's pivot and U₁₂ (24 blocks) and a
        // block in flight are 97 of the 140 a side of 10 reserves, so the
        // rows are owned. 144 blocks are dealt once; the pivot replies are
        // Σ(4 + 2·rest) = 84 blocks; the other worker holds trailing rows
        // at the first five steps, so it is forwarded 24 + 20 + 16 + 12 + 8
        // = 80; and the L₂₁ replies are 2·Σ rest = 60.
        let side = mwp_core::MemoryLayout::MaxReuseOverlapped.mu(100_000).min(10);
        let ops = lu_schedule(12, 2, &[side, side]);
        assert_eq!(owners(12, 2, &[side, side]), Some(vec![WorkerId(0), WorkerId(1)]));
        let (blocks, work, _) = volume(&ops);
        assert_eq!(blocks, 144 + 84 + 80 + 60);
        assert_eq!(blocks as f64, owned_comm(LuProblem::new(12, 2), 2));
        assert_eq!(work as f64, LuProblem::new(12, 2).total().comp);
        // Frames: 12 rows dealt; a request and a reply a step; 5 forwards;
        // an L₂₁ reply from each worker whose rows wait, 2 at each of the
        // first four steps and 1 at the fifth.
        let frames = lower(&ops).iter().filter(|frame| !matches!(frame, Decision::Send { blocks: 0, label, .. } if label.starts_with("own"))).count();
        assert_eq!(frames, 12 + 6 * 2 + 5 + (4 * 2 + 1));
        assert_eq!(frames, 38);
        // A side of 9 reserves 117 blocks, which still hold the 97; a side
        // of 8 reserves 96, which do not, and the rows stream.
        assert!(owners(12, 2, &[9, 9]).is_some() && owners(12, 2, &[8, 8]).is_none());
    }

    #[test]
    fn the_bench_shape_moves_908_blocks_in_122_frames() {
        // 12 × 12 blocks, µ = 2, 2 workers of m = 100 000, were the rows
        // to stream: 6 panel exchanges of 2 frames; per step with `rest`
        // trailing rows, one band per worker, each one chunk: `rest` C rows
        // out and back, 2 steps of a B row and an A column to each worker,
        // 2 collect requests (frames the lowering does not carry: 10 a
        // step, 50).
        let side = mwp_core::MemoryLayout::MaxReuseOverlapped.mu(100_000);
        let problem = LuProblem::new(12, 2);
        let (blocks, work, frames) = volume(&streamed_schedule(12, 2, &[side, side]));
        assert_eq!((blocks, work), (908, problem.total().comp as u64));
        assert_eq!(blocks as f64, scheduled_comm(problem, 2, side));
        assert_eq!(frames + 5 * 2, 12 + [10, 8, 6, 4, 2].map(|rest| 2 * rest + 10).iter().sum::<usize>());
        assert_eq!(frames + 5 * 2, 122);
        assert_eq!(problem.total().comm_closed_form_exact(), 1008.0);
    }

    #[test]
    fn each_op_lowers_to_its_steps_cost_terms() {
        let problem = LuProblem::new(12, 2);
        // Streamed: a Panel spawns the step's pivot chain, its chunks the
        // core update.
        let ops = streamed_schedule(12, 2, &[12, 12]);
        for (k, (panel, chunks)) in steps(&ops).enumerate() {
            let cost = problem.step_cost(k + 1);
            let (_, chain, _) = volume(std::slice::from_ref(panel));
            assert_eq!(chain as f64, cost.pivot.comp + cost.vertical.comp + cost.horizontal.comp);
            let chunks: Vec<LuOp> = chunks.into_iter().map(LuOp::Chunk).collect();
            let (_, core, _) = volume(&chunks);
            assert_eq!(core as f64, cost.core.comp);
        }
        // Owner-computes on two workers: the first request, answered at
        // once, spawns the pivot's factor and U₁₂ solve. Each later one is
        // sent ahead and spawns nothing; the forward it rides ahead of
        // spawns the pivot rows' share of the step before and that chain.
        // The step's ops together spawn the whole factorization.
        let ops = lu_schedule(12, 2, &[12, 12]);
        let frames = lower(&ops);
        let requests: Vec<&Decision> = frames.iter().filter(|f| matches!(f, Decision::Send { label, .. } if label == "pivot request")).collect();
        assert_eq!(requests.len(), 6);
        for (k, request) in requests.iter().enumerate() {
            let chain = problem.step_cost(k + 1).pivot.comp + problem.step_cost(k + 1).horizontal.comp;
            let Decision::Send { spawn_updates, to, .. } = request else { unreachable!("filtered") };
            assert_eq!(*spawn_updates as f64, if k == 0 { chain } else { 0.0 }, "request {k}");
            if k > 0 {
                let at = frames.iter().position(|f| std::ptr::eq(f, *request)).expect("a frame");
                let forward = frames[at + 1..].iter().find(|f| matches!(f, Decision::Send { to: w, label, .. } if w == to && label == "pivot forward"));
                let rows_share = share(2, 12 - 2 * k, 2);
                assert!(matches!(forward, Some(Decision::Send { spawn_updates, .. }) if *spawn_updates as f64 == chain + rows_share as f64), "request {k}");
            }
        }
        assert_eq!(volume(&ops).1 as f64, problem.total().comp);
        // One worker asks for each pivot once its rows took the step
        // before: every request spawns its chain.
        let ops = lu_schedule(12, 2, &[12]);
        let chains: Vec<u64> = lower(&ops).iter().filter_map(|f| match f {
            Decision::Send { label, spawn_updates, .. } if label == "pivot request" => Some(*spawn_updates),
            _ => None,
        }).collect();
        let want: Vec<u64> = (1..=6).map(|k| (problem.step_cost(k).pivot.comp + problem.step_cost(k).horizontal.comp) as u64).collect();
        assert_eq!(chains, want);
        assert_eq!(volume(&ops).1 as f64, problem.total().comp);
    }

    #[test]
    fn redispatch_replays_panels_and_whole_group_exchanges() {
        let sides = [4, 4, 2];
        let ops = lu_schedule(7, 2, &sides);
        let (panel, chunks) = steps(&ops).next().unwrap();
        let live = [WorkerId(0), WorkerId(2)];
        // A lost panel is the same exchange on the lowest live worker.
        let LuOp::Panel { pivot, rest, .. } = panel.clone() else { panic!("steps open with a panel") };
        let fresh = |_, _| 0;
        let again = redispatch(vec![panel.clone()], &live, &sides, 2, fresh).unwrap();
        assert_eq!(again, [LuOp::Panel { worker: WorkerId(0), pivot, rest }]);
        // Worker 1's ops of step 0 lose its chunks: each comes back as a
        // whole exchange, split to fit the side-2 worker it lands on.
        let lost: Vec<LuOp> =
            chunks.iter().filter(|op| op.target().1 == WorkerId(1)).map(|&op| LuOp::Chunk(op)).collect();
        let redo = redispatch(lost.clone(), &live, &sides, 2, fresh).unwrap();
        let collected = |ops: &[LuOp]| -> Vec<(usize, mwp_core::chunks::Chunk)> {
            ops.iter().filter_map(|op| match op.chunk() {
                Some(&PortOp::Collect { job, chunk, .. }) => Some((job, chunk)),
                _ => None,
            }).collect()
        };
        let (before, after) = (collected(&lost), collected(&redo));
        assert!(!before.is_empty() && after.len() >= before.len(), "{before:?} -> {after:?}");
        let blocks = |tiles: &[(usize, mwp_core::chunks::Chunk)]| tiles.iter().map(|(_, c)| c.blocks()).sum::<u64>();
        assert_eq!(blocks(&after), blocks(&before), "the same rows, re-cut");
        for op in redo.iter().filter_map(LuOp::chunk) {
            let (job, worker, chunk) = op.target();
            assert!(live.contains(&worker) && job == 0);
            assert!(chunk.height.max(chunk.width) <= sides[worker.index()], "{chunk:?} on {worker}");
        }
        // No live worker, or none with a side: nobody can adopt.
        assert_eq!(redispatch(lost.clone(), &[], &sides, 2, fresh), None);
        assert_eq!(redispatch(lost, &[WorkerId(1)], &[4, 0], 2, fresh), None);
    }

    #[test]
    fn a_lost_kept_chunk_is_rebuilt_from_the_rows_last_shipped() {
        // The bench shape streamed, worker 0 lost in step 1. Its chunk is
        // rows 4..8, and the master's image of rows 4, 5 and 6 is step 0's
        // — rows a worker kept since, as owned rows are — while row 7's is
        // step 1's. Worker 1 adopts both groups: rows 4..7 get step 0's
        // update, in step 0's grid, then step 1's; row 7 only step 1's.
        let sides = [10, 10];
        let ops = streamed_schedule(12, 2, &sides);
        let (_, step1) = steps(&ops).nth(1).expect("six steps");
        let (w0, w1) = (WorkerId(0), WorkerId(1));
        let lost: Vec<LuOp> = step1.iter().filter(|op| op.target().1 == w0).map(|&op| LuOp::Chunk(op)).collect();
        let fresh = |i, _| if [4, 5, 6].contains(&i) { 0 } else { 1 };
        let redo = redispatch(lost, &[w1], &sides, 2, fresh).unwrap();
        let exchange = |chunk: Chunk, from: usize| {
            let mut ops = vec![PortOp::SendC { job: 1, worker: w1, chunk }];
            for s in from..=1 {
                let shift = 2 * (1 - s);
                let seen = Chunk { i0: chunk.i0 + shift, j0: chunk.j0 + shift, ..chunk };
                ops.extend((0..2).map(|k| PortOp::Step { job: s, worker: w1, chunk: seen, k }));
            }
            ops.push(PortOp::Collect { job: 1, worker: w1, chunk });
            ops
        };
        let mut want = exchange(Chunk { i0: 3, j0: 0, height: 1, width: 8 }, 1);
        want.extend(exchange(Chunk { i0: 0, j0: 0, height: 3, width: 8 }, 0));
        assert_eq!(redo, want.into_iter().map(LuOp::Chunk).collect::<Vec<_>>());
    }

    #[test]
    fn memory_bounded_workers_stream_their_bands_in_chunks() {
        // §7.2's layout: m = µ² + 4µ = 12 gives chunks of side 2, so the
        // trailing 6 × 6 grid of an 8-block matrix — two bands of 3 rows —
        // streams in 2 × 2 and 1 × 2 chunks, six per band, and the replay
        // keeps every worker inside m.
        let side = mwp_core::MemoryLayout::MaxReuseOverlapped.mu(12);
        assert_eq!(side, 2);
        let ops = lu_schedule(8, 2, &[side, side]);
        let (_, first) = steps(&ops).next().unwrap();
        let shipped = first.iter().filter(|op| matches!(op, PortOp::SendC { .. })).count();
        assert_eq!(shipped, 2 * 6);
        let platform = mwp_platform::Platform::homogeneous(2, 1.0, 1.0, 12).unwrap();
        let replayed = mwp_sim::Simulator::new(platform).without_trace().run(&mut lower(&ops).into_iter());
        assert!(replayed.is_ok(), "{replayed:?}");
        let tight = mwp_platform::Platform::homogeneous(2, 1.0, 1.0, 6).unwrap();
        let over = mwp_sim::Simulator::new(tight).without_trace().run(&mut lower(&ops).into_iter());
        assert!(matches!(over, Err(mwp_sim::SimError::MemoryOverflow { .. })), "{over:?}");
    }
}

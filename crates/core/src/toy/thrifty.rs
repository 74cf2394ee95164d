//! The Thrifty heuristic (Section 3).
//!
//! Thrifty "spares" resources: it keeps the first worker fully busy, uses
//! spare communication slots for the second worker, and enrolls a new
//! worker only when doing so does not delay previously enrolled ones.

use super::model::{ToyInstance, ToySim};

/// Run Thrifty and return the finished simulation (query
/// [`ToySim::makespan`] etc. on it).
///
/// Concrete greedy reading of the paper's description, with the one-port
/// timeline made explicit:
///
/// * a worker is **urgent** when its compute queue would drain before the
///   master could serve someone else first and come back
///   (`ready < port_time + 2c`) — serving urgent workers first, in
///   enrollment order, is what keeps the first worker "never idle";
/// * when nobody is urgent the slot is *spare*: it goes to the enrolled
///   worker with the least queued work (`min ready`), building up the
///   second worker's file set without ever delaying the first;
/// * a new worker is enrolled only when a spare slot exists and every
///   already-enrolled worker has all the files it can use — by
///   construction this never delays previously enrolled workers.
pub fn thrifty(inst: &ToyInstance) -> ToySim {
    let mut sim = ToySim::new(*inst);
    let mut enrolled: Vec<usize> = Vec::new();

    loop {
        // Stop once every task is claimed (files beyond that are waste).
        if !sim.unclaimed_remain() {
            break;
        }

        // 1. Urgent enrolled workers, in enrollment order.
        let horizon = sim.port_time + 2.0 * inst.c;
        let urgent = enrolled
            .iter()
            .copied()
            .find(|&w| sim.workers[w].ready < horizon && sim.best_alternating_file(w).is_some());
        if let Some(w) = urgent {
            #[allow(clippy::expect_used, reason = "`urgent` is a worker with a best file, found just above")]
            let f = sim.best_alternating_file(w).expect("checked above");
            sim.send(w, f);
            continue;
        }

        // 2. Nobody urgent: the slot is spare. A new worker enrolled now
        //    cannot delay the enrolled ones (they all have reserve), and
        //    sharing the remaining tasks shortens the tail — enroll first.
        if enrolled.len() < inst.p {
            let w = enrolled.len();
            enrolled.push(w);
            if let Some(f) = sim.best_alternating_file(w) {
                sim.send(w, f);
                continue;
            }
        }

        // 3. Otherwise top up the least-loaded enrolled worker that still
        //    profits from a file (usually the most recently enrolled one,
        //    whose file set is still being built).
        let wanting = enrolled
            .iter()
            .copied()
            .filter(|&w| sim.best_alternating_file(w).is_some())
            .min_by(|&a, &b| {
                sim.workers[a]
                    .ready
                    .total_cmp(&sim.workers[b].ready)
            });
        if let Some(w) = wanting {
            #[allow(clippy::expect_used, reason = "`wanting` is a worker with a best file, found just above")]
            let f = sim.best_alternating_file(w).expect("checked above");
            sim.send(w, f);
            continue;
        }

        // Nothing useful left to send, yet tasks remain unclaimed: can
        // only happen when claims are pending on files already delivered —
        // impossible in this model, so this is a logic error.
        unreachable!("no useful file but {} tasks unclaimed", inst.tasks() - sim.tasks_done());
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_worker_completes_everything() {
        let inst = ToyInstance { r: 3, s: 3, p: 1, c: 4.0, w: 7.0 };
        let sim = thrifty(&inst);
        assert_eq!(sim.tasks_done(), 9);
        // Port streamed exactly the 6 distinct files (no duplicates make
        // sense with one worker).
        assert_eq!(sim.port_time, 6.0 * 4.0);
    }

    #[test]
    fn single_worker_close_to_alternating_optimum() {
        // Thrifty with p = 1 sends the same file multiset as alternating
        // greedy; its send order may differ slightly but the makespan must
        // be within one communication slot of the optimum.
        let inst = ToyInstance { r: 3, s: 3, p: 1, c: 4.0, w: 7.0 };
        let sim = thrifty(&inst);
        let greedy = super::super::alternating::alternating_greedy_makespan(&inst);
        assert!(
            sim.makespan() <= greedy + 2.0 * inst.c,
            "thrifty {} vs greedy {greedy}",
            sim.makespan()
        );
    }

    #[test]
    fn completes_all_tasks() {
        let inst = ToyInstance { r: 4, s: 3, p: 2, c: 2.0, w: 5.0 };
        let sim = thrifty(&inst);
        assert_eq!(sim.tasks_done(), 12);
        assert!(sim.makespan() > 0.0);
    }

    #[test]
    fn enrolls_second_worker_when_compute_bound() {
        // Heavy compute relative to comm: one worker cannot absorb the
        // stream, so Thrifty must spread.
        let inst = ToyInstance { r: 4, s: 4, p: 4, c: 1.0, w: 50.0 };
        let sim = thrifty(&inst);
        let active = sim.workers.iter().filter(|w| w.tasks > 0).count();
        assert!(active >= 2, "only {active} active workers");
    }

    #[test]
    fn first_worker_dominates_when_comm_bound() {
        // Communication dominates: worker 1 digests everything it is sent
        // almost instantly, so it stays urgent and claims the lion's
        // share.
        let inst = ToyInstance { r: 4, s: 4, p: 4, c: 10.0, w: 1.0 };
        let sim = thrifty(&inst);
        assert!(
            sim.workers[0].tasks > sim.workers.iter().skip(1).map(|w| w.tasks).sum::<usize>(),
            "tasks: {:?}",
            sim.workers.iter().map(|w| w.tasks).collect::<Vec<_>>()
        );
    }

    #[test]
    fn port_time_counts_every_send() {
        let inst = ToyInstance { r: 2, s: 2, p: 2, c: 3.0, w: 1.0 };
        let sim = thrifty(&inst);
        // Each send is 3 time units; port_time must be a multiple.
        let sends = sim.port_time / 3.0;
        assert_eq!(sends.fract(), 0.0);
        assert!(sends >= 4.0); // at least the 4 distinct files
    }
}

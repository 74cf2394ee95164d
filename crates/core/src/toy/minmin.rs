//! The Min-min heuristic (Section 3), after Maheswaran et al.
//!
//! At each step, every unclaimed task is considered: for each task we
//! compute its earliest completion time on every worker given all previous
//! decisions (first *min*), then commit the task with the smallest such
//! completion time (second *min*).

use super::model::{File, ToyInstance, ToySim};

/// Run Min-min and return the finished simulation.
pub fn min_min(inst: &ToyInstance) -> ToySim {
    let mut sim = ToySim::new(*inst);

    while sim.unclaimed_remain() {
        // Evaluate every (task, worker) pair.
        let mut best: Option<(f64, usize, usize, usize)> = None; // (completion, i, j, w)
        for i in 0..inst.r {
            for j in 0..inst.s {
                if sim.is_claimed(i, j) {
                    continue;
                }
                for w in 0..inst.p {
                    let completion = estimate_completion(&sim, inst, i, j, w);
                    let better = match best {
                        None => true,
                        // Strict tie-breaking: completion, then task id,
                        // then worker id — keeps the heuristic
                        // deterministic across runs.
                        Some((bc, bi, bj, bw)) => {
                            completion < bc - 1e-12
                                || (completion < bc + 1e-12 && (i, j, w) < (bi, bj, bw))
                        }
                    };
                    if better {
                        best = Some((completion, i, j, w));
                    }
                }
            }
        }
        #[allow(clippy::expect_used, reason = "the loop runs while a task is unclaimed, and every worker can claim it")]
        let (_, i, j, w) = best.expect("unclaimed task exists");
        commit(&mut sim, i, j, w);
    }
    sim
}

/// Earliest completion of task `(i, j)` on worker `w` given the current
/// state: missing files are sent back-to-back from the current port time,
/// computation starts when both files are present and the worker is free.
fn estimate_completion(sim: &ToySim, inst: &ToyInstance, i: usize, j: usize, w: usize) -> f64 {
    let mut port = sim.port_time;
    let mut arrival: f64 = 0.0; // both files already present
    if !sim.holds(w, File::A(i)) {
        port += inst.c;
        arrival = port;
    }
    if !sim.holds(w, File::B(j)) {
        port += inst.c;
        arrival = port;
    }
    let start = sim.workers[w].ready.max(arrival);
    start + inst.w
}

/// Send the missing files for `(i, j)` to `w`. The arrival of the second
/// file claims the task (and possibly other tasks enabled en route, which
/// Min-min then never reconsiders).
fn commit(sim: &mut ToySim, i: usize, j: usize, w: usize) {
    if !sim.holds(w, File::A(i)) {
        sim.send(w, File::A(i));
    }
    if !sim.holds(w, File::B(j)) {
        sim.send(w, File::B(j));
    }
    // If both files were already present the task was NOT auto-claimed by
    // a send; it must still be unclaimed and assigned explicitly. The
    // ToySim claims tasks on file arrival, so "both present but
    // unclaimed" can only happen when the claiming happened on behalf of
    // another task's files — in which case (i, j) was claimed then and we
    // would not have selected it. Assert the invariant.
    debug_assert!(
        sim.is_claimed(i, j),
        "task ({i},{j}) not claimed after sending its files"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completes_all_tasks() {
        let inst = ToyInstance { r: 3, s: 3, p: 2, c: 4.0, w: 7.0 };
        let sim = min_min(&inst);
        assert_eq!(sim.tasks_done(), 9);
    }

    #[test]
    fn single_task_schedule() {
        let inst = ToyInstance { r: 1, s: 1, p: 3, c: 2.0, w: 5.0 };
        let sim = min_min(&inst);
        // Two sends (4.0) + compute (5.0) = 9.0, on a single worker.
        assert_eq!(sim.makespan(), 9.0);
        assert_eq!(sim.workers.iter().filter(|w| w.tasks > 0).count(), 1);
    }

    #[test]
    fn reuses_files_already_on_worker() {
        // After computing (0,0) on w0, task (0,1) only needs B1 there:
        // min-min must prefer w0 (one send) over a fresh worker (two).
        let inst = ToyInstance { r: 1, s: 2, p: 2, c: 10.0, w: 1.0 };
        let sim = min_min(&inst);
        assert_eq!(sim.workers[0].tasks, 2);
        assert_eq!(sim.workers[1].tasks, 0);
        // Port: 3 sends × 10 = 30; makespan 31.
        assert_eq!(sim.makespan(), 31.0);
    }

    #[test]
    fn spreads_when_compute_dominates() {
        let inst = ToyInstance { r: 2, s: 2, p: 2, c: 1.0, w: 100.0 };
        let sim = min_min(&inst);
        let active = sim.workers.iter().filter(|w| w.tasks > 0).count();
        assert_eq!(active, 2, "both workers should be used");
    }

    #[test]
    fn deterministic() {
        let inst = ToyInstance { r: 4, s: 3, p: 3, c: 2.0, w: 3.0 };
        let a = min_min(&inst).makespan();
        let b = min_min(&inst).makespan();
        assert_eq!(a, b);
    }
}
